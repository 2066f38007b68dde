package router

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vxa/internal/breaker"
)

// fakeShard is a synthetic backend: a real HTTP server with a proper
// /readyz plus a swappable catch-all handler, so failover semantics
// can be exercised without paying for real decode work.
type fakeShard struct {
	ts      *httptest.Server
	id      string
	ready   atomic.Bool
	hits    atomic.Int64
	handler atomic.Value // http.HandlerFunc
}

func newFakeShard(t *testing.T, h http.HandlerFunc) *fakeShard {
	t.Helper()
	f := &fakeShard{}
	f.ready.Store(true)
	f.handler.Store(h)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if !f.ready.Load() {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		json.NewEncoder(w).Encode(map[string]bool{"ready": f.ready.Load()})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		f.hits.Add(1)
		f.handler.Load().(http.HandlerFunc)(w, r)
	})
	f.ts = httptest.NewServer(mux)
	f.id = strings.TrimPrefix(f.ts.URL, "http://")
	t.Cleanup(f.ts.Close)
	return f
}

func (f *fakeShard) set(h http.HandlerFunc) { f.handler.Store(h) }

// newTestRouter assembles a router over the shards with test-speed
// knobs; hedging off unless the test turns it on.
func newTestRouter(t *testing.T, mut func(*Config), shards ...*fakeShard) (*Router, *httptest.Server) {
	t.Helper()
	ids := make([]string, len(shards))
	for i, f := range shards {
		ids[i] = f.id
	}
	cfg := Config{
		Backends:     ids,
		RetryBackoff: 2 * time.Millisecond,
		HedgeDelay:   -1,
		Health: HealthConfig{
			Config:       breaker.Config{Threshold: 3, Backoff: 50 * time.Millisecond, MaxBackoff: 400 * time.Millisecond},
			PollInterval: time.Hour, // in-band signals only, unless a test opts in
		},
	}
	if mut != nil {
		mut(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt)
	t.Cleanup(ts.Close)
	return rt, ts
}

// bodyHomedOn searches for a request body whose routing key ranks the
// target backend first (bodies that don't parse as archives key on
// their own SHA-256, so any byte tweak reshuffles the ranking).
func bodyHomedOn(t *testing.T, rt *Router, target string) []byte {
	t.Helper()
	for i := 0; i < 100000; i++ {
		body := []byte(fmt.Sprintf("synthetic payload %d", i))
		sum := sha256.Sum256(body)
		if rt.ring.Home("archive\x00"+hex.EncodeToString(sum[:])) == target {
			return body
		}
	}
	t.Fatal("no body found homing on target backend")
	return nil
}

func postRouter(t *testing.T, url string, body []byte) (*http.Response, []byte, error) {
	t.Helper()
	resp, err := http.Post(url+"/v1/extract?entry=doc.txt", "application/octet-stream", strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	out, rerr := io.ReadAll(resp.Body)
	return resp, out, rerr
}

// The router stamps attribution and routes deterministically: the same
// body lands on the same (home) shard every time, and only there.
func TestProxyRoutesByKey(t *testing.T) {
	echo := func(tag string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, tag) }
	}
	a, b, c := newFakeShard(t, echo("a")), newFakeShard(t, echo("b")), newFakeShard(t, echo("c"))
	rt, ts := newTestRouter(t, nil, a, b, c)

	body := bodyHomedOn(t, rt, b.id)
	for i := 0; i < 3; i++ {
		resp, out, err := postRouter(t, ts.URL, body)
		if err != nil || resp.StatusCode != http.StatusOK || string(out) != "b" {
			t.Fatalf("round %d: status %d body %q err %v, want 200 %q", i, resp.StatusCode, out, err, "b")
		}
		if got := resp.Header.Get("X-Vxa-Shard"); got != b.id {
			t.Fatalf("X-Vxa-Shard = %q, want %q", got, b.id)
		}
	}
	if a.hits.Load() != 0 || c.hits.Load() != 0 || b.hits.Load() != 3 {
		t.Fatalf("hit spread a=%d b=%d c=%d, want 0/3/0", a.hits.Load(), b.hits.Load(), c.hits.Load())
	}
}

// A backend that dies before producing a single response byte is a
// clean failover: the client sees a 200 byte-identical to what the
// healthy shard serves directly, with no visible hiccup.
func TestPreFirstByteFailoverIsByteIdentical(t *testing.T) {
	payload := strings.Repeat("the decoded payload line\n", 512)
	dead := newFakeShard(t, func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler) // connection cut, zero bytes sent
	})
	alive := newFakeShard(t, func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, payload)
	})
	rt, ts := newTestRouter(t, nil, dead, alive)

	body := bodyHomedOn(t, rt, dead.id)
	resp, out, err := postRouter(t, ts.URL, body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d err %v, want clean 200", resp.StatusCode, err)
	}
	if string(out) != payload {
		t.Fatalf("failover response differs from the healthy shard's bytes (%d vs %d bytes)", len(out), len(payload))
	}
	if got := resp.Header.Get("X-Vxa-Shard"); got != alive.id {
		t.Fatalf("X-Vxa-Shard = %q, want the shard that actually answered (%q)", got, alive.id)
	}
	if dead.hits.Load() != 1 {
		t.Fatalf("dead shard hit %d times, want exactly 1 attempt", dead.hits.Load())
	}
	if m := rt.MetricsSnapshot(); m.Retries != 1 {
		t.Fatalf("retries = %d, want 1", m.Retries)
	}
}

// Once the first response byte has been forwarded the response is
// committed: a mid-stream backend death truncates the client's stream
// honestly — it must NEVER be spliced onto another shard's bytes.
func TestMidStreamKillTruncatesNeverSplices(t *testing.T) {
	chunk := strings.Repeat("x", 48<<10)
	dying := newFakeShard(t, func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, chunk)
		w.(http.Flusher).Flush()
		time.Sleep(30 * time.Millisecond) // let the router commit
		panic(http.ErrAbortHandler)
	})
	spare := newFakeShard(t, func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "SPLICED")
	})
	rt, ts := newTestRouter(t, nil, dying, spare)

	body := bodyHomedOn(t, rt, dying.id)
	resp, out, err := postRouter(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want the committed 200", resp.StatusCode)
	}
	if err == nil {
		t.Fatal("body read completed cleanly; want an honest truncation error")
	}
	if len(out) == 0 || strings.Contains(string(out), "SPLICED") {
		t.Fatalf("got %d bytes (spliced=%v); want a strict prefix of the dying shard's stream",
			len(out), strings.Contains(string(out), "SPLICED"))
	}
	if spare.hits.Load() != 0 {
		t.Fatal("router consulted another shard after committing — splice hazard")
	}
	if m := rt.MetricsSnapshot(); m.Truncations != 1 {
		t.Fatalf("truncations = %d, want 1", m.Truncations)
	}
}

// A shedding shard (503 + Retry-After) fails over transparently, and
// the Retry-After holds the whole backend down: the next request for a
// key homed there skips it without another wasted wire hit.
func TestShedFailsOverAndHoldsDown(t *testing.T) {
	shedding := newFakeShard(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
	})
	healthy := newFakeShard(t, func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	})
	rt, ts := newTestRouter(t, nil, shedding, healthy)

	body := bodyHomedOn(t, rt, shedding.id)
	for i := 0; i < 2; i++ {
		resp, out, err := postRouter(t, ts.URL, body)
		if err != nil || resp.StatusCode != http.StatusOK || string(out) != "ok" {
			t.Fatalf("round %d: status %d body %q err %v", i, resp.StatusCode, out, err)
		}
	}
	if n := shedding.hits.Load(); n != 1 {
		t.Fatalf("shedding shard hit %d times; the hold-down should have spared it the second", n)
	}
}

// With every shard declining, the shard's own backpressure passes
// through: the client sees the 503 with its Retry-After, and once the
// hold-downs cover the fleet the router sheds locally without touching
// the wire, deriving its own Retry-After hint.
func TestAllShedForwardsBackpressure(t *testing.T) {
	shed := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "2")
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	a, b := newFakeShard(t, shed), newFakeShard(t, shed)
	rt, ts := newTestRouter(t, nil, a, b)

	resp, _, _ := postRouter(t, ts.URL, []byte("whatever"))
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("status %d Retry-After %q, want forwarded 503 + Retry-After", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	wireHits := a.hits.Load() + b.hits.Load()
	if wireHits != 2 {
		t.Fatalf("%d wire hits, want one attempt per shard", wireHits)
	}

	resp, _, _ = postRouter(t, ts.URL, []byte("whatever else"))
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("held-down fleet: status %d Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if a.hits.Load()+b.hits.Load() != wireHits {
		t.Fatal("router touched held-down shards")
	}
	if m := rt.MetricsSnapshot(); m.NoBackend != 1 {
		t.Fatalf("no_backend = %d, want 1", m.NoBackend)
	}
}

// A 521 is decoder-scoped: the router retries the request elsewhere
// and counts a breaker failure, but does NOT hold the shard down —
// other decoders' keys keep flowing there.
func TestQuarantineRetriesWithoutBackendHoldDown(t *testing.T) {
	quarantined := newFakeShard(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "5")
		w.WriteHeader(521)
	})
	healthy := newFakeShard(t, func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	})
	rt, ts := newTestRouter(t, nil, quarantined, healthy)

	body := bodyHomedOn(t, rt, quarantined.id)
	for i := 0; i < 2; i++ {
		resp, out, err := postRouter(t, ts.URL, body)
		if err != nil || resp.StatusCode != http.StatusOK || string(out) != "ok" {
			t.Fatalf("round %d: status %d body %q err %v", i, resp.StatusCode, out, err)
		}
	}
	if n := quarantined.hits.Load(); n != 2 {
		t.Fatalf("quarantining shard hit %d times, want 2 — a 521 must not hold the backend down", n)
	}
	if !rt.health.usable(quarantined.id) {
		t.Fatal("backend unusable after two 521s; only the breaker threshold may take it out")
	}
}

// With every shard quarantining the decoder, the 521 itself passes
// through with its Retry-After — the client-visible taxonomy stays
// intact through the extra hop.
func TestAllQuarantinedForwards521(t *testing.T) {
	q := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(521)
	}
	a, b := newFakeShard(t, q), newFakeShard(t, q)
	_, ts := newTestRouter(t, nil, a, b)
	resp, _, _ := postRouter(t, ts.URL, []byte("poisoned"))
	if resp.StatusCode != 521 || resp.Header.Get("Retry-After") != "7" {
		t.Fatalf("status %d Retry-After %q, want 521/%q", resp.StatusCode, resp.Header.Get("Retry-After"), "7")
	}
}

// A straggling home shard gets hedged: after the hedge delay a second
// attempt races on the next-ranked shard and its answer wins while the
// straggler is canceled. The router canceled the straggler itself, so
// that says nothing about its health: three rounds — the breaker
// threshold — leave it closed with no failures counted.
func TestHedgeWinsOverStraggler(t *testing.T) {
	slow := newFakeShard(t, func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done(): // hedging cancels the loser
			return
		case <-time.After(2 * time.Second):
		}
		io.WriteString(w, "slow")
	})
	fast := newFakeShard(t, func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "fast")
	})
	rt, ts := newTestRouter(t, func(c *Config) { c.HedgeDelay = 20 * time.Millisecond }, slow, fast)

	body := bodyHomedOn(t, rt, slow.id)
	const rounds = 3
	for i := 0; i < rounds; i++ {
		start := time.Now()
		resp, out, err := postRouter(t, ts.URL, body)
		if err != nil || resp.StatusCode != http.StatusOK || string(out) != "fast" {
			t.Fatalf("round %d: status %d body %q err %v, want hedged 200 %q", i, resp.StatusCode, out, err, "fast")
		}
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Fatalf("round %d: hedged request took %v; the straggler was not raced", i, elapsed)
		}
	}
	if m := rt.MetricsSnapshot(); m.Hedges != rounds || m.HedgeWins != rounds {
		t.Fatalf("hedges=%d wins=%d, want %d/%d", m.Hedges, m.HedgeWins, rounds, rounds)
	}
	// The losers finish after the responses went out; watch long enough
	// for any report they would file to land.
	for deadline := time.Now().Add(200 * time.Millisecond); time.Now().Before(deadline); {
		bs := rt.health.stats(slow.id)
		bs.Failures = rt.failC.Get(slow.id)
		if bs.Breaker != "closed" || bs.Trips != 0 || bs.Failures != 0 {
			t.Fatalf("straggler breaker=%s trips=%d failures=%d, want closed/0/0: canceled hedge losers counted as backend failures",
				bs.Breaker, bs.Trips, bs.Failures)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Consecutive transport failures trip the backend's breaker; once the
// backend returns, the half-open probe admits one request and its
// success closes the breaker again. (The readyz poller is parked at an
// hour here, so everything moves through the in-band signals.)
func TestBreakerTripsAndRecovers(t *testing.T) {
	// Reserve an address, then leave it dark.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	cfg := Config{
		Backends:     []string{addr},
		RetryBackoff: time.Millisecond,
		HedgeDelay:   -1,
		Health: HealthConfig{
			Config:       breaker.Config{Threshold: 3, Backoff: 30 * time.Millisecond, MaxBackoff: time.Second},
			PollInterval: time.Hour,
		},
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ts := httptest.NewServer(rt)
	defer ts.Close()

	for i := 0; i < 3; i++ {
		resp, _, _ := postRouter(t, ts.URL, []byte("x"))
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("dark backend round %d: status %d, want 503", i, resp.StatusCode)
		}
	}
	if rt.health.usable(addr) {
		t.Fatal("breaker still closed after threshold consecutive dial failures")
	}

	// The backend comes back on the same address.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "back")
	})}
	go hs.Serve(ln2)
	defer hs.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, out, err := postRouter(t, ts.URL, []byte("x"))
		if err == nil && resp.StatusCode == http.StatusOK && string(out) == "back" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never recovered: status %d err %v", resp.StatusCode, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	m := rt.MetricsSnapshot()
	if len(m.Backends) != 1 || m.Backends[0].Trips == 0 || m.Backends[0].ProbeSuccesses == 0 {
		t.Fatalf("breaker accounting %+v, want trips and a successful probe", m.Backends)
	}
}

// The readyz poller takes a draining shard out of rotation without any
// request having to fail first.
func TestPollerRemovesDrainingShard(t *testing.T) {
	a := newFakeShard(t, func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "a") })
	b := newFakeShard(t, func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "b") })
	rt, ts := newTestRouter(t, func(c *Config) { c.Health.PollInterval = 15 * time.Millisecond }, a, b)

	body := bodyHomedOn(t, rt, a.id)
	a.ready.Store(false)
	deadline := time.Now().Add(3 * time.Second)
	for rt.health.usable(a.id) {
		if time.Now().After(deadline) {
			t.Fatal("poller never noticed the draining shard")
		}
		time.Sleep(5 * time.Millisecond)
	}
	before := a.hits.Load()
	resp, out, err := postRouter(t, ts.URL, body)
	if err != nil || resp.StatusCode != http.StatusOK || string(out) != "b" {
		t.Fatalf("status %d body %q err %v, want failover to b", resp.StatusCode, out, err)
	}
	if a.hits.Load() != before {
		t.Fatal("draining shard still receives traffic")
	}
}

// The router's own control surface: healthz, readyz with drain, and
// both metrics formats.
func TestRouterControlSurface(t *testing.T) {
	a := newFakeShard(t, func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "a") })
	rt, ts := newTestRouter(t, nil, a)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: %d %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	rt.StartDrain()
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("draining readyz: %d Retry-After %q %v", resp.StatusCode, resp.Header.Get("Retry-After"), err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d %v", resp.StatusCode, err)
	}
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("metrics json: %v", err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("prom metrics: %d %v", resp.StatusCode, err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"vxrouter_backend_ready", "vxrouter_truncations_total"} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("prometheus exposition missing %s:\n%s", want, text)
		}
	}
}
