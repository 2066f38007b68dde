package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vxa/internal/breaker"
	"vxa/internal/fault"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// arm arms the fault registry for the test body and guarantees disarm
// on exit, whatever the test does in between.
func arm(t *testing.T, spec string) {
	t.Helper()
	if err := fault.ArmFromSpec(spec); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Disarm)
}

// ---------- decoder quarantine over HTTP ----------

// TestQuarantineFailFastAndRecovery is the acceptance check for the
// circuit breaker end to end: a deterministically-trapping decoder is
// quarantined after Threshold failures, subsequent requests fail fast
// with 521 + Retry-After without consuming an admission slot or VM
// lease, readiness degrades, and once the decoder behaves again the
// half-open probe closes the breaker and traffic flows.
func TestQuarantineFailFastAndRecovery(t *testing.T) {
	const threshold = 3
	backoff := 400 * time.Millisecond
	s := New(Config{
		MemSize: 16 << 20,
		Health:  breaker.Config{Threshold: threshold, Backoff: backoff, MaxBackoff: 2 * time.Second},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	raw := testText(1 << 12)
	enc := encodeDeflate(t, raw)

	// Every guest syscall faults: the decoder traps deterministically on
	// its very first read, which is exactly the "hostile decoder"
	// failure the breaker exists to contain.
	arm(t, "rate=1,seed=1,points=syscall")
	for i := 0; i < threshold; i++ {
		resp, body := post(t, ts.URL+"/v1/decode?codec=deflate", enc)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("trap %d: status %d, want 422: %s", i, resp.StatusCode, body)
		}
	}
	fault.Disarm() // the decoder is "fixed"; only the breaker remembers

	// The breaker is now open: requests fail fast pre-admission.
	admBefore := s.Admission().Stats()
	missBefore := s.Cache().Stats().Misses
	start := time.Now()
	resp, body := post(t, ts.URL+"/v1/decode?codec=deflate", enc)
	elapsed := time.Since(start)
	if resp.StatusCode != StatusDecoderQuarantined {
		t.Fatalf("quarantined: status %d, want %d: %s", resp.StatusCode, StatusDecoderQuarantined, body)
	}
	if !strings.Contains(string(body), "quarantined") {
		t.Fatalf("quarantined body does not say so: %s", body)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	if elapsed > 100*time.Millisecond {
		t.Fatalf("fail-fast took %v, expected well under the decode cost", elapsed)
	}
	admAfter := s.Admission().Stats()
	if admAfter.Admitted != admBefore.Admitted {
		t.Fatalf("fail-fast consumed an admission slot: %+v -> %+v", admBefore, admAfter)
	}
	if got := s.Cache().Stats().Misses; got != missBefore {
		t.Fatalf("fail-fast built a snapshot: misses %d -> %d", missBefore, got)
	}

	h := s.Cache().Health()
	if h.Trips == 0 || h.Open != 1 || h.Failures.Traps < threshold {
		t.Fatalf("health after trip = %+v", h)
	}
	if q := s.Cache().Stats().Quarantined; q == 0 {
		t.Fatalf("quarantine evicted no snapshot lines")
	}
	if m := s.MetricsSnapshot(); m.ErrorKinds["decoder quarantined"] == 0 {
		t.Fatalf("error kinds missing quarantine: %v", m.ErrorKinds)
	}
	if ready, reasons := s.Readiness(); ready || len(reasons) == 0 {
		t.Fatalf("readiness with an open breaker = %v %v", ready, reasons)
	}

	// Past the backoff the next request is the half-open probe; the
	// decoder behaves now, so it closes the breaker and serves.
	time.Sleep(backoff + 100*time.Millisecond)
	resp, body = post(t, ts.URL+"/v1/decode?codec=deflate", enc)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, raw) {
		t.Fatalf("probe: status %d, %d bytes", resp.StatusCode, len(body))
	}
	h = s.Cache().Health()
	if h.Open != 0 || h.ProbeSuccesses == 0 {
		t.Fatalf("health after probe = %+v", h)
	}
	if ready, reasons := s.Readiness(); !ready {
		t.Fatalf("not ready after recovery: %v", reasons)
	}
	// And ordinary traffic flows again.
	if resp, body := post(t, ts.URL+"/v1/decode?codec=deflate", enc); resp.StatusCode != http.StatusOK || !bytes.Equal(body, raw) {
		t.Fatalf("post-recovery: status %d, %d bytes", resp.StatusCode, len(body))
	}
}

// ---------- drain and readiness ----------

// TestDrainLifecycle: StartDrain flips readiness (not liveness), decode
// work sheds with 503 + Retry-After, and Close empties the cache.
func TestDrainLifecycle(t *testing.T) {
	s := New(Config{MemSize: 16 << 20})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	raw := testText(1 << 10)
	enc := encodeDeflate(t, raw)
	if resp, body := post(t, ts.URL+"/v1/decode?codec=deflate", enc); resp.StatusCode != http.StatusOK || !bytes.Equal(body, raw) {
		t.Fatalf("pre-drain decode: status %d", resp.StatusCode)
	}

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, body
	}
	resp, body := get("/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain: %d %s", resp.StatusCode, body)
	}

	s.StartDrain()

	// Liveness is untouched: the process is healthy, just leaving.
	if resp, _ := get("/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining: %d", resp.StatusCode)
	}
	resp, body = get("/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining readyz has no Retry-After")
	}
	var rz struct {
		Ready   bool     `json:"ready"`
		Reasons []string `json:"reasons"`
	}
	if err := json.Unmarshal(body, &rz); err != nil || rz.Ready || len(rz.Reasons) == 0 || rz.Reasons[0] != "draining" {
		t.Fatalf("readyz body = %s (err %v)", body, err)
	}

	// New decode work sheds with 503 + Retry-After on every endpoint.
	arc := buildArchive(t, map[string][]byte{"doc.txt": raw})
	for _, req := range []struct {
		path    string
		payload []byte
	}{
		{"/v1/decode?codec=deflate", enc},
		{"/v1/extract?entry=doc.txt", arc},
		{"/v1/verify", arc},
	} {
		resp, body := post(t, ts.URL+req.path, req.payload)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s while draining: %d %s", req.path, resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s while draining: no Retry-After", req.path)
		}
	}

	// Close drops the cache's idle VMs (snapshots stay resident — they
	// are cheap and Close must stay useful mid-flight) and leaves the
	// server in its terminal draining state.
	s.Close()
	if n := s.Cache().Outstanding(); n != 0 {
		t.Fatalf("%d leases outstanding after Close", n)
	}
	if m := s.MetricsSnapshot(); !m.Draining || m.Ready {
		t.Fatalf("metrics after Close: draining=%v ready=%v", m.Draining, m.Ready)
	}
}

// TestReadinessShedRate: a window in which most admissions shed flips
// readiness; a clean window restores it.
func TestReadinessShedRate(t *testing.T) {
	s := New(Config{
		MemSize:       16 << 20,
		MaxInFlight:   1,
		MaxQueue:      1,
		ReadyShedRate: 0.2,
		ReadyWindow:   10 * time.Millisecond,
	})
	defer s.Close()
	if ready, reasons := s.Readiness(); !ready { // primes the window
		t.Fatalf("fresh server not ready: %v", reasons)
	}

	// One admitted, one expired, one shed: shed rate 2/3 over the window.
	a := s.Admission()
	release, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		_, err := a.Acquire(ctx)
		queued <- err
	}()
	waitFor(t, time.Second, "waiter to queue", func() bool { return a.QueueDepth() == 1 })
	if _, err := a.Acquire(context.Background()); err != ErrOverloaded {
		t.Fatalf("overflow acquire: %v", err)
	}
	if err := <-queued; err != ErrExpired {
		t.Fatalf("queued acquire: %v", err)
	}
	release()

	time.Sleep(15 * time.Millisecond) // let the window rotate
	ready, reasons := s.Readiness()
	if ready {
		t.Fatalf("ready despite a 2/3 shed window (stats %+v)", a.Stats())
	}
	found := false
	for _, r := range reasons {
		if strings.Contains(r, "shed rate") {
			found = true
		}
	}
	if !found {
		t.Fatalf("reasons = %v, want a shed-rate entry", reasons)
	}

	// A quiet window (no sheds, no admissions) decays the rate to zero.
	time.Sleep(15 * time.Millisecond)
	waitFor(t, time.Second, "readiness to recover", func() bool {
		ready, _ := s.Readiness()
		if !ready {
			time.Sleep(15 * time.Millisecond)
		}
		return ready
	})
}

// TestColdTierShedsFirst pins graceful degradation's first tier: once
// the queue passes the cold watermark, snapshot-miss (cold) requests
// shed with ErrColdShed while warm requests still queue.
func TestColdTierShedsFirst(t *testing.T) {
	a := NewAdmission(1, 4) // cold watermark = 2
	release, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	// Two warm waiters put the queue at the watermark.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			go func() { <-stop; cancel() }()
			a.Acquire(ctx)
		}()
	}
	waitFor(t, time.Second, "warm waiters to queue", func() bool { return a.QueueDepth() == 2 })

	if _, err := a.AcquireTier(context.Background(), true); err != ErrColdShed {
		t.Fatalf("cold acquire at the watermark: err = %v, want ErrColdShed", err)
	}
	if StatusFor(ErrColdShed) != http.StatusServiceUnavailable {
		t.Fatalf("ErrColdShed status = %d, want 503", StatusFor(ErrColdShed))
	}
	// A warm request still joins the queue (depth 3 < 4).
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := a.AcquireTier(ctx, false); err != ErrExpired {
		t.Fatalf("warm acquire past the watermark: err = %v, want ErrExpired (queued)", err)
	}
	close(stop)
	wg.Wait()
	if st := a.Stats(); st.ShedCold != 1 {
		t.Fatalf("stats = %+v, want exactly one cold shed", st)
	}
}

// ---------- lease-wait cancellation accounting ----------

// TestLeaseWaitCancelStatus499 pins the accounting contract for a
// client that gives up while queued for a slot: the wait lands in the
// queue span stage and the request files under the 499 cell as a
// cancellation, not under 504/expired semantics.
func TestLeaseWaitCancelStatus499(t *testing.T) {
	s := New(Config{MemSize: 16 << 20, MaxInFlight: 1, MaxQueue: 4, QueueTimeout: time.Minute})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Hold the only slot so the request under test must queue.
	release, err := s.Admission().Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	enc := encodeDeflate(t, testText(1<<10))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/decode?codec=deflate", bytes.NewReader(enc))
		if err != nil {
			done <- err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("request succeeded with status %d despite cancel", resp.StatusCode)
		}
		done <- err
	}()
	waitFor(t, 2*time.Second, "request to queue", func() bool { return s.Admission().QueueDepth() >= 1 })
	time.Sleep(30 * time.Millisecond) // accumulate measurable queue-stage time
	cancel()
	if err := <-done; err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("client error = %v, want context canceled", err)
	}

	// The handler finishes asynchronously after the client goes away.
	waitFor(t, 2*time.Second, "499 to be recorded", func() bool {
		return s.MetricsSnapshot().StatusClasses["499"] >= 1
	})
	m := s.MetricsSnapshot()
	if m.ErrorKinds["canceled"] == 0 {
		t.Fatalf("error kinds = %v, want a canceled count", m.ErrorKinds)
	}
	q, ok := m.Stages["queue"]
	if !ok || q.Count == 0 {
		t.Fatalf("queue stage not populated: %+v", m.Stages)
	}
	if q.MaxNS < (20 * time.Millisecond).Nanoseconds() {
		t.Fatalf("queue stage max %dns does not cover the %v wait", q.MaxNS, 30*time.Millisecond)
	}
}

// ---------- wall-clock watchdog over HTTP ----------

// TestWatchdogKillsSlowDecode: with a tiny stream budget a large decode
// cannot finish in time; the watchdog kills the guest at a block
// boundary and the kill is visible in the breaker's failure accounting.
// Depending on whether the decoder produced output before the kill the
// client sees either a clean 422 or a truncated stream — both are
// acceptable containment; a completed 200 is not.
func TestWatchdogKillsSlowDecode(t *testing.T) {
	s := New(Config{
		MemSize:       16 << 20,
		StreamTimeout: 200 * time.Microsecond,
		Health:        breaker.Config{Threshold: 100}, // accounting only
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	enc := encodeDeflate(t, testText(4<<20))
	resp, err := http.Post(ts.URL+"/v1/decode?codec=deflate", "application/octet-stream", bytes.NewReader(enc))
	if err == nil {
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK && rerr == nil && len(body) == 4<<20 {
			t.Fatal("4 MiB decode completed inside a 200µs wall budget")
		}
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("watchdog kill surfaced as %d, want 422 or a truncated stream", resp.StatusCode)
		}
	}
	waitFor(t, 2*time.Second, "watchdog kill to be counted", func() bool {
		return s.Cache().Health().Failures.Watchdog >= 1
	})
	// The kill returned the VM pristine: nothing leaked out of the pool.
	waitFor(t, 2*time.Second, "leases to settle", func() bool { return s.Cache().Outstanding() == 0 })
	if m := s.MetricsSnapshot(); m.ErrorKinds["watchdog deadline exceeded"] == 0 && m.TruncatedStreams == 0 {
		t.Fatalf("kill invisible in metrics: kinds=%v truncated=%d", m.ErrorKinds, m.TruncatedStreams)
	}
}

// ---------- chaos soak ----------

// chaosServer builds the soak server: breaker tuned so the targeted
// phases control exactly when it trips, admission sized explicitly so
// the soak exercises the decode paths rather than the shed path on
// small CI machines (the default in-flight bound is GOMAXPROCS, which
// can be 1).
func chaosServer() *Server {
	return New(Config{
		MemSize:     16 << 20,
		MaxInFlight: 4,
		MaxQueue:    64,
		Health:      breaker.Config{Threshold: 4, Backoff: 300 * time.Millisecond, MaxBackoff: 2 * time.Second},
	})
}

// soakTotal picks the endurance request count: enough traffic for every
// point to fire many times at a 5% rate, scaled down for -short, and
// overridable (VXA_SOAK_TOTAL) for long soaks on real hardware.
func soakTotal(t *testing.T) int {
	if v := os.Getenv("VXA_SOAK_TOTAL"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("bad VXA_SOAK_TOTAL %q", v)
		}
		return n
	}
	if testing.Short() {
		return 800
	}
	return 2500
}

// TestChaosSoak is the fault-injection acceptance test. Structure
// matters: at a low mixed rate a consecutive-failure breaker can never
// trip (the odds of Threshold injected failures in a row are
// negligible), so the soak runs targeted rate=1 single-point phases
// first — pinning each injection point's error-kind/status mapping and
// the breaker's open → probe → closed transitions — then a mixed ~5%
// all-points endurance phase that checks the global invariants: only
// sanctioned statuses escape, 200 bodies are byte-exact, and when the
// dust settles nothing leaked (no outstanding lease, no admission
// residue) and the server serves clean traffic again.
func TestChaosSoak(t *testing.T) {
	s := chaosServer()
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	raw := testText(4 << 10)
	enc := encodeDeflate(t, raw)
	arc := buildArchive(t, map[string][]byte{"doc.txt": raw})
	decodeURL := ts.URL + "/v1/decode?codec=deflate"
	extractURL := ts.URL + "/v1/extract?entry=doc.txt"

	// settle asserts the no-residue invariant and that a disarmed
	// request serves clean — the self-healing check between phases. It
	// also resets the breaker's consecutive-failure record via the OK
	// report, so failure counts never bleed across phases.
	settle := func(phase string) {
		t.Helper()
		fault.Disarm()
		waitFor(t, 2*time.Second, phase+": leases to settle", func() bool { return s.Cache().Outstanding() == 0 })
		resp, body := post(t, decodeURL, enc)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, raw) {
			t.Fatalf("%s: clean decode after disarm: status %d, %d bytes", phase, resp.StatusCode, len(body))
		}
		resp, body = post(t, extractURL, arc)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, raw) {
			t.Fatalf("%s: clean extract after disarm: status %d, %d bytes", phase, resp.StatusCode, len(body))
		}
	}
	// injected asserts the armed point actually fired.
	injected := func(point string) uint64 {
		for _, p := range fault.Stats().Points {
			if p.Point == point {
				return p.Injected
			}
		}
		return 0
	}

	settle("warmup")

	// --- Targeted phases: every point, rate=1, pinned status. ---
	// Counts stay under the breaker threshold (build failures count
	// against the decoder; injected read/write/lease faults do not).
	targeted := []struct {
		point  string
		url    string
		body   []byte
		status int
		kind   string
	}{
		// Archive payload reads fail: host I/O, the client did nothing wrong.
		{"read", extractURL, arc, http.StatusInternalServerError, "host I/O failure"},
		// Snapshot builds fail: host I/O; the failed entry is dropped so
		// the next attempt rebuilds. Targets a codec the warmup has not
		// built — injection only fires on a cache miss.
		{"snapshot", ts.URL + "/v1/decode?codec=bwt", enc, http.StatusInternalServerError, "host I/O failure"},
		// Lease checkouts fail: the service is momentarily unavailable.
		{"lease", decodeURL, enc, http.StatusServiceUnavailable, "service unavailable"},
		// Response writes fail: indistinguishable from a vanished client.
		{"write", decodeURL, enc, StatusClientClosedRequest, "canceled"},
	}
	for _, ph := range targeted {
		arm(t, "rate=1,seed=1,points="+ph.point)
		for i := 0; i < 3; i++ {
			resp, body := post(t, ts.URL+ph.url[len(ts.URL):], ph.body)
			if resp.StatusCode != ph.status {
				t.Fatalf("phase %s request %d: status %d, want %d: %s", ph.point, i, resp.StatusCode, ph.status, body)
			}
		}
		if injected(ph.point) == 0 {
			t.Fatalf("phase %s: no faults injected: %+v", ph.point, fault.Stats())
		}
		if m := s.MetricsSnapshot(); m.ErrorKinds[ph.kind] == 0 {
			t.Fatalf("phase %s: error kinds missing %q: %v", ph.point, ph.kind, m.ErrorKinds)
		}
		settle(ph.point)
	}

	// --- Syscall phase doubles as the breaker transition check. ---
	arm(t, "rate=1,seed=1,points=syscall")
	for i := 0; i < 4; i++ { // Threshold consecutive traps
		resp, body := post(t, decodeURL, enc)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("syscall trap %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	if injected("syscall") == 0 {
		t.Fatal("syscall phase: no faults injected")
	}
	fault.Disarm()
	resp, body := post(t, decodeURL, enc)
	if resp.StatusCode != StatusDecoderQuarantined {
		t.Fatalf("post-trip decode: status %d, want %d: %s", resp.StatusCode, StatusDecoderQuarantined, body)
	}
	if h := s.Cache().Health(); h.Trips == 0 || h.Open != 1 {
		t.Fatalf("breaker did not trip: %+v", h)
	}
	time.Sleep(400 * time.Millisecond) // past the probe backoff
	if resp, body := post(t, decodeURL, enc); resp.StatusCode != http.StatusOK || !bytes.Equal(body, raw) {
		t.Fatalf("probe decode: status %d, %d bytes", resp.StatusCode, len(body))
	}
	if h := s.Cache().Health(); h.Open != 0 || h.ProbeSuccesses == 0 {
		t.Fatalf("breaker did not recover: %+v", h)
	}
	settle("syscall")

	// --- Mixed endurance phase: ~5% on every point, full status audit. ---
	total := soakTotal(t)
	arm(t, "rate=0.05,seed=7,points=all")
	allowed := map[int]bool{
		http.StatusOK:                  true,
		http.StatusUnprocessableEntity: true, // injected syscall traps
		StatusClientClosedRequest:      true, // injected response-write faults
		http.StatusInternalServerError: true, // injected read / snapshot-build faults
		http.StatusServiceUnavailable:  true, // injected lease faults, shed
		http.StatusGatewayTimeout:      true, // queue expiry under the churn
		StatusDecoderQuarantined:       true, // an unlucky consecutive run
	}
	var connErr, truncated, served atomic.Uint64
	counts := make([]uint64, 600)
	var countMu sync.Mutex
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < total; i += workers {
				url, payload, want := decodeURL, enc, raw
				if i%3 == 1 {
					url, payload, want = extractURL, arc, raw
				}
				resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(payload))
				if err != nil {
					connErr.Add(1) // connection cut by an aborted handler
					continue
				}
				body, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if !allowed[resp.StatusCode] {
					t.Errorf("request %d: unsanctioned status %d: %s", i, resp.StatusCode, body)
					continue
				}
				countMu.Lock()
				counts[resp.StatusCode]++
				countMu.Unlock()
				if resp.StatusCode != http.StatusOK {
					continue
				}
				if rerr != nil {
					truncated.Add(1) // stream cut after the 200
					continue
				}
				if !bytes.Equal(body, want) {
					t.Errorf("request %d: 200 with corrupt body (%d bytes, want %d)", i, len(body), len(want))
					continue
				}
				served.Add(1)
			}
		}(w)
	}
	wg.Wait()
	st := fault.Stats()
	t.Logf("endurance: %d served clean, %d truncated after 200, %d connections cut, statuses: 200=%d 422=%d 499=%d 500=%d 503=%d 504=%d 521=%d; faults: %+v",
		served.Load(), truncated.Load(), connErr.Load(), counts[200], counts[422], counts[499], counts[500], counts[503], counts[504], counts[521], st.Points)
	if served.Load() == 0 {
		t.Fatal("endurance phase served nothing cleanly")
	}
	var sum uint64
	for _, c := range counts {
		sum += c
	}
	if sum+connErr.Load() != uint64(total) {
		t.Fatalf("request accounting does not add up: %d responses + %d cut != %d", sum, connErr.Load(), total)
	}

	// --- Aftermath: zero residue, full recovery, coherent telemetry. ---
	fault.Disarm()
	waitFor(t, 5*time.Second, "outstanding leases to drain", func() bool { return s.Cache().Outstanding() == 0 })
	waitFor(t, 5*time.Second, "admission to drain", func() bool {
		a := s.Admission().Stats()
		return a.InFlight == 0 && a.QueueDepth == 0
	})
	// The breaker may still be open from an unlucky run; a probe past
	// the backoff must heal it without intervention.
	waitFor(t, 5*time.Second, "clean service to resume", func() bool {
		resp, body := post(t, decodeURL, enc)
		if resp.StatusCode == http.StatusOK && bytes.Equal(body, raw) {
			return true
		}
		time.Sleep(50 * time.Millisecond)
		return false
	})
	m := s.MetricsSnapshot()
	if m.Requests == 0 || m.StatusClasses["2xx"] == 0 {
		t.Fatalf("metrics lost the traffic: %+v", m)
	}
	var prom bytes.Buffer
	if err := s.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	validatePromText(t, prom.String())
}
