package router

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"vxa/internal/core"
	"vxa/internal/fault"
	"vxa/internal/obs"
	"vxa/internal/server"
)

// Config configures a Router.
type Config struct {
	// Backends is the fleet: "host:port" addresses or "unix:/path"
	// socket endpoints of vxad shards. Required, at least one.
	Backends []string
	// MaxAttempts bounds attempts per request (first try + retries +
	// hedge combined). 0 selects DefaultMaxAttempts.
	MaxAttempts int
	// RetryBackoff is the base delay before a retry, doubled per attempt
	// with full jitter, capped at 32x. 0 selects DefaultRetryBackoff.
	RetryBackoff time.Duration
	// HedgeDelay is how long the first attempt may run before a hedged
	// second attempt launches on the next-ranked shard. 0 means adapt:
	// the router's own observed p99, clamped to [5ms, 1s] (50ms until
	// enough samples exist). Negative disables hedging.
	HedgeDelay time.Duration
	// MaxRequestBytes caps the buffered request body (bodies must be
	// buffered to be replayable across attempts). 0 selects 1 GiB.
	MaxRequestBytes int64
	// Health tunes the per-backend breaker and readyz poller.
	Health HealthConfig
	// Logger receives routing decisions; nil discards.
	Logger *slog.Logger
}

// Routing defaults.
const (
	DefaultMaxAttempts     = 3
	DefaultRetryBackoff    = 10 * time.Millisecond
	DefaultMaxRequestBytes = 1 << 30

	minHedgeDelay  = 5 * time.Millisecond
	maxHedgeDelay  = time.Second
	coldHedgeDelay = 50 * time.Millisecond
	hedgeWarmup    = 50 // latency samples before the p99 is trusted
)

// Router is the vxrouter HTTP front end: an http.Handler that proxies
// the vxad wire surface across the fleet, plus its own /healthz,
// /readyz and /metrics.
type Router struct {
	cfg    Config
	ring   *Ring
	health *healthSet
	mux    *http.ServeMux
	log    *slog.Logger
	start  time.Time

	clients map[string]*http.Client

	baseCtx    context.Context
	baseCancel context.CancelFunc
	pollStop   chan struct{}
	pollDone   chan struct{}
	draining   atomic.Bool

	hist     obs.Histogram // end-to-end latency of responded requests
	routedC  obs.CounterVec
	retryC   obs.CounterVec
	hedgeC   obs.CounterVec
	hedgeWin obs.CounterVec
	failC    obs.CounterVec
	statusC  obs.CounterVec

	truncations atomic.Uint64
	noBackend   atomic.Uint64
	clientGone  atomic.Uint64
}

// New builds a Router over the fleet and starts its readyz poller.
// Callers must Close it.
func New(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("router: no backends configured")
	}
	seen := make(map[string]bool, len(cfg.Backends))
	for _, b := range cfg.Backends {
		if b == "" {
			return nil, fmt.Errorf("router: empty backend address")
		}
		if seen[b] {
			return nil, fmt.Errorf("router: duplicate backend %q", b)
		}
		seen[b] = true
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = DefaultRetryBackoff
	}
	if cfg.MaxRequestBytes <= 0 {
		cfg.MaxRequestBytes = DefaultMaxRequestBytes
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1}))
	}
	ctx, cancel := context.WithCancel(context.Background())
	rt := &Router{
		cfg:        cfg,
		ring:       NewRing(cfg.Backends),
		health:     newHealthSet(cfg.Health, cfg.Backends),
		mux:        http.NewServeMux(),
		log:        log,
		start:      time.Now(),
		clients:    make(map[string]*http.Client, len(cfg.Backends)),
		baseCtx:    ctx,
		baseCancel: cancel,
		pollStop:   make(chan struct{}),
		pollDone:   make(chan struct{}),
	}
	for _, id := range cfg.Backends {
		rt.clients[id] = &http.Client{Transport: newTransport(id)}
	}
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /readyz", rt.handleReadyz)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	rt.mux.HandleFunc("/", rt.proxy)
	go rt.pollLoop()
	return rt, nil
}

// Close stops the poller and tears down backend connections. In-flight
// proxied requests are canceled.
func (rt *Router) Close() {
	close(rt.pollStop)
	<-rt.pollDone
	rt.baseCancel()
	for _, c := range rt.clients {
		if t, ok := c.Transport.(*http.Transport); ok {
			t.CloseIdleConnections()
		}
	}
}

// StartDrain flips the router's own /readyz to draining so an upstream
// balancer stops sending new work; proxying continues for whatever
// still arrives until the listener closes.
func (rt *Router) StartDrain() { rt.draining.Store(true) }

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.mux.ServeHTTP(w, r)
}

// newTransport builds the per-backend transport. Both the dial and
// every subsequent response read pass a fault injection point, so the
// chaos harness can exercise exactly the failure modes the retry and
// truncation machinery exists for.
func newTransport(id string) *http.Transport {
	sock, isUnix := strings.CutPrefix(id, "unix:")
	d := &net.Dialer{Timeout: 2 * time.Second}
	return &http.Transport{
		MaxIdleConnsPerHost: 32,
		IdleConnTimeout:     90 * time.Second,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			if err := fault.Inject(fault.BackendDial); err != nil {
				return nil, fmt.Errorf("dial backend %s: %w", id, err)
			}
			if isUnix {
				return d.DialContext(ctx, "unix", sock)
			}
			return d.DialContext(ctx, network, addr)
		},
	}
}

// backendURL returns the scheme+authority prefix for requests to a
// backend. Unix-socket backends get a placeholder authority; their
// transport dials the socket regardless of the addr it is handed.
func (rt *Router) backendURL(id string) string {
	if strings.HasPrefix(id, "unix:") {
		return "http://vxa-unix"
	}
	return "http://" + id
}

func (rt *Router) pollClient(id string) *http.Client { return rt.clients[id] }

// faultBody threads response-body reads through the BackendRead
// injection point, standing in for a backend that dies mid-response.
type faultBody struct{ rc io.ReadCloser }

func (f *faultBody) Read(p []byte) (int, error) {
	if err := fault.Inject(fault.BackendRead); err != nil {
		return 0, err
	}
	return f.rc.Read(p)
}

func (f *faultBody) Close() error { return f.rc.Close() }

// routeKey derives the rendezvous key for a request. The point is
// SnapCache locality: every request that will exercise a given decoder
// should land on the shard whose snapshot cache already holds it, so
// the key is the decoder's content hash whenever the router can
// determine it cheaply (central-directory parse only — no decoding),
// and the archive's content hash otherwise.
func (rt *Router) routeKey(r *http.Request, body []byte) string {
	switch r.URL.Path {
	case "/v1/decode":
		// Raw-stream decode names its built-in codec in the query; all
		// work for one codec shares one decoder line.
		if c := r.URL.Query().Get("codec"); c != "" {
			return "codec\x00" + c
		}
	case "/v1/extract", "/v1/verify", "/v1/entries":
		if key, ok := decoderKey(body, r.URL.Query().Get("entry")); ok {
			return key
		}
	}
	sum := sha256.Sum256(body)
	return "archive\x00" + hex.EncodeToString(sum[:])
}

// decoderKey parses the archive's central directory and returns a key
// on the decoder content hash of the named entry (or, with no name,
// the first entry carrying an embedded decoder). ok=false when the
// container doesn't parse or no entry resolves a decoder hash — the
// caller falls back to the archive hash, which still keys all work on
// identical bytes to one shard.
func decoderKey(body []byte, entryName string) (string, bool) {
	rd, err := core.NewReader(body)
	if err != nil {
		return "", false
	}
	defer rd.Close()
	entries := rd.Entries()
	for i := range entries {
		e := &entries[i]
		if entryName != "" && e.Name != entryName {
			continue
		}
		if h, ok, err := rd.DecoderHash(e); err == nil && ok {
			return "decoder\x00" + hex.EncodeToString(h[:]), true
		}
		if entryName != "" {
			break
		}
	}
	return "", false
}

// hedgeDelay picks how long the primary attempt may run before a
// hedge launches: the configured value, or the router's own observed
// p99 clamped to [5ms, 1s] (a flat 50ms until enough samples exist).
func (rt *Router) hedgeDelay() time.Duration {
	if rt.cfg.HedgeDelay != 0 {
		return rt.cfg.HedgeDelay
	}
	if rt.hist.Count() < hedgeWarmup {
		return coldHedgeDelay
	}
	return min(max(rt.hist.Snapshot().Quantile(0.99), minHedgeDelay), maxHedgeDelay)
}

// attemptResult is one backend attempt's outcome. Exactly one of the
// three shapes holds: committed (resp != nil, body open past the first
// chunk), shed (shedStatus != 0, small body captured and connection
// done), or failed (err != nil, nothing usable received).
type attemptResult struct {
	id    string
	hedge bool

	resp  *http.Response
	first []byte
	eof   bool

	shedStatus int
	shedHeader http.Header
	shedBody   []byte

	err error
}

// attempt runs one request against one backend up to the commit point:
// for working responses it reads the first body chunk before reporting
// success, so everything that can go wrong before a single byte would
// reach the client surfaces here, as a retryable failure, and nothing
// after the commit point ever retries.
func (rt *Router) attempt(ctx context.Context, id string, r *http.Request, body []byte) attemptResult {
	res := attemptResult{id: id}
	failed := func(err error) attemptResult {
		res.err = err
		// An attempt the router canceled itself (the loser of a hedge, or
		// every attempt once the client has gone) says nothing about the
		// backend and must not count against it.
		if ctx.Err() == nil {
			rt.health.reportFailure(id)
			rt.failC.Inc(id)
		}
		return res
	}
	// Each attempt gets its own bytes.Reader over the shared buffer, so
	// concurrent hedged attempts never share a read cursor.
	req, err := http.NewRequestWithContext(ctx, r.Method, rt.backendURL(id)+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		return failed(err)
	}
	req.Header = r.Header.Clone()
	resp, err := rt.clients[id].Do(req)
	if err != nil {
		return failed(err)
	}
	switch resp.StatusCode {
	case http.StatusServiceUnavailable, server.StatusDecoderQuarantined:
		// The shard is alive but declining: a counted breaker failure
		// either way, and for a 503 — a shard-wide condition — the
		// Retry-After additionally holds the whole backend down. A 521's
		// Retry-After is scoped to one quarantined decoder and must not
		// evict the shard from every other key's ring.
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
		resp.Body.Close()
		rt.health.reportFailure(id)
		rt.failC.Inc(id)
		if resp.StatusCode == http.StatusServiceUnavailable {
			if d, ok := server.ParseRetryAfter(resp.Header); ok {
				rt.health.holdDown(id, d)
			}
		}
		res.shedStatus = resp.StatusCode
		res.shedHeader = resp.Header
		res.shedBody = b
		return res
	}
	// Commit point: pull the first body chunk before declaring this
	// attempt the answer. A backend that accepted the request and died
	// before producing a byte is still a clean, invisible failover.
	fb := &faultBody{rc: resp.Body}
	buf := make([]byte, 32<<10)
	n, rerr := fb.Read(buf)
	for n == 0 && rerr == nil {
		n, rerr = fb.Read(buf)
	}
	if rerr != nil && rerr != io.EOF {
		resp.Body.Close()
		return failed(fmt.Errorf("backend %s: first byte: %w", id, rerr))
	}
	rt.health.reportSuccess(id)
	res.resp = resp
	res.resp.Body = fb
	res.first = buf[:n]
	res.eof = rerr == io.EOF
	return res
}

// proxy buffers the request, ranks the ring for its key, and runs the
// attempt state machine: sequential retries with backoff and jitter
// across the ring order, plus at most one hedged parallel attempt once
// the primary outlives the hedge delay. First committed result wins
// and the loser is canceled.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, rt.cfg.MaxRequestBytes+1))
	if err != nil {
		rt.fail(w, http.StatusBadRequest, "read request: %v", err)
		return
	}
	if int64(len(body)) > rt.cfg.MaxRequestBytes {
		rt.fail(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", rt.cfg.MaxRequestBytes)
		return
	}
	key := rt.routeKey(r, body)
	rank := rt.ring.Rank(key)

	ctx := r.Context()
	start := time.Now()
	results := make(chan attemptResult, len(rank)+1)
	var cancels []context.CancelFunc
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()
	inflight, launched, cursor := 0, 0, 0
	launch := func(hedge bool) bool {
		for cursor < len(rank) {
			id := rank[cursor]
			cursor++
			if !rt.health.acquire(id) {
				continue
			}
			actx, cancel := context.WithCancel(ctx)
			cancels = append(cancels, cancel)
			inflight++
			launched++
			rt.routedC.Inc(id)
			switch {
			case hedge:
				rt.hedgeC.Inc(id)
			case launched > 1:
				rt.retryC.Inc(id)
			}
			go func() {
				res := rt.attempt(actx, id, r, body)
				res.hedge = hedge
				results <- res
			}()
			return true
		}
		return false
	}

	if !launch(false) {
		rt.noBackend.Add(1)
		rt.shedAll(w)
		return
	}

	// A nil channel blocks forever, which is how a negative HedgeDelay
	// disables hedging without a second select shape.
	var hedgeFire <-chan time.Time
	if rt.cfg.HedgeDelay >= 0 {
		hedgeTimer := time.NewTimer(rt.hedgeDelay())
		defer hedgeTimer.Stop()
		hedgeFire = hedgeTimer.C
	}

	var lastShed *attemptResult
	for {
		select {
		case <-ctx.Done():
			// Client gone: nothing to answer; let the drain goroutine
			// reap whatever attempts are still in flight.
			rt.clientGone.Add(1)
			rt.reap(results, inflight)
			return
		case <-hedgeFire:
			if inflight == 1 && launched < rt.cfg.MaxAttempts {
				launch(true)
			}
		case res := <-results:
			inflight--
			if res.resp != nil {
				if res.hedge {
					rt.hedgeWin.Inc(res.id)
				}
				rt.reap(results, inflight)
				rt.hist.Observe(time.Since(start))
				rt.statusC.Inc(statusClass(res.resp.StatusCode))
				rt.forward(w, res)
				return
			}
			if res.shedStatus != 0 {
				lastShed = &res
			}
			if inflight > 0 {
				continue // the hedge partner is still racing
			}
			if launched < rt.cfg.MaxAttempts {
				rt.backoffSleep(ctx, launched)
				if launch(false) {
					continue
				}
			}
			// Out of attempts or out of usable backends.
			rt.hist.Observe(time.Since(start))
			if lastShed != nil {
				rt.forwardShed(w, lastShed)
			} else {
				rt.noBackend.Add(1)
				rt.shedAll(w)
			}
			return
		}
	}
}

// backoffSleep waits the bounded exponential backoff (full jitter)
// before retry number `prior`+1, unless the client gives up first.
func (rt *Router) backoffSleep(ctx context.Context, prior int) {
	d := rt.cfg.RetryBackoff << min(prior-1, 5)
	d = time.Duration(rand.Int64N(int64(d)) + int64(d)/2) // jitter in [d/2, 3d/2)
	select {
	case <-time.After(d):
	case <-ctx.Done():
	}
}

// reap closes out still-inflight attempts in the background: their
// contexts are canceled by the caller's deferred cancels only when the
// handler returns, so collect their results and release connections.
func (rt *Router) reap(results chan attemptResult, inflight int) {
	if inflight == 0 {
		return
	}
	go func() {
		for i := 0; i < inflight; i++ {
			res := <-results
			if res.resp != nil {
				res.resp.Body.Close()
			}
		}
	}()
}

// forward streams a committed attempt to the client. Up to the first
// chunk everything was retryable; from here on the response is the
// response, and a mid-stream backend failure is surfaced as an honest
// truncation (connection abort), never a silent splice onto another
// backend's bytes.
func (rt *Router) forward(w http.ResponseWriter, res attemptResult) {
	h := w.Header()
	for k, vs := range res.resp.Header {
		switch k {
		case "Connection", "Transfer-Encoding", "Keep-Alive":
			continue
		}
		h[k] = vs
	}
	if h.Get(server.ShardHeader) == "" {
		h.Set(server.ShardHeader, res.id)
	}
	w.WriteHeader(res.resp.StatusCode)
	if _, err := w.Write(res.first); err != nil {
		res.resp.Body.Close()
		return // client went away; nothing to be honest about
	}
	if !res.eof {
		if _, err := io.Copy(w, res.resp.Body); err != nil {
			res.resp.Body.Close()
			rt.truncations.Add(1)
			rt.log.Warn("mid-stream backend failure, truncating", slog.String("backend", res.id), slog.String("err", err.Error()))
			panic(http.ErrAbortHandler)
		}
	}
	res.resp.Body.Close()
}

// forwardShed relays the last shed response received when every
// attempt came back declining: the client sees the shard's own 503/521
// with its Retry-After, exactly as if it had spoken to the shard.
func (rt *Router) forwardShed(w http.ResponseWriter, res *attemptResult) {
	rt.statusC.Inc(statusClass(res.shedStatus))
	h := w.Header()
	for _, k := range []string{"Retry-After", "Content-Type", server.ShardHeader} {
		if v := res.shedHeader.Get(k); v != "" {
			h.Set(k, v)
		}
	}
	if h.Get(server.ShardHeader) == "" {
		h.Set(server.ShardHeader, res.id)
	}
	w.WriteHeader(res.shedStatus)
	w.Write(res.shedBody)
}

// shedAll answers for a fleet with no usable backend: 503 with a
// Retry-After derived from the soonest hold-down expiry or breaker
// probe admission, so well-behaved clients come back exactly when a
// backend could.
func (rt *Router) shedAll(w http.ResponseWriter) {
	rt.statusC.Inc("503")
	hint := rt.health.retryHint()
	secs := int64(1)
	if hint > 0 {
		secs = int64(math.Ceil(hint.Seconds()))
		if secs < 1 {
			secs = 1
		}
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	json.NewEncoder(w).Encode(map[string]string{"error": ErrNoBackends.Error()})
}

// fail answers a request the router itself rejects (oversized body,
// unreadable stream) without consulting the fleet.
func (rt *Router) fail(w http.ResponseWriter, status int, format string, args ...any) {
	rt.statusC.Inc(statusClass(status))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// statusClass buckets statuses for the response counter: the statuses
// with protocol meaning in the vxa taxonomy stay distinct, the rest
// collapse to their class.
func statusClass(status int) string {
	switch status {
	case http.StatusServiceUnavailable:
		return "503"
	case server.StatusDecoderQuarantined:
		return "521"
	case http.StatusGatewayTimeout:
		return "504"
	}
	switch {
	case status >= 200 && status < 300:
		return "2xx"
	case status >= 400 && status < 500:
		return "4xx"
	case status >= 500:
		return "5xx"
	}
	return "other"
}

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Status   string  `json:"status"`
		UptimeMS float64 `json:"uptime_ms"`
		Backends int     `json:"backends"`
	}{"ok", float64(time.Since(rt.start).Milliseconds()), len(rt.cfg.Backends)})
}

func (rt *Router) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	ready := !rt.draining.Load()
	var usable int
	for _, id := range rt.ring.Backends() {
		if rt.health.usable(id) {
			usable++
		}
	}
	if usable == 0 {
		ready = false
	}
	w.Header().Set("Content-Type", "application/json")
	if !ready {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(struct {
		Ready    bool `json:"ready"`
		Draining bool `json:"draining"`
		Usable   int  `json:"usable_backends"`
	}{ready, rt.draining.Load(), usable})
}

// Metrics is the router's point-in-time metrics document.
type Metrics struct {
	UptimeMS    float64           `json:"uptime_ms"`
	Backends    []BackendStats    `json:"backends"`
	Requests    uint64            `json:"requests"`
	Retries     uint64            `json:"retries"`
	Hedges      uint64            `json:"hedges"`
	HedgeWins   uint64            `json:"hedge_wins"`
	Truncations uint64            `json:"truncations"`
	NoBackend   uint64            `json:"no_backend"`
	ClientGone  uint64            `json:"client_gone"`
	Statuses    map[string]uint64 `json:"statuses"`
	Latency     obs.HistStats     `json:"latency"`
}

// MetricsSnapshot assembles the metrics document.
func (rt *Router) MetricsSnapshot() Metrics {
	m := Metrics{
		UptimeMS:    float64(time.Since(rt.start).Milliseconds()),
		Requests:    rt.routedC.Total(),
		Retries:     rt.retryC.Total(),
		Hedges:      rt.hedgeC.Total(),
		HedgeWins:   rt.hedgeWin.Total(),
		Truncations: rt.truncations.Load(),
		NoBackend:   rt.noBackend.Load(),
		ClientGone:  rt.clientGone.Load(),
		Statuses:    rt.statusC.Snapshot(),
		Latency:     rt.hist.Snapshot().Stats(),
	}
	for _, id := range rt.ring.Backends() {
		bs := rt.health.stats(id)
		bs.Routed = rt.routedC.Get(id)
		bs.Retries = rt.retryC.Get(id)
		bs.Hedges = rt.hedgeC.Get(id)
		bs.HedgeWins = rt.hedgeWin.Get(id)
		bs.Failures = rt.failC.Get(id)
		m.Backends = append(m.Backends, bs)
	}
	return m
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" {
		rt.promMetrics(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(rt.MetricsSnapshot())
}

func (rt *Router) promMetrics(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := obs.NewPromWriter(w)
	p.CounterVec("vxrouter_requests_total", "Attempts routed, by backend.", "backend", &rt.routedC)
	p.CounterVec("vxrouter_retries_total", "Retry attempts, by backend.", "backend", &rt.retryC)
	p.CounterVec("vxrouter_hedges_total", "Hedged attempts, by backend.", "backend", &rt.hedgeC)
	p.CounterVec("vxrouter_hedge_wins_total", "Hedged attempts that won, by backend.", "backend", &rt.hedgeWin)
	p.CounterVec("vxrouter_backend_failures_total", "Counted backend failures, by backend.", "backend", &rt.failC)
	p.CounterVec("vxrouter_responses_total", "Responses to clients, by status class.", "class", &rt.statusC)
	p.Counter("vxrouter_truncations_total", "Committed streams truncated by mid-stream backend failure.", nil, float64(rt.truncations.Load()))
	p.Counter("vxrouter_no_backend_total", "Requests shed with no usable backend.", nil, float64(rt.noBackend.Load()))
	p.Counter("vxrouter_client_gone_total", "Requests abandoned by the client mid-route.", nil, float64(rt.clientGone.Load()))
	for _, id := range rt.ring.Backends() {
		bs := rt.health.stats(id)
		ready := 0.0
		if bs.Ready {
			ready = 1
		}
		p.Gauge("vxrouter_backend_ready", "Backend readyz verdict.", map[string]string{"backend": id}, ready)
		p.Counter("vxrouter_breaker_trips_total", "Breaker trips, by backend.", map[string]string{"backend": id}, float64(bs.Trips))
	}
	p.Summary("vxrouter_request_duration_seconds", "End-to-end routed request latency.", nil, rt.hist.Snapshot())
	p.Err()
}
