// Package server implements vxad, the VXA archive-extraction daemon: a
// long-running service that multiplexes many clients over shared
// decoder snapshots. Where the library's Reader amortizes decoder setup
// within one archive, the server amortizes it across the whole fleet of
// requests: every decoder is content-addressed (SHA-256 of its ELF), so
// two clients extracting different archives that embed the same decoder
// share one pristine snapshot, one warm micro-op translation cache and
// one VM pool. An admission controller bounds concurrent decode streams
// and sheds load when the backlog exceeds the queue, so the daemon
// degrades by rejecting quickly instead of collapsing.
//
// Endpoints (see the README for the wire details):
//
//	GET  /healthz                  liveness (process is up)
//	GET  /readyz                   readiness (degrades under drain,
//	                               open breakers or sustained shedding)
//	GET  /metrics                  counters (JSON, snake_case)
//	POST /v1/entries               archive -> entry listing (JSON)
//	POST /v1/extract?entry=NAME    archive -> one entry's decoded bytes
//	POST /v1/verify                archive -> per-entry verify results (JSON)
//	POST /v1/decode?codec=NAME     raw stream -> decoded bytes (built-in codec)
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vxa/internal/artifact"
	"vxa/internal/codec"
	"vxa/internal/core"
	"vxa/internal/fault"
	"vxa/internal/obs"
	"vxa/internal/vm"
	"vxa/internal/vmpool"
	"vxa/internal/zipfile"
)

// Config configures a Server. The zero value selects the defaults.
type Config struct {
	// MemSize is the guest address space given to every decoder VM.
	// Defaults to core.DefaultDecoderMemSize. Fixed for the server
	// lifetime — a per-request memory ceiling, not a knob.
	MemSize uint32
	// MaxFuel caps the per-stream instruction budget. A request may ask
	// for less (?fuel=N) but never more. Defaults to DefaultMaxFuel.
	MaxFuel int64
	// CacheBytes is the snapshot cache's resident byte budget.
	// Defaults to vmpool.DefaultSnapCacheBytes.
	CacheBytes int64
	// MaxInFlight bounds concurrently running decode streams.
	// Defaults to GOMAXPROCS.
	MaxInFlight int
	// MaxQueue bounds requests waiting for a stream slot; beyond it
	// requests are shed with 503. Defaults to 4x MaxInFlight.
	MaxQueue int
	// QueueTimeout bounds how long a request may wait in the queue
	// before being shed with 504. Defaults to DefaultQueueTimeout.
	QueueTimeout time.Duration
	// MaxRequestBytes caps the request body (the archive or stream).
	// Defaults to DefaultMaxRequestBytes.
	MaxRequestBytes int64
	// Logger receives structured access and slow-request logs. Nil
	// disables logging (the default, and what tests and the bench
	// harness want: metrics still accumulate, nothing is printed).
	Logger *slog.Logger
	// SlowThreshold, when positive, logs any request whose total wall
	// time meets it at Warn level with the full per-stage breakdown.
	SlowThreshold time.Duration
	// StreamTimeout is the wall-clock watchdog budget per decode stream:
	// a guest still running after this much real time is killed at its
	// next block boundary (422, ErrDeadline) no matter how much
	// instruction fuel remains. Defaults to DefaultStreamTimeout;
	// negative disables the watchdog.
	StreamTimeout time.Duration
	// Health configures the per-decoder circuit breaker (failure
	// threshold, probe backoff). The zero value selects the vmpool
	// defaults; Threshold < 0 disables quarantine.
	Health vmpool.HealthConfig
	// MemWatermark, when positive, arms the memory janitor: whenever the
	// process heap exceeds it, the snapshot cache is shrunk to half its
	// resident bytes (idle VMs dropped, LRU snapshots evicted) so the
	// daemon sheds memory instead of dying.
	MemWatermark int64
	// ReadyShedRate is the shed fraction (shed+expired over all
	// admission outcomes, sampled over ReadyWindow) past which /readyz
	// reports degraded. Defaults to DefaultReadyShedRate.
	ReadyShedRate float64
	// ReadyWindow is the minimum interval between readiness shed-rate
	// samples. Defaults to DefaultReadyWindow.
	ReadyWindow time.Duration
	// Artifacts, when non-nil, arms the persistent snapshot-artifact
	// tier: snapshot-cache misses probe the store before building from
	// the decoder ELF, builds are written back, and a background loop
	// re-persists entries whose absorbed block caches have grown (so
	// translation work done by live traffic survives a restart). The
	// caller owns the store (vxad opens it from -artifact-dir).
	Artifacts *artifact.Store
	// ArtifactFlushInterval is how often grown block caches are
	// re-persisted. Defaults to DefaultArtifactFlushInterval; only
	// meaningful with Artifacts set.
	ArtifactFlushInterval time.Duration
	// ShardID identifies this daemon within a routed fleet. When set,
	// every response carries it in the X-Vxa-Shard header and /readyz
	// names it, so routed traffic stays attributable in logs, metrics
	// and the load harness. vxad defaults it to the listen address.
	ShardID string
}

// Server defaults.
const (
	DefaultMaxFuel         = int64(1) << 36
	DefaultQueueTimeout    = 10 * time.Second
	DefaultMaxRequestBytes = int64(256) << 20
	DefaultStreamTimeout   = 30 * time.Second
	DefaultReadyShedRate   = 0.5
	DefaultReadyWindow     = time.Second
	// DefaultArtifactFlushInterval is how often the artifact flush loop
	// re-persists snapshot lines whose block caches have grown.
	DefaultArtifactFlushInterval = 30 * time.Second
	// memJanitorInterval is how often the memory janitor samples the
	// heap when MemWatermark is armed.
	memJanitorInterval = 2 * time.Second
)

// Server is the extraction daemon. Create with New; serve its Handler
// on any net listener (TCP, unix socket, httptest).
type Server struct {
	cfg   Config
	cache *vmpool.SnapCache
	adm   *Admission
	mux   *http.ServeMux
	start time.Time

	requests  atomic.Uint64
	errors    atomic.Uint64 // 5xx responses only; see statusClass for the rest
	bytesIn   atomic.Uint64
	bytesOut  atomic.Uint64
	truncated atomic.Uint64 // streams aborted after a partial 200

	// statusClass counts responses by status family, indexed status/100;
	// client-cancel 499s get their own cell (index 0) so cancellations
	// are visible without inflating the 4xx class.
	statusClass [6]atomic.Uint64
	// errKinds counts typed archive failures by core.ErrorKind (indexed
	// by the kind's own value), however the status maps out.
	errKinds [16]atomic.Uint64

	// draining is set by StartDrain: new decode requests are shed with
	// 503 + Retry-After while in-flight streams finish.
	draining atomic.Bool
	// janitorStop/janitorDone bound the memory janitor's lifetime;
	// flushStop/flushDone bound the artifact flush loop's.
	janitorStop chan struct{}
	janitorDone chan struct{}
	flushStop   chan struct{}
	flushDone   chan struct{}
	closeOnce   sync.Once

	// Latency histograms: endpoint and stage families are fixed at
	// construction (lock-free observe); the per-codec family grows on
	// first use under mu.
	epHist    map[string]*obs.Histogram
	stageHist map[obs.Stage]*obs.Histogram

	mu        sync.Mutex
	codecHist map[string]*obs.Histogram
	codecHash map[string][32]byte // built-in codec name -> ELF content hash

	// Readiness shed-rate sampling state (under readyMu): the previous
	// window's admission counters and the verdict computed from them.
	readyMu      sync.Mutex
	readySampled time.Time
	readyPrev    AdmissionStats
	readyRate    float64
}

// errorKinds enumerates the taxonomy for the metrics surfaces.
var errorKinds = []core.ErrorKind{
	core.KindBadArchive, core.KindUnknownCodec, core.KindDecoderTrap,
	core.KindFuelExhausted, core.KindOutputLimit, core.KindCanceled,
	core.KindIO, core.KindUnavailable, core.KindQuarantined,
	core.KindDeadline,
}

// New creates a Server with its own snapshot cache and admission
// controller.
func New(cfg Config) *Server {
	if cfg.MemSize == 0 {
		cfg.MemSize = core.DefaultDecoderMemSize
	}
	if cfg.MaxFuel <= 0 {
		cfg.MaxFuel = DefaultMaxFuel
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 4 * cfg.MaxInFlight
	}
	if cfg.QueueTimeout <= 0 {
		cfg.QueueTimeout = DefaultQueueTimeout
	}
	if cfg.MaxRequestBytes <= 0 {
		cfg.MaxRequestBytes = DefaultMaxRequestBytes
	}
	if cfg.StreamTimeout == 0 {
		cfg.StreamTimeout = DefaultStreamTimeout
	}
	wallBudget := cfg.StreamTimeout
	if wallBudget < 0 {
		wallBudget = 0 // watchdog explicitly disabled
	}
	if cfg.ReadyShedRate <= 0 {
		cfg.ReadyShedRate = DefaultReadyShedRate
	}
	if cfg.ReadyWindow <= 0 {
		cfg.ReadyWindow = DefaultReadyWindow
	}
	if cfg.ArtifactFlushInterval <= 0 {
		cfg.ArtifactFlushInterval = DefaultArtifactFlushInterval
	}
	s := &Server{
		cfg: cfg,
		cache: vmpool.NewSnapCache(vmpool.SnapCacheConfig{
			VM:        vm.Config{MemSize: cfg.MemSize, WallBudget: wallBudget},
			MaxBytes:  cfg.CacheBytes,
			Health:    cfg.Health,
			Artifacts: cfg.Artifacts,
		}),
		adm:       NewAdmission(cfg.MaxInFlight, cfg.MaxQueue),
		mux:       http.NewServeMux(),
		start:     time.Now(),
		epHist:    make(map[string]*obs.Histogram),
		stageHist: make(map[obs.Stage]*obs.Histogram),
		codecHist: make(map[string]*obs.Histogram),
		codecHash: make(map[string][32]byte),
	}
	for _, st := range obs.Stages() {
		s.stageHist[st] = &obs.Histogram{}
	}
	route := func(pattern, endpoint string, h http.HandlerFunc) {
		s.epHist[endpoint] = &obs.Histogram{}
		s.mux.HandleFunc(pattern, s.instrument(endpoint, h))
	}
	route("GET /healthz", "healthz", s.handleHealthz)
	route("GET /readyz", "readyz", s.handleReadyz)
	route("GET /metrics", "metrics", s.handleMetrics)
	route("POST /v1/entries", "entries", s.handleEntries)
	route("POST /v1/extract", "extract", s.handleExtract)
	route("POST /v1/verify", "verify", s.handleVerify)
	route("POST /v1/decode", "decode", s.handleDecode)
	if cfg.MemWatermark > 0 {
		s.janitorStop = make(chan struct{})
		s.janitorDone = make(chan struct{})
		go s.memJanitor()
	}
	if cfg.Artifacts != nil {
		s.flushStop = make(chan struct{})
		s.flushDone = make(chan struct{})
		go s.artifactFlusher()
	}
	return s
}

// artifactFlusher periodically re-persists snapshot lines whose
// absorbed uop block caches have grown since their artifact was
// written, so the translation work live streams pay for reaches disk
// (and through vxwarm pack, the rest of the fleet) without waiting for
// a clean shutdown.
func (s *Server) artifactFlusher() {
	defer close(s.flushDone)
	t := time.NewTicker(s.cfg.ArtifactFlushInterval)
	defer t.Stop()
	for {
		select {
		case <-s.flushStop:
			return
		case <-t.C:
		}
		if n := s.cache.FlushArtifacts(); n > 0 && s.cfg.Logger != nil {
			s.cfg.Logger.Info("persisted grown snapshot artifacts", "artifacts", n)
		}
	}
}

// memJanitor watches the heap against the configured watermark and
// shrinks the snapshot cache to half its resident bytes when crossed:
// idle decoder VMs are dropped and LRU snapshot lines evicted, trading
// warm-path latency for staying alive. Lines rebuild on demand once
// pressure subsides.
func (s *Server) memJanitor() {
	defer close(s.janitorDone)
	t := time.NewTicker(memJanitorInterval)
	defer t.Stop()
	var ms runtime.MemStats
	for {
		select {
		case <-s.janitorStop:
			return
		case <-t.C:
		}
		runtime.ReadMemStats(&ms)
		if int64(ms.HeapAlloc) <= s.cfg.MemWatermark {
			continue
		}
		// Aim to halve total snapshot residency. Orphan-pinned bytes
		// (evicted lines with leases still in flight) can't be evicted
		// again, so the evictable target absorbs their share — without
		// this the janitor under-shrinks by exactly the orphaned amount.
		st := s.cache.Stats()
		target := (st.Bytes+st.OrphanBytes)/2 - st.OrphanBytes
		if target < 0 {
			target = 0
		}
		freed := s.cache.Shrink(target)
		if s.cfg.Logger != nil {
			s.cfg.Logger.Warn("memory watermark exceeded, shrank snapshot cache",
				"heap_bytes", ms.HeapAlloc, "watermark", s.cfg.MemWatermark,
				"cache_bytes_freed", freed, "orphan_bytes", st.OrphanBytes)
		}
	}
}

// StartDrain begins graceful shutdown: /readyz flips to draining (so
// load balancers stop routing here) and new decode requests are shed
// with 503 + Retry-After while streams already admitted run to
// completion. Idempotent.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close stops the server's background work (the memory janitor) and
// drops the snapshot cache's idle VMs. It does not wait for in-flight
// requests — pair it with StartDrain plus http.Server.Shutdown, which
// do. Idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.draining.Store(true)
		if s.janitorStop != nil {
			close(s.janitorStop)
			<-s.janitorDone
		}
		if s.flushStop != nil {
			close(s.flushStop)
			<-s.flushDone
			// Final flush: block caches grown since the last tick reach
			// disk before the process goes away.
			s.cache.FlushArtifacts()
		}
		s.cache.Drain()
	})
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Cache exposes the server's snapshot cache (for the bench harness and
// tests).
func (s *Server) Cache() *vmpool.SnapCache { return s.cache }

// Admission exposes the server's admission controller.
func (s *Server) Admission() *Admission { return s.adm }

// ---------- request instrumentation ----------

// reqInfo carries per-request annotations from handler to middleware:
// the handler knows the codec once it has parsed the request; the
// middleware owns observation.
type reqInfo struct {
	codec string
}

type reqInfoKey struct{}

// setCodec labels the in-flight request with the codec doing the work,
// feeding the per-codec latency histogram.
func setCodec(ctx context.Context, name string) {
	if info, ok := ctx.Value(reqInfoKey{}).(*reqInfo); ok && name != "" {
		info.codec = name
	}
}

// statusWriter captures the response status actually sent. A handler
// that never calls WriteHeader implicitly sends 200 on first write.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (sw *statusWriter) WriteHeader(code int) {
	if !sw.wrote {
		sw.status, sw.wrote = code, true
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if !sw.wrote {
		sw.status, sw.wrote = http.StatusOK, true
	}
	return sw.ResponseWriter.Write(p)
}

// Flush forwards to the underlying writer so handlers can still cut a
// truncated stream short through the wrapper.
func (sw *statusWriter) Flush() {
	if fl, ok := sw.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// instrument wraps a handler with the observation pipeline: it opens a
// tracing span on the request context, captures the response status,
// and on the way out feeds the latency histograms, status-class
// counters and the structured access/slow logs. A panic after partial
// output (the deliberate truncation of a broken 200 stream) is
// observed as a truncated stream, then re-raised so net/http still
// severs the connection.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.epHist[endpoint]
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		if s.cfg.ShardID != "" {
			w.Header().Set(ShardHeader, s.cfg.ShardID)
		}
		info := &reqInfo{}
		ctx := context.WithValue(r.Context(), reqInfoKey{}, info)
		ctx, sp := obs.WithSpan(ctx)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			aborted := recover()
			elapsed := sp.Elapsed()
			hist.Observe(elapsed)
			s.observeStages(sp)
			s.observeCodec(info.codec, elapsed)
			s.observeStatus(sw.status)
			if aborted != nil {
				s.truncated.Add(1)
			}
			s.logRequest(r, endpoint, sw.status, elapsed, sp, info.codec, aborted != nil)
			if aborted != nil {
				panic(http.ErrAbortHandler)
			}
		}()
		h(sw, r.WithContext(ctx))
	}
}

// observeStages feeds each stage the request actually passed through
// into the per-stage histograms. Zero stages are skipped: a warm
// request records no snapshot-build sample, so the snapshot histogram
// describes cold-path builds instead of being flattened by zeros.
func (s *Server) observeStages(sp *obs.Span) {
	for _, st := range obs.Stages() {
		if d := sp.Get(st); d > 0 {
			s.stageHist[st].Observe(d)
		}
	}
}

// observeCodec records latency under the codec label, creating the
// series on first use.
func (s *Server) observeCodec(name string, d time.Duration) {
	if name == "" {
		return
	}
	s.mu.Lock()
	h := s.codecHist[name]
	if h == nil {
		h = &obs.Histogram{}
		s.codecHist[name] = h
	}
	s.mu.Unlock()
	h.Observe(d)
}

// observeStatus files the response under its status family. 499 gets
// its own cell; Errors means 5xx — a client mistake (4xx) or a client
// hangup (499) is not a server error.
func (s *Server) observeStatus(status int) {
	switch {
	case status == StatusClientClosedRequest:
		s.statusClass[0].Add(1)
	case status >= 100 && status < 600:
		s.statusClass[status/100].Add(1)
	}
	if status >= 500 {
		s.errors.Add(1)
	}
}

// logRequest emits the structured access log line and, past the slow
// threshold, a warning with the per-stage timeline.
func (s *Server) logRequest(r *http.Request, endpoint string, status int, elapsed time.Duration, sp *obs.Span, codecName string, aborted bool) {
	log := s.cfg.Logger
	if log == nil {
		return
	}
	attrs := []slog.Attr{
		slog.String("endpoint", endpoint),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", status),
		slog.Duration("elapsed", elapsed),
	}
	if codecName != "" {
		attrs = append(attrs, slog.String("codec", codecName))
	}
	if aborted {
		attrs = append(attrs, slog.Bool("truncated", true))
	}
	if s.cfg.SlowThreshold > 0 && elapsed >= s.cfg.SlowThreshold {
		attrs = append(attrs, slog.String("stages", sp.Timeline()))
		log.LogAttrs(r.Context(), slog.LevelWarn, "slow request", attrs...)
		return
	}
	log.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
}

// ---------- metrics ----------

// Metrics is the /metrics document (JSON form). Errors counts 5xx
// responses only; shed/expired admissions, client mistakes and client
// hangups appear under StatusClasses and Admission instead.
type Metrics struct {
	UptimeSeconds    float64                  `json:"uptime_seconds"`
	Shard            string                   `json:"shard,omitempty"`
	Ready            bool                     `json:"ready"`
	Draining         bool                     `json:"draining"`
	Requests         uint64                   `json:"requests"`
	Errors           uint64                   `json:"errors"`
	BytesIn          uint64                   `json:"bytes_in"`
	BytesOut         uint64                   `json:"bytes_out"`
	TruncatedStreams uint64                   `json:"truncated_streams"`
	StatusClasses    map[string]uint64        `json:"status_classes"`
	ErrorKinds       map[string]uint64        `json:"error_kinds,omitempty"`
	Endpoints        map[string]obs.HistStats `json:"endpoint_latency"`
	Codecs           map[string]obs.HistStats `json:"codec_latency,omitempty"`
	Stages           map[string]obs.HistStats `json:"stage_latency,omitempty"`
	Admission        AdmissionStats           `json:"admission"`
	Cache            vmpool.SnapCacheStats    `json:"cache"`
	// ArtifactStore is present only when the persistent artifact tier
	// is armed (-artifact-dir).
	ArtifactStore *artifact.Stats `json:"artifact_store,omitempty"`
}

// MetricsSnapshot returns the current counters and latency summaries.
func (s *Server) MetricsSnapshot() Metrics {
	ready, _ := s.Readiness()
	m := Metrics{
		UptimeSeconds:    time.Since(s.start).Seconds(),
		Shard:            s.cfg.ShardID,
		Ready:            ready,
		Draining:         s.draining.Load(),
		Requests:         s.requests.Load(),
		Errors:           s.errors.Load(),
		BytesIn:          s.bytesIn.Load(),
		BytesOut:         s.bytesOut.Load(),
		TruncatedStreams: s.truncated.Load(),
		StatusClasses:    make(map[string]uint64),
		Endpoints:        make(map[string]obs.HistStats),
		Admission:        s.adm.Stats(),
		Cache:            s.cache.Stats(),
	}
	if s.cfg.Artifacts != nil {
		st := s.cfg.Artifacts.Stats()
		m.ArtifactStore = &st
	}
	for class := 1; class < len(s.statusClass); class++ {
		if n := s.statusClass[class].Load(); n > 0 {
			m.StatusClasses[fmt.Sprintf("%dxx", class)] = n
		}
	}
	if n := s.statusClass[0].Load(); n > 0 {
		m.StatusClasses["499"] = n
	}
	for _, k := range errorKinds {
		if n := s.errKinds[k].Load(); n > 0 {
			if m.ErrorKinds == nil {
				m.ErrorKinds = make(map[string]uint64)
			}
			m.ErrorKinds[k.String()] = n
		}
	}
	for name, h := range s.epHist {
		m.Endpoints[name] = h.Snapshot().Stats()
	}
	for _, st := range obs.Stages() {
		snap := s.stageHist[st].Snapshot()
		if snap.Count == 0 {
			continue
		}
		if m.Stages == nil {
			m.Stages = make(map[string]obs.HistStats)
		}
		m.Stages[st.String()] = snap.Stats()
	}
	s.mu.Lock()
	for name, h := range s.codecHist {
		if m.Codecs == nil {
			m.Codecs = make(map[string]obs.HistStats)
		}
		m.Codecs[name] = h.Snapshot().Stats()
	}
	s.mu.Unlock()
	return m
}

// handleHealthz is pure liveness: the process is up and serving HTTP.
// Operational degradation never shows here — a draining or quarantine-
// heavy daemon is still alive; restarting it would only make things
// worse. Orchestrators should restart on /healthz and route on /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	io.WriteString(w, "{\"status\":\"ok\"}\n")
}

// Readiness reports whether the daemon should receive new traffic,
// with the reasons it should not. Degraded when draining, when any
// decoder circuit breaker is open (the fleet has healthier members to
// route to), or when the recent shed rate — shed + expired admissions
// over all admission outcomes, sampled at most once per ReadyWindow —
// exceeds ReadyShedRate.
func (s *Server) Readiness() (ready bool, reasons []string) {
	if s.draining.Load() {
		reasons = append(reasons, "draining")
	}
	h := s.cache.Health()
	if h.Open > 0 {
		reasons = append(reasons, fmt.Sprintf("%d decoder breaker(s) open", h.Open))
	}
	if rate := s.shedRate(); rate > s.cfg.ReadyShedRate {
		reasons = append(reasons, fmt.Sprintf("shed rate %.2f over the last window", rate))
	}
	return len(reasons) == 0, reasons
}

// shedRate returns the shed fraction over the last completed sampling
// window. Windows rotate lazily: the first call past ReadyWindow since
// the previous rotation computes the rate from the counter deltas and
// starts the next window.
func (s *Server) shedRate() float64 {
	now := time.Now()
	cur := s.adm.Stats()
	s.readyMu.Lock()
	defer s.readyMu.Unlock()
	if s.readySampled.IsZero() {
		s.readySampled, s.readyPrev = now, cur
		return 0
	}
	if now.Sub(s.readySampled) >= s.cfg.ReadyWindow {
		shed := float64(cur.Shed - s.readyPrev.Shed + cur.ShedCold - s.readyPrev.ShedCold + cur.Expired - s.readyPrev.Expired)
		total := shed + float64(cur.Admitted-s.readyPrev.Admitted)
		if total > 0 {
			s.readyRate = shed / total
		} else {
			s.readyRate = 0
		}
		s.readySampled, s.readyPrev = now, cur
	}
	return s.readyRate
}

// handleReadyz is the routing signal: 200 while the daemon wants
// traffic, 503 (with the reasons) while it should be avoided.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	ready, reasons := s.Readiness()
	w.Header().Set("Content-Type", "application/json")
	if !ready {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(struct {
		Ready   bool     `json:"ready"`
		Shard   string   `json:"shard,omitempty"`
		Reasons []string `json:"reasons,omitempty"`
	}{ready, s.cfg.ShardID, reasons})
}

// wantsPrometheus reports whether the scrape asked for text exposition:
// either explicitly (?format=prometheus) or via an Accept header
// preferring text/plain, which is what a stock Prometheus scraper
// sends. JSON stays the default for humans and the existing tooling.
func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus":
		return true
	case "json":
		return false
	}
	return strings.Contains(r.Header.Get("Accept"), "text/plain")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.WritePrometheus(w); err != nil && s.cfg.Logger != nil {
			s.cfg.Logger.Error("metrics: prometheus write failed", "err", err)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s.MetricsSnapshot()); err != nil && s.cfg.Logger != nil {
		// A scrape client that hung up mid-encode is the usual cause;
		// the failure is the scraper's problem but must not be silent.
		s.cfg.Logger.Error("metrics: JSON encode failed", "err", err)
	}
}

// WritePrometheus renders the metrics in Prometheus text exposition
// format 0.0.4. Latency families are summaries (precomputed quantiles
// in seconds); counter families carry the same values as the JSON
// document. Exported so the format self-check can scrape it directly.
func (s *Server) WritePrometheus(w io.Writer) error {
	p := obs.NewPromWriter(w)
	p.Gauge("vxad_uptime_seconds", "Seconds since the server started.", nil, time.Since(s.start).Seconds())
	p.Counter("vxad_requests_total", "HTTP requests received.", nil, float64(s.requests.Load()))
	p.Counter("vxad_errors_total", "Responses with a 5xx status.", nil, float64(s.errors.Load()))
	p.Counter("vxad_bytes_in_total", "Request body bytes read.", nil, float64(s.bytesIn.Load()))
	p.Counter("vxad_bytes_out_total", "Decoded bytes streamed to clients.", nil, float64(s.bytesOut.Load()))
	p.Counter("vxad_truncated_streams_total", "Streams aborted after partial output.", nil, float64(s.truncated.Load()))
	for class := 1; class < len(s.statusClass); class++ {
		p.Counter("vxad_responses_total", "Responses by status class.",
			map[string]string{"class": fmt.Sprintf("%dxx", class)}, float64(s.statusClass[class].Load()))
	}
	p.Counter("vxad_responses_total", "", map[string]string{"class": "499"}, float64(s.statusClass[0].Load()))
	for _, k := range errorKinds {
		p.Counter("vxad_error_kinds_total", "Typed archive failures by core.ErrorKind.",
			map[string]string{"kind": k.String()}, float64(s.errKinds[k].Load()))
	}

	ready, _ := s.Readiness()
	p.Gauge("vxad_ready", "1 while the daemon should receive traffic, else 0.", nil, boolGauge(ready))
	p.Gauge("vxad_draining", "1 while the daemon is draining for shutdown.", nil, boolGauge(s.draining.Load()))

	adm := s.adm.Stats()
	p.Gauge("vxad_admission_in_flight", "Decode streams currently running.", nil, float64(adm.InFlight))
	p.Gauge("vxad_admission_capacity", "Concurrent stream capacity.", nil, float64(adm.Capacity))
	p.Gauge("vxad_admission_queue_depth", "Requests waiting for a slot.", nil, float64(adm.QueueDepth))
	p.Counter("vxad_admission_admitted_total", "Requests granted a stream slot.", nil, float64(adm.Admitted))
	p.Counter("vxad_admission_shed_total", "Requests shed with 503 (queue full).", nil, float64(adm.Shed))
	p.Counter("vxad_admission_shed_cold_total", "Cold (snapshot-miss) requests shed at the cold watermark.", nil, float64(adm.ShedCold))
	p.Counter("vxad_admission_expired_total", "Requests expired with 504 (queue timeout).", nil, float64(adm.Expired))

	cache := s.cache.Stats()
	p.Counter("vxad_snapcache_hits_total", "Snapshot cache hits.", nil, float64(cache.Hits))
	p.Counter("vxad_snapcache_misses_total", "Snapshot cache misses (builds).", nil, float64(cache.Misses))
	p.Counter("vxad_snapcache_evictions_total", "Snapshot cache evictions.", nil, float64(cache.Evictions))
	p.Counter("vxad_snapcache_quarantined_total", "Snapshot lines evicted by decoder quarantine.", nil, float64(cache.Quarantined))
	p.Counter("vxad_snapcache_shrinks_total", "Emergency cache shrinks (memory watermark).", nil, float64(cache.Shrinks))
	p.Gauge("vxad_snapcache_entries", "Resident snapshot cache entries.", nil, float64(cache.Entries))
	p.Gauge("vxad_snapcache_bytes", "Resident snapshot cache bytes (live footprint).", nil, float64(cache.Bytes))
	p.Gauge("vxad_snapcache_orphan_bytes", "Snapshot bytes pinned by evicted lines with in-flight leases.", nil, float64(cache.OrphanBytes))
	p.Gauge("vxad_snapcache_traces", "Compiled tier-2 traces carried by resident snapshots.", nil, float64(cache.Traces))

	engine := cache.VM
	p.Counter("vxad_engine_steps_total", "Guest instructions retired across released streams.", nil, float64(engine.Steps))
	p.Counter("vxad_engine_uops_total", "Micro-ops executed across released streams.", nil, float64(engine.UopsExecuted))
	p.Counter("vxad_engine_superblocks_formed_total", "Hot-path superblocks assembled from edge profiles.", nil, float64(engine.SuperblocksFormed))
	p.Counter("vxad_engine_tier2_compiled_total", "Superblock traces compiled to tier-2 code.", nil, float64(engine.Tier2Compiled))
	p.Counter("vxad_engine_tier2_shared_total", "Compiled tier-2 traces installed from a snapshot at VM build or reset instead of compiled.", nil, float64(engine.Tier2Shared))
	p.Counter("vxad_engine_tier2_executed_total", "Tier-2 trace iterations run (one full superblock pass each).", nil, float64(engine.Tier2Executed))
	p.Counter("vxad_engine_tier2_exits_total", "Returns from compiled code to the dispatcher (one per run of linked traces).", nil, float64(engine.Tier2Exits))
	p.Counter("vxad_engine_tier2_resumes_total", "Trace passes that a failed check of a group of memory operands handed to the tier-1 loop mid-superblock (part of exits_total).", nil, float64(engine.Tier2Resumes))
	p.Counter("vxad_engine_tier2_links_total", "Trace exits linked straight to another trace's entry.", nil, float64(engine.Tier2Links))
	p.Counter("vxad_engine_tier2_steps_total", "Guest instructions retired inside tier-2 traces.", nil, float64(engine.Tier2Steps))
	p.Counter("vxad_engine_tier2_refused_total", "Traces emitted and then turned away by a full or unavailable code arena.", nil, float64(engine.Tier2Refused))
	p.Counter("vxad_engine_translate_seconds_total", "Wall time spent translating guest code: block decode and lowering plus trace compilation.", nil, float64(engine.TranslateNS)/1e9)
	p.Counter("vxad_engine_superblock_seconds_total", "Wall time spent forming superblocks (not part of translate_seconds).", nil, float64(engine.SuperblockNS)/1e9)
	p.Counter("vxad_engine_tier2_emit_seconds_total", "Wall time spent emitting tier-2 code (part of translate_seconds).", nil, float64(engine.Tier2EmitNS)/1e9)
	p.Counter("vxad_engine_tier2_seal_seconds_total", "Wall time spent copying tier-2 code into its arena (part of translate_seconds).", nil, float64(engine.Tier2SealNS)/1e9)
	p.Counter("vxad_engine_syscalls_total", "Guest syscalls serviced.", nil, float64(engine.Syscalls))

	if s.cfg.Artifacts != nil {
		st := s.cfg.Artifacts.Stats()
		p.Counter("vxad_artifact_hits_total", "Persistent artifact store hits (disk-warm builds).", nil, float64(st.Hits))
		p.Counter("vxad_artifact_misses_total", "Persistent artifact store misses.", nil, float64(st.Misses))
		p.Counter("vxad_artifact_fallbacks_total", "Artifact loads that failed verification and fell back to the ELF build.", nil, float64(st.Fallbacks))
		p.Counter("vxad_artifact_saves_total", "Artifacts written (builds plus flushes).", nil, float64(st.Saves))
		p.Counter("vxad_artifact_save_errors_total", "Artifact writes that failed.", nil, float64(st.SaveErrors))
		p.Counter("vxad_artifact_bytes_loaded_total", "Artifact bytes loaded from the store.", nil, float64(st.BytesLoaded))
		p.Counter("vxad_artifact_bytes_saved_total", "Artifact bytes written to the store.", nil, float64(st.BytesSaved))
		p.Counter("vxad_artifact_load_seconds_total", "Wall time spent in successful artifact loads.", nil, float64(st.LoadNanos)/1e9)
		p.Gauge("vxad_artifact_mapped_bytes", "Artifact bytes mapped under live snapshots.", nil, float64(st.MappedBytes))
	}

	health := cache.Health
	p.Gauge("vxad_breaker_open", "Decoder circuit breakers currently open.", nil, float64(health.Open))
	p.Gauge("vxad_breaker_half_open", "Decoder circuit breakers currently half-open (probing).", nil, float64(health.HalfOpen))
	p.Gauge("vxad_breaker_tracked", "Decoders with a live failure record.", nil, float64(health.Tracked))
	p.Counter("vxad_breaker_trips_total", "Breaker transitions to open.", nil, float64(health.Trips))
	p.Counter("vxad_breaker_probes_total", "Half-open probe admissions.", nil, float64(health.Probes))
	p.Counter("vxad_breaker_probe_successes_total", "Probes that closed a breaker.", nil, float64(health.ProbeSuccesses))
	for _, c := range []struct {
		class string
		n     uint64
	}{
		{"trap", health.Failures.Traps},
		{"fuel", health.Failures.Fuel},
		{"watchdog", health.Failures.Watchdog},
		{"build", health.Failures.Builds},
	} {
		p.Counter("vxad_decoder_failures_total", "Counted decoder failures by class.",
			map[string]string{"class": c.class}, float64(c.n))
	}

	for _, name := range sortedKeys(s.epHist) {
		p.Summary("vxad_request_duration_seconds", "Request latency by endpoint.",
			map[string]string{"endpoint": name}, s.epHist[name].Snapshot())
	}
	s.mu.Lock()
	codecSnaps := make(map[string]obs.HistSnapshot, len(s.codecHist))
	for name, h := range s.codecHist {
		codecSnaps[name] = h.Snapshot()
	}
	s.mu.Unlock()
	for _, name := range sortedKeys(codecSnaps) {
		p.Summary("vxad_codec_duration_seconds", "Decode latency by codec.",
			map[string]string{"codec": name}, codecSnaps[name])
	}
	for _, st := range obs.Stages() {
		snap := s.stageHist[st].Snapshot()
		if snap.Count == 0 {
			continue
		}
		p.Summary("vxad_stage_duration_seconds", "Per-stage time within traced requests.",
			map[string]string{"stage": st.String()}, snap)
	}
	return p.Err()
}

// boolGauge renders a boolean as a 0/1 gauge value.
func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// sortedKeys returns m's keys sorted, for deterministic exposition.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// ---------- request plumbing ----------

// ShardHeader is the response header naming the shard that served a
// request (Config.ShardID). The router forwards it untouched, so a
// client two hops away can still attribute its bytes to a process.
const ShardHeader = "X-Vxa-Shard"

// StatusClientClosedRequest is the (nginx-convention) status recorded
// when the client's own context canceled the work mid-request; the
// client is gone, so the code is for logs and metrics, not the wire.
const StatusClientClosedRequest = 499

// StatusDecoderQuarantined is the status for requests failed fast
// because the entry's decoder is under circuit-breaker quarantine. A
// dedicated non-standard code (the 52x range is conventional for
// origin-side trouble) so clients and dashboards can tell "your decoder
// is quarantined, retry after the probe window" apart from both 422
// (your decoder just crashed) and 503 (the whole daemon is overloaded).
const StatusDecoderQuarantined = 521

// kindStatus maps the library's error taxonomy onto HTTP statuses — the
// v2 replacement for classifying failures by error-string shape. Every
// core.ErrorKind has a row; the round-trip test pins that.
var kindStatus = map[core.ErrorKind]int{
	core.KindBadArchive:    http.StatusBadRequest,          // the request body is at fault
	core.KindUnknownCodec:  http.StatusNotFound,            // nothing can decode the entry
	core.KindDecoderTrap:   http.StatusUnprocessableEntity, // well-formed request, hostile/buggy decoder
	core.KindFuelExhausted: http.StatusUnprocessableEntity, // decoder exceeded its instruction budget
	core.KindOutputLimit:   http.StatusRequestEntityTooLarge,
	core.KindCanceled:      StatusClientClosedRequest,
	core.KindIO:            http.StatusInternalServerError, // host-side fault, not the client's
	core.KindUnavailable:   http.StatusServiceUnavailable,  // lease machinery failed or load shed
	core.KindQuarantined:   StatusDecoderQuarantined,
	core.KindDeadline:      http.StatusUnprocessableEntity, // decoder blew its wall-clock budget
}

// StatusFor resolves any error the serving paths produce to its HTTP
// status: typed archive errors through the kind table, admission and
// transport errors through their sentinels, everything else 500.
// Exported so the error-taxonomy round trip is testable end to end.
func StatusFor(err error) int {
	var ve *core.Error
	switch {
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrColdShed), errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrExpired):
		return http.StatusGatewayTimeout
	case errors.Is(err, vmpool.ErrDecoderQuarantined):
		return StatusDecoderQuarantined
	case errors.As(err, &ve):
		if status, ok := kindStatus[ve.Kind]; ok {
			return status
		}
	case errors.Is(err, zipfile.ErrFormat), errors.Is(err, errBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, errNotFound):
		return http.StatusNotFound
	case errors.As(err, new(*codec.DecodeError)):
		// Raw-stream decode failures (/v1/decode) that bypassed the
		// archive layer's classification.
		return http.StatusUnprocessableEntity
	case errors.As(err, new(*http.MaxBytesError)):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	}
	return http.StatusInternalServerError
}

// retryAfter derives the Retry-After hint for a fail-fast response:
// quarantine errors carry the exact time until the next half-open
// probe; overload and drain responses use a flat second.
func retryAfter(err error) string {
	var qe *vmpool.QuarantineError
	if errors.As(err, &qe) {
		secs := int(qe.RetryAfter/time.Second) + 1
		return strconv.Itoa(secs)
	}
	return "1"
}

// fail writes an error response with the status implied by err. The
// middleware derives the error counters from the status it sees on the
// way out; fail only files the typed-kind breakdown.
func (s *Server) fail(w http.ResponseWriter, err error) {
	s.noteErrorKind(err)
	status := StatusFor(err)
	if status == http.StatusServiceUnavailable || status == StatusDecoderQuarantined {
		w.Header().Set("Retry-After", retryAfter(err))
	}
	http.Error(w, err.Error(), status)
}

// noteErrorKind counts a typed archive failure under its ErrorKind.
func (s *Server) noteErrorKind(err error) {
	var ve *core.Error
	if errors.As(err, &ve) && int(ve.Kind) < len(s.errKinds) {
		s.errKinds[ve.Kind].Add(1)
	}
}

var (
	errBadRequest = errors.New("server: bad request")
	errNotFound   = errors.New("server: not found")
	// ErrDraining: the daemon is draining for shutdown; new decode work
	// is shed with 503 + Retry-After so clients re-resolve elsewhere.
	ErrDraining = errors.New("server: draining, not accepting new work")
)

// readBody reads the full request body under the size cap.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes))
	if err != nil {
		return nil, err
	}
	s.bytesIn.Add(uint64(len(body)))
	return body, nil
}

// admit runs the admission controller for one decode stream. The wait
// context is the request's own (a client disconnect counts as expiry)
// bounded by the configured queue timeout. Time spent waiting — slot
// granted or not — is the request's queue stage. cold marks requests
// that would have to build a decoder snapshot before streaming; those
// are the first tier shed under pressure.
//
// A wait that ends because the client itself went away is reported as a
// cancellation (499), not as a queue expiry: the admission machinery
// did nothing wrong, and filing client hangups under 504 would make the
// shed-rate readiness signal lie.
func (s *Server) admit(r *http.Request, cold bool) (release func(), err error) {
	if s.draining.Load() {
		return nil, ErrDraining
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.QueueTimeout)
	defer cancel()
	waitStart := time.Now()
	defer func() { obs.SpanFrom(r.Context()).Add(obs.StageQueue, time.Since(waitStart)) }()
	release, err = s.adm.AcquireTier(ctx, cold)
	if errors.Is(err, ErrExpired) && errors.Is(r.Context().Err(), context.Canceled) {
		return nil, &core.Error{Kind: core.KindCanceled, Trap: r.Context().Err()}
	}
	return release, err
}

// fuel computes the per-stream budget: the standard payload-scaled
// policy, capped by MaxFuel. An explicit ?fuel=N can only lower it —
// letting a request raise its own CPU budget would turn a tiny body
// into minutes of guest execution holding an admission slot.
func (s *Server) fuel(r *http.Request, payloadLen int) (int64, error) {
	f := vm.StreamFuel(payloadLen)
	if f > s.cfg.MaxFuel {
		f = s.cfg.MaxFuel
	}
	if q := r.URL.Query().Get("fuel"); q != "" {
		n, err := strconv.ParseInt(q, 10, 64)
		if err != nil || n <= 0 {
			return 0, fmt.Errorf("%w: bad fuel %q", errBadRequest, q)
		}
		if n < f {
			f = n
		}
	}
	return f, nil
}

// reader opens the archive in the request body, routed through the
// shared snapshot cache.
func (s *Server) reader(w http.ResponseWriter, r *http.Request) (*core.Reader, error) {
	body, err := s.readBody(w, r)
	if err != nil {
		return nil, err
	}
	cr, err := core.NewReader(body)
	if err != nil {
		return nil, err
	}
	cr.SetSnapCache(s.cache)
	return cr, nil
}

// countWriter tracks decoded bytes streamed to the client and pins the
// first write error (a severed client connection — or, under chaos
// testing, an injected response-write fault, which simulates exactly
// that). With sp set it also attributes write time to the span's write
// stage — only the raw-stream decode path sets it; archive extraction
// is timed by the core layer's own writer, and double counting would
// overstate the stage.
type countWriter struct {
	w   http.ResponseWriter
	sp  *obs.Span
	n   int64
	err error
}

func (c *countWriter) Write(p []byte) (int, error) {
	if err := fault.Inject(fault.ResponseWrite); err != nil {
		if c.err == nil {
			c.err = err
		}
		return 0, err
	}
	var start time.Time
	if c.sp != nil {
		start = time.Now()
	}
	n, err := c.w.Write(p)
	if c.sp != nil {
		c.sp.Add(obs.StageWrite, time.Since(start))
	}
	c.n += int64(n)
	if err != nil && c.err == nil {
		c.err = err
	}
	return n, err
}

// ---------- endpoints ----------

// entryInfo is one row of the /v1/entries listing.
type entryInfo struct {
	Name          string `json:"name"`
	Codec         string `json:"codec,omitempty"`
	Method        uint16 `json:"method"`
	PreCompressed bool   `json:"pre_compressed,omitempty"`
	USize         uint32 `json:"usize"`
	CSize         uint32 `json:"csize"`
	Mode          uint32 `json:"mode"`
}

func (s *Server) handleEntries(w http.ResponseWriter, r *http.Request) {
	cr, err := s.reader(w, r)
	if err != nil {
		s.fail(w, err)
		return
	}
	var out []entryInfo
	for _, e := range cr.Entries() {
		out = append(out, entryInfo{
			Name: e.Name, Codec: e.Codec, Method: e.Method,
			PreCompressed: e.PreCompressed, USize: e.USize, CSize: e.CSize,
			Mode: e.Mode,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// extractOptions builds the decode options shared by extract and verify.
func (s *Server) extractOptions(r *http.Request, fuel int64) []core.Option {
	mode := core.AlwaysVXA
	if r.URL.Query().Get("mode") == "native" {
		mode = core.NativeFirst
	}
	opts := []core.Option{
		core.WithMode(mode),
		core.WithVM(vm.Config{MemSize: s.cfg.MemSize, Fuel: fuel}),
	}
	if r.URL.Query().Get("decode_all") != "" {
		opts = append(opts, core.WithDecodeAll(true))
	}
	return opts
}

func (s *Server) handleExtract(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("entry")
	if name == "" {
		s.fail(w, fmt.Errorf("%w: missing ?entry=", errBadRequest))
		return
	}
	cr, err := s.reader(w, r)
	if err != nil {
		s.fail(w, err)
		return
	}
	var entry *core.Entry
	for i, e := range cr.Entries() {
		if e.Name == name {
			entry = &cr.Entries()[i]
			break
		}
	}
	if entry == nil {
		s.fail(w, fmt.Errorf("%w: entry %q", errNotFound, name))
		return
	}
	setCodec(r.Context(), entry.Codec)
	fuel, err := s.fuel(r, int(entry.CSize))
	if err != nil {
		s.fail(w, err)
		return
	}

	// Resolve the entry's decoder content hash before admission: a
	// quarantined decoder fails fast right here — no queue wait, no VM
	// lease — and a snapshot miss marks the request cold, the first
	// tier shed under load.
	cold := false
	if hash, ok, herr := cr.DecoderHash(entry); herr != nil {
		s.fail(w, herr)
		return
	} else if ok {
		if qerr := s.cache.CheckQuarantine(hash); qerr != nil {
			s.fail(w, &core.Error{Kind: core.KindQuarantined, Entry: entry.Name, Trap: qerr})
			return
		}
		cold = !s.cache.Contains(hash, entry.Mode)
	}

	release, err := s.admit(r, cold)
	if err != nil {
		s.fail(w, err)
		return
	}
	defer release()

	w.Header().Set("Content-Type", "application/octet-stream")
	cw := &countWriter{w: w}
	// The request's own context drives the decode: a client that
	// disconnects mid-stream cancels the guest at its next block
	// boundary, and the VM goes back to the shared pool immediately
	// instead of decoding for a reader that is gone.
	_, err = cr.ExtractTo(r.Context(), entry, cw, s.extractOptions(r, fuel)...)
	s.bytesOut.Add(uint64(cw.n))
	if err != nil {
		if cw.n == 0 {
			s.fail(w, err)
			return
		}
		// Decoded bytes already reached the client under a 200: all we
		// can do is cut the stream short so the truncation is visible.
		// The middleware files it under the truncated-streams counter.
		s.noteErrorKind(err)
		if fl, ok := w.(http.Flusher); ok {
			fl.Flush()
		}
		panic(http.ErrAbortHandler)
	}
}

// verifyResult is one row of the /v1/verify report.
type verifyResult struct {
	Name  string `json:"name"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	cr, err := s.reader(w, r)
	if err != nil {
		s.fail(w, err)
		return
	}
	release, err := s.admit(r, false)
	if err != nil {
		s.fail(w, err)
		return
	}
	defer release()

	// One admission slot covers the whole archive, so verification runs
	// serial: a verify request is one stream of work, however many
	// entries it touches.
	results := make([]verifyResult, 0, len(cr.Entries()))
	failed := 0
	for i := range cr.Entries() {
		e := &cr.Entries()[i]
		fuel, ferr := s.fuel(r, int(e.CSize))
		if ferr != nil {
			s.fail(w, ferr)
			return
		}
		res := verifyResult{Name: e.Name, OK: true}
		if _, err := cr.ExtractTo(r.Context(), e, io.Discard, s.extractOptions(r, fuel)...); err != nil {
			res.OK, res.Error = false, err.Error()
			failed++
		}
		results = append(results, res)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Entries int            `json:"entries"`
		Failed  int            `json:"failed"`
		Results []verifyResult `json:"results"`
	}{len(results), failed, results})
}

// decodeMode is the security mode /v1/decode streams run under: the
// endpoint serves public one-shot streams, so every request shares one
// reuse class per codec.
const decodeMode = 0644

// builtinCodec resolves a registered codec and the content hash of its
// decoder ELF (learned once per server). With an artifact store armed,
// the hash comes from the store's persistent ELF-hash index when
// possible: that is what lets a restarted daemon address a codec's
// snapshot artifact without first spending hundreds of milliseconds in
// the VXC compiler just to hash its output — the compile was the cold
// start. Only when the index misses is the decoder compiled, and the
// resulting hash is recorded for the next restart.
func (s *Server) builtinCodec(name string) (*codec.Codec, [32]byte, error) {
	c, ok := codec.ByName(name)
	if !ok {
		return nil, [32]byte{}, fmt.Errorf("%w: codec %q", errNotFound, name)
	}
	s.mu.Lock()
	h, ok := s.codecHash[name]
	s.mu.Unlock()
	if ok {
		return c, h, nil
	}
	if st := s.cfg.Artifacts; st != nil {
		if h, ok := st.LookupELF(c.SourceKey()); ok {
			s.mu.Lock()
			s.codecHash[name] = h
			s.mu.Unlock()
			return c, h, nil
		}
	}
	elf, err := c.DecoderELF()
	if err != nil {
		return nil, [32]byte{}, err
	}
	h = vmpool.HashELF(elf)
	if st := s.cfg.Artifacts; st != nil {
		// Best-effort: a failed record costs the next restart one
		// compile, nothing else.
		_ = st.RecordELF(c.SourceKey(), h)
	}
	s.mu.Lock()
	s.codecHash[name] = h
	s.mu.Unlock()
	return c, h, nil
}

// builtinELF returns the snapshot-miss build callback for a built-in
// codec whose content hash was resolved by builtinCodec. When the hash
// may have come from the ELF-hash index, the freshly compiled bytes
// are checked against it: a mismatch means the index entry predates an
// ELF-affecting compiler change that did not bump vxcc.Version, so the
// stale entry and the server's cached hash are dropped and the request
// fails loudly rather than filing the new decoder under the old
// address (a retry re-resolves cleanly). Mismatch is impossible when
// the hash was computed from this process's own compile — the build is
// cached per codec — so the check only ever fires on the index path.
func (s *Server) builtinELF(c *codec.Codec, hash [32]byte) func() ([]byte, error) {
	return func() ([]byte, error) {
		elf, err := c.DecoderELF()
		if err != nil {
			return nil, err
		}
		if vmpool.HashELF(elf) != hash {
			if st := s.cfg.Artifacts; st != nil {
				st.DropELF(c.SourceKey())
			}
			s.mu.Lock()
			delete(s.codecHash, c.Name)
			s.mu.Unlock()
			return nil, fmt.Errorf("server: codec %s: compiled decoder does not match indexed hash %x (stale ELF index entry dropped; was vxcc.Version bumped?)", c.Name, hash)
		}
		return elf, nil
	}
}

// PrewarmCodec restores one registered codec's decoder line from the
// persistent artifact store, if the store's ELF-hash index knows its
// content address: the snapshot line is built now — artifact load,
// pool seeded with a materialized (page-faulted) spare VM — so the
// codec's first request after a daemon restart runs at warm-cache
// latency instead of paying the probe, image load and VM
// materialization inline. An indexed-but-lost artifact self-heals
// through the normal miss path (compile fallback) here rather than on
// the first request. Reports whether the line was warmed; false when
// there is no store, the codec is unknown or unindexed, or the build
// failed (the first request will then retry the full path).
func (s *Server) PrewarmCodec(ctx context.Context, name string) bool {
	st := s.cfg.Artifacts
	if st == nil {
		return false
	}
	c, ok := codec.ByName(name)
	if !ok {
		return false
	}
	h, ok := st.LookupELF(c.SourceKey())
	if !ok {
		return false
	}
	s.mu.Lock()
	s.codecHash[c.Name] = h
	s.mu.Unlock()
	lease, err := s.cache.Get(ctx, h, decodeMode, 0, s.builtinELF(c, h))
	if err != nil {
		return false
	}
	lease.Release(true)
	return true
}

// PrewarmArtifacts prewarms every registered codec the artifact store's
// index has history for (see PrewarmCodec) and returns how many decoder
// lines were warmed. Codecs with no recorded history are skipped —
// prewarming never compiles speculatively, so daemon readiness is never
// delayed for a codec that may never be asked for. No-op without a
// store.
func (s *Server) PrewarmArtifacts(ctx context.Context) int {
	if s.cfg.Artifacts == nil {
		return 0
	}
	n := 0
	for _, c := range codec.All() {
		if s.PrewarmCodec(ctx, c.Name) {
			n++
		}
	}
	return n
}

func (s *Server) handleDecode(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("codec")
	if name == "" {
		s.fail(w, fmt.Errorf("%w: missing ?codec=", errBadRequest))
		return
	}
	c, hash, err := s.builtinCodec(name)
	if err != nil {
		s.fail(w, err)
		return
	}
	setCodec(r.Context(), name)
	payload, err := s.readBody(w, r)
	if err != nil {
		s.fail(w, err)
		return
	}
	fuel, err := s.fuel(r, len(payload))
	if err != nil {
		s.fail(w, err)
		return
	}

	// Built-in decoders get the same containment as archived ones: a
	// quarantined codec fails fast pre-admission, and a snapshot miss
	// rides the cold tier.
	if qerr := s.cache.CheckQuarantine(hash); qerr != nil {
		s.fail(w, &core.Error{Kind: core.KindQuarantined, Entry: name, Trap: qerr})
		return
	}
	release, err := s.admit(r, !s.cache.Contains(hash, decodeMode))
	if err != nil {
		s.fail(w, err)
		return
	}
	defer release()

	// Scope 0 (the single trusted tenant): /v1/decode runs only the
	// registry's own compiled decoders, which carry no per-client
	// secrets, so resume-in-place across requests is safe and keeps the
	// endpoint at warm-cache latency.
	lease, err := s.cache.Get(r.Context(), hash, decodeMode, 0, s.builtinELF(c, hash))
	if err != nil {
		s.fail(w, core.ClassifyDecode(name, err, r.Context().Err()))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	sp := obs.SpanFrom(r.Context())
	cw := &countWriter{w: w, sp: sp}
	var diag bytes.Buffer
	st0 := lease.VM().Stats()
	reusable, err := lease.VM().RunStream(r.Context(), bytes.NewReader(payload), cw, &diag, fuel)
	st1 := lease.VM().Stats()
	sp.Add(obs.StageTranslate, time.Duration(st1.TranslateNS-st0.TranslateNS))
	sp.Add(obs.StageExecute, time.Duration(st1.ExecuteNS-st0.ExecuteNS))
	s.bytesOut.Add(uint64(cw.n))
	if err != nil {
		switch {
		case vm.IsCanceled(err):
			// The client is gone; reset the VM to pristine and park it.
			lease.ReleaseReset()
			panic(http.ErrAbortHandler)
		case vm.IsWatchdog(err):
			// Wall-clock kill: the VM rewinds clean; the kill counts
			// against the codec's breaker.
			s.cache.Report(hash, vmpool.OutcomeWatchdog)
			lease.ReleaseReset()
			if cw.n == 0 {
				s.fail(w, &core.Error{Kind: core.KindDeadline, Entry: name, Trap: err})
				return
			}
			panic(http.ErrAbortHandler)
		case cw.err != nil && errors.Is(cw.err, fault.ErrInjected):
			// An injected response-write fault severed the stream from
			// the host side — the guest only saw EIO. Not the decoder's
			// fault; same containment as a vanished client.
			lease.ReleaseReset()
			if cw.n == 0 {
				s.fail(w, &core.Error{Kind: core.KindCanceled, Entry: name, Trap: cw.err})
				return
			}
			panic(http.ErrAbortHandler)
		}
		s.cache.Report(hash, vmpool.OutcomeFor(err))
		de := codec.ClassifyDecodeError(name, err, lease.VM().ExitCode(), diag.String())
		lease.Release(false)
		if cw.n == 0 {
			s.fail(w, de)
			return
		}
		panic(http.ErrAbortHandler)
	}
	s.cache.Report(hash, vmpool.OutcomeOK)
	lease.Release(reusable)
}
