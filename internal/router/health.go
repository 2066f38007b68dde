package router

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"time"

	"vxa/internal/breaker"
	"vxa/internal/server"
)

// Per-backend health. Two signals gate routing to a shard:
//
//   - The readyz verdict, refreshed by a background poller: a shard
//     that reports draining, open breakers or sustained shedding (or
//     that cannot be reached at all) leaves the usable set until it
//     reports ready again. This is what makes shard drain a non-event
//     — vxad flips /readyz before its listener closes, the poller sees
//     it, and the shard's keys move before a single request can strand
//     on a closing socket.
//
//   - In-band outcomes feeding the shard's circuit breaker (the same
//     internal/breaker as the decoder quarantine): consecutive counted
//     failures (dial/transport errors and 503/521 responses) trip it
//     open, requests then skip the backend until an exponential-backoff
//     half-open probe admits one and its success closes the breaker.
//     Additionally a 503's Retry-After is honored as a hold-down: the
//     shard said "not before T", so until T it is simply not a
//     candidate. (A 521's Retry-After is decoder-scoped, not
//     shard-scoped, and deliberately does NOT hold the whole backend —
//     one poisoned decoder must not evict a healthy shard from every
//     other key's ring.)
//
// Successes reset the breaker, so under mixed traffic an occasional
// shed never accumulates into a trip; only a consecutive run does.

// HealthConfig tunes the per-backend breaker and the readyz poller.
type HealthConfig struct {
	// Config is the breaker: zero fields select the DefaultBreaker
	// values; a negative Threshold disables it (readyz polling and
	// hold-downs still apply).
	breaker.Config
	// PollInterval is the readyz poll period. 0 selects the default.
	PollInterval time.Duration
}

// Health defaults.
const (
	DefaultBreakerThreshold = 3
	DefaultBreakerBackoff   = 250 * time.Millisecond
	DefaultBreakerMax       = 15 * time.Second
	DefaultPollInterval     = 250 * time.Millisecond
	DefaultPollTimeout      = time.Second // bounds one readyz poll
)

// ErrNoBackends is wrapped by the 503 the router serves when no usable
// backend remains for a key (all dead, draining, held down or open).
var ErrNoBackends = errors.New("router: no usable backend")

// backendState is one shard's health record.
type backendState struct {
	mu    sync.Mutex
	ready bool // last readyz verdict (optimistic before the first poll)
	breaker.Breaker
}

// healthSet tracks every backend.
type healthSet struct {
	cfg HealthConfig
	m   map[string]*backendState
}

func newHealthSet(cfg HealthConfig, ids []string) *healthSet {
	cfg.Config = cfg.Config.WithDefaults(breaker.Config{
		Threshold:  DefaultBreakerThreshold,
		Backoff:    DefaultBreakerBackoff,
		MaxBackoff: DefaultBreakerMax,
	})
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = DefaultPollInterval
	}
	h := &healthSet{cfg: cfg, m: make(map[string]*backendState, len(ids))}
	for _, id := range ids {
		// Optimistic start: a router boots routable and lets the first
		// poll (or the first in-band failure) correct it, rather than
		// shedding everything until the poller has been around once.
		h.m[id] = &backendState{ready: true}
	}
	return h
}

// lock returns the backend's record, locked.
func (h *healthSet) lock(id string) *backendState {
	b := h.m[id]
	b.mu.Lock()
	return b
}

// acquire reports whether a request may be routed to the backend right
// now; when the breaker's backoff has elapsed the caller has just
// become its half-open probe.
func (h *healthSet) acquire(id string) bool {
	b := h.lock(id)
	defer b.mu.Unlock()
	return b.ready && b.Allow(time.Now()) == 0
}

// usable reports whether acquire would currently admit the backend,
// without admitting a probe (safe to poll; used by readiness).
func (h *healthSet) usable(id string) bool {
	b := h.lock(id)
	defer b.mu.Unlock()
	return b.ready && b.Wait(time.Now()) == 0
}

// reportSuccess files a working response (any response proving the
// shard is alive and functioning, shed or not): the breaker closes.
func (h *healthSet) reportSuccess(id string) {
	b := h.lock(id)
	b.Success()
	b.mu.Unlock()
}

// reportFailure files a counted failure (dial/transport error, 503,
// 521).
func (h *healthSet) reportFailure(id string) {
	b := h.lock(id)
	b.Failure(h.cfg.Config, time.Now())
	b.mu.Unlock()
}

// holdDown honors a Retry-After: the backend is not a candidate until
// the hold elapses. Never shortens an existing hold.
func (h *healthSet) holdDown(id string, d time.Duration) {
	b := h.lock(id)
	b.Hold(time.Now().Add(d))
	b.mu.Unlock()
}

// setReady records a readyz poll verdict.
func (h *healthSet) setReady(id string, ready bool) {
	b := h.lock(id)
	b.ready = ready
	b.mu.Unlock()
}

// retryHint returns the shortest time until some backend could become
// usable again (hold-down expiry or probe admission), for the router's
// own Retry-After when everything is out. Zero means "no timed hint";
// the caller falls back to the flat second.
func (h *healthSet) retryHint() time.Duration {
	now := time.Now()
	var best time.Duration
	for _, b := range h.m {
		b.mu.Lock()
		d := b.Wait(now)
		b.mu.Unlock()
		if d > 0 && (best == 0 || d < best) {
			best = d
		}
	}
	return best
}

// BackendStats is one backend's health and traffic view in the
// router's metrics document.
type BackendStats struct {
	Backend        string `json:"backend"`
	Ready          bool   `json:"ready"`
	Breaker        string `json:"breaker"`
	HeldDown       bool   `json:"held_down"`
	Trips          uint64 `json:"breaker_trips"`
	Probes         uint64 `json:"breaker_probes"`
	ProbeSuccesses uint64 `json:"breaker_probe_successes"`
	Routed         uint64 `json:"routed"`
	Retries        uint64 `json:"retries"`
	Hedges         uint64 `json:"hedges"`
	HedgeWins      uint64 `json:"hedge_wins"`
	Failures       uint64 `json:"failures"`
}

// stats fills the health half of one backend's row.
func (h *healthSet) stats(id string) BackendStats {
	b := h.lock(id)
	defer b.mu.Unlock()
	return BackendStats{
		Backend:        id,
		Ready:          b.ready,
		Breaker:        b.State().String(),
		HeldDown:       b.Held(time.Now()),
		Trips:          b.Trips,
		Probes:         b.Probes,
		ProbeSuccesses: b.ProbeSuccesses,
	}
}

// poll probes one backend's /readyz once and files the verdict. Any
// transport failure or non-200 is "not ready"; the body is the shard's
// own readiness document and is not second-guessed.
func (rt *Router) poll(ctx context.Context, id string) {
	ctx, cancel := context.WithTimeout(ctx, DefaultPollTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rt.backendURL(id)+"/readyz", nil)
	if err != nil {
		rt.health.setReady(id, false)
		return
	}
	resp, err := rt.pollClient(id).Do(req)
	if err != nil {
		rt.health.setReady(id, false)
		return
	}
	defer resp.Body.Close()
	var doc struct {
		Ready bool `json:"ready"`
	}
	ready := resp.StatusCode == http.StatusOK &&
		json.NewDecoder(resp.Body).Decode(&doc) == nil && doc.Ready
	rt.health.setReady(id, ready)
	if !ready {
		// The shard told us when to look again (draining shards answer
		// with Retry-After); honor it like any in-band hold-down so the
		// usable set and the in-band view agree.
		if d, ok := server.ParseRetryAfter(resp.Header); ok {
			rt.health.holdDown(id, d)
		}
	}
}

// pollLoop refreshes every backend's readiness until stop is closed.
func (rt *Router) pollLoop() {
	defer close(rt.pollDone)
	t := time.NewTicker(rt.health.cfg.PollInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.pollStop:
			return
		case <-t.C:
		}
		for _, id := range rt.ring.Backends() {
			rt.poll(rt.baseCtx, id)
		}
	}
}
