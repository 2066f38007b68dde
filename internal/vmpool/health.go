package vmpool

import (
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"vxa/internal/breaker"
	"vxa/internal/vm"
)

// Decoder health tracking: a per-decoder-content-hash circuit breaker
// (internal/breaker).
//
// An archive carries arbitrary decoder code, so a single poisoned or
// pathological decoder ELF can otherwise burn a VM lease (and a
// snapshot rebuild) on every request that references it. The breaker
// accounts the failure classes that indict the decoder itself — traps,
// fuel exhaustion, watchdog kills, snapshot-build failures — and after
// Threshold consecutive failures opens: requests for that content hash
// fail fast with ErrDecoderQuarantined, no VM leased, until a
// half-open probe admits one request per backoff interval.
//
// Deliberately NOT counted: nonzero decoder exits and stream protocol
// violations (routinely caused by corrupt *payloads*, and quarantining
// a shared codec because one client uploads garbage would be a denial
// of service), cancellations, and host-side I/O errors. Accounting is
// keyed by content hash alone, as is the SnapCache line a trip evicts:
// a decoder that fails under one security mode is quarantined under all
// of them, since the code is identical.

// Health-tracking defaults, selected by zero breaker.Config fields.
const (
	DefaultBreakerThreshold  = 5
	DefaultBreakerBackoff    = 500 * time.Millisecond
	DefaultBreakerMaxBackoff = 30 * time.Second
)

// ErrDecoderQuarantined is the sentinel matched (via errors.Is) by the
// fail-fast error returned while a decoder's breaker is open.
var ErrDecoderQuarantined = errors.New("vmpool: decoder quarantined")

// QuarantineError is the concrete fail-fast error: it names the
// quarantined decoder and how long until the next half-open probe is
// admitted (the serving layer's Retry-After).
type QuarantineError struct {
	Hash       [32]byte
	RetryAfter time.Duration
}

func (e *QuarantineError) Error() string {
	return fmt.Sprintf("vmpool: decoder %s quarantined (next probe in %v)",
		hex.EncodeToString(e.Hash[:8]), e.RetryAfter)
}

// Is makes errors.Is(err, ErrDecoderQuarantined) match.
func (e *QuarantineError) Is(target error) bool { return target == ErrDecoderQuarantined }

// Outcome classifies one finished decoder stream (or failed snapshot
// build) for health accounting.
type Outcome int

// Outcomes.
const (
	// OutcomeIgnore says the event carries no signal about the
	// decoder's health (cancellation, host I/O failure, payload-driven
	// nonzero exit) and must not move the breaker either way.
	OutcomeIgnore Outcome = iota
	// OutcomeOK is a successfully decoded stream.
	OutcomeOK
	// OutcomeTrap is a guest trap (memory, illegal instruction, bad
	// syscall, divide, read-only write).
	OutcomeTrap
	// OutcomeFuel is instruction-budget exhaustion.
	OutcomeFuel
	// OutcomeWatchdog is a wall-clock watchdog kill.
	OutcomeWatchdog
	// OutcomeBuildFail is a failed decoder snapshot build.
	OutcomeBuildFail
)

// OutcomeFor maps a stream error to its health outcome. The error is
// the raw stream error (before core-level classification): traps and
// watchdog kills indict the decoder; fuel exhaustion surfaces as a
// fuel trap; everything else — cancellations, nonzero exits, write
// failures — is noise the breaker must not act on.
func OutcomeFor(err error) Outcome {
	if err == nil {
		return OutcomeOK
	}
	if vm.IsWatchdog(err) {
		return OutcomeWatchdog
	}
	if vm.IsCanceled(err) {
		return OutcomeIgnore
	}
	var trap *vm.Trap
	if errors.As(err, &trap) {
		if trap.Kind == vm.TrapFuel {
			return OutcomeFuel
		}
		return OutcomeTrap
	}
	return OutcomeIgnore
}

// FailureCounts tallies counted decoder failures by class.
type FailureCounts struct {
	Traps    uint64 `json:"traps"`
	Fuel     uint64 `json:"fuel"`
	Watchdog uint64 `json:"watchdog"`
	Builds   uint64 `json:"builds"`
}

// HealthStats is a point-in-time view of decoder health tracking.
type HealthStats struct {
	// Tracked is the number of decoders with a live failure record
	// (healthy decoders are dropped on their next success).
	Tracked int `json:"tracked"`
	// Open and HalfOpen count breakers currently in those states.
	Open     int `json:"open"`
	HalfOpen int `json:"half_open"`
	// Trips counts closed/half-open → open transitions.
	Trips uint64 `json:"trips"`
	// Probes counts half-open probe admissions; ProbeSuccesses counts
	// the ones that closed the breaker.
	Probes         uint64 `json:"probes"`
	ProbeSuccesses uint64 `json:"probe_successes"`
	// Failures tallies counted decoder failures by class.
	Failures FailureCounts `json:"failures"`
}

// Health keeps one breaker per decoder content hash, and drops it on the
// decoder's next clean stream. A nil *Health is valid and tracks
// nothing.
type Health struct {
	cfg breaker.Config
	now func() time.Time // the clock; TestSnapCacheQuarantine swaps it

	mu      sync.Mutex
	m       map[[32]byte]*breaker.Breaker
	retired breaker.Counters // counters of breakers dropped on success
	fails   FailureCounts
}

// NewHealth creates a health tracker; zero cfg fields select the
// DefaultBreaker values. A negative Threshold returns nil, the tracker
// that is permanently disabled.
func NewHealth(cfg breaker.Config) *Health {
	if cfg.Threshold < 0 {
		return nil
	}
	cfg = cfg.WithDefaults(breaker.Config{
		Threshold:  DefaultBreakerThreshold,
		Backoff:    DefaultBreakerBackoff,
		MaxBackoff: DefaultBreakerMaxBackoff,
	})
	return &Health{cfg: cfg, now: time.Now, m: make(map[[32]byte]*breaker.Breaker)}
}

func (h *Health) disabled() bool { return h == nil }

// Allow gates a request for the decoder: nil means proceed (including
// the admission of a half-open probe once per backoff interval); a
// *QuarantineError means fail fast without leasing anything.
func (h *Health) Allow(hash [32]byte) error { return h.gate(hash, true) }

// Check returns the fail-fast *QuarantineError Allow would return, or
// nil when a request for the hash may proceed. Unlike Allow it never
// admits a probe, so serving layers can fail quarantined requests
// before paying for admission without stealing the probe slot from the
// request that will actually run.
func (h *Health) Check(hash [32]byte) error { return h.gate(hash, false) }

func (h *Health) gate(hash [32]byte, admit bool) error {
	if h.disabled() {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	b := h.m[hash]
	if b == nil {
		return nil
	}
	var wait time.Duration
	if admit {
		wait = b.Allow(h.now())
	} else {
		wait = b.Wait(h.now())
	}
	if wait > 0 {
		return &QuarantineError{Hash: hash, RetryAfter: wait}
	}
	return nil
}

// Report feeds one outcome into the hash's breaker and reports whether
// this report tripped it open (the caller then quarantine-evicts the
// decoder's cached snapshot, so a poisoned line is rebuilt rather than
// reshared when the breaker eventually closes).
func (h *Health) Report(hash [32]byte, o Outcome) (opened bool) {
	if h.disabled() || o == OutcomeIgnore {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	b := h.m[hash]
	switch o {
	case OutcomeOK:
		if b != nil {
			// Healthy again: drop the record, which keeps the map bounded
			// by the number of currently-unhealthy decoders.
			b.Success()
			h.retired.Add(b.Counters)
			delete(h.m, hash)
		}
		return false
	case OutcomeTrap:
		h.fails.Traps++
	case OutcomeFuel:
		h.fails.Fuel++
	case OutcomeWatchdog:
		h.fails.Watchdog++
	case OutcomeBuildFail:
		h.fails.Builds++
	}
	if b == nil {
		b = new(breaker.Breaker)
		h.m[hash] = b
	}
	return b.Failure(h.cfg, h.now())
}

// Stats returns a point-in-time view.
func (h *Health) Stats() HealthStats {
	if h.disabled() {
		return HealthStats{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HealthStats{Tracked: len(h.m), Failures: h.fails}
	c := h.retired
	for _, b := range h.m {
		c.Add(b.Counters)
		switch b.State() {
		case breaker.Open:
			s.Open++
		case breaker.HalfOpen:
			s.HalfOpen++
		}
	}
	s.Trips, s.Probes, s.ProbeSuccesses = c.Trips, c.Probes, c.ProbeSuccesses
	return s
}
