// Package breaker is the circuit breaker every serving layer shares:
// the decoder quarantine in vmpool, the per-shard breaker in the router
// and the client's Retry-After hold-down.
//
// Threshold consecutive failures open a Breaker. While open it admits
// nothing until its backoff elapses; then it goes half-open and admits
// one probe per backoff interval. A probe that succeeds closes it; one
// that fails reopens it with the backoff doubled, capped at MaxBackoff.
// An admitted probe advances the next admission at once, so a probe
// whose outcome never arrives (caller crashed, request canceled) only
// means the next probe is admitted one backoff later: the breaker cannot
// wedge waiting for a report. Independently of all that, Hold keeps the
// breaker refusing until a given time (a peer's Retry-After).
//
// A Breaker has no lock of its own; its owner serializes calls. Every
// method that reads the clock takes now explicitly.
package breaker

import (
	"fmt"
	"time"
)

// State is a breaker's position in the closed → open → half-open cycle.
type State int32

// Breaker states.
const (
	// Closed: healthy; requests flow.
	Closed State = iota
	// Open: requests fail fast until the backoff elapses.
	Open
	// HalfOpen: a probe has been admitted; its outcome decides reopen
	// vs close, and if none arrives the next probe is admitted one
	// backoff later.
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("State(%d)", int32(s))
}

// Config tunes a breaker.
type Config struct {
	// Threshold is the consecutive-failure count that opens the breaker.
	// Negative never trips.
	Threshold int
	// Backoff is the initial open → half-open probe delay. Each failed
	// probe doubles it, up to MaxBackoff.
	Backoff    time.Duration
	MaxBackoff time.Duration
}

// WithDefaults returns c with its zero (or, for the durations,
// non-positive) fields taken from def.
func (c Config) WithDefaults(def Config) Config {
	if c.Threshold == 0 {
		c.Threshold = def.Threshold
	}
	if c.Backoff <= 0 {
		c.Backoff = def.Backoff
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = def.MaxBackoff
	}
	return c
}

// Counters are a breaker's transition counts.
type Counters struct {
	// Trips counts closed/half-open → open transitions.
	Trips uint64
	// Probes counts half-open probe admissions; ProbeSuccesses counts
	// the ones that closed the breaker.
	Probes         uint64
	ProbeSuccesses uint64
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.Trips += o.Trips
	c.Probes += o.Probes
	c.ProbeSuccesses += o.ProbeSuccesses
}

// Breaker is one guarded resource's breaker. The zero value is closed.
type Breaker struct {
	Counters

	state       State
	consecutive int
	backoff     time.Duration // current probe delay; 0 until the first trip
	retryAt     time.Time     // open or half-open: next probe admission
	holdUntil   time.Time
}

// State returns the breaker's state.
func (b *Breaker) State() State { return b.state }

// Held reports whether a hold is in force at now.
func (b *Breaker) Held(now time.Time) bool { return now.Before(b.holdUntil) }

// Wait returns how long until the breaker could next admit a request,
// 0 meaning it would admit one now. It covers the hold and an open or
// probing breaker; when both are pending it is the sooner of the two,
// the first moment anything changes. Wait never admits a probe, so it is
// safe to poll.
func (b *Breaker) Wait(now time.Time) time.Duration {
	var d time.Duration
	if now.Before(b.holdUntil) {
		d = b.holdUntil.Sub(now)
	}
	if b.state != Closed && now.Before(b.retryAt) {
		if r := b.retryAt.Sub(now); d == 0 || r < d {
			d = r
		}
	}
	return d
}

// Allow is Wait, except that when Wait is 0 on a breaker that is not
// closed the caller becomes the probe: the breaker goes half-open and
// the next admission moves one backoff on.
func (b *Breaker) Allow(now time.Time) time.Duration {
	if d := b.Wait(now); d > 0 {
		return d
	}
	if b.state != Closed {
		b.state = HalfOpen
		b.retryAt = now.Add(b.backoff)
		b.Probes++
	}
	return 0
}

// Success files a working outcome: the breaker closes and its failure
// count and backoff reset.
func (b *Breaker) Success() {
	if b.state == HalfOpen {
		b.ProbeSuccesses++
	}
	b.state = Closed
	b.consecutive = 0
	b.backoff = 0
}

// Failure files a counted failure and reports whether it opened the
// breaker. A failed probe reopens it with the backoff doubled; a failure
// while already open is a straggler from before the trip and changes
// nothing.
func (b *Breaker) Failure(cfg Config, now time.Time) (opened bool) {
	if cfg.Threshold < 0 {
		return false
	}
	b.consecutive++
	switch b.state {
	case Open:
		return false
	case HalfOpen:
		b.backoff = min(2*b.backoff, cfg.MaxBackoff)
	default:
		if b.consecutive < cfg.Threshold {
			return false
		}
		b.backoff = cfg.Backoff
	}
	b.state = Open
	b.retryAt = now.Add(b.backoff)
	b.Trips++
	return true
}

// Hold refuses admission until the given time. It never shortens a hold
// already in force.
func (b *Breaker) Hold(until time.Time) {
	if until.After(b.holdUntil) {
		b.holdUntil = until
	}
}
