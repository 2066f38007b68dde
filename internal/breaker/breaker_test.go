package breaker

import (
	"testing"
	"time"
)

var t0 = time.Unix(1000, 0)

func at(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }

// The full walk: closed → open after Threshold consecutive failures,
// fail-fast while open, half-open probe after the backoff, reopen with
// doubled backoff on a failed probe, closed again on a successful one.
func TestBreakerStateMachine(t *testing.T) {
	cfg := Config{Threshold: 3, Backoff: 100 * time.Millisecond, MaxBackoff: time.Second}
	var b Breaker

	// A success wipes the consecutive count: two failures + success +
	// two failures never reaches the threshold of 3.
	b.Failure(cfg, at(0))
	b.Failure(cfg, at(0))
	b.Success()
	b.Failure(cfg, at(0))
	if opened := b.Failure(cfg, at(0)); opened {
		t.Fatal("breaker opened below threshold")
	}
	if b.State() != Closed {
		t.Fatalf("state %v, want closed", b.State())
	}
	if d := b.Allow(at(0)); d != 0 {
		t.Fatalf("closed breaker refused a request for %v", d)
	}

	// Third consecutive failure trips it.
	if opened := b.Failure(cfg, at(0)); !opened {
		t.Fatal("threshold-reaching failure did not open the breaker")
	}
	if b.State() != Open {
		t.Fatalf("state %v, want open", b.State())
	}
	if d := b.Wait(at(40)); d != 60*time.Millisecond {
		t.Fatalf("Wait while open = %v, want the rest of the backoff (60ms)", d)
	}
	if d := b.Allow(at(40)); d != 60*time.Millisecond {
		t.Fatalf("open breaker: Allow = %v, want 60ms", d)
	}
	// A straggler from before the trip changes nothing.
	if opened := b.Failure(cfg, at(50)); opened || b.Wait(at(50)) != 50*time.Millisecond {
		t.Fatal("a failure while open moved the breaker")
	}

	// After the backoff: exactly one probe is admitted per interval, and
	// Wait, which never admits, says so before and after.
	if d := b.Wait(at(150)); d != 0 {
		t.Fatalf("Wait with a probe due = %v, want 0", d)
	}
	if d := b.Allow(at(150)); d != 0 {
		t.Fatalf("probe not admitted after backoff: wait %v", d)
	}
	if b.State() != HalfOpen {
		t.Fatalf("state %v, want half-open", b.State())
	}
	if d := b.Wait(at(150)); d != 100*time.Millisecond {
		t.Fatalf("Wait with the probe in flight = %v, want one backoff", d)
	}
	if d := b.Allow(at(150)); d == 0 {
		t.Fatal("second request rode the probe window")
	}

	// Failed probe: reopen, backoff doubled to 200ms.
	if opened := b.Failure(cfg, at(160)); !opened {
		t.Fatal("failed probe did not reopen the breaker")
	}
	if d := b.Allow(at(310)); d != 50*time.Millisecond {
		t.Fatalf("reopened breaker: Allow = %v, want the doubled backoff's last 50ms", d)
	}
	if d := b.Allow(at(360)); d != 0 {
		t.Fatalf("probe not admitted after doubled backoff: wait %v", d)
	}

	// Successful probe closes the breaker.
	b.Success()
	if b.State() != Closed {
		t.Fatalf("state %v after successful probe, want closed", b.State())
	}
	if d := b.Allow(at(360)); d != 0 {
		t.Fatalf("closed breaker refused a request for %v", d)
	}
	if want := (Counters{Trips: 2, Probes: 2, ProbeSuccesses: 1}); b.Counters != want {
		t.Fatalf("counters %+v, want %+v", b.Counters, want)
	}

	// The next trip starts again from the initial backoff.
	for range 3 {
		b.Failure(cfg, at(400))
	}
	if d := b.Wait(at(400)); d != 100*time.Millisecond {
		t.Fatalf("Wait after a fresh trip = %v, want the initial backoff", d)
	}
}

// The backoff must saturate at MaxBackoff, and an unreported probe must
// not wedge the breaker: the next probe is due one backoff later.
func TestBreakerBackoffCapAndUnreportedProbe(t *testing.T) {
	cfg := Config{Threshold: 1, Backoff: 100 * time.Millisecond, MaxBackoff: 250 * time.Millisecond}
	var b Breaker

	b.Failure(cfg, at(0)) // open, backoff 100ms
	now := 0
	for i := 0; i < 5; i++ { // fail probes: 200ms, 250ms, 250ms, ...
		now += 1000
		if d := b.Allow(at(now)); d != 0 {
			t.Fatalf("probe %d not admitted: wait %v", i, d)
		}
		b.Failure(cfg, at(now))
	}
	// Backoff is now pinned at the cap.
	if d := b.Allow(at(now + 200)); d != 50*time.Millisecond {
		t.Fatalf("Allow inside the capped backoff = %v, want 50ms", d)
	}
	if d := b.Allow(at(now + 250)); d != 0 {
		t.Fatalf("probe not admitted after capped backoff: wait %v", d)
	}

	// Never report the probe's outcome: the breaker stays half-open and
	// admits the next probe one backoff later, no wedge.
	if d := b.Allow(at(now + 250)); d == 0 {
		t.Fatal("second probe admitted inside the same window")
	}
	if d := b.Allow(at(now + 500)); d != 0 {
		t.Fatalf("breaker wedged after an unreported probe: wait %v", d)
	}
	if b.State() != HalfOpen || b.Probes != 7 {
		t.Fatalf("state %v probes %d, want half-open and 7 probes", b.State(), b.Probes)
	}
}

// A negative Threshold never trips.
func TestBreakerDisabled(t *testing.T) {
	cfg := Config{Threshold: -1}.WithDefaults(Config{Threshold: 3, Backoff: time.Second, MaxBackoff: time.Minute})
	var b Breaker
	for i := 0; i < 100; i++ {
		if b.Failure(cfg, at(i)) {
			t.Fatal("disabled breaker opened")
		}
	}
	if d := b.Allow(at(100)); d != 0 || b.State() != Closed || b.Trips != 0 {
		t.Fatalf("disabled breaker: wait %v state %v trips %d", d, b.State(), b.Trips)
	}
}

// Zero fields take the owner's defaults; set ones are kept.
func TestConfigWithDefaults(t *testing.T) {
	def := Config{Threshold: 5, Backoff: time.Second, MaxBackoff: time.Minute}
	if got := (Config{}).WithDefaults(def); got != def {
		t.Fatalf("zero config -> %+v, want %+v", got, def)
	}
	set := Config{Threshold: 2, Backoff: time.Millisecond, MaxBackoff: time.Second}
	if got := set.WithDefaults(def); got != set {
		t.Fatalf("set config -> %+v, want it unchanged", got)
	}
}

// Hold never shortens a hold already in force, and a closed breaker
// refuses while held.
func TestBreakerHoldNeverShortens(t *testing.T) {
	var b Breaker
	b.Hold(at(500))
	b.Hold(at(200))
	if d := b.Wait(at(100)); d != 400*time.Millisecond {
		t.Fatalf("Wait = %v, want the longer hold (400ms)", d)
	}
	if d := b.Allow(at(100)); d != 400*time.Millisecond || !b.Held(at(100)) {
		t.Fatalf("held breaker: Allow = %v held=%v", d, b.Held(at(100)))
	}
	b.Hold(at(800))
	if d := b.Wait(at(100)); d != 700*time.Millisecond {
		t.Fatalf("Wait = %v after extending, want 700ms", d)
	}
	if d := b.Allow(at(800)); d != 0 || b.Held(at(800)) || b.State() != Closed || b.Probes != 0 {
		t.Fatalf("expired hold: Allow = %v held=%v state %v probes %d", d, b.Held(at(800)), b.State(), b.Probes)
	}
}

// Wait is the sooner of hold expiry and probe admission while both are
// pending: the first moment a request could change anything.
func TestBreakerWaitIsSoonerOfHoldAndProbe(t *testing.T) {
	cfg := Config{Threshold: 1, Backoff: 300 * time.Millisecond, MaxBackoff: time.Second}

	var probeFirst Breaker
	probeFirst.Failure(cfg, at(0)) // probe due at 300ms
	probeFirst.Hold(at(1000))
	if d := probeFirst.Wait(at(100)); d != 200*time.Millisecond {
		t.Fatalf("Wait = %v, want the probe admission (200ms)", d)
	}

	var holdFirst Breaker
	holdFirst.Failure(cfg, at(0))
	holdFirst.Hold(at(150))
	if d := holdFirst.Wait(at(100)); d != 50*time.Millisecond {
		t.Fatalf("Wait = %v, want the hold expiry (50ms)", d)
	}

	// Past one of them the other is what remains; past both, 0.
	if d := probeFirst.Wait(at(400)); d != 600*time.Millisecond {
		t.Fatalf("Wait past the probe = %v, want the hold's 600ms", d)
	}
	if d := holdFirst.Wait(at(200)); d != 100*time.Millisecond {
		t.Fatalf("Wait past the hold = %v, want the probe's 100ms", d)
	}
	if d := holdFirst.Wait(at(300)); d != 0 {
		t.Fatalf("Wait past both = %v, want 0", d)
	}
}
