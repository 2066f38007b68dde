package vmpool

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"vxa/internal/breaker"
	"vxa/internal/vm"
)

// fakeClock is a hand-advanced clock for breaker tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testHash(b byte) [32]byte {
	var h [32]byte
	h[0] = b
	return h
}

// A disabled tracker and a nil one never deny a request. (The breaker's
// own state machine is walked in internal/breaker.)
func TestBreakerDisabled(t *testing.T) {
	h := NewHealth(breaker.Config{Threshold: -1})
	hash := testHash(3)
	for i := 0; i < 100; i++ {
		h.Report(hash, OutcomeTrap)
	}
	if err := h.Allow(hash); err != nil {
		t.Fatalf("disabled tracker denied a request: %v", err)
	}
	var nilH *Health
	if err := nilH.Allow(hash); err != nil {
		t.Fatalf("nil tracker denied a request: %v", err)
	}
	nilH.Report(hash, OutcomeTrap)
}

// OutcomeFor must indict the decoder only for traps, fuel and watchdog
// kills — never for cancellations or payload-style errors.
func TestOutcomeFor(t *testing.T) {
	cases := []struct {
		err  error
		want Outcome
	}{
		{nil, OutcomeOK},
		{&vm.Trap{Kind: vm.TrapMemory}, OutcomeTrap},
		{&vm.Trap{Kind: vm.TrapSyscall}, OutcomeTrap},
		{fmt.Errorf("wrapped: %w", &vm.Trap{Kind: vm.TrapIllegal}), OutcomeTrap},
		{&vm.Trap{Kind: vm.TrapFuel}, OutcomeFuel},
		{&vm.WatchdogError{Budget: time.Second}, OutcomeWatchdog},
		{&vm.CanceledError{Cause: context.Canceled}, OutcomeIgnore},
		{errors.New("decoder exit status 1"), OutcomeIgnore},
	}
	for _, c := range cases {
		if got := OutcomeFor(c.err); got != c.want {
			t.Errorf("OutcomeFor(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// Tripping a decoder's breaker quarantine-evicts its SnapCache line
// (the one every mode leases from), the fail-fast path leases nothing, and the half-open
// probe rebuilds the snapshot from the decoder bytes. While the probe is
// in flight CheckQuarantine and Get agree: both fail fast.
func TestSnapCacheQuarantine(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	const backoff = 100 * time.Millisecond
	c := NewSnapCache(SnapCacheConfig{
		VM:     vm.Config{MemSize: 4 << 20},
		Health: breaker.Config{Threshold: 2, Backoff: backoff},
	})
	c.health.now = clk.now
	elf := compile(t, echoSrc)
	elfBytes, _ := elf()
	hash := HashELF(elfBytes)
	builds := 0
	src := func() ([]byte, error) { builds++; return elfBytes, nil }
	quarantined := func(what string, err error) {
		t.Helper()
		var qe *QuarantineError
		if !errors.Is(err, ErrDecoderQuarantined) || !errors.As(err, &qe) || qe.RetryAfter <= 0 || qe.RetryAfter > backoff {
			t.Fatalf("%s returned %v: want a *QuarantineError with 0 < RetryAfter <= %v", what, err, backoff)
		}
	}

	// Healthy line, leased under two modes: one build.
	for _, mode := range []uint32{0600, 0644} {
		l, err := c.Get(context.Background(), hash, mode, 0, src)
		if err != nil {
			t.Fatal(err)
		}
		l.Release(false)
	}
	if builds != 1 {
		t.Fatalf("builds = %d, want 1", builds)
	}

	// Two counted failures trip the breaker; the line must go.
	c.Report(hash, OutcomeTrap)
	c.Report(hash, OutcomeFuel)
	if h := c.Health(); h.Open != 1 || h.Trips != 1 {
		t.Fatalf("health %+v, want the one breaker open", h)
	}
	if c.Contains(hash) {
		t.Fatal("quarantined line still resident")
	}

	// Fail fast: no lease, no rebuild.
	quarantined("CheckQuarantine while open", c.CheckQuarantine(hash))
	_, err := c.Get(context.Background(), hash, 0600, 0, src)
	quarantined("Get while open", err)
	if builds != 1 {
		t.Fatalf("fail-fast path rebuilt the snapshot (builds=%d)", builds)
	}
	if n := c.Outstanding(); n != 0 {
		t.Fatalf("Outstanding = %d during quarantine, want 0", n)
	}

	// Probe after backoff: CheckQuarantine lets it through, Get admits
	// it and rebuilds the line. Until the next probe is due, both refuse
	// everyone else.
	clk.advance(150 * time.Millisecond)
	if err := c.CheckQuarantine(hash); err != nil {
		t.Fatalf("CheckQuarantine with a probe due: %v", err)
	}
	l, err := c.Get(context.Background(), hash, 0600, 0, src)
	if err != nil {
		t.Fatalf("probe Get: %v", err)
	}
	quarantined("CheckQuarantine with the probe in flight", c.CheckQuarantine(hash))
	_, err = c.Get(context.Background(), hash, 0644, 0, src)
	quarantined("Get with the probe in flight", err)
	var out bytes.Buffer
	reusable, err := l.VM().RunStream(context.Background(), bytes.NewReader([]byte("hi")), &out, nil, vm.StreamFuel(2))
	if err != nil {
		t.Fatal(err)
	}
	l.Release(reusable)
	c.Report(hash, OutcomeOK)
	if builds != 2 {
		t.Fatalf("probe did not rebuild the quarantined snapshot (builds=%d)", builds)
	}
	if err := c.CheckQuarantine(hash); err != nil {
		t.Fatalf("CheckQuarantine after the breaker closed: %v", err)
	}
	st := c.Stats()
	if st.Quarantined != 1 {
		t.Fatalf("quarantined evictions = %d, want 1 (one line for both modes)", st.Quarantined)
	}
	want := HealthStats{Trips: 1, Probes: 1, ProbeSuccesses: 1, Failures: FailureCounts{Traps: 1, Fuel: 1}}
	if st.Health != want {
		t.Fatalf("health stats %+v, want %+v (the healthy decoder untracked)", st.Health, want)
	}
}

// Shrink must cut resident snapshot bytes to the target (evicting even
// recently used lines) and drop idle VMs, while in-flight leases drain
// through the orphan path.
func TestSnapCacheShrink(t *testing.T) {
	c := NewSnapCache(SnapCacheConfig{VM: vm.Config{MemSize: 4 << 20}})
	elfs := []func() ([]byte, error){
		compile(t, echoSrc),
		compile(t, leakySrc),
	}
	var hashes [][32]byte
	for _, elf := range elfs {
		b, _ := elf()
		hashes = append(hashes, HashELF(b))
		l, err := c.Get(context.Background(), HashELF(b), 0644, 0, elf)
		if err != nil {
			t.Fatal(err)
		}
		l.Release(false)
	}
	if got := c.Len(); got != 2 {
		t.Fatalf("resident lines = %d, want 2", got)
	}
	before := c.Stats().Bytes
	if before <= 0 {
		t.Fatal("no resident bytes to shrink")
	}
	freed := c.Shrink(0)
	if freed != before {
		t.Fatalf("Shrink(0) freed %d of %d bytes", freed, before)
	}
	if c.Len() != 0 || c.Stats().Bytes != 0 {
		t.Fatalf("lines=%d bytes=%d after Shrink(0), want empty", c.Len(), c.Stats().Bytes)
	}
	if c.Stats().Shrinks != 1 {
		t.Fatalf("shrinks = %d, want 1", c.Stats().Shrinks)
	}
	// The cache still serves: lines rebuild on demand.
	l, err := c.Get(context.Background(), hashes[0], 0644, 0, elfs[0])
	if err != nil {
		t.Fatal(err)
	}
	l.Release(false)
}
