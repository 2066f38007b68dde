package vmpool

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"vxa/internal/fault"
	"vxa/internal/vm"
)

// spinSrc never finishes a stream: fuel or the watchdog must stop it.
const spinSrc = `
int main(void) {
	int n = 0;
	while (1) { n++; }
	return n;
}`

// exitSrc reads its stream and exits with code 3 instead of parking.
const exitSrc = `
int main(void) {
	while (getb() >= 0) { }
	exit(3);
	return 0;
}`

// exitZeroSrc decodes its stream, then exits 0 instead of parking at the
// done gate: a success whose VM cannot take another stream.
const exitZeroSrc = `
int main(void) {
	int c;
	while ((c = getb()) >= 0) putb(c);
	flushout();
	exit(0);
	return 0;
}`

// trapSrc stores outside guest memory.
const trapSrc = `
int main(void) {
	byte *p = (byte *)0x7ffffff0;
	*p = 1;
	return 0;
}`

// strictSrc echoes like echoSrc but exits 7 on a failed read, the way a
// real decoder gives up on a truncated stream.
const strictSrc = `
byte buf[64];
int main(void) {
	while (1) {
		__stdio_reset();
		int n;
		while ((n = read(0, buf, 64)) != 0) {
			if (n < 0) exit(7);
			write(1, buf, n);
		}
		vxa_done();
	}
	return 0;
}`

// faultingOut is the response writer of a serving layer under chaos: each
// write may fail with an injected ResponseWrite fault.
type faultingOut struct{ w io.Writer }

func (f faultingOut) Write(p []byte) (int, error) {
	if err := fault.Inject(fault.ResponseWrite); err != nil {
		return 0, err
	}
	return f.w.Write(p)
}

// TestLeaseRun walks every row of Run's lifecycle table — who ended the
// stream decides the health report and how the VM goes back — once on a
// SnapCache lease and once on a private-Pool lease, which has no breaker
// to report to.
func TestLeaseRun(t *testing.T) {
	rows := []struct {
		name     string
		src      string
		wall     time.Duration // VM watchdog budget
		fuel     int64         // 0: the standard budget
		cancel   bool          // run under an already-canceled context
		armed    bool          // inject arm's fault at rate 1
		arm      fault.Point
		body     bool // input is a plain reader, not an archive payload
		exitCode int32
		errIs    func(error) bool
		// After the run: the pool counters, idle VMs, and (SnapCache
		// only) the failures the run added to the breaker's tally and
		// whether the decoder is still tracked — every SnapCache row
		// starts with one trap on record, which only a success clears.
		resets, discards, idle int
		fails                  FailureCounts
		tracked                int
	}{
		{name: "success", src: echoSrc, idle: 1,
			errIs: func(err error) bool { return err == nil }},
		{name: "exit0", src: exitZeroSrc, discards: 1,
			errIs: func(err error) bool { return err == nil }},
		{name: "canceled", src: echoSrc, cancel: true, resets: 1, idle: 1, tracked: 1,
			errIs: vm.IsCanceled},
		{name: "watchdog", src: spinSrc, wall: time.Millisecond, resets: 1, idle: 1,
			fails: FailureCounts{Watchdog: 1}, tracked: 1, errIs: vm.IsWatchdog},
		{name: "read fault", src: strictSrc, armed: true, arm: fault.ArchiveRead, resets: 1, idle: 1, tracked: 1,
			exitCode: 7, errIs: func(err error) bool { return errors.Is(err, fault.ErrInjected) }},
		{name: "body read", src: strictSrc, armed: true, arm: fault.ArchiveRead, body: true, idle: 1,
			errIs: func(err error) bool { return err == nil }},
		{name: "write fault", src: echoSrc, armed: true, arm: fault.ResponseWrite, resets: 1, idle: 1, tracked: 1,
			exitCode: 102, errIs: func(err error) bool { return errors.Is(err, fault.ErrInjected) }},
		{name: "trap", src: trapSrc, discards: 1, fails: FailureCounts{Traps: 1}, tracked: 1,
			errIs: func(err error) bool { var tr *vm.Trap; return errors.As(err, &tr) && tr.Kind != vm.TrapFuel }},
		{name: "fuel", src: spinSrc, fuel: 10_000, discards: 1, fails: FailureCounts{Fuel: 1}, tracked: 1,
			errIs: func(err error) bool { var tr *vm.Trap; return errors.As(err, &tr) && tr.Kind == vm.TrapFuel }},
		{name: "nonzero exit", src: exitSrc, discards: 1, exitCode: 3, tracked: 1,
			errIs: func(err error) bool { return err != nil && !vm.IsCanceled(err) }},
	}
	payload := []byte("one stream of payload")
	for _, row := range rows {
		elf := compile(t, row.src)
		elfBytes, _ := elf()
		cfg := vm.Config{MemSize: 4 << 20, WallBudget: row.wall}
		for _, cached := range []bool{true, false} {
			name := row.name + "/pool"
			if cached {
				name = row.name + "/snapcache"
			}
			t.Run(name, func(t *testing.T) {
				ctx := context.Background()
				var c *SnapCache
				var p *Pool
				var l *Lease
				var err error
				if cached {
					c = NewSnapCache(SnapCacheConfig{VM: cfg})
					c.Report(HashELF(elfBytes), OutcomeTrap)
					l, err = c.Get(ctx, HashELF(elfBytes), 0644, 0, elf)
				} else {
					p = New(Options{VM: cfg})
					l, err = p.Get(ctx, "dec", 0644, elf)
				}
				if err != nil {
					t.Fatal(err)
				}
				if row.cancel {
					cctx, cancel := context.WithCancel(ctx)
					cancel()
					ctx = cctx
				}
				if row.armed {
					fault.Arm(fault.Config{Seed: 1, Rate: 1, Points: 1 << row.arm})
					defer fault.Disarm()
				}
				fuel := row.fuel
				if fuel == 0 {
					fuel = vm.StreamFuel(len(payload))
				}
				// Only an archive payload, wrapped as core wraps it,
				// passes through the ArchiveRead point.
				var in io.Reader = bytes.NewReader(payload)
				if !row.body {
					in = fault.NewReader(in)
				}
				var out bytes.Buffer
				code, err := l.Run(ctx, in, faultingOut{&out}, nil, fuel)
				fault.Disarm()
				if !row.errIs(err) {
					t.Fatalf("Run error = %v", err)
				}
				if code != row.exitCode {
					t.Fatalf("exit code = %d, want %d", code, row.exitCode)
				}
				if row.errIs(nil) && !bytes.Equal(out.Bytes(), payload) {
					t.Fatalf("output %q, want %q", out.Bytes(), payload)
				}
				l.Release(true) // ending an ended lease is a no-op

				var st Stats
				var idle, outstanding int
				if cached {
					sc := c.Stats()
					st, outstanding = sc.Pool, c.Outstanding()
					sc.Health.Failures.Traps-- // the seeded one
					if sc.Health.Failures != row.fails || sc.Health.Tracked != row.tracked {
						t.Fatalf("health %+v, want failures %+v, tracked %d", sc.Health, row.fails, row.tracked)
					}
					idle = c.Drain()
				} else {
					st, idle, outstanding = p.Stats(), p.IdleCount(), p.Outstanding()
				}
				if st.Resets != row.resets || st.Discards != row.discards || idle != row.idle {
					t.Fatalf("pool %+v with %d idle, want %d resets, %d discards, %d idle",
						st, idle, row.resets, row.discards, row.idle)
				}
				if outstanding != 0 {
					t.Fatalf("Outstanding = %d after Run, want 0", outstanding)
				}
			})
		}
	}
}

// TestLeaseRunAllocs: the lifecycle costs nothing on the success path
// over driving the VM by hand.
func TestLeaseRunAllocs(t *testing.T) {
	elf := compile(t, echoSrc)
	elfBytes, _ := elf()
	hash := HashELF(elfBytes)
	c := NewSnapCache(SnapCacheConfig{VM: vm.Config{MemSize: 4 << 20}})
	ctx := context.Background()
	payload := []byte("steady state")
	in := bytes.NewReader(payload)
	fuel := vm.StreamFuel(len(payload))
	lease := func() *Lease {
		in.Reset(payload)
		l, err := c.Get(ctx, hash, 0644, 0, elf)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	// Warm the decoder line first, so neither measurement pays for
	// translation or tier-2 compilation the other does not.
	for i := 0; i < 200; i++ {
		if _, err := lease().Run(ctx, in, io.Discard, nil, fuel); err != nil {
			t.Fatal(err)
		}
	}
	bare := testing.AllocsPerRun(50, func() {
		l := lease()
		reusable, err := l.VM().RunStream(ctx, in, io.Discard, nil, fuel)
		if err != nil {
			t.Fatal(err)
		}
		l.Release(reusable)
	})
	run := testing.AllocsPerRun(50, func() {
		if _, err := lease().Run(ctx, in, io.Discard, nil, fuel); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs per stream: Run %.1f, bare RunStream plus Release %.1f", run, bare)
	if run > bare {
		t.Fatalf("Run allocates %.1f per stream, a bare RunStream plus Release %.1f", run, bare)
	}
}
