// Package vmpool is a concurrency-safe pool of decoder virtual machines,
// the engine behind parallel archive extraction. It amortizes the §2.4
// decoder setup cost at two levels:
//
//   - Per decoder, the decoder ELF is parsed exactly once into a pristine
//     vm.Snapshot (memory image, registers, sandbox bounds and, once the
//     first stream has run, the predecoded basic-block cache).
//   - Per (security mode, trust scope), idle VMs parked at the done gate
//     are kept and resumed in place for the next stream — the paper's
//     VM-reuse policy. A VM last used under different security
//     attributes is never resumed: it is first rewound to the pristine
//     snapshot, so no decoder state can leak between protection domains.
//     The rewind is of what the guest can see; the VM keeps its
//     translation of the decoder's read-only text while that is still
//     the snapshot's (vm.Reset).
//
// Both levels live in one type, a decoder line: the snapshot, its idle
// VMs and its counters. A SnapCache entry is one line addressed by the
// decoder's content hash; a Pool is a string-keyed index of lines. The
// line is the one place the reuse rule is applied.
//
// Get hands out a Lease; Lease.Run runs exactly one stream on the leased
// VM and hands the VM back by the one policy every caller shares.
package vmpool

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"time"

	"vxa/internal/elf32"
	"vxa/internal/fault"
	"vxa/internal/obs"
	"vxa/internal/vm"
)

// Options configure a Pool.
type Options struct {
	// VM is the per-VM configuration (memory size, fuel, cache policy).
	// All VMs in the pool share it; the zero value selects vm defaults.
	VM vm.Config
	// MaxIdlePerKey bounds how many idle VMs each line retains per
	// security mode; returning a VM beyond the bound drops it. 0 selects
	// GOMAXPROCS.
	MaxIdlePerKey int
}

// Stats are cumulative pool counters (JSON-tagged: they surface,
// aggregated, on the vxad metrics endpoint).
type Stats struct {
	Snapshots int `json:"snapshots"` // decoder ELFs parsed into a pristine snapshot
	Builds    int `json:"builds"`    // VMs materialized fresh from a snapshot
	Resets    int `json:"resets"`    // idle VMs rewound to the pristine snapshot
	Resumes   int `json:"resumes"`   // idle VMs resumed in place (same key, no reset)
	Discards  int `json:"discards"`  // VMs dropped (trapped, exited, or over the idle bound)
}

// add accumulates s into dst.
func (dst *Stats) add(s Stats) {
	dst.Snapshots += s.Snapshots
	dst.Builds += s.Builds
	dst.Resets += s.Resets
	dst.Resumes += s.Resumes
	dst.Discards += s.Discards
}

// line is one decoder's VM line: its pristine snapshot, the VMs parked
// idle with the reuse class of their last stream, and the line's
// counters. snap and maxIdle are set once by init, before the line hands
// out its first lease; the rest is guarded by mu.
type line struct {
	snap    *vm.Snapshot
	maxIdle int // idle VMs kept per (mode, scope)

	mu sync.Mutex
	// spare is the VM the snapshot was captured from: byte-identical to
	// the snapshot state, it is handed to the first lease instead of
	// paying a second full-image allocation.
	spare *vm.VM
	// warmed records that a finished stream's block cache has been
	// absorbed into the snapshot; later releases skip the scan.
	warmed      bool
	idle        []parked
	stats       Stats
	vmAgg       vm.Stats // engine counters accumulated from released leases
	outstanding int      // leases checked out and not yet released
}

// parked is an idle VM and the reuse class of the stream it last ran.
// It resumes verbatim only for the same security attributes (§2.4) and
// trust scope: it carries the residual memory of the streams it
// decoded, so any other class reaches it through the pristine reset.
type parked struct {
	v     *vm.VM
	mode  uint32 // Unix permission bits, the archive's security attributes
	scope uint64 // trust-scope token (0 = the owner's single scope)
}

// init installs the line's pristine snapshot and the VM it was captured
// from.
func (ln *line) init(snap *vm.Snapshot, spare *vm.VM, maxIdle int) {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	ln.snap, ln.spare, ln.maxIdle = snap, spare, maxIdle
	ln.stats.Snapshots = 1
}

// buildLine parses a decoder executable into a pristine snapshot,
// keeping the VM it was captured from as the line's spare.
func buildLine(ln *line, elf func() ([]byte, error), cfg vm.Config, maxIdle int) error {
	if elf == nil {
		return errors.New("no decoder source (nil elf callback on an unseeded codec)")
	}
	elfBytes, err := elf()
	if err != nil {
		return err
	}
	v, err := elf32.NewVM(elfBytes, cfg)
	if err != nil {
		return err
	}
	ln.init(v.Snapshot(), v, maxIdle)
	return nil
}

// lease returns a VM ready to decode one stream under (mode, scope).
// Preference order: an idle VM of the same mode and scope, resumed in
// place; the pristine VM the snapshot was captured from; an idle VM of
// another mode or scope, rewound to the pristine snapshot — the §2.4
// attribute-change re-initialization, which also severs any residue
// across trust scopes; a VM materialized fresh from the snapshot.
func (ln *line) lease(ctx context.Context, mode uint32, scope uint64) (*Lease, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("vmpool: %w", err)
	}
	// Chaos hook: an injected lease fault models transient pool
	// unavailability.
	if err := fault.Inject(fault.LeaseAcquire); err != nil {
		return nil, err
	}
	sp := obs.SpanFrom(ctx)
	start := time.Now()
	defer func() { sp.Add(obs.StageLease, time.Since(start)) }()

	l := &Lease{ln: ln, mode: mode, scope: scope, pristine: true}
	ln.mu.Lock()
	ln.outstanding++
	i := len(ln.idle) - 1
	for ; i >= 0; i-- {
		if ln.idle[i].mode == mode && ln.idle[i].scope == scope {
			break
		}
	}
	switch {
	case i >= 0:
		l.v, l.pristine = ln.take(i), false
		ln.stats.Resumes++
		ln.mu.Unlock()
		l.stats0 = l.v.Stats()
		return l, nil
	case ln.spare != nil:
		l.v, ln.spare = ln.spare, nil
		ln.stats.Builds++
		ln.mu.Unlock()
		return l, nil
	case len(ln.idle) > 0:
		l.v = ln.take(len(ln.idle) - 1)
		ln.stats.Resets++
		ln.mu.Unlock()
		l.stats0 = l.v.Stats()
		if err := l.v.Reset(ln.snap); err != nil {
			ln.mu.Lock()
			ln.outstanding--
			ln.mu.Unlock()
			return nil, err
		}
		return l, nil
	}
	ln.stats.Builds++
	ln.mu.Unlock()
	l.v = ln.snap.NewVM()
	return l, nil
}

// take removes and returns idle VM i. Caller holds ln.mu.
func (ln *line) take(i int) *vm.VM {
	v := ln.idle[i].v
	ln.idle = slices.Delete(ln.idle, i, i+1)
	return v
}

// park puts a VM back on the idle list under its stream's reuse class,
// or drops it when the class already holds maxIdle VMs. Caller holds
// ln.mu.
func (ln *line) park(v *vm.VM, mode uint32, scope uint64) {
	n := 0
	for _, p := range ln.idle {
		if p.mode == mode && p.scope == scope {
			n++
		}
	}
	if n >= ln.maxIdle {
		ln.stats.Discards++
		return
	}
	ln.idle = append(ln.idle, parked{v: v, mode: mode, scope: scope})
}

// drain drops every idle VM and reports how many there were.
func (ln *line) drain() int {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	n := len(ln.idle)
	ln.stats.Discards += n
	ln.idle = nil
	return n
}

// counters returns the line's pool and engine counters and its
// outstanding lease count.
func (ln *line) counters() (Stats, vm.Stats, int) {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	return ln.stats, ln.vmAgg, ln.outstanding
}

// Lease is one checked-out VM. The holder runs exactly one stream on it
// with Run, which ends the lease. A lease that runs no stream ends with
// Release; ending a lease twice is a no-op.
type Lease struct {
	ln       *line // nil for a Fresh lease
	v        *vm.VM
	mode     uint32
	scope    uint64
	stats0   vm.Stats // VM counters before the lease prepared it, for the release delta
	pristine bool
	done     bool
	// cache and hash route the stream's outcome to the decoder's breaker
	// (set by SnapCache.Get; a Pool has no breaker).
	cache *SnapCache
	hash  [32]byte
}

// VM returns the leased machine.
func (l *Lease) VM() *vm.VM { return l.v }

// Pristine reports whether this lease handed out a VM in the pristine
// decoder image (fresh build or reset) rather than one resumed in place —
// the datum behind the reader's ReinitCount statistic.
func (l *Lease) Pristine() bool { return l.pristine }

// Fresh builds a VM from a decoder executable for one stream with no
// pool behind it: the cold path. The build is the span's snapshot stage;
// Run drops the VM when the stream ends.
func Fresh(ctx context.Context, elf []byte, cfg vm.Config) (*Lease, error) {
	start := time.Now()
	v, err := elf32.NewVM(elf, cfg)
	obs.SpanFrom(ctx).Add(obs.StageSnapshot, time.Since(start))
	if err != nil {
		return nil, err
	}
	return &Lease{v: v, pristine: true}, nil
}

// Run runs one stream on the leased VM (in to out, diagnostics to
// stderr, under an absolute budget of fuel instructions) and ends the
// lease. It returns the stream's error and the guest's exit code, read
// before the VM goes back, and records the stream's translate/execute
// split on the context's span. How the VM goes back is the §2.4 policy,
// decided here for every stream:
//
//	stream ended by      health report     VM
//	cancellation         none              rewound (ReleaseReset)
//	watchdog kill        OutcomeWatchdog   rewound
//	injected fault       none              rewound
//	any other error      OutcomeFor(err)   dropped (Release(false))
//	success              OutcomeOK         parked if at the done gate
//
// A stream the host cut short thus never leaves partial-stream state
// for the next one. An injected fault the guest saw only as a virtual
// EIO outranks the guest failure it provoked and is the error returned:
// a read fault when in is a fault.Reader (the caller's archive payload),
// a write fault while injection is armed.
func (l *Lease) Run(ctx context.Context, in io.Reader, out, stderr io.Writer, fuel int64) (exitCode int32, err error) {
	v := l.v
	var cw *obs.CountWriter
	if fault.Armed() {
		cw = &obs.CountWriter{W: out}
		out = cw
	}
	st0 := v.Stats()
	reusable, err := v.RunStream(ctx, in, out, stderr, fuel)
	st1 := v.Stats()
	sp := obs.SpanFrom(ctx)
	sp.Add(obs.StageTranslate, time.Duration(st1.TranslateNS-st0.TranslateNS))
	sp.Add(obs.StageExecute, time.Duration(st1.ExecuteNS-st0.ExecuteNS))
	if err != nil {
		if fr, ok := in.(*fault.Reader); ok && fr.Err() != nil {
			err = fr.Err()
		} else if cw != nil && errors.Is(cw.Err, fault.ErrInjected) {
			err = cw.Err
		}
	}
	exitCode = v.ExitCode()
	switch {
	case err == nil:
		l.report(OutcomeOK)
		l.Release(reusable)
	case vm.IsCanceled(err) || ctx.Err() != nil || errors.Is(err, fault.ErrInjected):
		l.ReleaseReset()
	case vm.IsWatchdog(err):
		// Stopped at a block boundary with its state intact: the rewind
		// returns the VM undamaged, but the kill indicts the decoder.
		l.report(OutcomeWatchdog)
		l.ReleaseReset()
	default:
		// Traps and fuel count against the decoder; a nonzero exit is
		// routinely payload-driven and does not (see OutcomeFor).
		l.report(OutcomeFor(err))
		l.Release(false)
	}
	return exitCode, err
}

// report files the stream's outcome with the decoder's breaker.
func (l *Lease) report(o Outcome) {
	if l.cache != nil {
		l.cache.Report(l.hash, o)
	}
}

// detach ends the lease and unhooks the VM's I/O streams. It reports
// whether there is a line to hand the VM back to: false for a lease
// already ended and for a Fresh one, whose VM is simply dropped.
func (l *Lease) detach() bool {
	if l.done {
		return false
	}
	l.done = true
	l.v.Stdin, l.v.Stdout, l.v.Stderr = nil, nil, nil
	return l.ln != nil
}

// Release returns the leased VM to its line. reusable says the stream
// ended with the done gate and the VM is parked, ready for another
// stream; a VM that trapped or exited is not reusable and is dropped.
func (l *Lease) Release(reusable bool) {
	if !l.detach() {
		return
	}
	v, ln := l.v, l.ln
	// Returning a warmed-up VM: fold its translation cache into the
	// snapshot so every future build/reset starts warm. Done on the
	// first return and again whenever the stream translated something
	// the snapshot may not have — a fragment, a superblock or a tier-2
	// trace (later streams reach code paths, and heat, earlier ones did
	// not) — outside the line lock, and before the VM re-enters the idle
	// list (no other goroutine can be running it here). AbsorbBlocks
	// itself dedups, so re-absorbing is cheap when nothing is new.
	ln.mu.Lock()
	st := v.Stats()
	addVMStats(&ln.vmAgg, st, l.stats0)
	ln.outstanding--
	absorb := reusable && (!ln.warmed || st.BlocksBuilt > l.stats0.BlocksBuilt ||
		st.SuperblocksFormed > l.stats0.SuperblocksFormed ||
		st.Tier2Compiled > l.stats0.Tier2Compiled)
	if absorb {
		ln.warmed = true
	}
	ln.mu.Unlock()
	if absorb {
		ln.snap.AbsorbBlocks(v)
	}

	ln.mu.Lock()
	defer ln.mu.Unlock()
	if !reusable {
		ln.stats.Discards++
		return
	}
	ln.park(v, l.mode, l.scope)
}

// ReleaseReset returns a lease whose stream was abandoned mid-flight
// (a canceled context): the VM's guest state is partial-stream garbage,
// so it is rewound to the pristine decoder snapshot and then parked
// idle — the cancellation path keeps the allocated guest image instead
// of discarding it, so a burst of cancellations cannot force a burst of
// image re-allocations. A VM that cannot be reset is dropped.
func (l *Lease) ReleaseReset() {
	if !l.detach() {
		return
	}
	v, ln := l.v, l.ln
	reset := v.Reset(ln.snap) == nil

	// The lease's counters are folded in after the reset, which counts
	// too (the traces it installed).
	ln.mu.Lock()
	defer ln.mu.Unlock()
	addVMStats(&ln.vmAgg, v.Stats(), l.stats0)
	ln.outstanding--
	if !reset {
		ln.stats.Discards++
		return
	}
	ln.stats.Resets++
	ln.park(v, l.mode, l.scope)
}

// addVMStats folds the counter delta (after - before) of one released
// stream into dst.
func addVMStats(dst *vm.Stats, after, before vm.Stats) {
	dst.Steps += after.Steps - before.Steps
	dst.BlockLookups += after.BlockLookups - before.BlockLookups
	dst.BlocksBuilt += after.BlocksBuilt - before.BlocksBuilt
	dst.BlocksChained += after.BlocksChained - before.BlocksChained
	dst.UopsExecuted += after.UopsExecuted - before.UopsExecuted
	dst.FlagsMaterialized += after.FlagsMaterialized - before.FlagsMaterialized
	dst.FlagsElided += after.FlagsElided - before.FlagsElided
	dst.UopsFused += after.UopsFused - before.UopsFused
	dst.SuperblocksFormed += after.SuperblocksFormed - before.SuperblocksFormed
	dst.Tier2Compiled += after.Tier2Compiled - before.Tier2Compiled
	dst.Tier2Shared += after.Tier2Shared - before.Tier2Shared
	dst.Tier2Executed += after.Tier2Executed - before.Tier2Executed
	dst.Tier2Steps += after.Tier2Steps - before.Tier2Steps
	dst.Tier2Exits += after.Tier2Exits - before.Tier2Exits
	dst.Tier2Resumes += after.Tier2Resumes - before.Tier2Resumes
	dst.Tier2Links += after.Tier2Links - before.Tier2Links
	dst.Tier2Code.Add(after.Tier2Code, 1)
	dst.Tier2Code.Add(before.Tier2Code, -1)
	dst.Tier2Refused += after.Tier2Refused - before.Tier2Refused
	dst.TranslateNS += after.TranslateNS - before.TranslateNS
	dst.ExecuteNS += after.ExecuteNS - before.ExecuteNS
	dst.SuperblockNS += after.SuperblockNS - before.SuperblockNS
	dst.Tier2EmitNS += after.Tier2EmitNS - before.Tier2EmitNS
	dst.Tier2SealNS += after.Tier2SealNS - before.Tier2SealNS
	dst.GuestTranslated += after.GuestTranslated - before.GuestTranslated
	dst.UopsCompiled += after.UopsCompiled - before.UopsCompiled
	dst.Syscalls += after.Syscalls - before.Syscalls
}

// Pool is a concurrency-safe VM pool: decoder lines indexed by an opaque
// string key, each built once from its decoder ELF (or installed with
// Seed). The zero value is not usable; use New.
type Pool struct {
	opts Options

	mu    sync.Mutex
	lines map[string]*poolLine
}

// poolLine is one Pool line with its build state; once guards the build.
type poolLine struct {
	once sync.Once
	err  error
	line
}

// New creates an empty pool.
func New(opts Options) *Pool {
	if opts.MaxIdlePerKey <= 0 {
		opts.MaxIdlePerKey = runtime.GOMAXPROCS(0)
	}
	return &Pool{opts: opts, lines: make(map[string]*poolLine)}
}

// Seed installs a prebuilt pristine snapshot for codec, as if the first
// Get had parsed the decoder ELF, and reports whether it was installed
// (false when the codec key already exists). spare, when non-nil, is the
// VM the snapshot was captured from: byte-identical to the snapshot, it
// is handed to the first lease instead of paying a fresh image
// allocation. After a seed, Get for that codec may pass a nil elf
// callback.
func (p *Pool) Seed(codec string, snap *vm.Snapshot, spare *vm.VM) bool {
	pl := &poolLine{}
	pl.once.Do(func() { pl.init(snap, spare, p.opts.MaxIdlePerKey) })
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, exists := p.lines[codec]; exists {
		return false
	}
	p.lines[codec] = pl
	return true
}

// Get returns a VM ready to decode one stream for (codec, mode). codec
// is an opaque decoder identity key — callers embedding decoders from an
// archive should include the decoder's storage offset in it, so two
// decoders sharing a name never share a VM line. The elf callback
// supplies the decoder executable; it is invoked only the first time a
// codec key is seen, so callers can defer the (possibly expensive) fetch
// from the archive. A codec installed with Seed never invokes it, so a
// nil elf is valid there. Which VM the lease gets is the line's §2.4
// policy: a parked VM of the same mode resumed in place, else a
// pristine one.
func (p *Pool) Get(ctx context.Context, codec string, mode uint32, elf func() ([]byte, error)) (*Lease, error) {
	// Request tracing: snapshot-build time (the cold path, including
	// coalesced waits on another goroutine's in-flight build) is
	// attributed to the request's span when one rides in ctx.
	snapStart := time.Now()
	p.mu.Lock()
	pl := p.lines[codec]
	if pl == nil {
		pl = &poolLine{}
		p.lines[codec] = pl
	}
	p.mu.Unlock()

	// Build the pristine snapshot once per codec, outside the pool lock:
	// ELF fetch + parse + image copy can be slow and must not serialize
	// unrelated codecs.
	pl.once.Do(func() { pl.err = buildLine(&pl.line, elf, p.opts.VM, p.opts.MaxIdlePerKey) })
	if pl.err != nil {
		return nil, fmt.Errorf("vmpool: decoder %s: %w", codec, pl.err)
	}
	obs.SpanFrom(ctx).Add(obs.StageSnapshot, time.Since(snapStart))
	return pl.lease(ctx, mode, 0)
}

// sum totals the counters of every line.
func (p *Pool) sum() (s Stats, v vm.Stats, outstanding int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, pl := range p.lines {
		st, vst, o := pl.counters()
		s.add(st)
		addVMStats(&v, vst, vm.Stats{})
		outstanding += o
	}
	return s, v, outstanding
}

// Stats returns a copy of the cumulative counters.
func (p *Pool) Stats() Stats { s, _, _ := p.sum(); return s }

// Outstanding reports how many leases are checked out and not yet
// released.
func (p *Pool) Outstanding() int { _, _, n := p.sum(); return n }

// VMStats returns the engine counters (steps, uops, translation time,
// syscalls, ...) accumulated across every lease released so far — the
// fleet-wide view a serving layer surfaces on its metrics endpoint.
// Streams still in flight are not included until their lease is
// released.
func (p *Pool) VMStats() vm.Stats { _, v, _ := p.sum(); return v }

// Drain drops every idle VM, releasing their guest memory, and returns
// how many were dropped. The pool stays usable: snapshots are retained,
// so later streams re-materialize VMs cheaply. Call it when a burst of
// extraction is over and the owner will stay alive (e.g. a long-lived
// serving Reader).
func (p *Pool) Drain() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, pl := range p.lines {
		n += pl.drain()
	}
	return n
}
