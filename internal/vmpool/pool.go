// Package vmpool is a concurrency-safe pool of decoder virtual machines,
// the engine behind parallel archive extraction. It amortizes the §2.4
// decoder setup cost at two levels:
//
//   - Per codec, the decoder ELF is parsed exactly once into a pristine
//     vm.Snapshot (memory image, registers, sandbox bounds and, once the
//     first stream has run, the predecoded basic-block cache).
//   - Per (codec, security mode) key, idle VMs parked at the done gate
//     are kept and resumed in place for the next stream — the paper's
//     VM-reuse policy. A VM last used under different security
//     attributes is never resumed: it is first rewound to the pristine
//     snapshot, so no decoder state can leak between protection domains.
//
// Get hands out a Lease; the caller runs exactly one stream on the
// leased VM and returns it with Release. The pool never runs guest code
// itself.
package vmpool

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"vxa/internal/elf32"
	"vxa/internal/fault"
	"vxa/internal/obs"
	"vxa/internal/vm"
)

// Key identifies one reuse class: VMs are interchangeable only within
// the same decoder, the same security attributes (§2.4) and the same
// trust scope. Scope partitions resume-in-place reuse between clients
// sharing one pool (e.g. through a content-addressed snapshot cache): a
// parked VM carries the residual memory of the streams it decoded, so
// it may only be resumed verbatim by the same scope; any other scope
// reaches it through the pristine-reset path.
type Key struct {
	Codec string
	Mode  uint32 // Unix permission bits, the archive's security attributes
	Scope uint64 // trust-scope token (0 = the pool owner's single scope)
}

// Options configure a Pool.
type Options struct {
	// VM is the per-VM configuration (memory size, fuel, cache policy).
	// All VMs in the pool share it; the zero value selects vm defaults.
	VM vm.Config
	// MaxIdlePerKey bounds how many idle VMs are retained per key;
	// returning a VM beyond the bound drops it. 0 selects GOMAXPROCS.
	MaxIdlePerKey int
	// MaxLive caps leases in flight across the whole pool. When every
	// slot is leased, Get blocks until a lease is released or the
	// caller's context is canceled — the backpressure a bounded serving
	// layer needs instead of unbounded VM growth. 0 means unlimited.
	MaxLive int
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

// Pool is a concurrency-safe VM pool. The zero value is not usable; use
// New.
type Pool struct {
	opts Options
	sem  chan struct{} // MaxLive lease slots; nil when unlimited

	mu          sync.Mutex
	codec       map[string]*codecState
	idle        map[Key][]*vm.VM
	stats       Stats
	vmAgg       vm.Stats // engine counters accumulated from released leases
	outstanding int      // leases checked out and not yet released
}

// codecState is the per-codec snapshot, built once under once. spare and
// warmed are guarded by the pool mutex (after once has completed).
type codecState struct {
	once sync.Once
	snap *vm.Snapshot
	err  error

	// spare is the VM the snapshot was captured from: byte-identical to
	// the snapshot state, it is handed to the first lease instead of
	// paying a second full-image allocation.
	spare *vm.VM
	// warmed records that a finished stream's block cache has been
	// absorbed into the snapshot; later releases skip the scan.
	warmed bool
}

// New creates an empty pool.
func New(opts Options) *Pool {
	if opts.MaxIdlePerKey <= 0 {
		opts.MaxIdlePerKey = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		opts:  opts,
		codec: make(map[string]*codecState),
		idle:  make(map[Key][]*vm.VM),
	}
	if opts.MaxLive > 0 {
		p.sem = make(chan struct{}, opts.MaxLive)
	}
	return p
}

// Lease is one checked-out VM. The holder runs exactly one stream on it
// and must call Release exactly once: Release(true) for a VM parked at
// the done gate, Release(false) for one that trapped or exited.
type Lease struct {
	p        *Pool
	v        *vm.VM
	key      Key
	stats0   vm.Stats // VM counters at checkout, for the release delta
	pristine bool
	done     bool
}

// VM returns the leased machine.
func (l *Lease) VM() *vm.VM { return l.v }

// Pristine reports whether this lease handed out a VM in the pristine
// decoder image (fresh build or reset) rather than one resumed in place —
// the datum behind the reader's ReinitCount statistic.
func (l *Lease) Pristine() bool { return l.pristine }

// newLease wraps a checked-out VM. stats0 is the VM's engine counters
// before the pool prepared it for this lease (zero for a VM never
// leased before), so Release folds into the pool aggregate the stream's
// delta and what its Reset or build counted — the tier-2 traces
// installed from the snapshot.
func newLease(p *Pool, v *vm.VM, key Key, pristine bool, stats0 vm.Stats) *Lease {
	return &Lease{p: p, v: v, key: key, stats0: stats0, pristine: pristine}
}

// Seed installs a prebuilt pristine snapshot for codec, as if the first
// Get had parsed the decoder ELF, and reports whether it was installed
// (false when the codec key already exists). spare, when non-nil, is the
// VM the snapshot was captured from: byte-identical to the snapshot, it
// is handed to the first lease instead of paying a fresh image
// allocation. After a seed, Get for that codec may pass a nil elf
// callback. This is the entry point for content-addressed caches that
// build snapshots themselves (see SnapCache).
func (p *Pool) Seed(codec string, snap *vm.Snapshot, spare *vm.VM) bool {
	cs := &codecState{snap: snap, spare: spare}
	cs.once.Do(func() {}) // mark built
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, exists := p.codec[codec]; exists {
		return false
	}
	p.codec[codec] = cs
	p.stats.Snapshots++
	return true
}

// Get returns a VM ready to decode one stream for (codec, mode). codec
// is an opaque decoder identity key — callers embedding decoders from an
// archive should include the decoder's storage offset in it, so two
// decoders sharing a name never share a VM line. The elf callback
// supplies the decoder executable; it is invoked only the first time a
// codec key is seen, so callers can defer the (possibly expensive) fetch
// from the archive. A codec installed with Seed never invokes it, so a
// nil elf is valid there.
//
// Preference order: an idle VM for the same key resumed in place; the
// pristine VM the snapshot was captured from; an idle VM from another
// security mode or scope, rewound to the pristine snapshot; a VM
// materialized fresh from the snapshot.
//
// When the pool was created with MaxLive and every slot is leased, Get
// blocks until a lease is released or ctx is canceled; the returned
// error then wraps ctx.Err().
func (p *Pool) Get(ctx context.Context, codec string, mode uint32, elf func() ([]byte, error)) (*Lease, error) {
	return p.GetScoped(ctx, codec, mode, 0, elf)
}

// GetScoped is Get with an explicit trust scope: VMs park and resume
// per (codec, mode, scope), and a lease crossing scopes always starts
// from the pristine snapshot, so one client's decoder residue can never
// reach another client's stream. Single-tenant callers use Get.
func (p *Pool) GetScoped(ctx context.Context, codec string, mode uint32, scope uint64, elf func() ([]byte, error)) (*Lease, error) {
	key := Key{Codec: codec, Mode: mode, Scope: scope}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("vmpool: %w", err)
	}
	// Request tracing: snapshot-build time (the cold path, including
	// coalesced waits on another goroutine's in-flight build) and lease
	// wait (slot wait + VM pickup/reset/build) are attributed to the
	// request's span when one rides in ctx. Untraced callers pay two
	// context lookups and clock reads per lease.
	sp := obs.SpanFrom(ctx)
	snapStart := time.Now()

	p.mu.Lock()
	cs := p.codec[codec]
	if cs == nil {
		cs = &codecState{}
		p.codec[codec] = cs
	}
	p.mu.Unlock()

	// Build the pristine snapshot once per codec, outside the pool lock:
	// ELF fetch + parse + image copy can be slow and must not serialize
	// unrelated codecs.
	cs.once.Do(func() {
		if elf == nil {
			cs.err = fmt.Errorf("no decoder source (nil elf callback on an unseeded codec)")
			return
		}
		elfBytes, err := elf()
		if err != nil {
			cs.err = err
			return
		}
		v, err := elf32.NewVM(elfBytes, p.opts.VM)
		if err != nil {
			cs.err = err
			return
		}
		cs.snap = v.Snapshot()
		cs.spare = v
		p.mu.Lock()
		p.stats.Snapshots++
		p.mu.Unlock()
	})
	if cs.err != nil {
		return nil, fmt.Errorf("vmpool: decoder %s: %w", codec, cs.err)
	}
	sp.Add(obs.StageSnapshot, time.Since(snapStart))

	// Lease-slot admission (MaxLive): block here, not under the pool
	// lock, until a slot frees or the caller gives up. The slot is
	// released by Release/ReleaseReset. A blocked slot wait is
	// backpressure queueing, so it lands in the span's queue stage
	// (only the VM pickup below is lease work) — in particular, a
	// request canceled while parked here reports queue time and a
	// context error (wrapping ctx.Err(), so errors.Is sees the
	// client's cancellation), never a pool failure.
	if p.sem != nil {
		select {
		case p.sem <- struct{}{}:
		default:
			waitStart := time.Now()
			select {
			case p.sem <- struct{}{}:
				sp.Add(obs.StageQueue, time.Since(waitStart))
			case <-ctx.Done():
				sp.Add(obs.StageQueue, time.Since(waitStart))
				return nil, fmt.Errorf("vmpool: waiting for a VM: %w", ctx.Err())
			}
		}
	}
	// Chaos hook: an injected lease fault models transient pool
	// unavailability after admission.
	if err := fault.Inject(fault.LeaseAcquire); err != nil {
		p.releaseSlot()
		return nil, err
	}
	leaseStart := time.Now()
	defer func() { sp.Add(obs.StageLease, time.Since(leaseStart)) }()

	p.mu.Lock()
	// Same key: resume the parked VM without touching its state.
	if vs := p.idle[key]; len(vs) > 0 {
		v := vs[len(vs)-1]
		p.idle[key] = vs[:len(vs)-1]
		p.stats.Resumes++
		p.outstanding++
		p.mu.Unlock()
		return newLease(p, v, key, false, v.Stats()), nil
	}
	// The snapshot's own source VM is still pristine: first lease takes
	// it for free.
	if cs.spare != nil {
		v := cs.spare
		cs.spare = nil
		p.stats.Builds++
		p.outstanding++
		p.mu.Unlock()
		return newLease(p, v, key, true, vm.Stats{}), nil
	}
	// Same codec, different mode or scope: steal an idle VM and rewind
	// it to the pristine image — the §2.4 attribute-change
	// re-initialization, which also severs any residue across trust
	// scopes.
	for k, vs := range p.idle {
		if k.Codec != codec || len(vs) == 0 {
			continue
		}
		v := vs[len(vs)-1]
		p.idle[k] = vs[:len(vs)-1]
		p.stats.Resets++
		p.outstanding++
		p.mu.Unlock()
		stats0 := v.Stats()
		if err := v.Reset(cs.snap); err != nil {
			p.mu.Lock()
			p.outstanding--
			p.mu.Unlock()
			p.releaseSlot()
			return nil, err
		}
		return newLease(p, v, key, true, stats0), nil
	}
	p.stats.Builds++
	p.outstanding++
	p.mu.Unlock()
	return newLease(p, cs.snap.NewVM(), key, true, vm.Stats{}), nil
}

// Release returns the leased VM to the pool. reusable says the stream
// ended with the done gate and the VM is parked, ready for another
// stream; a VM that trapped or exited is not reusable and is dropped.
// The VM's I/O streams are detached either way.
func (l *Lease) Release(reusable bool) {
	if l.done {
		return
	}
	l.done = true
	v := l.v
	v.Stdin, v.Stdout, v.Stderr = nil, nil, nil

	p := l.p
	defer p.releaseSlot()
	// Returning a warmed-up VM: fold its translation cache into the
	// snapshot so every future build/reset starts warm. Done on the
	// first return and again whenever the stream translated something
	// the snapshot may not have — a fragment, a superblock or a tier-2
	// trace (later streams reach code paths, and heat, earlier ones did
	// not) — outside the pool lock, and before the VM re-enters the idle
	// list (no other goroutine can be running it here). AbsorbBlocks
	// itself dedups, so re-absorbing is cheap when nothing is new.
	p.mu.Lock()
	st := v.Stats()
	addVMStats(&p.vmAgg, st, l.stats0)
	p.outstanding--
	cs := p.codec[l.key.Codec]
	absorb := reusable && cs != nil && cs.snap != nil &&
		(!cs.warmed || st.BlocksBuilt > l.stats0.BlocksBuilt ||
			st.SuperblocksFormed > l.stats0.SuperblocksFormed ||
			st.Tier2Compiled > l.stats0.Tier2Compiled)
	if absorb {
		cs.warmed = true
	}
	p.mu.Unlock()
	if absorb {
		cs.snap.AbsorbBlocks(v)
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	if !reusable || len(p.idle[l.key]) >= p.opts.MaxIdlePerKey {
		p.stats.Discards++
		return
	}
	p.idle[l.key] = append(p.idle[l.key], v)
}

// ReleaseReset returns a lease whose stream was abandoned mid-flight
// (a canceled context): the VM's guest state is partial-stream garbage,
// so it is rewound to the pristine decoder snapshot and then parked
// idle — the cancellation path keeps the allocated guest image instead
// of discarding it, so a burst of cancellations cannot force a burst of
// image re-allocations. A VM that cannot be reset (no snapshot, size
// mismatch) is dropped.
func (l *Lease) ReleaseReset() {
	if l.done {
		return
	}
	l.done = true
	v := l.v
	v.Stdin, v.Stdout, v.Stderr = nil, nil, nil

	p := l.p
	defer p.releaseSlot()
	p.mu.Lock()
	cs := p.codec[l.key.Codec]
	var snap *vm.Snapshot
	if cs != nil {
		snap = cs.snap
	}
	p.mu.Unlock()

	reset := snap != nil && v.Reset(snap) == nil

	// The lease's counters are folded in after the reset, which counts
	// too (the traces it installed).
	p.mu.Lock()
	defer p.mu.Unlock()
	addVMStats(&p.vmAgg, v.Stats(), l.stats0)
	p.outstanding--
	if !reset {
		p.stats.Discards++
		return
	}
	p.stats.Resets++
	if len(p.idle[l.key]) >= p.opts.MaxIdlePerKey {
		p.stats.Discards++
		return
	}
	p.idle[l.key] = append(p.idle[l.key], v)
}

// releaseSlot frees one MaxLive lease slot, unblocking a waiting Get.
func (p *Pool) releaseSlot() {
	if p.sem != nil {
		<-p.sem
	}
}

// Stats returns a copy of the cumulative counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Outstanding reports how many leases are checked out and not yet
// released. A caller that has orphaned a pool (e.g. a snapshot cache
// evicting its entry) can retire the pool's counters for good once
// this reaches zero — only then are all lease deltas folded in.
func (p *Pool) Outstanding() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.outstanding
}

// VMStats returns the engine counters (steps, uops, translation time,
// syscalls, ...) accumulated across every lease released so far — the
// fleet-wide view a serving layer surfaces on its metrics endpoint.
// Streams still in flight are not included until their lease is
// released.
func (p *Pool) VMStats() vm.Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.vmAgg
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
	dst.Syscalls += after.Syscalls - before.Syscalls
}

// Drain drops every idle VM, releasing their guest memory, and returns
// how many were dropped. The pool stays usable: snapshots are retained,
// so later streams re-materialize VMs cheaply. Call it when a burst of
// extraction is over and the owner will stay alive (e.g. a long-lived
// serving Reader).
func (p *Pool) Drain() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for k, vs := range p.idle {
		n += len(vs)
		p.stats.Discards += len(vs)
		delete(p.idle, k)
	}
	return n
}

// IdleCount reports how many idle VMs the pool currently retains across
// all keys (exposed for tests and monitoring).
func (p *Pool) IdleCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, vs := range p.idle {
		n += len(vs)
	}
	return n
}
