package vmpool

import (
	"container/list"
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vxa/internal/artifact"
	"vxa/internal/breaker"
	"vxa/internal/elf32"
	"vxa/internal/fault"
	"vxa/internal/obs"
	"vxa/internal/vm"
)

// SnapCache is a content-addressed cache of pristine decoder snapshots:
// entries are keyed by the SHA-256 of the decoder ELF alone, so every
// archive, Reader, worker and security mode that carries the same
// decoder bytes shares one snapshot — and, through AbsorbBlocks, one
// translated micro-op block cache. Translation cost is paid once per
// decoder content fleet-wide, not once per archive or per mode.
//
// Each resident entry is one decoder line, and the line alone applies
// the §2.4 reuse policy: parked VMs resume in place within one (mode,
// scope), and a VM that crosses modes or scopes is rewound to the
// pristine snapshot.
// Residency is bounded by a byte budget over the snapshots' Footprint;
// least-recently-used entries are evicted, their idle VMs dropped.
//
// A SnapCache is safe for concurrent use.
type SnapCache struct {
	cfg    SnapCacheConfig
	health *Health

	mu      sync.Mutex
	entries map[[32]byte]*cacheEntry // by content hash
	lru     list.List                // resident entries; front = most recently used
	used    int64

	hits, misses, evictions uint64
	quarantined, shrinks    uint64
	retired                 Stats    // line counters of fully drained evicted entries
	retiredVM               vm.Stats // engine counters of fully drained evicted entries

	// orphans are evicted lines with leases still in flight; each keeps
	// pinning its snapshot (and that snapshot's footprint, recorded at
	// eviction in its bytes) until the last lease releases. orphanBytes
	// is the sum of those pinned footprints — resident memory the LRU
	// budget no longer covers but the process still holds.
	orphans     []*cacheEntry
	orphanBytes int64
}

// SnapCacheConfig configures a SnapCache.
type SnapCacheConfig struct {
	// VM is the per-VM configuration every cached decoder runs under;
	// the zero value selects vm defaults. Fixed for the cache lifetime:
	// snapshots are only interchangeable within one configuration.
	VM vm.Config
	// MaxBytes is the resident-snapshot byte budget (memory image +
	// translated blocks, per Snapshot.Footprint). The most recently used
	// entry is always retained, even over budget. <= 0 selects
	// DefaultSnapCacheBytes.
	MaxBytes int64
	// MaxIdlePerKey bounds idle VMs retained by each line per security
	// mode and trust scope; 0 selects GOMAXPROCS.
	MaxIdlePerKey int
	// Health configures the per-decoder circuit breaker (see health.go).
	// The zero value selects the defaults; Threshold < 0 disables
	// health tracking.
	Health breaker.Config
	// Artifacts, when non-nil, is the persistent tier: cache misses
	// probe it before building from the decoder ELF, successful builds
	// are written back, and FlushArtifacts re-persists entries whose
	// absorbed block cache has grown. Every load failure falls back to
	// the ELF build path — the store is an accelerator, never an
	// authority.
	Artifacts *artifact.Store
}

// DefaultSnapCacheBytes is the default resident-snapshot byte budget.
const DefaultSnapCacheBytes = 1 << 30

// HashELF returns the content address of a decoder executable.
func HashELF(elf []byte) [32]byte { return sha256.Sum256(elf) }

// cacheEntry is one decoder line addressed by content. once guards the
// build; elem is nil until the entry is resident (and again after
// eviction).
type cacheEntry struct {
	hash [32]byte // SHA-256 of the decoder ELF
	once sync.Once
	err  error

	line
	bytes int64
	elem  *list.Element

	// artifactDur is how much of the build went to the persistent-store
	// probe (zero when no store is configured); savedBlocks/savedSBs are
	// the snapshot block and superblock counts at the last artifact save
	// or load, the staleness signals FlushArtifacts re-saves on.
	artifactDur time.Duration
	savedBlocks int
	savedSBs    int
}

// SnapCacheStats is a point-in-time view of the cache.
type SnapCacheStats struct {
	Hits      uint64 `json:"hits"` // includes waiters coalesced onto an in-flight build
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	// Bytes is the live footprint of resident entries (memory image +
	// absorbed block cache, refreshed at scrape time — not the stale
	// build-time size); OrphanBytes is the additional footprint pinned
	// by evicted lines whose leases are still in flight. Total process
	// snapshot residency is the sum of the two; only Bytes is subject to
	// the MaxBytes budget, since eviction cannot release orphan pins.
	Bytes       int64 `json:"bytes"`
	OrphanBytes int64 `json:"orphan_bytes"`
	MaxBytes    int64 `json:"max_bytes"`
	// Traces is how many compiled tier-2 traces the resident snapshots
	// carry: code a reset or a new VM installs instead of compiling.
	Traces int `json:"traces"`
	// Quarantined counts lines evicted because their decoder's breaker
	// tripped; Shrinks counts emergency Shrink passes.
	Quarantined uint64 `json:"quarantined"`
	Shrinks     uint64 `json:"shrinks"`
	// Health is the decoder circuit-breaker view.
	Health HealthStats `json:"health"`
	// Pool and VM aggregate the per-line pool and engine counters,
	// including those of evicted entries. An evicted line is retired only
	// after its last in-flight lease is released (orphan lines are
	// aggregated live until then), so a released stream's counters
	// survive eviction and rebuild of its line.
	Pool Stats    `json:"pool"`
	VM   vm.Stats `json:"vm"`
}

// NewSnapCache creates an empty cache.
func NewSnapCache(cfg SnapCacheConfig) *SnapCache {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultSnapCacheBytes
	}
	if cfg.MaxIdlePerKey <= 0 {
		cfg.MaxIdlePerKey = runtime.GOMAXPROCS(0)
	}
	return &SnapCache{
		cfg:     cfg,
		health:  NewHealth(cfg.Health),
		entries: make(map[[32]byte]*cacheEntry),
	}
}

// Get leases a VM for the decoder with the given content hash under the
// given security mode, building and caching the snapshot on a miss. One
// line serves every mode: the mode only picks the VM, through the line's
// §2.4 policy. The elf callback supplies the decoder bytes; it is
// invoked only on a miss (concurrent misses for one decoder coalesce
// onto a single build). The caller must verify that hash is the SHA-256
// of the bytes elf returns — the cache trusts it, that's the point of
// content addressing.
//
// scope is the caller's trust-scope token (one per client/Reader; 0 for
// a single trusted tenant). The snapshot and its warm translation cache
// are shared across all scopes — they are pristine, immutable decoder
// state — but a parked VM, which carries residual memory of the streams
// it decoded, is resumed in place only within the scope that parked it.
// Any other scope receives a VM rewound to the pristine snapshot, so a
// malicious decoder embedded in two clients' archives cannot carry one
// client's data into the other's output.
//
// ctx carries the request's span; a lease asked for under a context
// already canceled fails with the context error.
func (c *SnapCache) Get(ctx context.Context, hash [32]byte, mode uint32, scope uint64, elf func() ([]byte, error)) (*Lease, error) {
	// Quarantine gate: an open breaker fails the request here, before
	// any cache or pool work — the fail-fast path costs one mutex
	// acquisition and leases nothing. A half-open probe passes through.
	if err := c.health.Allow(hash); err != nil {
		return nil, err
	}
	c.mu.Lock()
	e := c.entries[hash]
	if e == nil {
		e = &cacheEntry{hash: hash}
		c.entries[hash] = e
		c.misses++
	} else {
		c.hits++
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
	}
	c.mu.Unlock()

	// The build (or the coalesced wait on another request's in-flight
	// build) is the content-addressed cold path; attribute it to the
	// request's snapshot stage, with the slice spent probing/loading the
	// persistent artifact store broken out as the artifact stage. A
	// resident hit passes through in nanoseconds and contributes nothing
	// visible; coalesced waiters attribute the artifact share of however
	// long they actually waited.
	buildStart := time.Now()
	e.once.Do(func() { c.build(e, elf) })
	elapsed := time.Since(buildStart)
	if d := e.artifactDur; d > 0 {
		if d > elapsed {
			d = elapsed
		}
		obs.SpanFrom(ctx).Add(obs.StageArtifact, d)
		elapsed -= d
	}
	obs.SpanFrom(ctx).Add(obs.StageSnapshot, elapsed)
	if e.err != nil {
		// Drop the failed entry so a later Get retries the build.
		c.mu.Lock()
		if c.entries[hash] == e {
			delete(c.entries, hash)
		}
		c.mu.Unlock()
		return nil, e.err
	}
	l, err := e.lease(ctx, mode, scope)
	if err != nil {
		return nil, err
	}
	l.cache, l.hash = c, hash
	return l, nil
}

// NextScope returns a fresh trust-scope token for SnapCache.Get. Each
// client-facing unit of work (a Reader, a session) takes one.
func NextScope() uint64 { return scopeCounter.Add(1) }

var scopeCounter atomic.Uint64

// build constructs the entry's line, then makes it
// resident, evicting over-budget entries. Runs outside the cache lock:
// artifact load / ELF fetch + parse + image copy must not serialize
// unrelated decoders.
//
// The persistent artifact store, when configured, is probed first: a
// verified artifact yields the snapshot (pristine image + warm uop
// block cache) without touching the decoder ELF at all. Any load
// failure — absent, truncated, corrupt, foreign engine version — falls
// through to the ELF build path, whose result is then written back.
func (c *SnapCache) build(e *cacheEntry, elf func() ([]byte, error)) {
	if elf == nil {
		e.err = fmt.Errorf("vmpool: snapcache miss for %x with no elf source", e.hash)
		return
	}
	// Chaos hook: an injected build failure exercises the retry path
	// (the failed entry is dropped, so a later Get rebuilds) and the
	// breaker's build-failure accounting.
	if err := fault.Inject(fault.SnapshotBuild); err != nil {
		e.err = fmt.Errorf("vmpool: snapshot build: %w", err)
		c.Report(e.hash, OutcomeBuildFail)
		return
	}

	var snap *vm.Snapshot
	var v *vm.VM
	fromStore := false
	if store := c.cfg.Artifacts; store != nil {
		probeStart := time.Now()
		if s, err := store.Load(e.hash, c.cfg.VM); err == nil {
			snap, fromStore = s, true
			e.savedBlocks, e.savedSBs = s.BlockCount(), s.SBCount()
		}
		// The store keeps its own hit/miss/fallback counters; a failed
		// load deliberately leaves no trace on the entry beyond them.
		e.artifactDur = time.Since(probeStart)
	}
	if snap == nil {
		elfBytes, err := elf()
		if err != nil {
			// A failed decoder *fetch* is archive/backend I/O, not
			// evidence against the decoder: no health report.
			e.err = err
			return
		}
		v, err = elf32.NewVM(elfBytes, c.cfg.VM)
		if err != nil {
			e.err = err
			c.Report(e.hash, OutcomeBuildFail)
			return
		}
		snap = v.Snapshot()
	}
	if v == nil {
		// Artifact path: materialize the spare from the loaded snapshot
		// (warm block cache included).
		v = snap.NewVM()
	}

	e.init(snap, v, c.cfg.MaxIdlePerKey)
	e.bytes = snap.Footprint()

	c.mu.Lock()
	e.elem = c.lru.PushFront(e)
	c.used += e.bytes
	c.evictLocked(e)
	c.mu.Unlock()

	// Persist a fresh ELF build so the next process skips it. Best
	// effort: a full disk or read-only store must never fail the build
	// (the store's save-error counter records it).
	if store := c.cfg.Artifacts; store != nil && !fromStore {
		if store.Save(e.hash, c.cfg.VM, snap) == nil {
			c.mu.Lock()
			e.savedBlocks, e.savedSBs = snap.BlockCount(), snap.SBCount()
			c.mu.Unlock()
		}
	}
}

// refreshFootprintLocked re-reads the entry's live Footprint — absorbed
// blocks grow it after build — and folds the delta into the cache's
// used total, so the LRU budget, Shrink and Stats all account for what
// the snapshot actually pins rather than its size at build time.
// Caller holds c.mu.
func (c *SnapCache) refreshFootprintLocked(e *cacheEntry) {
	if e.snap == nil {
		return
	}
	nf := e.snap.Footprint()
	c.used += nf - e.bytes
	e.bytes = nf
}

// refreshAllFootprintsLocked refreshes every resident entry. Caller
// holds c.mu. O(resident decoders × their blocks) — both small.
func (c *SnapCache) refreshAllFootprintsLocked() {
	for el := c.lru.Front(); el != nil; el = el.Next() {
		c.refreshFootprintLocked(el.Value.(*cacheEntry))
	}
}

// evictLocked drops least-recently-used entries until the budget holds,
// never evicting keep (the entry just touched): one oversized decoder
// must still be servable. Footprints are refreshed first so the budget
// decision sees post-absorb residency, not build-time sizes.
func (c *SnapCache) evictLocked(keep *cacheEntry) {
	c.refreshAllFootprintsLocked()
	for c.used > c.cfg.MaxBytes {
		back := c.lru.Back()
		if back == nil {
			return
		}
		victim := back.Value.(*cacheEntry)
		if victim == keep {
			return
		}
		c.retireLocked(victim)
		c.evictions++
		c.compactOrphansLocked()
	}
}

// retireLocked takes a resident line out of the LRU and the index, frees
// its idle VMs and parks it on the orphan list. Its counters are
// retired only once no lease is in flight: leases fold their deltas into
// the line at release, and retiring early would lose them (a rebuild of
// the same line would then appear to reset the fleet counters).
// compactOrphansLocked drains the list at every eviction and in Stats(),
// so an orphaned line (and the snapshot it pins) never outlives its last
// lease by more than one eviction or metrics scrape; until then the
// snapshot footprint it pins stays visible as OrphanBytes. Caller holds
// c.mu.
func (c *SnapCache) retireLocked(e *cacheEntry) {
	c.lru.Remove(e.elem)
	e.elem = nil
	delete(c.entries, e.hash)
	c.used -= e.bytes
	e.drain()
	c.orphans = append(c.orphans, e)
	c.orphanBytes += e.bytes
}

// compactOrphansLocked folds every fully drained orphan line into the
// retired totals and drops it, releasing the snapshot it pinned (and
// its OrphanBytes share). Caller holds c.mu.
func (c *SnapCache) compactOrphansLocked() {
	keep := c.orphans[:0]
	for _, o := range c.orphans {
		st, vst, outstanding := o.counters()
		if outstanding == 0 {
			c.retired.add(st)
			addVMStats(&c.retiredVM, vst, vm.Stats{})
			c.orphanBytes -= o.bytes
			continue
		}
		keep = append(keep, o)
	}
	clear(c.orphans[len(keep):])
	c.orphans = keep
}

// Report feeds one stream (or build) outcome into the decoder's health
// record. When the report trips the breaker open, the decoder's resident
// line is quarantine-evicted: the snapshot may have been poisoned by
// whatever broke the decoder, so the eventual half-open probe rebuilds
// it from the decoder bytes rather than resharing it.
func (c *SnapCache) Report(hash [32]byte, o Outcome) {
	if c.health.Report(hash, o) {
		c.Quarantine(hash)
	}
}

// Health returns the decoder circuit-breaker view.
func (c *SnapCache) Health() HealthStats { return c.health.Stats() }

// CheckQuarantine returns the fail-fast *QuarantineError Get would
// return for the decoder, or nil when requests may proceed (Get would
// then admit it, as the probe if one is due). It never admits a probe —
// serving layers use it to reject quarantined work before paying for
// admission, without stealing the probe slot.
func (c *SnapCache) CheckQuarantine(hash [32]byte) error { return c.health.Check(hash) }

// Quarantine evicts the decoder's resident line, whatever modes it
// served. Idle VMs are freed; in-flight leases drain through the orphan
// list exactly as with budget evictions.
func (c *SnapCache) Quarantine(hash [32]byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[hash]; e != nil && e.elem != nil {
		c.refreshFootprintLocked(e)
		c.retireLocked(e)
		c.quarantined++
		c.compactOrphansLocked()
	}
}

// Outstanding reports leases checked out and not yet released across
// every resident and orphaned line — the serving layer's leak
// detector: it must return to zero when the request stream drains.
func (c *SnapCache) Outstanding() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, _, n := c.sumLocked()
	return n
}

// sumLocked totals the counters of every resident and orphaned line.
// Caller holds c.mu.
func (c *SnapCache) sumLocked() (s Stats, v vm.Stats, outstanding int) {
	add := func(e *cacheEntry) {
		st, vst, o := e.counters()
		s.add(st)
		addVMStats(&v, vst, vm.Stats{})
		outstanding += o
	}
	for el := c.lru.Front(); el != nil; el = el.Next() {
		add(el.Value.(*cacheEntry))
	}
	for _, e := range c.orphans {
		add(e)
	}
	return s, v, outstanding
}

// Shrink is the memory-pressure emergency valve: it evicts
// least-recently-used lines until resident snapshot bytes are at most
// target (unlike budget eviction, even the most recently used line may
// go — snapshots rebuild on demand), then drops every surviving line's
// idle VMs. It returns the snapshot bytes freed.
func (c *SnapCache) Shrink(target int64) int64 {
	if target < 0 {
		target = 0
	}
	c.mu.Lock()
	c.refreshAllFootprintsLocked()
	freed := int64(0)
	for c.used > target {
		back := c.lru.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*cacheEntry)
		freed += victim.bytes
		c.retireLocked(victim)
		c.evictions++
	}
	c.compactOrphansLocked()
	c.shrinks++
	c.mu.Unlock()
	c.Drain()
	return freed
}

// Stats returns a point-in-time view of the cache counters. Evicted
// lines whose last lease has been released are compacted into the
// retired totals; the rest are aggregated live, so no released
// stream's counters are ever lost to an eviction or rebuild.
func (c *SnapCache) Stats() SnapCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.compactOrphansLocked()
	c.refreshAllFootprintsLocked()
	s := SnapCacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Entries: c.lru.Len(), Bytes: c.used, MaxBytes: c.cfg.MaxBytes,
		OrphanBytes: c.orphanBytes,
		Quarantined: c.quarantined, Shrinks: c.shrinks,
		Health: c.health.Stats(),
	}
	s.Pool, s.VM, _ = c.sumLocked()
	s.Pool.add(c.retired)
	addVMStats(&s.VM, c.retiredVM, vm.Stats{})
	for el := c.lru.Front(); el != nil; el = el.Next() {
		s.Traces += el.Value.(*cacheEntry).snap.T2Count()
	}
	return s
}

// FlushArtifacts re-persists every resident entry whose absorbed block
// cache has grown since its artifact was last written, so translation
// work done by live streams reaches the persistent tier (and through
// vxwarm pack, the rest of the fleet). The serving layer calls it
// periodically and once at shutdown. Serialization and fsync run
// outside the cache lock. Returns the number of artifacts written.
func (c *SnapCache) FlushArtifacts() int {
	store := c.cfg.Artifacts
	if store == nil {
		return 0
	}
	// flushMinNewBlocks is the staleness threshold: rewriting a
	// multi-megabyte artifact to persist one newly absorbed fragment is
	// a bad trade, growing by a translation burst is worth an fsync.
	// Superblocks are different: each one is the product of hot-path
	// tracing across many streams, so even a single new superblock
	// justifies the rewrite — losing it on restart re-pays the whole
	// warm-up that produced it.
	const flushMinNewBlocks = 8
	type job struct {
		e      *cacheEntry
		snap   *vm.Snapshot
		blocks int
		sbs    int
	}
	c.mu.Lock()
	var jobs []job
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		bc, sc := e.snap.BlockCount(), e.snap.SBCount()
		if bc-e.savedBlocks >= flushMinNewBlocks || sc > e.savedSBs {
			jobs = append(jobs, job{e, e.snap, bc, sc})
		}
	}
	c.mu.Unlock()
	n := 0
	for _, j := range jobs {
		if store.Save(j.e.hash, c.cfg.VM, j.snap) != nil {
			continue
		}
		n++
		c.mu.Lock()
		if j.blocks > j.e.savedBlocks {
			j.e.savedBlocks = j.blocks
		}
		if j.sbs > j.e.savedSBs {
			j.e.savedSBs = j.sbs
		}
		c.mu.Unlock()
	}
	return n
}

// Len reports how many decoder lines are resident.
func (c *SnapCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Contains reports whether the decoder's line is resident (for admission
// and monitoring; the answer may be stale by the time it returns).
func (c *SnapCache) Contains(hash [32]byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[hash]
	return e != nil && e.elem != nil
}

// Drain drops every resident entry's idle VMs, keeping the snapshots
// (and their warm block caches) resident, and reports how many VMs were
// dropped. The between-bursts memory valve for a long-lived server.
func (c *SnapCache) Drain() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.lru.Front(); el != nil; el = el.Next() {
		n += el.Value.(*cacheEntry).drain()
	}
	return n
}
