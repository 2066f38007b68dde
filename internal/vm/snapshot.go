package vm

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"vxa/internal/vm/tier2"
	"vxa/internal/vm/uop"
)

// Snapshot is a frozen copy of a VM's architectural state: the accessible
// memory image, registers, flags, sandbox bounds and (optionally) the
// predecoded basic-block cache. It is the mechanism behind cheap decoder
// reuse (§2.4): the reader captures one snapshot per decoder right after
// ELF load, then materializes or re-pristines VMs from it per stream
// instead of re-parsing the executable each time.
//
// The image is sparse. A decoder's accessible memory is a few KiB of
// text and data under hundreds of KiB of zero-initialized heap and a
// MiB of untouched stack, so the snapshot keeps only the pages that hold
// a non-zero byte and a restore makes the rest zero the cheapest way the
// target allows: not at all on a fresh mapping, and on a reused VM only
// as far as the VM's own watermarks (dirtyBrk, stackLow) say anything
// can have been written. What a snapshot costs to take, hold, persist
// and restore follows the decoder's size, not its address space's.
//
// A Snapshot is safe for concurrent use: many goroutines may NewVM/Reset
// from the same snapshot at once. Decoded blocks are immutable after
// construction, so they are shared, never copied.
type Snapshot struct {
	memSize uint32

	// image is the non-zero pages of the accessible regions — [PageSize,
	// brk) for text/data/heap and [stackBase, memSize) for the stack — as
	// runs of adjacent pages in address order. Every accessible byte
	// outside an extent is zero in the captured state. The guard gap
	// between the regions is unreachable by the guest, so its contents
	// never need restoring.
	image []extent

	regs               [8]uint32
	eip                uint32
	cf, zf, sf, of, pf bool

	brk, roLimit, stackBase uint32
	fuel                    int64
	opt                     OptLevel // as configured; a VM resolves OptDefault for itself
	wallBudget              time.Duration

	// arena is where traces compiled for this snapshot's VMs live: the
	// arena of the VM the snapshot was taken from, handed to every VM
	// restored from it, so one decoder's code is one pair of mappings
	// however many VMs compile into it.
	arena *tier2.Arena

	// id names the snapshot to the VMs whose translation view was built
	// from it (VM.view): a number, not a pointer, so that no VM keeps a
	// snapshot, or the artifact mapping under a loaded one, alive.
	id uint64

	mu sync.Mutex
	// gen counts the changes to blocks and sbs, a trace published on a
	// record included. A view built at an older generation lacks what
	// came since, and the next restore rebuilds it.
	gen    uint64
	blocks map[uint32]*block
	// sbs carries absorbed superblocks by entry address. A superblock is
	// profile-driven but deterministic re-translation of read-only guest
	// code, so one VM's formation work is valid for every sibling — and
	// re-forming them (uop lowering plus a full optimizer pass per hot
	// trace) is the dominant first-stream cost once images and blocks are
	// already cached. Each record keeps the guard/return slot counts so
	// materialization can size the per-VM chain arrays without rescanning.
	// Records belong to this snapshot alone and are read and written
	// under mu.
	sbs map[uint32]*sbRecord
}

// extent is one run of the image: data is what mem[off:off+len(data)]
// held. off is page-aligned, and the run ends on a page boundary or
// where its region does.
type extent struct {
	off  uint32
	data []byte
}

// snapshotIDs numbers snapshots as they are made; 0 names none.
var snapshotIDs atomic.Uint64

// zeroPage is what a page with nothing to keep compares equal to.
var zeroPage [PageSize]byte

// nonZeroRuns appends to dst the pages of mem[lo:hi) that hold a non-zero
// byte, adjacent pages merged into one extent, as views of mem itself.
// lo is page-aligned; hi need not be.
func nonZeroRuns(dst []extent, mem []byte, lo, hi uint32) []extent {
	run := lo // where the run of non-zero pages ending at lo began
	for ; lo < hi; lo += PageSize {
		end := min(lo+PageSize, hi)
		if !bytes.Equal(mem[lo:end], zeroPage[:end-lo]) {
			continue
		}
		if run < lo {
			dst = append(dst, extent{off: run, data: mem[run:lo]})
		}
		run = lo + PageSize
	}
	if run < hi {
		dst = append(dst, extent{off: run, data: mem[run:hi]})
	}
	return dst
}

// sbRecord is one absorbed superblock: the shared immutable fragment
// plus the chain-slot geometry every per-VM wrapper needs.
type sbRecord struct {
	b      *block
	guards int
	rets   int
	// t2 is the superblock's published tier-2 trace: native code compiled
	// from exactly b's micro-ops for this snapshot's geometry, by
	// whichever VM ran it hot first. Every VM materialized from the
	// snapshot gets it installed with the superblock and never compiles
	// it again. Nil until some VM has, and for good where the compiler
	// bails.
	t2 *tier2.Trace
}

// geometry is the sandbox shape every VM of this snapshot has, and so
// the shape a trace must have been compiled for to be published here.
func (s *Snapshot) geometry() tier2.Geometry {
	return tier2.Geometry{MemLen: s.memSize, ROLimit: s.roLimit, StackBase: s.stackBase}
}

// Snapshot captures the VM's current state. The usual call site is right
// after elf32.Load, when the image is pristine; AbsorbBlocks can later
// fold a warmed-up VM's translation cache into the snapshot. Lazy flags
// are materialized first, so the snapshot stores the architectural bits.
//
// Only memory the VM's watermarks say may have been written is scanned
// for pages to keep: right after ELF load that is the file-backed part
// of the segments, not the BSS above it nor the stack.
func (v *VM) Snapshot() *Snapshot {
	v.materializeFlags()
	if v.arena == nil {
		v.arena = tier2.NewArena(tier2.ArenaSize)
	}
	image := nonZeroRuns(nil, v.mem, PageSize, min(v.dirtyBrk, v.m.Brk))
	image = nonZeroRuns(image, v.mem, v.stackLow, uint32(len(v.mem)))
	n := 0
	for _, e := range image {
		n += len(e.data)
	}
	buf := make([]byte, n) // the runs move out of guest memory into one allocation
	for i := range image {
		k := copy(buf, image[i].data)
		image[i].data, buf = buf[:k:k], buf[k:]
	}
	s := &Snapshot{
		memSize: uint32(len(v.mem)),
		image:   image,
		arena:   v.arena,
		id:      snapshotIDs.Add(1),
		regs:    [8]uint32(v.m.Regs[:8]),
		eip:     v.eip,
		cf:      v.m.CF, zf: v.m.ZF, sf: v.m.SF, of: v.m.OF, pf: v.m.PF,
		brk:        v.m.Brk,
		roLimit:    v.roLimit,
		stackBase:  v.stackBase,
		fuel:       v.m.Fuel,
		opt:        v.opt,
		wallBudget: v.wallBudget,
		blocks:     make(map[uint32]*block, len(v.blocks)),
		sbs:        make(map[uint32]*sbRecord),
	}
	for addr, br := range v.blocks {
		s.blocks[addr] = br.b
	}
	return s
}

// MemSize returns the guest address-space size the snapshot was taken at.
func (s *Snapshot) MemSize() uint32 { return s.memSize }

// viewStamp names what a VM's translation view was built from. The view
// is v.blocks, the superblock views and traces hanging off it with their
// chain links and inline caches, and the link table: the snapshot (by
// id), its generation then and the level the VM ran at.
type viewStamp struct {
	snap, gen uint64
	level     OptLevel
}

// stamp is what a view of s that v may keep is stamped, under mu.
func (s *Snapshot) stamp(v *VM) viewStamp {
	return viewStamp{snap: s.id, gen: s.gen, level: v.level}
}

// blockMap gives v its view of the snapshot's block cache. A view this
// snapshot built at its current generation, at v's level, is kept: all
// of it is translated from the read-only text, which the restore has
// just laid down unchanged, and it holds everything the snapshot does.
// Its profile (heat and edge counts) is kept too: the guest has no clock
// to observe it by, and code that runs a few times per stream, such as
// a decoder's start-up, goes on warming across resets until it forms its
// superblocks and compiles, instead of starting cold in every stream.
//
// Any other view is rebuilt: the *block values are shared (immutable
// once built), but each is wrapped in a fresh per-VM bref, since chain
// links and cache growth are private to the receiving VM, and the link
// table compiled traces chain through is emptied with the old wrappers.
//
// Absorbed superblocks are re-attached through fresh wrappers too, with
// empty guard chains: the receiving VM starts on the optimized traces
// immediately.
//
// Superblocks and published traces are attached as far as the receiving
// VM's level uses them (its own: the snapshot may have been warmed, or
// persisted, by a process running at another). A record's published
// tier-2 trace is installed with its superblock: the VM runs compiled
// code from the first entry, with no heat to count and nothing to
// compile.
func (s *Snapshot) blockMap(v *VM) {
	s.mu.Lock()
	defer s.mu.Unlock()
	view := s.stamp(v)
	if v.view == view {
		return
	}
	v.view = view
	v.dropLinks()
	v.blocks = make(map[uint32]*bref, len(s.blocks))
	// The view's wrappers are one slice: the blocks', then the
	// superblocks'. What is left of the VM's chunk of them goes with the
	// old view.
	nsb := 0
	if v.level >= OptSuperblocks {
		nsb = len(s.sbs)
	}
	brs := make([]bref, len(s.blocks)+nsb)
	sbrs := brs[len(s.blocks):]
	v.xl.brefs = nil
	for addr, b := range s.blocks {
		br := &brs[0]
		brs = brs[1:]
		br.b = b
		if r, ok := s.sbs[addr]; ok && v.level >= OptSuperblocks {
			br.sb = &sbrs[0]
			sbrs = sbrs[1:]
			*br.sb = bref{
				b:        r.b,
				sbChains: make([]*bref, r.guards),
				sbInd:    make([]sbIndEntry, r.rets),
				sbTried:  true,
			}
			br.sbTried = true
			if r.t2 != nil && v.level >= OptTier2 {
				v.attachTrace(br.sb, r.t2)
				br.sb.t2Tried, br.sb.t2Shared = true, true
				v.stats.Tier2Shared++
			}
		}
		v.blocks[addr] = br
	}
}

// bump records a change to the snapshot's cache, under mu: every view
// built from it is stale from now on, except the current one of by,
// when non-nil, whose absorb the change is and which holds all of it.
func (s *Snapshot) bump(by *VM) {
	current := by != nil && by.view == s.stamp(by)
	s.gen++
	if current {
		by.view.gen = s.gen
	}
}

// NewVM materializes a fresh VM in the snapshot's state, including the
// predecoded block cache — the fast path for spinning up one more decoder
// instance for parallel extraction.
func (s *Snapshot) NewVM() *VM {
	owner, mem := allocGuestMem(s.memSize)
	// A fresh address space is all zero: nothing is dirty.
	v := &VM{mem: mem, memOwner: owner, dirtyBrk: PageSize, stackLow: s.memSize}
	s.restore(v)
	return v
}

// Reset rewinds an existing VM to the snapshot: every guest-visible
// region is restored byte-for-byte, registers/flags/bounds/fuel return to
// their captured values, and the I/O streams are detached so no writer
// from a previous stream can leak into the next. Execution statistics
// accumulate across resets. The VM must have the same memory size as the
// snapshot.
//
// Reset rewinds the guest, not the VM's translation cache. A reader
// re-initializes a decoder whenever security attributes change (§2.4),
// and what that must erase is what the guest can observe or has written.
// The view kept when still valid (blockMap) is derived from read-only
// text alone — the same bytes in every VM of the snapshot — plus an
// execution profile of the kind the snapshot already shares across modes
// and scopes through AbsorbBlocks. Neither is guest-visible: the guest
// has no clock, and output, Steps and every trap are the same on every
// tier, so a stream's output and Steps stay a pure function of the
// archive, the entry and the fuel.
func (v *VM) Reset(s *Snapshot) error {
	if uint32(len(v.mem)) != s.memSize {
		return fmt.Errorf("vm: reset across memory sizes (%d != %d)", len(v.mem), s.memSize)
	}
	s.restore(v)
	return nil
}

func (s *Snapshot) restore(v *VM) {
	// Zero everything the VM may have written, then lay the image's pages
	// over it. The heap up to the page that holds the snapshot's brk is
	// cleared: its text and data pages are about to be copied back anyway.
	// Whole pages of heap the VM grew past that brk, and the stack window,
	// go back to the kernel where the address space is a mapping: one call
	// whatever their size, and the next stream faults in only the pages it
	// touches, so growing the heap again exposes zeros without a clear.
	heapTop := min(v.dirtyBrk, s.stackBase)
	brkPage := (s.brk + PageSize - 1) &^ (PageSize - 1)
	if top := min(heapTop, brkPage); top > PageSize {
		clear(v.mem[PageSize:top])
	}
	if top := (heapTop + PageSize - 1) &^ (PageSize - 1); top > brkPage {
		v.memOwner.zero(v.mem[brkPage:top])
	}
	if v.dirtyBrk > s.stackBase {
		// The VM comes from a snapshot with a smaller stack, and its heap
		// once reached into what is now stack.
		v.stackLow = min(v.stackLow, s.stackBase)
	}
	if v.stackLow < s.memSize {
		v.memOwner.zero(v.mem[v.stackLow:])
		v.stackLow = s.memSize
	}
	v.dirtyBrk = PageSize // nothing below the stack holds a byte now
	for _, e := range s.image {
		copy(v.mem[e.off:], e.data)
		if end := e.off + uint32(len(e.data)); end <= s.brk {
			v.dirtyBrk = max(v.dirtyBrk, end)
		} else {
			v.stackLow = min(v.stackLow, e.off)
		}
	}
	copy(v.m.Regs[:], s.regs[:])
	v.eip = s.eip
	v.m.CF, v.m.ZF, v.m.SF, v.m.OF, v.m.PF = s.cf, s.zf, s.sf, s.of, s.pf
	v.m.Fl = uop.Flags{} // snapshots carry materialized flags
	v.m.Brk = s.brk
	v.roLimit = s.roLimit
	v.stackBase = s.stackBase
	v.m.Fuel = s.fuel
	// The level follows the snapshot as configured; where that is unset
	// the process override is resolved here, per VM, because a snapshot
	// taken in one process may materialize in another (Deserialize) and
	// the override describes the running process, not the captured
	// image. Its one possible error was reported by whatever made the
	// snapshot: New, or Deserialize.
	v.setLevel(s.opt)
	v.wallBudget = s.wallBudget
	v.wallDeadline = 0
	v.bindTier2()
	v.arena = s.arena
	s.blockMap(v)
	v.exitCode = 0
	v.Stdin, v.Stdout, v.Stderr = nil, nil, nil
}

// AbsorbBlocks folds the decoded block cache of v (the VM the snapshot
// was taken from, or one made from it) into the snapshot so that future
// NewVM/Reset calls start with a warm translation cache. Every block was translated from the read-only
// text, which cannot have changed since the snapshot, so the decoded
// fragments are valid for the pristine image.
//
// The VM's formed superblocks ride along whenever their entry block is
// taken, so sibling VMs (and, via Serialize, sibling processes) skip the
// per-trace lowering and optimizer passes that otherwise dominate a
// fresh VM's first stream.
//
// A superblock's compiled trace is published on its record, new or
// already present, when it can be shared: compiled for this snapshot's
// geometry, from the record's own fragment — a trace is valid for
// exactly the micro-ops it was compiled from, and a VM that formed its
// own superblock at an entry a sibling has published since leaves the
// sibling's in place. The first trace published for a record stays.
//
// Anything absorbed makes every VM's view of the snapshot stale but v's
// own, which holds all of it when it was current before.
func (s *Snapshot) AbsorbBlocks(v *VM) {
	s.mu.Lock()
	defer s.mu.Unlock()
	changed := false
	for addr, br := range v.blocks {
		if _, ok := s.blocks[addr]; !ok {
			s.blocks[addr] = br.b
			changed = true
		}
	}
	geom := s.geometry()
	for addr, br := range v.blocks {
		sb := br.sb
		if sb == nil {
			continue
		}
		r := s.sbs[addr]
		if r == nil {
			r = &sbRecord{b: sb.b, guards: len(sb.sbChains), rets: len(sb.sbInd)}
			s.sbs[addr] = r
			changed = true
		}
		if t := sb.t2; t != nil && r.t2 == nil && r.b == sb.b && t.Geom == geom {
			r.t2 = t
			changed = true
		}
	}
	if changed {
		s.bump(v)
	}
}

// sbInRO reports whether every micro-op of a superblock fragment was
// translated from an instruction inside the read-only text. Guard exit
// targets may point anywhere — exits resolve through the normal block
// lookup, which fetches from the text alone.
func sbInRO(b *block, roLimit uint32) bool {
	for i := range b.uops {
		if u := &b.uops[i]; !inText(u.EIP, u.Next, roLimit) {
			return false
		}
	}
	return true
}

// BlockCount reports how many decoded fragments the snapshot carries
// (exposed for the evaluation harness).
func (s *Snapshot) BlockCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.blocks)
}

// SBCount reports how many absorbed superblocks the snapshot carries.
func (s *Snapshot) SBCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sbs)
}

// T2Count reports how many of those superblocks carry a published
// tier-2 trace, which NewVM and a Reset that rebuilds the view install
// instead of compiling.
func (s *Snapshot) T2Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, r := range s.sbs {
		if r.t2 != nil {
			n++
		}
	}
	return n
}

// Footprint estimates the resident bytes a snapshot pins: the pages of
// the memory image, the translated block cache and the code pages of its
// arena — once, however many traces share them, and including what VMs
// of the snapshot compiled and have not published. It is the accounting
// unit for content-addressed snapshot caches with a byte budget.
func (s *Snapshot) Footprint() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.arena.Committed()
	for _, e := range s.image {
		n += int64(len(e.data))
	}
	for _, b := range s.blocks {
		n += blockFootprint(b)
	}
	for _, r := range s.sbs {
		n += blockFootprint(r.b)
	}
	return n
}

// CodeBytes is the arena's part of Footprint: the code pages the
// snapshot's lineage has filled.
func (s *Snapshot) CodeBytes() int64 { return s.arena.Committed() }

// blockFootprint estimates one translated fragment's resident bytes.
func blockFootprint(b *block) int64 {
	n := len(b.raw) + len(b.uops)
	if len(b.raw) > 0 && &b.raw[0] == &b.uops[0] { // it runs raw itself
		n = len(b.raw)
	}
	return int64(n)*int64(unsafe.Sizeof(uop.Uop{})) + 64
}

// SetFuel sets the remaining instruction budget to an absolute value —
// the per-stream discipline: each stream gets exactly its own budget,
// never the leftovers of earlier streams.
func (v *VM) SetFuel(n int64) { v.m.Fuel = n }

// StreamFuel is the standard absolute per-stream instruction budget for
// decoding a payload of n bytes: generous per input byte plus a flat
// floor, but never carried over between streams. Every per-stream
// consumer (the archive reader, vxrun, the benchmarks) budgets through
// this one function so the policy cannot silently diverge.
func StreamFuel(n int) int64 { return int64(n)*4096 + 1<<30 }

// FuelFor is the budget for one stream of an n-byte payload under c:
// c.Fuel when set, StreamFuel(n) otherwise.
func (c Config) FuelFor(n int) int64 {
	if c.Fuel != 0 {
		return c.Fuel
	}
	return StreamFuel(n)
}
