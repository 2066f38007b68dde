package vm

import (
	"bytes"
	"fmt"
	"sync"
	"time"
	"unsafe"

	"vxa/internal/vm/tier2"
	"vxa/internal/vm/uop"
	"vxa/internal/x86"
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

	mu     sync.Mutex
	blocks map[uint32]*block
	// sbs carries absorbed superblocks by entry address. A superblock is
	// profile-driven but deterministic re-translation of read-only guest
	// code, so one VM's formation work is valid for every sibling — and
	// re-forming them (uop lowering plus a full optimizer pass per hot
	// trace) is the dominant first-stream cost once images and blocks are
	// already cached. Each record keeps the guard/return slot counts so
	// materialization can size the per-VM chain arrays without rescanning.
	// Records belong to this snapshot alone (ImportBlocks copies them) and
	// are read and written under mu.
	sbs map[uint32]*sbRecord
}

// extent is one run of the image: data is what mem[off:off+len(data)]
// held. off is page-aligned, and the run ends on a page boundary or
// where its region does.
type extent struct {
	off  uint32
	data []byte
}

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

// blockMap gives v a private view of the snapshot's block cache: the
// *block values are shared (immutable once built), but each is wrapped
// in a fresh per-VM bref, since chain links and cache growth are private
// to the receiving VM. Handing out fresh wrappers is also what
// invalidates chained successor links across Reset, and the link table
// compiled traces chain through is emptied with them.
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
	v.dropLinks()
	v.blocks = make(map[uint32]*bref, len(s.blocks))
	for addr, b := range s.blocks {
		br := &bref{b: b}
		if r, ok := s.sbs[addr]; ok && v.level >= OptSuperblocks {
			br.sb = &bref{
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
func (v *VM) Reset(s *Snapshot) error {
	if uint32(len(v.mem)) != s.memSize {
		return fmt.Errorf("vm: reset across memory sizes (%d != %d)", len(v.mem), s.memSize)
	}
	s.restore(v)
	return nil
}

func (s *Snapshot) restore(v *VM) {
	// Zero what the VM may have written of the regions the snapshot makes
	// accessible, then lay the image's pages over it. Heap memory beyond
	// the restored brk stays dirty but unreachable: the sandbox bounds
	// make it inaccessible, and sysSetPerm re-zeroes the dirtied prefix
	// (up to v.dirtyBrk) before exposing it again. The stack window goes
	// back to the kernel whole where the address space is a mapping: one
	// call whatever its size, and the next stream faults in the page or
	// two it touches.
	if top := min(v.dirtyBrk, s.brk); top > PageSize {
		clear(v.mem[PageSize:top])
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

// AbsorbBlocks folds v's decoded block cache into the snapshot so that
// future NewVM/Reset calls start with a warm translation cache. Only
// blocks that lie entirely inside the read-only region below the
// snapshot's roLimit are taken: those bytes cannot have changed since the
// snapshot, so the decoded fragments are valid for the pristine image.
//
// The VM's formed superblocks ride along under the same rule — every
// instruction a trace re-translates must come from the pristine
// read-only window — so sibling VMs (and, via Serialize, sibling
// processes) skip the per-trace lowering and optimizer passes that
// otherwise dominate a fresh VM's first stream.
//
// A superblock's compiled trace is published on its record, new or
// already present, when it can be shared: compiled for this snapshot's
// geometry, from the record's own fragment — a trace is valid for
// exactly the micro-ops it was compiled from, and a VM that formed its
// own superblock at an entry a sibling has published since leaves the
// sibling's in place. The first trace published for a record stays.
func (s *Snapshot) AbsorbBlocks(v *VM) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for addr, br := range v.blocks {
		if _, ok := s.blocks[addr]; !ok {
			b := br.b
			if len(b.insts) == 0 {
				continue
			}
			if addr >= PageSize && b.end <= s.roLimit {
				s.blocks[addr] = b
			}
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
			// The entry block must itself be absorbed, and the whole trace
			// must execute read-only pristine bytes.
			if _, ok := s.blocks[addr]; !ok || !sbInRO(sb.b, s.roLimit) {
				continue
			}
			r = &sbRecord{b: sb.b, guards: len(sb.sbChains), rets: len(sb.sbInd)}
			s.sbs[addr] = r
		}
		if t := sb.t2; t != nil && r.t2 == nil && r.b == sb.b && t.Geom == geom {
			r.t2 = t
		}
	}
}

// sbInRO reports whether every micro-op of a superblock fragment was
// re-translated from instruction bytes inside the pristine read-only
// window [PageSize, roLimit). Guard exit targets may point anywhere —
// exits resolve through the normal block lookup, which re-validates.
func sbInRO(b *block, roLimit uint32) bool {
	for i := range b.uops {
		u := &b.uops[i]
		if u.EIP < PageSize || u.EIP > roLimit || u.Next > roLimit {
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
// tier-2 trace, which NewVM and Reset install instead of compiling.
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

// DropSuperblocks discards the snapshot's absorbed superblocks, so
// subsequent NewVM/Reset materializations profile and form their own —
// the ablation hook for measuring what absorbed traces are worth.
func (s *Snapshot) DropSuperblocks() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sbs = make(map[uint32]*sbRecord)
}

// Footprint estimates the resident bytes a snapshot pins: the pages of
// the memory image, the translated block cache and the code pages of its
// arena — once, however many traces share them, and including what VMs
// of the snapshot compiled and have not published. It is the accounting
// unit for content-addressed snapshot caches with a byte budget. Traces
// imported from a sibling snapshot live in the sibling's arena and count
// there.
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
	return int64(len(b.insts))*int64(unsafe.Sizeof(x86.Inst{})) +
		int64(len(b.uops))*int64(unsafe.Sizeof(uop.Uop{})) +
		int64(len(b.addrs))*4 + 64
}

// BlockExport is a frozen view of a snapshot's translated block cache,
// for sharing translation work between snapshots of the same decoder
// image (e.g. the same content hash cached under two security modes).
// The blocks and compiled traces are immutable and shared, never
// copied; the superblock records that point at them are copied, since
// each snapshot goes on publishing traces into its own.
type BlockExport struct {
	blocks map[uint32]*block
	sbs    map[uint32]sbRecord
	geom   tier2.Geometry
}

// ExportBlocks captures the snapshot's current block cache (and its
// absorbed superblocks with their published traces) for import into a
// sibling snapshot.
func (s *Snapshot) ExportBlocks() BlockExport {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := make(map[uint32]*block, len(s.blocks))
	for addr, b := range s.blocks {
		m[addr] = b
	}
	sbs := make(map[uint32]sbRecord, len(s.sbs))
	for addr, r := range s.sbs {
		sbs[addr] = *r
	}
	return BlockExport{blocks: m, sbs: sbs, geom: s.geometry()}
}

// ImportBlocks folds an exported block cache into the snapshot and
// reports how many fragments were taken. Only fragments lying entirely
// inside the read-only region of BOTH snapshots are imported: those
// bytes are fixed by the decoder image, so a fragment translated for one
// snapshot of the image is valid for every other. Callers are
// responsible for only importing across snapshots of the same decoder
// content (the cache keys imports by content hash).
//
// An imported superblock brings its published trace along only when the
// two snapshots have the same sandbox geometry: the trace's bounds
// checks are compiled for the exporter's. Otherwise the superblock
// arrives bare and this snapshot's VMs compile their own.
func (s *Snapshot) ImportBlocks(e BlockExport) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	roLimit := min(s.roLimit, e.geom.ROLimit)
	for addr, b := range e.blocks {
		if _, ok := s.blocks[addr]; ok {
			continue
		}
		if addr >= PageSize && b.end <= roLimit {
			s.blocks[addr] = b
			n++
		}
	}
	for addr, r := range e.sbs {
		if _, ok := s.sbs[addr]; ok {
			continue
		}
		if _, ok := s.blocks[addr]; ok && sbInRO(r.b, roLimit) {
			if e.geom != s.geometry() {
				r.t2 = nil
			}
			s.sbs[addr] = &r
			n++
		}
	}
	return n
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
