// Package vm implements the VXA virtual machine: the sandboxed execution
// environment in which archived decoders run (the analog of the paper's
// vx32 virtual machine monitor).
//
// The VM executes the x86-32 subset defined by package x86 over a flat
// guest address space that always starts at virtual address 0, exactly as
// the paper specifies (§2.4). The guest has no access to host operating
// system services: its only I/O is the five VXA virtual system calls —
// read, write, exit, setperm and done — invoked through INT 0x80
// (§4.3). Three virtual file handles exist: stdin (0) is the encoded
// input stream, stdout (1) is the decoded output stream, and stderr (2)
// carries diagnostics.
//
// Where vx32 sandboxes by dynamic x86-to-x86 translation plus host
// segmentation, this implementation interprets the guest code in Go. It
// keeps vx32's structure: guest code is scanned and decoded into cached
// basic-block fragments keyed by entry address, direct branches chain
// from fragment to fragment, and indirect branches resolve through the
// fragment-cache lookup — the exact mechanism whose cost the paper's
// vorbis-inlining anecdote (§5.2) measures. Every memory access is
// bounds-checked against the sandbox, so a buggy or malicious decoder can
// at worst garble its own output stream (§2.4).
//
// Determinism: a decoder cannot observe the host system, the time, or
// any source of nondeterminism; identical inputs produce identical
// outputs, which the archive integrity checker relies on.
package vm

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"vxa/internal/vm/tier2"
	"vxa/internal/vm/uop"
	"vxa/internal/x86"
)

// Guest address-space layout constants.
const (
	// PageSize is the allocation granularity; the first page is never
	// mapped so that null-pointer dereferences trap.
	PageSize = 0x1000

	// MaxMemSize caps the guest address space at 1 GiB (§4.1).
	MaxMemSize = 1 << 30

	// DefaultMemSize is the guest address space given to decoders unless
	// the archive requests more.
	DefaultMemSize = 16 << 20

	// DefaultStackSize is the size of the stack region at the top of the
	// guest address space.
	DefaultStackSize = 1 << 20

	// DefaultFuel bounds the number of guest instructions a single Run
	// may execute, so that a looping decoder cannot hang the archiver.
	DefaultFuel = int64(1) << 40
)

// The VXA virtual system call numbers (INT 0x80, number in EAX).
const (
	SysExit    = 1 // exit(status)        — decoder finished, EBX = status
	SysRead    = 3 // read(fd, buf, n)    — fd must be 0 (stdin)
	SysWrite   = 4 // write(fd, buf, n)   — fd must be 1 (stdout) or 2 (stderr)
	SysSetPerm = 5 // setperm(addr, len)  — extend the accessible heap
	SysDone    = 6 // done()              — stream finished; ready for another
)

// Virtual errno values returned (negated) by failed system calls.
const (
	ErrnoBADF  = 9
	ErrnoFAULT = 14
	ErrnoINVAL = 22
	ErrnoIO    = 5
	ErrnoNOMEM = 12
)

// TrapKind classifies why the VM stopped the guest.
type TrapKind int

// Trap kinds.
const (
	TrapMemory  TrapKind = iota // out-of-sandbox or misaligned access
	TrapIllegal                 // instruction outside the VXA subset
	TrapSyscall                 // unknown system call or interrupt vector
	TrapDivide                  // divide by zero or quotient overflow
	TrapFuel                    // instruction budget exhausted
	TrapWrite                   // write to read-only (text/rodata) region
)

var trapNames = map[TrapKind]string{
	TrapMemory: "memory fault", TrapIllegal: "illegal instruction",
	TrapSyscall: "bad system call", TrapDivide: "divide error",
	TrapFuel: "fuel exhausted", TrapWrite: "write to read-only memory",
}

// Trap is the error type for guest faults. Any trap means the decoder is
// buggy or malicious; the archive reader reports the affected file as
// undecodable and the host is unaffected.
type Trap struct {
	Kind TrapKind
	EIP  uint32 // faulting instruction address
	Addr uint32 // faulting memory address, if relevant
	Msg  string
}

// Error implements error.
func (t *Trap) Error() string {
	s := fmt.Sprintf("vm: %s at eip=%#x", trapNames[t.Kind], t.EIP)
	if t.Kind == TrapMemory || t.Kind == TrapWrite {
		s += fmt.Sprintf(" addr=%#x", t.Addr)
	}
	if t.Msg != "" {
		s += ": " + t.Msg
	}
	return s
}

// Status reports how a Run returned.
type Status int

// Run outcomes.
const (
	// StatusExit: the guest invoked exit; the VM cannot be resumed.
	StatusExit Status = iota
	// StatusDone: the guest invoked done, signalling that it finished one
	// stream and can accept another; swap Stdin/Stdout and call Run again.
	StatusDone
)

// Config configures a VM.
type Config struct {
	// MemSize is the total guest address space in bytes.
	// Defaults to DefaultMemSize; capped at MaxMemSize.
	MemSize uint32
	// StackSize is the reserved stack region at the top of the address
	// space. Defaults to DefaultStackSize.
	StackSize uint32
	// Fuel is the guest instruction budget per VM. Defaults to DefaultFuel.
	Fuel int64
	// OptLevel selects how much of the translation engine the VM uses,
	// on one ordered scale (see OptLevel). The zero value takes the
	// process default: everything on, unless VXA_OPT names another level.
	// An explicit level always wins over VXA_OPT. Snapshots and
	// serialized artifacts carry the configured level, never the
	// override, which every process resolves for itself.
	OptLevel OptLevel

	// WallBudget is the wall-clock watchdog: the maximum real time one
	// RunStream may take, enforced at block-chain boundaries on the
	// cancellation-poll cadence. Unlike fuel (a deterministic
	// instruction budget), the watchdog catches guests that are
	// fuel-cheap but wall-expensive — tight syscall loops, pathological
	// I/O patterns. Zero disables it. The budget survives snapshot
	// materialization and Reset, so pooled VMs keep their watchdog.
	WallBudget time.Duration
}

// Stats are execution counters exposed for the evaluation harness and,
// aggregated, on the vxad metrics endpoint (hence the JSON tags).
type Stats struct {
	Steps             uint64 `json:"steps"`              // guest instructions executed
	BlockLookups      uint64 `json:"block_lookups"`      // fragment-cache map lookups (chain misses + indirect control flow)
	BlocksBuilt       uint64 `json:"blocks_built"`       // fragments decoded and lowered ("translated")
	BlocksChained     uint64 `json:"blocks_chained"`     // direct-successor links installed between fragments
	UopsExecuted      uint64 `json:"uops_executed"`      // micro-ops dispatched by the translation engine
	FlagsMaterialized uint64 `json:"flags_materialized"` // individual EFLAGS bits computed from lazy records
	FlagsElided       uint64 `json:"flags_elided"`       // lazy-flag records removed at translate time (dead-flag pass)
	UopsFused         uint64 `json:"uops_fused"`         // fused micro-ops created at translate time (each replaces 2-3)
	SuperblocksFormed uint64 `json:"superblocks_formed"` // hot-path superblocks assembled from edge profiles
	Tier2Compiled     uint64 `json:"tier2_compiled"`     // superblock traces compiled to tier-2 code by this VM
	Tier2Shared       uint64 `json:"tier2_shared"`       // compiled traces installed from the snapshot instead of compiled, at NewVM or at a Reset that rebuilds the view
	Tier2Executed     uint64 `json:"tier2_executed"`     // tier-2 trace iterations run (one full superblock pass each)
	Tier2Steps        uint64 `json:"tier2_steps"`        // guest instructions retired inside tier-2 traces (subset of Steps)
	Tier2Exits        uint64 `json:"tier2_exits"`        // returns from compiled code to the dispatcher (one per run of linked traces)
	Tier2Links        uint64 `json:"tier2_links"`        // trace exits linked straight to another trace's entry
	Tier2Resumes      uint64 `json:"tier2_resumes"`      // trace passes a failed group check handed to tier 1 mid-superblock (subset of Tier2Exits; 0 on every shipped decoder)
	// Tier2Code is the exact host-code ledger of the native traces this
	// VM compiled (installed ones are the snapshot's, not counted).
	Tier2Code tier2.Ledger `json:"tier2_code"`
	// Tier2Refused counts traces that were emitted and then turned away by
	// the code arena: it was full, or the host would not map it. Their
	// superblocks stay on tier 1.
	Tier2Refused uint64 `json:"tier2_refused"`
	TranslateNS  uint64 `json:"translate_ns"` // nanoseconds spent decoding+lowering fragments and compiling traces (0 at OptReference)
	ExecuteNS    uint64 `json:"execute_ns"`   // nanoseconds spent running translated code (Run wall time minus TranslateNS)
	// The translation ledger. Tier2EmitNS and Tier2SealNS split the part
	// of TranslateNS spent in the trace compiler into emission and the
	// copy into the code arena; what is left of TranslateNS is block
	// decode+lower+optimize. SuperblockNS is superblock formation, which
	// TranslateNS has never covered and ExecuteNS therefore does.
	SuperblockNS uint64 `json:"superblock_ns"`
	Tier2EmitNS  uint64 `json:"tier2_emit_ns"`
	Tier2SealNS  uint64 `json:"tier2_seal_ns"`
	// What those stages worked through: GuestTranslated counts the guest
	// instructions decoded into fragments (block build), UopsCompiled the
	// micro-ops handed to the trace compiler, whether it compiled them or
	// not (emit and seal).
	GuestTranslated uint64 `json:"guest_translated"`
	UopsCompiled    uint64 `json:"uops_compiled"`
	Syscalls        uint64 `json:"syscalls"`
}

// VM is one sandboxed guest. It is not safe for concurrent use.
type VM struct {
	mem []byte
	// memOwner keeps the guest address space's mapping alive: on Linux
	// mem is anonymous-mmap memory outside the Go heap (see mem_linux.go)
	// and is returned to the kernel when the owner is collected, so the
	// VM must reference the owner for as long as mem is in use.
	memOwner *guestMem
	// m is the guest's architectural state — the register file (eight
	// registers plus the always-zero uop.RegZero slot that lowered memory
	// operands index for absent base/index registers), the lazy EFLAGS
	// record and its eager bools (authoritative only while
	// m.Fl.Op == uop.FlagNone, see uexec.go), the heap limit, the fuel
	// budget and the poll credit — together with the counters and the
	// link table compiled traces run against. It is the tier2.Machine
	// itself, not a copy kept in sync: the interpreter and every trace
	// this VM runs execute against these fields. Its memory and geometry
	// fields follow the VM's (bindTier2).
	m   tier2.Machine
	eip uint32

	// Sandbox bounds. The accessible regions are [PageSize, m.Brk) for
	// code/data/heap and [stackBase, memSize) for the stack; everything
	// else (including page 0 and the guard gap between heap and stack)
	// faults. Writes below roLimit fault (text and rodata are read-only).
	roLimit   uint32
	stackBase uint32
	// dirtyBrk and stackLow are the two watermarks of what may have been
	// written on this address space since allocGuestMem returned it
	// zeroed or a restore last zeroed it: below the stack, nothing at or
	// above dirtyBrk; in the stack window, nothing below stackLow
	// (page-aligned; memSize when the stack is untouched). Host writes
	// move them exactly (MapSegment, WriteMem, the image a restore lays
	// down); guest code may write anywhere the sandbox allows, so a run
	// widens them to the whole heap and the whole stack before it starts,
	// and setperm takes dirtyBrk along with brk. They are what lets
	// Snapshot scan, and Reset re-zero, only memory that can hold
	// something. dirtyBrk ≤ brk holds after New, MapSegment, WriteMem,
	// setperm and every restore, which zeroes the heap a larger brk left
	// behind and returns the stack to untouched: memory above brk is
	// zero, so setperm exposes it as it is.
	dirtyBrk uint32
	stackLow uint32

	// opt is the configured optimization level (Config.OptLevel, which
	// snapshots carry) and level the one the VM runs at: opt itself, or
	// the process default where opt is OptDefault.
	opt, level OptLevel
	// links is the link table compiled traces leave through (m.Links
	// points at its first slot): each native trace this VM holds owns a
	// run of slots, starting at its superblock bref's linkBase, and
	// linkOwner names that bref for every slot. Per-VM like the chain
	// slots in the brefs, and kept or dropped with them on Reset.
	links     []tier2.Link
	linkOwner []*bref
	// passes, once CountTracePasses has made it, counts each trace's
	// passes by its entry address.
	passes map[uint32]uint64
	blocks map[uint32]*bref
	// view says what the translation view — blocks, the superblocks and
	// traces hanging off it, links — was built from, and so whether a
	// restore may keep it (Snapshot.blockMap).
	view viewStamp
	// arena is where this VM's compiles put their code: the snapshot's,
	// for a VM that has one on either side of it (Snapshot, restore), its
	// own otherwise, made by the first compile.
	arena *tier2.Arena
	// xl is the translator's scratch (see xlate).
	xl xlate

	// Cooperative cancellation (RunContext). cancel is the context's
	// done channel, nil when the run is uncancellable. The channel is
	// polled only every cancelQuantum guest instructions (m.Credit counts
	// down by block and trace cost, armed or not, so compiled code comes
	// back to the dispatcher on the same cadence), and the select never
	// appears on the per-uop path.
	cancel      <-chan struct{}
	cancelCause func() error

	// Wall-clock watchdog (Config.WallBudget). wallDeadline is the
	// absolute deadline (unix nanos) of the in-flight stream, armed by
	// RunStream and zero otherwise; it shares the m.Credit
	// countdown with cancellation so the clock is read at most once per
	// cancelQuantum guest instructions.
	wallBudget   time.Duration
	wallDeadline int64

	// Stdin is the encoded input stream (virtual fd 0).
	Stdin io.Reader
	// Stdout receives the decoded output stream (virtual fd 1).
	Stdout io.Writer
	// Stderr receives decoder diagnostics (virtual fd 2). May be nil,
	// in which case diagnostics are discarded (vxUnZIP shows them only
	// in verbose mode).
	Stderr io.Writer

	exitCode int32
	stats    Stats
}

// block is one translated fragment. raw is what uop.Lower made of its
// instructions, one micro-op each at Cost 1, and the one record of them
// the engine keeps: it is what the fragment persists as, what superblock
// formation assembles traces from and what the end-of-budget path runs.
// uops is the form the fragment runs in, raw through the optimizer (raw
// itself at OptReference and where the optimizer changes nothing); the
// two are carved from one buffer (xlate.fragment). Blocks are immutable
// after construction and may be shared by many VMs through a Snapshot.
// Superblocks (superblock.go) reuse the type with raw nil: they are
// per-VM and never enter the snapshot-shared cache.
type block struct {
	raw  []uop.Uop
	uops []uop.Uop
	end  uint32 // address just past the last instruction
	cost int64  // guest instructions per straight-line execution (fuel units)
}

// bref is the per-VM view of a block: the shared immutable fragment plus
// this VM's chain links to its direct successors and a monomorphic
// inline cache for its indirect successor (the last RET / indirect
// jump/call target seen). Keeping the links out of the shared block lets
// VMs materialized from one snapshot chain independently (and
// race-free). A Reset either keeps every wrapper, links and superblocks
// included, or swaps in fresh ones, which drops every link at once
// (Snapshot.blockMap).
type bref struct {
	b           *block
	taken, fall *bref
	ind         *bref

	// Hot-path profile and superblock state (per-VM; a Reset that keeps
	// the bref keeps the counters too). On a base bref, heat counts block
	// entries and takenCnt/fallCnt profile the terminating Jcc's edges
	// until a superblock is installed in sb. A superblock's own bref
	// carries the per-guard exit chain slots in sbChains and the return
	// guards' inline caches in sbInd.
	sb       *bref
	sbChains []*bref
	sbInd    []sbIndEntry

	// Tier-2 dispatch slot (superblock brefs only): the compiled trace
	// for this superblock. It is either installed with the bref, from
	// the snapshot record the superblock came from (t2Shared), or
	// compiled by this VM on the superblock's first entry; a superblock
	// bref counts no heat. The slot is this VM's view only, while a
	// native trace published on the snapshot (AbsorbBlocks) outlives the
	// bref and comes back with the next Reset that rebuilds a view.
	// linkBase is the index in the VM's link table of a native trace's
	// first slot. Traces are never serialized; another process
	// recompiles from the persisted superblock on its first entry there.
	t2       *tier2.Trace
	linkBase int

	// The scalars of the three groups above, packed together so that a
	// bref is 128 bytes: ind's target address, the profile counters and
	// the attempt flags.
	indAddr  uint32
	heat     uint32
	takenCnt uint32
	fallCnt  uint32
	sbGen    uint32 // the formSuperblock call (xlate.gen) that last grew a trace through this block
	sbTried  bool
	t2Tried  bool
	t2Shared bool
}

// sbIndEntry is one return guard's monomorphic inline cache: the last
// off-trace return target it resolved.
type sbIndEntry struct {
	br   *bref
	addr uint32
}

// New creates a VM with an empty address space.
func New(cfg Config) (*VM, error) {
	if cfg.MemSize == 0 {
		cfg.MemSize = DefaultMemSize
	}
	if cfg.MemSize > MaxMemSize {
		return nil, fmt.Errorf("vm: MemSize %d exceeds the 1 GiB sandbox limit", cfg.MemSize)
	}
	if cfg.MemSize%PageSize != 0 {
		return nil, fmt.Errorf("vm: MemSize %d not page-aligned", cfg.MemSize)
	}
	if cfg.StackSize == 0 {
		cfg.StackSize = DefaultStackSize
	}
	if cfg.Fuel == 0 {
		cfg.Fuel = DefaultFuel
	}
	if cfg.StackSize%PageSize != 0 || cfg.StackSize >= cfg.MemSize/2 {
		return nil, fmt.Errorf("vm: bad StackSize %d", cfg.StackSize)
	}
	v := &VM{
		dirtyBrk:   PageSize,
		stackLow:   cfg.MemSize,
		roLimit:    PageSize,
		stackBase:  cfg.MemSize - cfg.StackSize,
		wallBudget: cfg.WallBudget,
		blocks:     make(map[uint32]*bref),
	}
	if err := v.setLevel(cfg.OptLevel); err != nil {
		return nil, err
	}
	v.memOwner, v.mem = allocGuestMem(cfg.MemSize)
	v.m.Brk, v.m.Fuel = PageSize, cfg.Fuel
	v.m.Regs[x86.ESP] = cfg.MemSize - 16 // a little headroom at the very top
	v.bindTier2()
	return v, nil
}

// MapSegment copies data into the guest address space at addr and extends
// the accessible region to cover [addr, addr+memSize) (memSize >= len(data);
// the tail is the zero-initialized BSS). If readOnly is set, the segment
// is protected against guest writes.
func (v *VM) MapSegment(addr uint32, data []byte, memSize uint32, readOnly bool) error {
	if memSize < uint32(len(data)) {
		return fmt.Errorf("vm: segment memSize %d < filesz %d", memSize, len(data))
	}
	end := addr + memSize
	if end < addr || end > v.stackBase || addr < PageSize {
		return fmt.Errorf("vm: segment [%#x,%#x) outside loadable region", addr, end)
	}
	copy(v.mem[addr:], data)
	v.dirtyBrk = max(v.dirtyBrk, addr+uint32(len(data))) // the BSS above it is untouched
	if end > v.m.Brk {
		v.m.Brk = end
	}
	if readOnly && end > v.roLimit {
		v.roLimit = end
		v.bindTier2()
	}
	return nil
}

// SetEntry sets the guest program counter.
func (v *VM) SetEntry(entry uint32) { v.eip = entry }

// EIP returns the current guest program counter.
func (v *VM) EIP() uint32 { return v.eip }

// Reg returns a guest register.
func (v *VM) Reg(r x86.Reg) uint32 { return v.m.Regs[r] }

// ExitCode returns the status passed to the exit system call.
func (v *VM) ExitCode() int32 { return v.exitCode }

// Stats returns execution counters.
func (v *VM) Stats() Stats { return v.stats }

// Brk returns the current end of the accessible heap region.
func (v *VM) Brk() uint32 { return v.m.Brk }

// FuelRemaining returns the remaining instruction budget.
func (v *VM) FuelRemaining() int64 { return v.m.Fuel }

// MemSize returns the size of the guest address space.
func (v *VM) MemSize() uint32 { return uint32(len(v.mem)) }

// readable reports whether [addr, addr+size) lies inside the sandbox.
func (v *VM) readable(addr, size uint32) bool {
	end := addr + size
	if end < addr {
		return false
	}
	if addr >= PageSize && end <= v.m.Brk {
		return true
	}
	return addr >= v.stackBase && end <= uint32(len(v.mem))
}

// writable reports whether the guest may write [addr, addr+size).
func (v *VM) writable(addr, size uint32) bool {
	return v.readable(addr, size) && (addr >= v.roLimit || addr >= v.stackBase)
}

// inText reports whether [addr, end) lies inside the read-only text
// [PageSize, roLimit), the only bytes instructions are fetched from.
// Once loaded, neither the guest nor the host can change them, so a translation of
// them holds for as long as the address space does, and for every
// address space restored from the same image.
func inText(addr, end, roLimit uint32) bool {
	return addr >= PageSize && addr <= end && end <= roLimit
}

var errExit = errors.New("vm: guest exited")
var errDone = errors.New("vm: guest stream done")

// CanceledError reports that a guest run was stopped by its context:
// the VM observed cancellation at a block boundary and returned without
// completing the stream. The VM's guest state is mid-stream garbage;
// pool it back only through a pristine reset. Unwrap exposes the
// context's error, so errors.Is(err, context.Canceled) (or
// DeadlineExceeded) holds.
type CanceledError struct {
	Cause error
}

// Error implements error.
func (e *CanceledError) Error() string {
	if e.Cause != nil {
		return "vm: run canceled: " + e.Cause.Error()
	}
	return "vm: run canceled"
}

// Unwrap exposes the context error.
func (e *CanceledError) Unwrap() error { return e.Cause }

// IsCanceled reports whether err (anywhere in its chain) is a
// *CanceledError — a run stopped by its context rather than by the
// guest.
func IsCanceled(err error) bool {
	var ce *CanceledError
	return errors.As(err, &ce)
}

// WatchdogError reports that the wall-clock watchdog killed a stream:
// the guest exceeded Config.WallBudget of real time regardless of how
// little fuel it burned. Like cancellation, the kill lands at a block
// boundary and leaves mid-stream garbage in the VM — pool it back only
// through a pristine reset.
type WatchdogError struct {
	Budget time.Duration
}

// Error implements error.
func (e *WatchdogError) Error() string {
	return fmt.Sprintf("vm: wall-clock watchdog: stream exceeded %v", e.Budget)
}

// IsWatchdog reports whether err (anywhere in its chain) is a
// *WatchdogError.
func IsWatchdog(err error) bool {
	var we *WatchdogError
	return errors.As(err, &we)
}

// cancelQuantum is how many guest instructions may execute between
// cancellation polls: small enough that a canceled stream releases its
// VM within a fraction of a millisecond, large enough that the poll
// (one channel select) is amortized to nothing.
const cancelQuantum = 1 << 16

// Run executes the guest until it invokes exit or done, or faults.
// After StatusDone the VM may be resumed by calling Run again, optionally
// with new Stdin/Stdout, implementing the multi-stream decoder protocol.
//
// Execution is block-at-a-time over translated micro-op fragments:
// direct control transfers follow per-VM chain links from fragment to
// fragment, and only indirect branches (and chain misses) resolve
// through the fragment-cache map.
func (v *VM) Run() (Status, error) {
	return v.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation: when ctx is
// cancelable, the executor polls it at block-chain boundaries on a
// fuel-quantum cadence (never on the per-uop hot path) and returns a
// *CanceledError mid-stream. A context that cannot be canceled
// (context.Background()) costs one nil check per block.
func (v *VM) RunContext(ctx context.Context) (Status, error) {
	if done := ctx.Done(); done != nil {
		if err := ctx.Err(); err != nil {
			return StatusExit, &CanceledError{Cause: err}
		}
		v.cancel, v.cancelCause, v.m.Credit = done, ctx.Err, cancelQuantum
		defer func() { v.cancel, v.cancelCause = nil, nil }()
	}
	// Guest code may write wherever the sandbox lets it.
	v.dirtyBrk, v.stackLow = max(v.dirtyBrk, v.m.Brk), min(v.stackLow, v.stackBase)
	// Execute accounting: the run's wall time minus whatever translation
	// it triggered is time spent executing translated code. Two clock
	// reads per Run (a whole stream) — far below the fig7 noise floor.
	start := time.Now()
	translate0 := v.stats.TranslateNS
	defer func() {
		total := uint64(time.Since(start))
		if dt := v.stats.TranslateNS - translate0; total > dt {
			v.stats.ExecuteNS += total - dt
		}
	}()
	br, err := v.lookupBlock(v.eip)
	if err != nil {
		return StatusExit, err
	}
	switch err := v.execUops(br); err {
	case errExit:
		return StatusExit, nil
	case errDone:
		return StatusDone, nil
	default:
		return StatusExit, err
	}
}

// maxBlockLen bounds fragment size, mirroring vx32's fragment granularity.
const maxBlockLen = 64

// lookupBlock returns the translated fragment starting at addr, building
// and caching it on a miss. At OptReference every call re-decodes and
// re-lowers a single instruction (the translate-per-step ablation).
func (v *VM) lookupBlock(addr uint32) (*bref, error) {
	v.stats.BlockLookups++
	if v.level > OptReference {
		if br, ok := v.blocks[addr]; ok {
			return br, nil
		}
	}
	b, err := v.buildBlock(addr)
	if err != nil {
		return nil, err
	}
	br := &carve(&v.xl.brefs, 1, brefChunk)[0]
	br.b = b
	if v.level > OptReference {
		v.blocks[addr] = br
	}
	return br, nil
}

// xlate is the translator's scratch, which the VM keeps so that a
// fragment is allocated once, at its final size, instead of grown an
// append at a time: buildBlock lowers into uops and optimizes behind it
// (fragment); formSuperblock assembles its constituents in sb (it builds
// blocks while it grows a trace, so the two cannot share) and stacks the
// calls it inlines in callRets. gen numbers formSuperblock calls, to
// stamp the blocks each has been through.
//
// frags, blocks and brefs are what is left of the chunks fragments and
// their wrappers are carved from (carve): a fragment costs no allocation
// of its own, only its share of a chunk. The blocks and their micro-ops
// are immutable once carved and may outlive the VM in a snapshot; the
// brefs are this VM's view, so a rebuilt view (Snapshot.blockMap) drops
// what is left of their chunk with the old wrappers.
type xlate struct {
	uops     []uop.Uop
	sb       []uop.Uop
	callRets []uint32
	gen      uint32

	frags  []uop.Uop
	blocks []block
	brefs  []bref
}

// The chunk sizes, in elements, of what fragments are carved from. A
// first stream translates a few hundred fragments of a handful of
// micro-ops each, so a chunk serves a dozen or more. Larger chunks save
// no time that shows and leave more unused at a first stream's end,
// which TestFirstStreamAllocBudget's byte ceilings count.
const (
	uopChunk   = 128
	blockChunk = 16
	brefChunk  = 16
)

// carve returns n zeroed elements from the front of *free, which it
// refills with a chunk of its own when it holds fewer.
func carve[T any](free *[]T, n, chunk int) []T {
	if len(*free) < n {
		*free = make([]T, max(n, chunk))
	}
	s := (*free)[:n:n]
	*free = (*free)[n:]
	return s
}

// epoch is what the translator's clock reads are taken against: a
// duration since a fixed time.Time with a monotonic reading is one read
// of the monotonic clock, where time.Now reads the wall clock too.
var epoch = time.Now()

// buildBlock decodes the fragment starting at addr and lowers it to
// micro-ops. A fragment ends after a control transfer, at maxBlockLen
// instructions, or before an instruction it cannot fetch or decode: that
// trap is raised when control reaches it, so every level has run the
// same instructions when it does. Above OptReference the optimizer runs
// over every fragment and translation time is accumulated in
// Stats.TranslateNS; at OptReference a fragment runs as lowered, and the
// per-step clock reads would distort the very overhead that level
// measures.
func (v *VM) buildBlock(addr uint32) (*block, error) {
	v.stats.BlocksBuilt++
	cached := v.level > OptReference
	var t0 time.Duration
	limit := 1
	if cached {
		t0 = time.Since(epoch)
		limit = maxBlockLen
	}
	xl := &v.xl
	raw := xl.scratch()
	var inst x86.Inst
	cur := addr
	for len(raw) < limit {
		// Up to the 15 bytes of the longest instruction, from the text
		// alone: one that runs out of them short of 15 is not wholly
		// inside it.
		var code []byte
		if inText(cur, cur+1, v.roLimit) {
			code = v.mem[cur:min(cur+15, v.roLimit)]
		}
		if err := x86.Decode(code, &inst); err != nil {
			switch {
			case len(raw) > 0: // the trap comes when control reaches cur
			case len(code) < 15 && errors.Is(err, x86.ErrTruncated):
				return nil, &Trap{Kind: TrapMemory, EIP: cur, Addr: cur, Msg: "fetch outside text"}
			default:
				return nil, &Trap{Kind: TrapIllegal, EIP: cur, Msg: err.Error()}
			}
			break
		}
		raw = uop.Lower(raw, &inst, cur)
		v.stats.GuestTranslated++
		cur += uint32(inst.Len)
		if endsBlock(inst.Op) {
			break
		}
	}
	b, ost := xl.fragment(raw, cur, cached)
	if cached {
		v.stats.UopsFused += ost.UopsFused
		v.stats.FlagsElided += ost.FlagsElided
		v.stats.TranslateNS += uint64(time.Since(epoch) - t0)
	}
	return b, nil
}

// scratch returns xl's fragment scratch, empty, with room for a
// fragment's raw micro-ops.
func (xl *xlate) scratch() []uop.Uop {
	if xl.uops == nil {
		xl.uops = make([]uop.Uop, 0, maxBlockLen)
	}
	return xl.uops[:0]
}

// fragment makes the block of raw, the micro-ops Lower made of a run of
// instructions ending at end: raw and, when optimized, raw through the
// optimizer, side by side in one buffer carved from xl's chunk. Where
// the optimizer changes nothing, the fragment runs raw itself. buildBlock
// and the artifact loader both make their fragments here, which is what
// makes a loaded fragment the one a fresh translation would give.
func (xl *xlate) fragment(raw []uop.Uop, end uint32, optimized bool) (*block, uop.OptStats) {
	n := len(raw)
	b := &carve(&xl.blocks, 1, blockChunk)[0]
	b.end, b.cost = end, int64(n)
	if !optimized {
		b.raw = carve(&xl.frags, n, uopChunk)
		copy(b.raw, raw)
		b.uops = b.raw
		return b, uop.OptStats{}
	}
	// The optimizer works on a copy of raw behind it in the chunk and
	// only ever shortens it; the chunk takes back what it leaves over,
	// zeroed, as carve hands it out.
	if len(xl.frags) < 2*n {
		xl.frags = make([]uop.Uop, max(2*n, uopChunk))
	}
	buf := xl.frags[: 2*n : 2*n]
	copy(buf, raw)
	opt, st := uop.Optimize(append(buf[n:n], raw...))
	k := len(opt)
	if st == (uop.OptStats{}) {
		k = 0
	}
	clear(buf[n+k:])
	xl.frags = xl.frags[n+k:]
	b.raw, b.uops = buf[:n:n], buf[n:n+k:n+k]
	if k == 0 {
		b.uops = b.raw
	}
	return b, st
}

// endsBlock reports whether op terminates a fragment (control transfer or
// a system-call gate, after which the host may need control).
func endsBlock(op x86.Op) bool {
	switch op {
	case x86.CALL, x86.CALLM, x86.RET, x86.JMP, x86.JMPM, x86.JCC,
		x86.INT, x86.HLT, x86.UD2:
		return true
	}
	return false
}
