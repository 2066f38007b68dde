// Package tier2 is the VM's second execution tier: it compiles an
// already-formed, already-optimized superblock trace (internal/vm's
// superblock.go) into host code that runs directly against the owning
// VM's architectural state, the Machine.
//
// One register file. The Machine is not a view that is synced around
// each run: it IS the VM's architectural state — registers, lazy-flag
// record, heap limit, fuel and poll credit — and the tier-1 interpreter,
// snapshots and traps all read and write those fields. Compiled code
// keeps the eight registers somewhere faster while it runs: the entry
// shim (jitcall) loads Machine.Regs into eight host registers once,
// traces operate on those registers and hand them from trace to trace
// across link slots untouched, and the same shim stores them back when
// compiled code returns — at every return, whichever trace of the chain
// it comes from. So Machine.Regs is current whenever Go code can look at
// it, and stale only while control is inside emitted code, where nothing
// else can. Everything else stays in the Machine and nothing is copied
// in or out.
//
// Accounting is charged by the trace itself, against the Machine. The
// dispatcher hands a run one Budget, the smaller of Fuel and the poll
// Credit, and splits what the run used back into both. A trace entry
// charges the trace's whole Cost to Budget and counts one pass and its
// micro-ops in Acct; every exit that leaves with part of the trace
// unexecuted — a guard, a fault in the middle, a failed check of a group
// of memory operands — carries a static refund (Exit.Refund,
// Exit.RefundUops) that the exit path applies before control goes
// anywhere else. The budget is therefore exact wherever a run stops,
// whichever trace of a chain it stops in, and the VM derives Steps from
// what a run consumed.
//
// Every micro-op is compiled once. Where the emitted code checks a run of
// memory operands with one comparison that may be stricter than the
// operands' own (native_amd64.go), a failure of it is no fault but one
// more static exit, ExitResume: it refunds its micro-op and everything
// after it and names the micro-op, and the VM runs the superblock from
// there on the tier-1 loop — the same micro-op array the trace was
// compiled from, under tier 1's per-access checks — which raises the
// exact fault or finishes the pass. The VM counts these
// (Stats.Tier2Resumes); no decoder this repository ships takes one.
//
// Traces link to traces. Every exit of a trace whose successor can be
// known — a static target (ExitEnd, ExitJccTaken, ExitJccFall,
// ExitGuard) or a dynamic one worth an inline cache (ExitInd,
// ExitRetGuard) — leaves through a numbered Link slot. The slots of all
// the traces a VM holds form one per-VM table (Machine.Links); a trace's
// code addresses its own slots relative to Machine.Cur, which every
// trace entry sets to the offset of the entered trace's first slot. A
// slot starts out holding the address of that exit's own return stub, so
// an unlinked exit returns to the dispatcher with its exit status; once
// the VM has resolved the edge to a superblock that carries a trace it
// stores that trace's entry address and slot offset in the slot
// (Link.Link), and from then on the exit is one indirect jump into the
// next trace. Code is never patched: a Trace is immutable after Compile,
// holds no pointer to any VM and is shared by every VM of the decoder's
// Snapshot, while the links between traces are per-VM data that the VM
// drops with its view of the translation cache. The code itself lives in
// the Arena of the snapshot lineage (execbuf.go): one region mapped
// twice, written through one view and run from the other, to which a
// compile appends without a system call and which is unmapped when the
// last Trace, Snapshot and VM holding it are gone. The trace entry declines
// to start — it returns status 0 with the entry's guest address in
// ExitTarget — when Budget is short of the trace's Cost, so a chain of
// linked traces comes back to the dispatcher at least once per poll
// quantum and the end-of-fuel walk still happens on the reference
// engine. Machine.Cur tells the dispatcher which trace of the chain a
// nonzero status belongs to.
//
// There is one backend, the amd64/linux machine-code emitter
// (native_amd64.go): its code reaches guest state through the *Machine
// it is handed per run (the registers through the shim, as above) and
// bakes in only the sandbox Geometry. On every other host Compile
// returns nil and superblocks stay on the tier-1 dispatch loop
// (native_other.go), which executes the same micro-op array; so it does
// once an arena is full, or on a host that will not map one.
//
// The tier is semantically invisible. The code emitted for a micro-op
// replicates its tier-1 handler in internal/vm's uexec.go exactly:
// lazy-flag records, the guard flag-recording rules (base guards record
// on both paths, NF guards only on exit), spare-field trap EIPs and
// started-instruction counts for fused pairs. Traps, guard exits,
// resumes, serialization and Reset all demote cleanly to the tier-1 uop
// path.
// Compiled code is never serialized; another process recompiles from
// the persisted superblocks.
package tier2

import (
	"fmt"
	"runtime"
	"time"
	"unsafe"

	"vxa/internal/vm/uop"
)

// pageSize mirrors vm.PageSize (the package cannot import vm without a
// cycle).
const pageSize = 0x1000

// Geometry is the sandbox shape a trace's bounds checks are compiled
// for. A trace runs only against a Machine with the same geometry.
type Geometry struct {
	MemLen, ROLimit, StackBase uint32
}

// ReadOK and WriteOK are the sandbox bounds: whether the guest may read,
// or write, size bytes (at most a page) at addr while its heap ends at
// brk. They are the one definition: the tier-1 dispatch loop calls
// them, and the native emitter's rangeCheck is them in machine code,
// compared against them edge by edge by TestGeometryEdges. Readable
// memory is the heap window from the guard page up to brk and the stack
// window from StackBase to MemLen; writes start at ROLimit instead. The
// `addr <= limit-size` form rejects address wraparound for free: every
// limit is at least one page, so limit-size never underflows.
func (g Geometry) ReadOK(addr, size, brk uint32) bool {
	return (addr >= pageSize && addr <= brk-size) ||
		(addr >= g.StackBase && addr <= g.MemLen-size)
}

func (g Geometry) WriteOK(addr, size, brk uint32) bool {
	return (addr >= g.ROLimit && addr <= brk-size) ||
		(addr >= g.StackBase && addr <= g.MemLen-size)
}

// Machine is a VM's architectural state: what the tier-1 interpreter and
// every compiled trace execute against. It lives inside the VM. The
// geometry fields are set once per VM (the guest memory slice never
// reallocates); Brk moves with setperm, which only ever runs in the
// dispatcher.
type Machine struct {
	// Regs is the eight architectural registers plus the always-zero
	// uop.RegZero slot that absent base/index registers index. Native
	// code works on host-register copies; the entry shim keeps this
	// array current whenever Go runs.
	Regs [9]uint32

	// Lazy-flag state: the bools are authoritative only while
	// Fl.Op == uop.FlagNone.
	Fl                 uop.Flags
	CF, ZF, SF, OF, PF bool

	// Brk is the end of the accessible heap, read per access.
	Brk uint32

	// Fuel is the remaining guest-instruction budget and Credit the
	// countdown to the next cancellation/watchdog poll; tier 1 charges
	// both. Budget is what one run of compiled code may spend: the
	// dispatcher sets it to the smaller of the two before the run and
	// charges both with what the run took off it. Trace entries charge
	// Budget and decline to start once it is short of their Cost.
	Fuel   int64
	Credit int64
	Budget int64

	// Per-run counters the traces charge and the dispatcher folds into
	// the VM's statistics after each run: Acct holds the trace passes
	// started and the micro-ops executed (see Passes, Uops), so that a
	// trace entry counts both in one add; FlagsMaterialized the EFLAGS
	// bits computed from lazy records.
	Acct              uint64
	FlagsMaterialized uint64

	// Links is the first slot of the VM's link table and Cur the byte
	// offset, within it, of the first slot of the trace that is running
	// (after a run: the trace the returned status belongs to).
	Links *Link
	Cur   uint64

	// Exit payload: the faulting address / the divide-vs-overflow and
	// hlt-vs-ud2 selector / the dynamic transfer target or the resume
	// address, valid per the returned status.
	TrapAddr   uint32
	TrapAux    uint32
	ExitTarget uint32

	// Sandbox geometry. Compiled code bakes in the Geometry and gets
	// the Mem base from the entry shim, once per run.
	Mem []byte
	Geometry
}

// Acct packs two counters: micro-ops executed in its low acctShift bits,
// trace passes started above them. One run's budget is at most a poll
// quantum of guest instructions plus one trace, and a micro-op stands for
// at least one instruction, so the low field cannot carry into the high.
const (
	acctShift = 24
	acctIter  = 1 << acctShift
)

// Passes and Uops unpack Acct.
func (m *Machine) Passes() uint64 { return m.Acct >> acctShift }
func (m *Machine) Uops() uint64   { return m.Acct & (acctIter - 1) }

// Link is one slot of a VM's link table: where the exit that owns the
// slot transfers control. Entry is a code address — the exit's own
// return stub until the VM links the edge, the target trace's entry
// afterwards — Cur the value Machine.Cur takes on arrival, and Addr the
// guest address an inline-cache slot (ExitInd, ExitRetGuard) was linked
// for. The table holds no Go pointer: a linked trace is kept alive by
// the VM's view of the superblock that carries it.
type Link struct {
	Entry uintptr
	Cur   uint32
	Addr  uint32
}

// LinkSize is the table stride: Machine.Cur and Link.Cur are slot
// indices scaled by it.
const LinkSize = unsafe.Sizeof(Link{})

// ExitKind classifies how a trace run ended.
type ExitKind uint8

// Exit kinds. End/JccTaken/JccFall/Ind are normal control transfers out
// of the trace; Guard/RetGuard leave mid-trace with the tail unexecuted;
// Int hands the syscall gate back to the VM; the *Fault/Divide/Illegal
// kinds are traps; Resume hands the rest of the pass to tier 1.
const (
	ExitEnd ExitKind = iota
	ExitJccTaken
	ExitJccFall
	ExitInd
	ExitGuard
	ExitRetGuard
	ExitInt
	ExitReadFault
	ExitWriteFault
	ExitDivide
	ExitIllegal

	// ExitJccLazy is a plain (unfused) Jcc terminator leaving a trace
	// whose flag state is not statically known: the condition
	// reads lazily-recorded flags, whose run-time materialization lives
	// in the VM, so the trace exits and lets the caller evaluate the
	// condition and pick between the micro-op's Target and Next.
	ExitJccLazy

	// ExitResume is a failed check of a group of memory operands (see
	// native_amd64.go): nothing of micro-op Uop has executed, and the
	// caller runs the superblock from that micro-op on the tier-1 loop,
	// whose per-access checks decide whether there is a fault at all.
	ExitResume
)

// Exit is one static exit descriptor: everything about an exit site
// that is known at compile time. Dynamic values (faulting address,
// indirect target) ride in the Machine.
type Exit struct {
	Kind    ExitKind
	Uop     int    // index of the exiting micro-op in the trace
	EIP     uint32 // trap-report EIP (spare-field metadata for fused pairs)
	Target  uint32 // static transfer target (End/JccTaken/JccFall/Guard)
	Size    uint32 // access size for memory faults
	Started int    // guest instructions begun within the fused op at the fault

	// Refund and RefundUops are what the trace entry charged for the
	// part of the trace this exit leaves unexecuted: fuel units (guest
	// instructions) and micro-ops. The exit's emitted stub gives them
	// back before the dispatcher or the next trace sees the Machine.
	Refund     int64
	RefundUops uint64

	// Slot is the exit's link slot within its trace's slots, -1 for an
	// exit that always returns to the dispatcher (traps, the syscall
	// gate, ExitJccLazy).
	Slot int
	// Eager marks a linkable exit whose stub leaves the flags
	// materialized (Fl.Op == FlagNone), so that it may be linked to a
	// trace that needs them so (Trace.NeedFlags).
	Eager bool
}

// newExit completes x for its micro-op of us: no link slot, and the
// refund for leaving with everything after that micro-op unexecuted —
// and, for an exit that faults inside a fused micro-op, the constituent
// instructions that had not started (Started counts the ones that had);
// for ExitResume, the micro-op itself as well. tail is suffixCosts(us).
func newExit(us []uop.Uop, tail []int64, x Exit) Exit {
	i := x.Uop
	x.Refund = tail[i]
	x.RefundUops = uint64(len(us) - i - 1)
	switch {
	case x.Kind == ExitResume:
		x.Refund += int64(us[i].Cost)
		x.RefundUops++
	case x.Started > 0:
		x.Refund += int64(us[i].Cost) - int64(x.Started)
	}
	x.Slot = -1
	return x
}

// suffixCosts fills tail, which has us's length, with the guest
// instructions the micro-ops after each micro-op of us stand for, and
// returns it.
func suffixCosts(tail []int64, us []uop.Uop) []int64 {
	tail[len(us)-1] = 0
	for i := len(us) - 2; i >= 0; i-- {
		tail[i] = tail[i+1] + int64(us[i+1].Cost)
	}
	return tail
}

// Trace is one compiled superblock: the emitted code plus its static
// exit table and accounting shape. Nothing writes a Trace after Compile
// returns it; any number of VMs may run it at once.
type Trace struct {
	Exits []Exit

	// code is the trace's machine code as the executable view of arena
	// holds it; the pointer to the arena is what keeps that view mapped
	// for the life of the trace. Its first byte is the trace entry.
	// unlinked is what the trace's slots hold before the VM links
	// anything: each link exit's own return stub.
	code     []byte
	arena    *Arena
	unlinked []Link

	// Geom is the geometry the trace was compiled for.
	Geom Geometry

	Entry uint32 // guest address of the trace entry
	Cost  int64  // guest instructions per full pass (fuel units)
	NUops int    // micro-ops per pass (UopsExecuted units)
	Slots int    // link slots

	// Ledger is the host-code accounting of the trace; hotEnd is the code
	// offset where the mainline ends and its out-of-line exit paths start.
	Ledger Ledger
	hotEnd int

	// NeedFlags marks a trace that consumes the flag state it was
	// entered with: whoever enters it must have the flags
	// materialized (Fl.Op == FlagNone) — the dispatcher materializes
	// before a run, and only an Eager exit is ever linked to it. The
	// emitter pins the entry representation statically instead of
	// dispatching on Fl.Op at run time.
	NeedFlags bool
}

// Ledger counts what the native emitter produced, for one trace or summed
// over several, exactly: the guest instructions a pass of the trace
// stands for; the host instructions of the hot body (the trace entry and
// the fall-through path of every micro-op, bounds checks included) and of
// its out-of-line exit paths, which together are all the code there is;
// the guest memory operands and how many bounds checks are emitted for
// them — the difference is the operands that ride on another's check;
// and the resume exits: the micro-ops that open with such a shared check,
// whose failure hands the rest of the pass to tier 1.
type Ledger struct {
	Guest    int64 `json:"guest"`
	Hot      int64 `json:"hot"`
	Stub     int64 `json:"stub"`
	Accesses int64 `json:"accesses"`
	Checks   int64 `json:"checks"`
	Resumes  int64 `json:"resumes"`
}

// Add adds sign times m to l.
func (l *Ledger) Add(m Ledger, sign int64) {
	l.Guest += sign * m.Guest
	l.Hot += sign * m.Hot
	l.Stub += sign * m.Stub
	l.Accesses += sign * m.Accesses
	l.Checks += sign * m.Checks
	l.Resumes += sign * m.Resumes
}

func (l Ledger) String() string {
	if l.Guest == 0 {
		return "no native code"
	}
	return fmt.Sprintf("%d host instructions in the hot body for %d guest (%.2f each), %d in exit paths; %d guest memory operands under %d bounds checks, %d resume exits",
		l.Hot, l.Guest, float64(l.Hot)/float64(l.Guest), l.Stub, l.Accesses, l.Checks, l.Resumes)
}

// HotEnd returns the code offset at which the trace's mainline ends and
// its exit paths start, for the test wall's code scan.
func (t *Trace) HotEnd() int { return t.hotEnd }

// Code returns the trace's emitted machine code. The bytes are mapped
// read+execute: read them, never write.
func (t *Trace) Code() []byte { return t.code }

// MappedBytes is the trace's own share of its arena: the length of its
// code. What the arena as a whole occupies is Arena.Committed.
func (t *Trace) MappedBytes() int64 { return int64(len(t.code)) }

// EntryAddr is the host address of the trace's entry: what a slot linked
// to the trace holds.
func (t *Trace) EntryAddr() uintptr {
	return uintptr(unsafe.Pointer(unsafe.SliceData(t.code)))
}

// Unlinked returns the initial content of the run of link-table slots a
// VM gives the trace: every exit's slot holding that exit's own return
// stub. The run is never empty — a trace with no link exit still takes
// one slot, because a slot offset (Machine.Cur) is also how a run names
// the trace it stopped in. The caller copies it, never writes it.
func (t *Trace) Unlinked() []Link { return t.unlinked }

// Link points slot l at target: the exit that owns l now enters target,
// whose slots start at byte offset cur of the same table. addr is the
// guest address of target's entry, which an inline-cache slot compares
// against.
func (l *Link) Link(target *Trace, cur uint32) {
	*l = Link{Entry: target.EntryAddr(), Cur: cur, Addr: target.Entry}
}

// Run enters the trace and returns the status the run ended with: 0
// when a trace entry declined to start (resume at m.ExitTarget), else
// the 1-based index of an exit of the trace m.Cur names — the run may
// have gone through any number of linked traces. cur is the offset of
// this trace's first slot in m's link table. The caller must hold the
// flags materialized if NeedFlags. Every charge and refund has landed in
// m by the time Run returns.
func (t *Trace) Run(m *Machine, cur uint32) int32 {
	s := jitcall(t.EntryAddr(), m, cur)
	// The arena must not be finalized under the run, nor under any trace
	// of it the run was linked into: the VM holds those, and the arena
	// with them.
	runtime.KeepAlive(t)
	return s
}

// Outcome is what a Compile call reports beside the trace.
type Outcome struct {
	// Seal is the part of the call spent placing the finished code in
	// the arena.
	Seal time.Duration
	// Refused: the trace was emitted and the arena turned it away — it
	// is full, or the host refused it a mapping.
	Refused bool
}

// Compile compiles one optimized superblock trace for geometry g into
// arena a and returns a trace any Machine with that geometry can run,
// every exit site with its static Exit descriptor. It returns nil where
// there is no emitter for the host, when the trace contains a micro-op
// the emitter cannot express (the reference escapes
// KindString/KindGeneric, a consumer of flags it cannot know statically,
// a malformed trace) or when the arena has no room for it; the
// superblock then simply keeps executing on the tier-1 dispatch loop.
func Compile(us []uop.Uop, entry uint32, g Geometry, a *Arena) (*Trace, Outcome) {
	var o Outcome
	if i, _ := Unsupported(us); i >= 0 {
		return nil, o
	}
	t := &Trace{Entry: entry, Cost: uop.Cost(us), NUops: len(us), Geom: g, arena: a}
	if !nativeCompile(us, entry, g, t, &o) {
		return nil, o
	}
	return t, o
}

// Unsupported returns the index and kind of the first micro-op that
// prevents tier-2 compilation, or (-1, 0) when the trace is compilable:
// the reference-interpreter escapes, and any control terminator that is
// not the final micro-op (which a well-formed superblock never
// produces).
func Unsupported(us []uop.Uop) (int, uop.Kind) {
	for i := range us {
		k := us[i].Kind
		switch k {
		case uop.KindString, uop.KindGeneric:
			return i, k
		}
		if terminatorKind(k) && i != len(us)-1 {
			return i, k
		}
	}
	if len(us) == 0 || !terminatorKind(us[len(us)-1].Kind) {
		return len(us) - 1, 0
	}
	return -1, 0
}

// terminatorKind reports the control-transfer kinds that must end a
// trace (guards and return guards are interior and not included).
func terminatorKind(k uop.Kind) bool {
	switch k {
	case uop.KindJmp, uop.KindJcc,
		uop.KindCmpJccRR, uop.KindCmpJccRI, uop.KindTestJccRR, uop.KindTestJccRI,
		uop.KindCall, uop.KindCallR, uop.KindCallM,
		uop.KindRet, uop.KindPopRet, uop.KindPushCall,
		uop.KindJmpR, uop.KindJmpM,
		uop.KindInt, uop.KindHlt, uop.KindUd2:
		return true
	}
	return false
}
