// Package tier2 is the VM's second execution tier: it compiles an
// already-formed, already-optimized superblock trace (internal/vm's
// superblock.go) into host code that runs against a Machine, the
// guest-state view the owning VM syncs in and out around each run.
//
// There are two backends. The native backend (amd64/linux) emits
// machine code that reaches every piece of guest state through the
// *Machine it is handed per run and bakes in only the sandbox Geometry,
// so a native Trace is immutable after Compile and valid for every VM
// with that geometry: the VM publishes it on the decoder's Snapshot and
// every sibling, and every later Reset, runs the same code. The closure
// backend is the portable semantic reference: a flat sequence of Go
// closures that capture pointers into one Machine, so its traces belong
// to the VM they were compiled for and are never shared.
//
// The rest of this comment describes the closure backend, whose bodies
// the native emitter mirrors. Where the tier-1 engine re-dispatches a
// giant switch per micro-op — re-loading operand fields and
// bounds-checking register indices every step — a tier-2 trace bakes
// every operand into closure captures at
// compile time: register operands become direct pointers into the
// machine's register file, immediates and effective-address shapes
// become Go constants, and each closure body is small enough for the
// compiler to register-allocate well (the tier-1 dispatch loop is far
// past the inlining/regalloc thresholds). Control flow inside a trace
// is straight-line by construction, so execution is a single pass over
// the closure array; guards either fall through (the profiled hot path)
// or return a nonzero exit status indexing a static Exit descriptor.
//
// The tier is semantically invisible. Every closure replicates its
// tier-1 handler exactly: lazy-flag records, the guard flag-recording
// rules (base guards record on both paths, NF guards only on exit),
// spare-field trap EIPs and started-instruction counts for fused pairs,
// and the per-trace fuel charge with tail refunds applied by the caller
// on early exits. Traps, guard exits, serialization and Reset all
// demote cleanly to the tier-1 uop path. Compiled code is never
// serialized; another process recompiles from the persisted superblocks.
package tier2

import (
	"math/bits"

	"vxa/internal/vm/uop"
	"vxa/internal/x86"
)

// pageSize mirrors vm.PageSize (the package cannot import vm without a
// cycle); the sandbox bounds checks below must stay in lockstep with
// vm's rdOK/wrOK.
const pageSize = 0x1000

// Geometry is the sandbox shape a trace's bounds checks are compiled
// for. A trace runs only against a Machine with the same geometry.
type Geometry struct {
	MemLen, ROLimit, StackBase uint32
}

// Machine is the guest-state view a compiled trace executes against.
// The owning VM copies its architectural state in before Run and back
// out after; the sandbox geometry fields are set once per VM (the guest
// memory slice never reallocates) except Brk, which moves with setperm
// and is re-synced per entry.
type Machine struct {
	// Regs mirrors vm.VM.regs: eight architectural registers plus the
	// always-zero uop.RegZero slot that absent base/index registers
	// index. Closure-backend traces capture pointers into this array,
	// so a Machine must not be copied once one has been compiled for it.
	Regs [9]uint32

	// Lazy-flag state, synced with the VM's representation: the bools
	// are authoritative only while Fl.Op == uop.FlagNone.
	Fl                 uop.Flags
	CF, ZF, SF, OF, PF bool

	// Sandbox geometry. The closure backend captures Mem and the
	// Geometry at compile time; native code bakes in the Geometry and
	// loads the Mem base per run. Brk is read per access (setperm can
	// grow it between trace executions).
	Mem []byte
	Geometry
	Brk uint32

	// Fuel is charged Trace.Cost per iteration by Run; the caller
	// refunds unexecuted tails on guard/trap exits exactly as tier-1.
	Fuel int64

	// Cancellation/watchdog countdown, shared with the VM's
	// cancelQuantum credit: Run decrements it per iteration when
	// PollArmed and stops looping internally once it expires, so the
	// owning VM polls on the same cadence as the interpreter.
	Credit    int64
	PollArmed bool

	// Iters counts trace iterations started during the current Run
	// (loop-back traces iterate internally); the caller converts it to
	// Steps/UopsExecuted/fuel accounting.
	Iters uint64

	// FlagsMaterialized accumulates lazily-computed EFLAGS bits during
	// the current Run, mirroring the tier-1 stat.
	FlagsMaterialized uint64

	// Exit payload: the faulting address / the divide-vs-overflow and
	// hlt-vs-ud2 selector / the dynamic transfer target, valid per the
	// returned Exit's Kind.
	TrapAddr   uint32
	TrapAux    uint32
	ExitTarget uint32
}

// ExitKind classifies how a trace run ended.
type ExitKind uint8

// Exit kinds. End/JccTaken/JccFall/Ind are normal control transfers out
// of the trace; Guard/RetGuard leave mid-trace with the tail unexecuted
// (the caller refunds it); Int hands the syscall gate back to the VM;
// the *Fault/Divide/Illegal kinds are traps.
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

	// ExitJccLazy is a plain (unfused) Jcc terminator leaving a native
	// trace: the condition reads lazily-recorded flags, whose
	// materialization lives in the VM, so the trace exits with the flag
	// record synced and lets the caller evaluate the condition and pick
	// between the micro-op's Target and Next.
	ExitJccLazy
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
	Loop    bool   // End exit whose target is the trace entry (loop back edge)
}

// Trace is one compiled superblock: the compiled body plus its static
// exit table and accounting shape. Nothing writes a Trace after Compile
// returns it; a native one may be run by any number of VMs at once.
type Trace struct {
	// head is the closure backend's trace body: the first micro-op's
	// closure with every subsequent micro-op threaded as a captured
	// continuation. Calling it runs one iteration against the Machine
	// the trace was compiled for and returns the 1-based exit index.
	// Nil for native traces.
	head  func() int32
	Exits []Exit

	// code is a native trace's executable mapping, pinned for the life
	// of the trace. The emitted code runs the whole
	// iterate-while-fuel-lasts loop itself, so Run does not wrap it in
	// the closure backend's accounting loop.
	code *execBuf

	// Geom is the geometry the trace was compiled for.
	Geom Geometry

	Entry  uint32 // guest address of the trace entry
	Cost   int64  // guest instructions per full iteration (fuel units)
	NUops  int    // micro-ops per iteration (UopsExecuted units)
	Guards int    // conditional guard exits
	Rets   int    // return-guard exits
	Loop   bool   // the trace's end transfer re-enters the trace

	// NeedFlags marks a native trace that consumes the flag state it
	// was entered with: the caller must materialize the VM's lazy
	// flags (Fl.Op == FlagNone) before every entry. The native
	// compiler pins the entry representation statically instead of
	// dispatching on Fl.Op at run time; its loop back edge preserves
	// the invariant itself.
	NeedFlags bool
}

// Native reports whether the trace compiled to machine code (versus
// the closure reference backend). Only native traces hold no pointer
// into a Machine, so only they may be shared between VMs.
func (t *Trace) Native() bool { return t.code != nil }

// Code returns a native trace's emitted machine code (nil for a closure
// trace). The bytes are mapped read+execute: read them, never write.
func (t *Trace) Code() []byte {
	if t.code == nil {
		return nil
	}
	return t.code.buf
}

// MappedBytes is the memory a native trace's code pins: its own
// mapping, so whole pages.
func (t *Trace) MappedBytes() int64 {
	return (int64(len(t.Code())) + pageSize - 1) &^ (pageSize - 1)
}

// Run executes the trace until it exits. The caller must have checked
// Fuel >= Cost for the first iteration; Run charges Cost per iteration
// (and Credit, when armed) and keeps iterating internally only on the
// loop back edge while fuel and the poll credit allow — so a hot loop
// spins inside one Run call, and cancellation still lands on the
// interpreter's quantum.
func (t *Trace) Run(m *Machine) *Exit {
	if t.code != nil {
		// Native traces charge fuel/credit and iterate internally with
		// exactly this loop's discipline, emitted into the code.
		return &t.Exits[t.code.call(m)-1]
	}
	head := t.head
	for {
		m.Iters++
		m.Fuel -= t.Cost
		if m.PollArmed {
			m.Credit -= t.Cost
		}
		e := &t.Exits[head()-1]
		if e.Loop && m.Fuel >= t.Cost && (!m.PollArmed || m.Credit > 0) {
			continue
		}
		return e
	}
}

// ---- sandbox access (kept in lockstep with vm's rdOK/wrOK/le32/st32) ----

func (m *Machine) rdOK(addr, size, stackBase, memLen uint32) bool {
	return (addr >= pageSize && addr <= m.Brk-size) ||
		(addr >= stackBase && addr <= memLen-size)
}

func (m *Machine) wrOK(addr, size, roLimit, stackBase, memLen uint32) bool {
	return (addr >= roLimit && addr <= m.Brk-size) ||
		(addr >= stackBase && addr <= memLen-size)
}

// ---- lazy flag access (mirrors vm's f* accessors and ucond) ------------

func (m *Machine) fCF() bool {
	switch m.Fl.Op {
	case uop.FlagNone, uop.FlagSZP:
		return m.CF
	}
	m.FlagsMaterialized++
	return m.Fl.CF()
}

func (m *Machine) fOF() bool {
	switch m.Fl.Op {
	case uop.FlagNone, uop.FlagSZP:
		return m.OF
	}
	m.FlagsMaterialized++
	return m.Fl.OF()
}

func (m *Machine) fZF() bool {
	if m.Fl.Op == uop.FlagNone {
		return m.ZF
	}
	m.FlagsMaterialized++
	return m.Fl.ZF()
}

func (m *Machine) fSF() bool {
	if m.Fl.Op == uop.FlagNone {
		return m.SF
	}
	m.FlagsMaterialized++
	return m.Fl.SF()
}

func (m *Machine) fPF() bool {
	if m.Fl.Op == uop.FlagNone {
		return m.PF
	}
	m.FlagsMaterialized++
	return m.Fl.PF()
}

// cond evaluates a condition from the eager bools (Fl.Op == FlagNone).
func (m *Machine) cond(cc x86.CC) bool {
	switch cc {
	case x86.CCO:
		return m.OF
	case x86.CCNO:
		return !m.OF
	case x86.CCB:
		return m.CF
	case x86.CCAE:
		return !m.CF
	case x86.CCE:
		return m.ZF
	case x86.CCNE:
		return !m.ZF
	case x86.CCBE:
		return m.CF || m.ZF
	case x86.CCA:
		return !m.CF && !m.ZF
	case x86.CCS:
		return m.SF
	case x86.CCNS:
		return !m.SF
	case x86.CCP:
		return m.PF
	case x86.CCNP:
		return !m.PF
	case x86.CCL:
		return m.SF != m.OF
	case x86.CCGE:
		return m.SF == m.OF
	case x86.CCLE:
		return m.ZF || m.SF != m.OF
	default: // CCG
		return !m.ZF && m.SF == m.OF
	}
}

// ucond evaluates a condition code against the current flags, lazily
// materializing only the flags the condition reads.
func (m *Machine) ucond(cc x86.CC) bool {
	if m.Fl.Op == uop.FlagNone {
		return m.cond(cc)
	}
	switch cc {
	case x86.CCO:
		return m.fOF()
	case x86.CCNO:
		return !m.fOF()
	case x86.CCB:
		return m.fCF()
	case x86.CCAE:
		return !m.fCF()
	case x86.CCE:
		return m.fZF()
	case x86.CCNE:
		return !m.fZF()
	case x86.CCBE:
		return m.fCF() || m.fZF()
	case x86.CCA:
		return !m.fCF() && !m.fZF()
	case x86.CCS:
		return m.fSF()
	case x86.CCNS:
		return !m.fSF()
	case x86.CCP:
		return m.fPF()
	case x86.CCNP:
		return !m.fPF()
	case x86.CCL:
		return m.fSF() != m.fOF()
	case x86.CCGE:
		return m.fSF() == m.fOF()
	case x86.CCLE:
		return m.fZF() || m.fSF() != m.fOF()
	default: // CCG
		return !m.fZF() && m.fSF() == m.fOF()
	}
}

// ---- direct condition evaluation (fused compare forms) ------------------

func condSub(cc x86.CC, a, b uint32) bool {
	switch cc {
	case x86.CCO:
		return (a^b)&(a^(a-b))&0x80000000 != 0
	case x86.CCNO:
		return (a^b)&(a^(a-b))&0x80000000 == 0
	case x86.CCB:
		return a < b
	case x86.CCAE:
		return a >= b
	case x86.CCE:
		return a == b
	case x86.CCNE:
		return a != b
	case x86.CCBE:
		return a <= b
	case x86.CCA:
		return a > b
	case x86.CCS:
		return int32(a-b) < 0
	case x86.CCNS:
		return int32(a-b) >= 0
	case x86.CCP:
		return bits.OnesCount8(uint8(a-b))%2 == 0
	case x86.CCNP:
		return bits.OnesCount8(uint8(a-b))%2 != 0
	case x86.CCL:
		return int32(a) < int32(b)
	case x86.CCGE:
		return int32(a) >= int32(b)
	case x86.CCLE:
		return int32(a) <= int32(b)
	default: // CCG
		return int32(a) > int32(b)
	}
}

func condLogic(cc x86.CC, res uint32) bool {
	switch cc {
	case x86.CCO, x86.CCB:
		return false
	case x86.CCNO, x86.CCAE:
		return true
	case x86.CCE, x86.CCBE:
		return res == 0
	case x86.CCNE, x86.CCA:
		return res != 0
	case x86.CCS:
		return int32(res) < 0
	case x86.CCNS:
		return int32(res) >= 0
	case x86.CCP:
		return bits.OnesCount8(uint8(res))%2 == 0
	case x86.CCNP:
		return bits.OnesCount8(uint8(res))%2 != 0
	case x86.CCL:
		return int32(res) < 0
	case x86.CCGE:
		return int32(res) >= 0
	case x86.CCLE:
		return res == 0 || int32(res) < 0
	default: // CCG
		return res != 0 && int32(res) >= 0
	}
}

// ---- ALU / multiply / divide helpers (mirror vm's u* helpers) ----------

func (m *Machine) ualu(op uop.AluOp, a, b uint32) (uint32, bool) {
	switch op {
	case uop.AluAdd:
		res := a + b
		m.Fl = uop.Flags{Op: uop.FlagAdd, A: a, B: b, Res: res}
		return res, true
	case uop.AluAdc:
		var c uint32
		if m.fCF() {
			c = 1
		}
		res := a + b + c
		m.Fl = uop.Flags{Op: uop.FlagAdc, A: a, B: b, Cin: c, Res: res}
		return res, true
	case uop.AluSub:
		res := a - b
		m.Fl = uop.Flags{Op: uop.FlagSub, A: a, B: b, Res: res}
		return res, true
	case uop.AluSbb:
		var c uint32
		if m.fCF() {
			c = 1
		}
		res := a - b - c
		m.Fl = uop.Flags{Op: uop.FlagSbb, A: a, B: b, Cin: c, Res: res}
		return res, true
	case uop.AluCmp:
		m.Fl = uop.Flags{Op: uop.FlagSub, A: a, B: b, Res: a - b}
		return 0, false
	case uop.AluAnd:
		res := a & b
		m.Fl = uop.Flags{Op: uop.FlagLogic, Res: res}
		return res, true
	case uop.AluOr:
		res := a | b
		m.Fl = uop.Flags{Op: uop.FlagLogic, Res: res}
		return res, true
	case uop.AluXor:
		res := a ^ b
		m.Fl = uop.Flags{Op: uop.FlagLogic, Res: res}
		return res, true
	default: // AluTest
		m.Fl = uop.Flags{Op: uop.FlagLogic, Res: a & b}
		return 0, false
	}
}

func (m *Machine) ualu8(op uop.AluOp, a, b uint32) (uint32, bool) {
	switch op {
	case uop.AluAdd:
		res := (a + b) & 0xFF
		m.Fl = uop.Flags{Op: uop.FlagAdd8, A: a, B: b, Res: res}
		return res, true
	case uop.AluAdc:
		var c uint32
		if m.fCF() {
			c = 1
		}
		res := (a + b + c) & 0xFF
		m.Fl = uop.Flags{Op: uop.FlagAdc8, A: a, B: b, Cin: c, Res: res}
		return res, true
	case uop.AluSub:
		res := (a - b) & 0xFF
		m.Fl = uop.Flags{Op: uop.FlagSub8, A: a, B: b, Res: res}
		return res, true
	case uop.AluSbb:
		var c uint32
		if m.fCF() {
			c = 1
		}
		res := (a - b - c) & 0xFF
		m.Fl = uop.Flags{Op: uop.FlagSbb8, A: a, B: b, Cin: c, Res: res}
		return res, true
	case uop.AluCmp:
		m.Fl = uop.Flags{Op: uop.FlagSub8, A: a, B: b, Res: (a - b) & 0xFF}
		return 0, false
	case uop.AluAnd:
		res := a & b
		m.Fl = uop.Flags{Op: uop.FlagLogic8, Res: res}
		return res, true
	case uop.AluOr:
		res := a | b
		m.Fl = uop.Flags{Op: uop.FlagLogic8, Res: res}
		return res, true
	case uop.AluXor:
		res := a ^ b
		m.Fl = uop.Flags{Op: uop.FlagLogic8, Res: res}
		return res, true
	default: // AluTest
		m.Fl = uop.Flags{Op: uop.FlagLogic8, Res: a & b}
		return 0, false
	}
}

// ualuQ is the quiet ALU of the flag-suppressed fused load-op.
func ualuQ(op uop.AluOp, a, b uint32) (uint32, bool) {
	switch op {
	case uop.AluAdd:
		return a + b, true
	case uop.AluSub:
		return a - b, true
	case uop.AluAnd:
		return a & b, true
	case uop.AluOr:
		return a | b, true
	case uop.AluXor:
		return a ^ b, true
	default:
		return 0, false
	}
}

func (m *Machine) uimul(dst uint8, a, b uint32) {
	full := int64(int32(a)) * int64(int32(b))
	res := uint32(full)
	m.Regs[dst] = res
	over := full != int64(int32(res))
	m.CF, m.OF = over, over
	m.Fl.Op, m.Fl.Res = uop.FlagSZP, res
}

func (m *Machine) umul1(src uint32, signed bool) {
	if signed {
		full := int64(int32(m.Regs[x86.EAX])) * int64(int32(src))
		m.Regs[x86.EAX] = uint32(full)
		m.Regs[x86.EDX] = uint32(uint64(full) >> 32)
		over := full != int64(int32(full))
		m.CF, m.OF = over, over
		m.Fl.Op, m.Fl.Res = uop.FlagSZP, uint32(full)
		return
	}
	full := uint64(m.Regs[x86.EAX]) * uint64(src)
	m.Regs[x86.EAX] = uint32(full)
	m.Regs[x86.EDX] = uint32(full >> 32)
	over := m.Regs[x86.EDX] != 0
	m.CF, m.OF = over, over
	m.Fl.Op, m.Fl.Res = uop.FlagSZP, uint32(full)
}

// udiv reports false on a divide fault, with TrapAux 0 for divide by
// zero and 1 for quotient overflow.
func (m *Machine) udiv(src uint32, signed bool) bool {
	if src == 0 {
		m.TrapAux = 0
		return false
	}
	if signed {
		dividend := int64(uint64(m.Regs[x86.EDX])<<32 | uint64(m.Regs[x86.EAX]))
		divisor := int64(int32(src))
		q := dividend / divisor
		if q > 0x7FFFFFFF || q < -0x80000000 {
			m.TrapAux = 1
			return false
		}
		m.Regs[x86.EAX] = uint32(int32(q))
		m.Regs[x86.EDX] = uint32(int32(dividend % divisor))
		return true
	}
	dividend := uint64(m.Regs[x86.EDX])<<32 | uint64(m.Regs[x86.EAX])
	q := dividend / uint64(src)
	if q > 0xFFFFFFFF {
		m.TrapAux = 1
		return false
	}
	m.Regs[x86.EAX] = uint32(q)
	m.Regs[x86.EDX] = uint32(dividend % uint64(src))
	return true
}
