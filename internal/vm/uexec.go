package vm

import (
	"math/bits"
	"time"

	"vxa/internal/vm/uop"
	"vxa/internal/x86"
)

// This file is the micro-op execution engine: the hot path that replaced
// the per-instruction exec switch. Each cached fragment carries a dense
// []uop.Uop lowered and optimized at translate time (operand forms
// resolved into specialized kinds; adjacent instructions fused; dead
// flag records elided — see uop/opt.go), so the inner loop is one
// jump-table dispatch per micro-op, often covering several guest
// instructions, with no operand re-inspection. Arithmetic flags are
// lazy (see uop.Flags): ALU micro-ops record their inputs and result,
// and individual EFLAGS bits are computed only when Jcc/SETcc/ADC/SBB or
// a generic-fallback instruction consumes them — and the fused
// compare/branch and compare/setcc forms evaluate their condition
// straight from the operands, touching no flag state at all. Hot blocks
// are re-translated into straight-line superblocks with guard exits
// (superblock.go). The old exec engine (exec.go) remains as the
// semantic reference: rare instructions escape to it via KindGeneric,
// and the end-of-fuel slow path re-walks a block on it to preserve
// exact per-instruction trap EIPs.

// ---- lazy flag access --------------------------------------------------

// The VM's cf/zf/sf/of/pf bools are authoritative only while v.fl.Op is
// FlagNone. The f* accessors below read one flag, computing it from the
// lazy record when necessary; they never change the representation, so
// consumers that need a single flag pay for exactly one.

func (v *VM) fCF() bool {
	switch v.m.Fl.Op {
	case uop.FlagNone, uop.FlagSZP:
		return v.m.CF
	}
	v.stats.FlagsMaterialized++
	return v.m.Fl.CF()
}

func (v *VM) fOF() bool {
	switch v.m.Fl.Op {
	case uop.FlagNone, uop.FlagSZP:
		return v.m.OF
	}
	v.stats.FlagsMaterialized++
	return v.m.Fl.OF()
}

func (v *VM) fZF() bool {
	if v.m.Fl.Op == uop.FlagNone {
		return v.m.ZF
	}
	v.stats.FlagsMaterialized++
	return v.m.Fl.ZF()
}

func (v *VM) fSF() bool {
	if v.m.Fl.Op == uop.FlagNone {
		return v.m.SF
	}
	v.stats.FlagsMaterialized++
	return v.m.Fl.SF()
}

func (v *VM) fPF() bool {
	if v.m.Fl.Op == uop.FlagNone {
		return v.m.PF
	}
	v.stats.FlagsMaterialized++
	return v.m.Fl.PF()
}

// materializeFlags resolves the lazy record into the eager bools. Called
// before any code that reads or writes v.cf..v.pf directly: the generic
// escape, the end-of-fuel slow path, and Snapshot.
func (v *VM) materializeFlags() {
	switch v.m.Fl.Op {
	case uop.FlagNone:
		return
	case uop.FlagSZP:
		v.m.ZF, v.m.SF, v.m.PF = v.m.Fl.ZF(), v.m.Fl.SF(), v.m.Fl.PF()
		v.stats.FlagsMaterialized += 3
	default:
		v.m.CF, v.m.OF = v.m.Fl.CF(), v.m.Fl.OF()
		v.m.ZF, v.m.SF, v.m.PF = v.m.Fl.ZF(), v.m.Fl.SF(), v.m.Fl.PF()
		v.stats.FlagsMaterialized += 5
	}
	v.m.Fl.Op = uop.FlagNone
}

// ucond evaluates a condition code against the current flags, lazily
// materializing only the flags the condition reads (one for the common
// cmp-then-je case, never more than three).
func (v *VM) ucond(cc x86.CC) bool {
	if v.m.Fl.Op == uop.FlagNone {
		return v.cond(cc)
	}
	switch cc {
	case x86.CCO:
		return v.fOF()
	case x86.CCNO:
		return !v.fOF()
	case x86.CCB:
		return v.fCF()
	case x86.CCAE:
		return !v.fCF()
	case x86.CCE:
		return v.fZF()
	case x86.CCNE:
		return !v.fZF()
	case x86.CCBE:
		return v.fCF() || v.fZF()
	case x86.CCA:
		return !v.fCF() && !v.fZF()
	case x86.CCS:
		return v.fSF()
	case x86.CCNS:
		return !v.fSF()
	case x86.CCP:
		return v.fPF()
	case x86.CCNP:
		return !v.fPF()
	case x86.CCL:
		return v.fSF() != v.fOF()
	case x86.CCGE:
		return v.fSF() == v.fOF()
	case x86.CCLE:
		return v.fZF() || v.fSF() != v.fOF()
	default: // CCG
		return !v.fZF() && v.fSF() == v.fOF()
	}
}

// ---- sandboxed guest memory, fast forms --------------------------------

// The sandbox bounds checks are tier2.Geometry's ReadOK and WriteOK, the
// one definition every tier shares; they are small enough to inline into
// the dispatch loop, which hoists the geometry and the heap limit.

// le32 and st32 (uexec_le.go / uexec_portable.go) are the raw
// little-endian guest accesses; bounds must have been checked by the
// caller. They must stay under the compiler's reduced inline budget:
// the execUops dispatch loop is past the big-function threshold, where
// only tiny callees are still inlined — a non-inlined guest load would
// cost more than the load itself.

// The u* accessors are the out-of-line load/store paths used by the
// colder handlers; they report failure as a bool so no error value is
// allocated until a trap is certain.

func (v *VM) uload32(addr uint32) (uint32, bool) {
	if !v.readable(addr, 4) {
		return 0, false
	}
	return le32(v.mem, addr), true
}

func (v *VM) ustore32(addr, val uint32) bool {
	if !v.writable(addr, 4) {
		return false
	}
	st32(v.mem, addr, val)
	return true
}

func (v *VM) ustore8(addr, val uint32) bool {
	if !v.writable(addr, 1) {
		return false
	}
	v.mem[addr] = byte(val)
	return true
}

// memTrap reports a failed guest load.
func memTrap(eip, addr uint32) error {
	return &Trap{Kind: TrapMemory, EIP: eip, Addr: addr}
}

// storeTrap reports a failed guest store, distinguishing a write to
// read-only memory from an out-of-sandbox access exactly as store does.
func (v *VM) storeTrap(eip, addr, size uint32) error {
	k := TrapMemory
	if v.readable(addr, size) {
		k = TrapWrite
	}
	return &Trap{Kind: k, EIP: eip, Addr: addr}
}

// uea computes the effective address of a lowered memory operand.
// Absent base/index registers were mapped to the always-zero regs[8]
// slot at translate time, so there is nothing to test here.
func (v *VM) uea(u *uop.Uop) uint32 {
	return u.Disp + v.m.Regs[u.Base] + v.m.Regs[u.Idx]*uint32(u.Scale)
}

// rd8 and wr8 access a pre-resolved byte register slot.
func (v *VM) rd8(r, sh uint8) uint32 {
	return (v.m.Regs[r] >> sh) & 0xFF
}

func (v *VM) wr8(r, sh uint8, val uint32) {
	v.m.Regs[r] = v.m.Regs[r]&^(uint32(0xFF)<<sh) | (val&0xFF)<<sh
}

// ---- ALU / shift / multiply helpers ------------------------------------

// ualu performs one ALU sub-operation, records the lazy flag state, and
// reports whether the result is written back (CMP/TEST suppress it).
// The hottest 32-bit forms never reach it — they are fully specialized
// kinds inlined in the dispatch loop — so this covers ADC/SBB, byte
// operands and memory destinations.
func (v *VM) ualu(op uop.AluOp, a, b uint32, size uint8) (uint32, bool) {
	if size == 1 {
		return v.ualu8(op, a&0xFF, b&0xFF)
	}
	switch op {
	case uop.AluAdd:
		res := a + b
		v.m.Fl = uop.Flags{Op: uop.FlagAdd, A: a, B: b, Res: res}
		return res, true
	case uop.AluAdc:
		var c uint32
		if v.fCF() {
			c = 1
		}
		res := a + b + c
		v.m.Fl = uop.Flags{Op: uop.FlagAdc, A: a, B: b, Cin: c, Res: res}
		return res, true
	case uop.AluSub:
		res := a - b
		v.m.Fl = uop.Flags{Op: uop.FlagSub, A: a, B: b, Res: res}
		return res, true
	case uop.AluSbb:
		var c uint32
		if v.fCF() {
			c = 1
		}
		res := a - b - c
		v.m.Fl = uop.Flags{Op: uop.FlagSbb, A: a, B: b, Cin: c, Res: res}
		return res, true
	case uop.AluCmp:
		v.m.Fl = uop.Flags{Op: uop.FlagSub, A: a, B: b, Res: a - b}
		return 0, false
	case uop.AluAnd:
		res := a & b
		v.m.Fl = uop.Flags{Op: uop.FlagLogic, Res: res}
		return res, true
	case uop.AluOr:
		res := a | b
		v.m.Fl = uop.Flags{Op: uop.FlagLogic, Res: res}
		return res, true
	case uop.AluXor:
		res := a ^ b
		v.m.Fl = uop.Flags{Op: uop.FlagLogic, Res: res}
		return res, true
	default: // AluTest
		v.m.Fl = uop.Flags{Op: uop.FlagLogic, Res: a & b}
		return 0, false
	}
}

// ualu8 is the byte-width ALU; a and b arrive pre-masked.
func (v *VM) ualu8(op uop.AluOp, a, b uint32) (uint32, bool) {
	switch op {
	case uop.AluAdd:
		res := (a + b) & 0xFF
		v.m.Fl = uop.Flags{Op: uop.FlagAdd8, A: a, B: b, Res: res}
		return res, true
	case uop.AluAdc:
		var c uint32
		if v.fCF() {
			c = 1
		}
		res := (a + b + c) & 0xFF
		v.m.Fl = uop.Flags{Op: uop.FlagAdc8, A: a, B: b, Cin: c, Res: res}
		return res, true
	case uop.AluSub:
		res := (a - b) & 0xFF
		v.m.Fl = uop.Flags{Op: uop.FlagSub8, A: a, B: b, Res: res}
		return res, true
	case uop.AluSbb:
		var c uint32
		if v.fCF() {
			c = 1
		}
		res := (a - b - c) & 0xFF
		v.m.Fl = uop.Flags{Op: uop.FlagSbb8, A: a, B: b, Cin: c, Res: res}
		return res, true
	case uop.AluCmp:
		v.m.Fl = uop.Flags{Op: uop.FlagSub8, A: a, B: b, Res: (a - b) & 0xFF}
		return 0, false
	case uop.AluAnd:
		res := a & b
		v.m.Fl = uop.Flags{Op: uop.FlagLogic8, Res: res}
		return res, true
	case uop.AluOr:
		res := a | b
		v.m.Fl = uop.Flags{Op: uop.FlagLogic8, Res: res}
		return res, true
	case uop.AluXor:
		res := a ^ b
		v.m.Fl = uop.Flags{Op: uop.FlagLogic8, Res: res}
		return res, true
	default: // AluTest
		v.m.Fl = uop.Flags{Op: uop.FlagLogic8, Res: a & b}
		return 0, false
	}
}

// ushift32 performs a 32-bit register shift with a nonzero count in
// 1..31, recording the lazy flag state.
func (v *VM) ushift32(op uop.ShOp, r uint8, count uint32) {
	val := v.m.Regs[r]
	var res uint32
	var fo uop.FlagOp
	switch op {
	case uop.ShShl:
		res = val << count
		fo = uop.FlagShl
	case uop.ShShr:
		res = val >> count
		fo = uop.FlagShr
	default: // ShSar
		res = uint32(int32(val) >> count)
		fo = uop.FlagSar
	}
	v.m.Regs[r] = res
	v.m.Fl.Op, v.m.Fl.A, v.m.Fl.B, v.m.Fl.Res = fo, val, count, res
}

// uimul is the two/three-operand signed multiply: dst = a * b, CF/OF on
// overflow, SF/ZF/PF defined from the low result as in the reference.
func (v *VM) uimul(dst uint8, a, b uint32) {
	full := int64(int32(a)) * int64(int32(b))
	res := uint32(full)
	v.m.Regs[dst] = res
	over := full != int64(int32(res))
	v.m.CF, v.m.OF = over, over
	v.m.Fl.Op, v.m.Fl.Res = uop.FlagSZP, res
}

// umul1 is the one-operand widening multiply into edx:eax.
func (v *VM) umul1(src uint32, signed bool) {
	if signed {
		full := int64(int32(v.m.Regs[x86.EAX])) * int64(int32(src))
		v.m.Regs[x86.EAX] = uint32(full)
		v.m.Regs[x86.EDX] = uint32(uint64(full) >> 32)
		over := full != int64(int32(full))
		v.m.CF, v.m.OF = over, over
		v.m.Fl.Op, v.m.Fl.Res = uop.FlagSZP, uint32(full)
		return
	}
	full := uint64(v.m.Regs[x86.EAX]) * uint64(src)
	v.m.Regs[x86.EAX] = uint32(full)
	v.m.Regs[x86.EDX] = uint32(full >> 32)
	over := v.m.Regs[x86.EDX] != 0
	v.m.CF, v.m.OF = over, over
	v.m.Fl.Op, v.m.Fl.Res = uop.FlagSZP, uint32(full)
}

// udiv is the one-operand divide of edx:eax; flags are unaffected.
func (v *VM) udiv(src uint32, signed bool, eip uint32) error {
	if src == 0 {
		return &Trap{Kind: TrapDivide, EIP: eip}
	}
	if signed {
		dividend := int64(uint64(v.m.Regs[x86.EDX])<<32 | uint64(v.m.Regs[x86.EAX]))
		divisor := int64(int32(src))
		q := dividend / divisor
		if q > 0x7FFFFFFF || q < -0x80000000 {
			return &Trap{Kind: TrapDivide, EIP: eip, Msg: "quotient overflow"}
		}
		v.m.Regs[x86.EAX] = uint32(int32(q))
		v.m.Regs[x86.EDX] = uint32(int32(dividend % divisor))
		return nil
	}
	dividend := uint64(v.m.Regs[x86.EDX])<<32 | uint64(v.m.Regs[x86.EAX])
	q := dividend / uint64(src)
	if q > 0xFFFFFFFF {
		return &Trap{Kind: TrapDivide, EIP: eip, Msg: "quotient overflow"}
	}
	v.m.Regs[x86.EAX] = uint32(q)
	v.m.Regs[x86.EDX] = uint32(dividend % uint64(src))
	return nil
}

// upush32 pushes val, reporting the trap against eip.
func (v *VM) upush32(val, eip uint32) error {
	sp := v.m.Regs[x86.ESP] - 4
	if !v.ustore32(sp, val) {
		return v.storeTrap(eip, sp, 4)
	}
	v.m.Regs[x86.ESP] = sp
	return nil
}

// ---- direct condition evaluation (fused compare forms) ------------------

// condSub evaluates a condition against the flags a CMP (res = a - b)
// would produce, straight from the operands: the fused compare/branch
// and compare/setcc forms never touch the flag machinery on this path.
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

// condLogic evaluates a condition against the flags a TEST/logic op
// would produce from its result (CF = OF = 0, ZF/SF/PF from res).
func condLogic(cc x86.CC, res uint32) bool {
	switch cc {
	case x86.CCO, x86.CCB:
		return false
	case x86.CCNO, x86.CCAE:
		return true
	case x86.CCE, x86.CCBE: // ZF (CF is clear)
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
	case x86.CCL: // SF != OF with OF clear
		return int32(res) < 0
	case x86.CCGE:
		return int32(res) >= 0
	case x86.CCLE:
		return res == 0 || int32(res) < 0
	default: // CCG
		return res != 0 && int32(res) >= 0
	}
}

// ualuQ is the quiet ALU used by the flag-suppressed fused load-op
// form: same arithmetic as ualu, no flag record. Only the non-carry
// ops are ever fused, so there is no carry-in to read.
func (v *VM) ualuQ(op uop.AluOp, a, b uint32) (uint32, bool) {
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
	default: // AluCmp, AluTest: flag-only, and the flags are dead
		return 0, false
	}
}

// ---- block execution ---------------------------------------------------

// uopTrap accounts for an error raised at micro-op index i of a block
// whose fuel and counters were charged up front: the unexecuted tail —
// in guest-instruction units, since fused micro-ops carry the cost of
// several — is refunded so accounting matches per-instruction
// semantics. A fusable trap site (the load of a fused load-op) is
// always the fused op's first constituent instruction, so the op's own
// cost beyond 1 is refunded too.
func (v *VM) uopTrap(us []uop.Uop, i int, err error) error {
	return v.uopTrapN(us, i, 1, err)
}

// uopTrapN is uopTrap for fused micro-ops whose trap site is not the
// first constituent instruction: started is how many of the fused op's
// guest instructions had begun when the fault hit (the faulting one
// included), matching the reference engine's charge-before-execute
// fuel discipline.
func (v *VM) uopTrapN(us []uop.Uop, i, started int, err error) error {
	unrun := int64(us[i].Cost) - int64(started)
	for j := i + 1; j < len(us); j++ {
		unrun += int64(us[j].Cost)
	}
	v.m.Fuel += unrun
	v.stats.Steps -= uint64(unrun)
	v.stats.UopsExecuted -= uint64(len(us) - i - 1)
	return err
}

// sbLeave accounts for the tier-1 loop leaving a superblock early at
// micro-op index i: the unexecuted tail's fuel is refunded. (A compiled
// trace refunds its own exits.)
func (v *VM) sbLeave(us []uop.Uop, i int) {
	tail := uop.Cost(us[i+1:])
	v.m.Fuel += tail
	v.stats.Steps -= uint64(tail)
	v.stats.UopsExecuted -= uint64(len(us) - i - 1)
}

// guardExit resolves a conditional guard's (static) exit edge through
// the guard's own chain slot.
func (v *VM) guardExit(br *bref, u *uop.Uop) (*bref, error) {
	return v.chainTo(&br.sbChains[u.Aux], u.Target)
}

// retGuardExit resolves a return guard's (dynamic) exit edge through
// the guard's monomorphic inline cache.
func (v *VM) retGuardExit(br *bref, u *uop.Uop, target uint32) (*bref, error) {
	e := &br.sbInd[u.Aux]
	if e.br != nil && e.addr == target {
		return e.br, nil
	}
	nb, err := v.lookupBlock(target)
	if err != nil || v.level == OptReference {
		return nb, err
	}
	e.br, e.addr = nb, target
	v.stats.BlocksChained++
	return nb, nil
}

// chainTo resolves the successor block at addr through the per-VM chain
// slot: after the first resolution, control transfers along this edge
// skip the fragment-cache map lookup entirely. Chain links live in the
// per-VM bref wrapper, never in the shared immutable block, so VMs
// materialized from one snapshot chain independently; Reset drops the
// wrappers, invalidating every link.
func (v *VM) chainTo(slot **bref, addr uint32) (*bref, error) {
	if c := *slot; c != nil {
		return c, nil
	}
	br, err := v.lookupBlock(addr)
	if err != nil || v.level == OptReference {
		return br, err
	}
	*slot = br
	v.stats.BlocksChained++
	return br, nil
}

// indirect resolves an indirect transfer (RET, jmp/call through a
// register or memory) through the block's monomorphic inline cache: a
// repeat of the last observed target skips the map lookup, which makes
// the dominant pattern — a function returning to the one loop that calls
// it — as cheap as a direct chain.
func (v *VM) indirect(br *bref, target uint32) (*bref, error) {
	if c := br.ind; c != nil && br.indAddr == target {
		return c, nil
	}
	nb, err := v.lookupBlock(target)
	if err != nil || v.level == OptReference {
		return nb, err
	}
	br.ind, br.indAddr = nb, target
	v.stats.BlocksChained++
	return nb, nil
}

// execUops runs translated fragments starting at br until the guest
// exits, parks at the done gate, or traps; the returned error is always
// non-nil (errExit/errDone or a *Trap). Staying in one frame keeps the
// hoisted sandbox geometry and register file in registers across block
// transfers.
//
// Fuel is charged once per block — len(uops) on entry — instead of
// decrement-and-compare per instruction. When the remaining budget is
// smaller than the block, execution drops to the reference engine's
// per-instruction walk so the fuel trap reports the exact EIP.
//
// A superblock that comes back from runTier2 with a start index runs
// from that micro-op only: its compiled trace ran the micro-ops before
// it, stopped at a check of several memory operands at once that may be
// stricter than theirs, and refunded the rest, which this loop now runs
// under its own per-access checks. The trace entry had the fuel for the
// whole pass, so the rest never needs the end-of-budget walk, and the
// poll waits for the next fragment boundary, where v.eip means something.
func (v *VM) execUops(br *bref) error {
	// The sandbox geometry is constant during straight-line execution:
	// the only thing that moves it (the setperm syscall) runs under
	// KindInt, after which brk is re-hoisted.
	regs := &v.m.Regs
	mem := v.mem
	geom := v.m.Geometry
	brk := v.m.Brk
	from := 0 // the micro-op br starts at: nonzero only behind a tier-2 resume
	var err error

blocks:
	for {
		// Cancellation + watchdog poll (RunContext, Config.WallBudget):
		// a countdown decrement per block, with the channel select and
		// the clock read only every cancelQuantum guest instructions.
		// The countdown runs whether or not anything is armed, because
		// compiled traces share it: a chain of linked traces comes back
		// here when it is spent, which bounds how long a guest can keep
		// the goroutine inside emitted code. Nothing here touches the
		// per-uop dispatch loop below.
		skipped := uop.Cost(br.b.uops[:from])
		v.m.Credit -= br.b.cost - skipped
		if v.m.Credit <= 0 && from == 0 {
			v.m.Credit = cancelQuantum
			if v.cancel != nil {
				select {
				case <-v.cancel:
					return &CanceledError{Cause: v.cancelCause()}
				default:
				}
			}
			if v.wallDeadline != 0 && time.Now().UnixNano() > v.wallDeadline {
				return &WatchdogError{Budget: v.wallBudget}
			}
		}

		// Superblock promotion and hot-path profiling. Once a block has
		// run hot, its dominant path is re-translated into a
		// straight-line superblock (superblock.go) hung off the base
		// bref; entering it swaps br for the superblock's own bref, so
		// every chain slot below stays per-fragment-view. Promotion is
		// skipped when the remaining fuel cannot cover the superblock,
		// keeping the end-of-budget slow path on base blocks (which
		// carry the decoded instructions the reference walk needs).
		if sb := br.sb; sb != nil {
			if v.m.Fuel >= sb.b.cost {
				// Tier-2 dispatch: a compiled trace — and whatever traces
				// are linked behind it — replaces the whole uop walk
				// below; the run re-joins here with the next bref
				// resolved and brk possibly moved (syscall exits).
				if t := sb.t2; t != nil {
					if br, from, err = v.runTier2(sb, t); err != nil {
						return err
					}
					brk = v.m.Brk
					continue blocks
				}
				if !sb.t2Tried && v.level >= OptTier2 {
					sb.heat++
					if sb.heat >= v.t2Hot {
						v.compileTier2(sb)
						if t := sb.t2; t != nil {
							if br, from, err = v.runTier2(sb, t); err != nil {
								return err
							}
							brk = v.m.Brk
							continue blocks
						}
					}
				}
				br = sb
			}
		} else if !br.sbTried && v.level >= OptSuperblocks {
			br.heat++
			if br.heat >= sbHotThreshold {
				v.formSuperblock(br)
				if sb := br.sb; sb != nil && v.m.Fuel >= sb.b.cost {
					br = sb
				}
			}
		}

		b := br.b
		us, cost := b.uops[from:], b.cost-skipped
		from = 0
		n := len(us)
		if v.m.Fuel < cost {
			// End-of-budget: re-walk this block on the reference engine
			// for an exact fuel-trap EIP. (The walk always traps before
			// the block completes, but stay general.)
			v.materializeFlags()
			if err := v.execBlock(b); err != nil {
				return err
			}
			nb, err := v.lookupBlock(v.eip)
			if err != nil {
				return err
			}
			br = nb
			brk = v.m.Brk
			continue
		}
		v.m.Fuel -= cost
		v.stats.Steps += uint64(cost)
		v.stats.UopsExecuted += uint64(n)

		for i := range us {
			u := &us[i]
			switch u.Kind {
			case uop.KindNop:

			// --- moves ---
			case uop.KindMovRR:
				regs[u.Dst] = regs[u.Src]
			case uop.KindMovRI:
				regs[u.Dst] = u.Imm
			case uop.KindMovRR8:
				v.wr8(u.Dst, u.Dsh, v.rd8(u.Src, u.Ssh))
			case uop.KindMovRI8:
				v.wr8(u.Dst, u.Dsh, u.Imm)
			case uop.KindLoad:
				addr := u.Disp + regs[u.Base] + regs[u.Idx]*uint32(u.Scale)
				if !geom.ReadOK(addr, 4, brk) {
					return v.uopTrap(us, i, memTrap(u.EIP, addr))
				}
				regs[u.Dst] = le32(mem, addr)
			case uop.KindLoad8:
				addr := u.Disp + regs[u.Base] + regs[u.Idx]*uint32(u.Scale)
				if !geom.ReadOK(addr, 1, brk) {
					return v.uopTrap(us, i, memTrap(u.EIP, addr))
				}
				v.wr8(u.Dst, u.Dsh, uint32(mem[addr]))
			case uop.KindStore:
				addr := u.Disp + regs[u.Base] + regs[u.Idx]*uint32(u.Scale)
				if !geom.WriteOK(addr, 4, brk) {
					return v.uopTrap(us, i, v.storeTrap(u.EIP, addr, 4))
				}
				st32(mem, addr, regs[u.Src])
			case uop.KindStore8:
				addr := u.Disp + regs[u.Base] + regs[u.Idx]*uint32(u.Scale)
				if !geom.WriteOK(addr, 1, brk) {
					return v.uopTrap(us, i, v.storeTrap(u.EIP, addr, 1))
				}
				mem[addr] = byte(v.rd8(u.Src, u.Ssh))
			case uop.KindStoreI:
				addr := u.Disp + regs[u.Base] + regs[u.Idx]*uint32(u.Scale)
				if !geom.WriteOK(addr, 4, brk) {
					return v.uopTrap(us, i, v.storeTrap(u.EIP, addr, 4))
				}
				st32(mem, addr, u.Imm)
			case uop.KindStoreI8:
				addr := u.Disp + regs[u.Base] + regs[u.Idx]*uint32(u.Scale)
				if !geom.WriteOK(addr, 1, brk) {
					return v.uopTrap(us, i, v.storeTrap(u.EIP, addr, 1))
				}
				mem[addr] = byte(u.Imm)
			case uop.KindLea:
				regs[u.Dst] = u.Disp + regs[u.Base] + regs[u.Idx]*uint32(u.Scale)

			// --- widening moves ---
			case uop.KindMovzxRR8:
				regs[u.Dst] = v.rd8(u.Src, u.Ssh)
			case uop.KindMovzxRR16:
				regs[u.Dst] = regs[u.Src] & 0xFFFF
			case uop.KindMovzxRM8:
				addr := u.Disp + regs[u.Base] + regs[u.Idx]*uint32(u.Scale)
				if !geom.ReadOK(addr, 1, brk) {
					return v.uopTrap(us, i, memTrap(u.EIP, addr))
				}
				regs[u.Dst] = uint32(mem[addr])
			case uop.KindMovzxRM16:
				addr := u.Disp + regs[u.Base] + regs[u.Idx]*uint32(u.Scale)
				if !geom.ReadOK(addr, 2, brk) {
					return v.uopTrap(us, i, memTrap(u.EIP, addr))
				}
				regs[u.Dst] = uint32(mem[addr]) | uint32(mem[addr+1])<<8
			case uop.KindMovsxRR8:
				regs[u.Dst] = uint32(int32(int8(v.rd8(u.Src, u.Ssh))))
			case uop.KindMovsxRR16:
				regs[u.Dst] = uint32(int32(int16(regs[u.Src])))
			case uop.KindMovsxRM8:
				addr := u.Disp + regs[u.Base] + regs[u.Idx]*uint32(u.Scale)
				if !geom.ReadOK(addr, 1, brk) {
					return v.uopTrap(us, i, memTrap(u.EIP, addr))
				}
				regs[u.Dst] = uint32(int32(int8(mem[addr])))
			case uop.KindMovsxRM16:
				addr := u.Disp + regs[u.Base] + regs[u.Idx]*uint32(u.Scale)
				if !geom.ReadOK(addr, 2, brk) {
					return v.uopTrap(us, i, memTrap(u.EIP, addr))
				}
				regs[u.Dst] = uint32(int32(int16(uint32(mem[addr]) | uint32(mem[addr+1])<<8)))

			case uop.KindXchgRR:
				regs[u.Dst], regs[u.Src] = regs[u.Src], regs[u.Dst]

			// --- fully specialized 32-bit ALU forms ---
			case uop.KindAddRR:
				a, bb := regs[u.Dst], regs[u.Src]
				res := a + bb
				regs[u.Dst] = res
				v.m.Fl.Op, v.m.Fl.A, v.m.Fl.B, v.m.Fl.Res = uop.FlagAdd, a, bb, res
			case uop.KindAddRI:
				a := regs[u.Dst]
				res := a + u.Imm
				regs[u.Dst] = res
				v.m.Fl.Op, v.m.Fl.A, v.m.Fl.B, v.m.Fl.Res = uop.FlagAdd, a, u.Imm, res
			case uop.KindSubRR:
				a, bb := regs[u.Dst], regs[u.Src]
				res := a - bb
				regs[u.Dst] = res
				v.m.Fl.Op, v.m.Fl.A, v.m.Fl.B, v.m.Fl.Res = uop.FlagSub, a, bb, res
			case uop.KindSubRI:
				a := regs[u.Dst]
				res := a - u.Imm
				regs[u.Dst] = res
				v.m.Fl.Op, v.m.Fl.A, v.m.Fl.B, v.m.Fl.Res = uop.FlagSub, a, u.Imm, res
			case uop.KindCmpRR:
				a, bb := regs[u.Dst], regs[u.Src]
				v.m.Fl.Op, v.m.Fl.A, v.m.Fl.B, v.m.Fl.Res = uop.FlagSub, a, bb, a-bb
			case uop.KindCmpRI:
				a := regs[u.Dst]
				v.m.Fl.Op, v.m.Fl.A, v.m.Fl.B, v.m.Fl.Res = uop.FlagSub, a, u.Imm, a-u.Imm
			case uop.KindAndRR:
				res := regs[u.Dst] & regs[u.Src]
				regs[u.Dst] = res
				v.m.Fl.Op, v.m.Fl.Res = uop.FlagLogic, res
			case uop.KindAndRI:
				res := regs[u.Dst] & u.Imm
				regs[u.Dst] = res
				v.m.Fl.Op, v.m.Fl.Res = uop.FlagLogic, res
			case uop.KindOrRR:
				res := regs[u.Dst] | regs[u.Src]
				regs[u.Dst] = res
				v.m.Fl.Op, v.m.Fl.Res = uop.FlagLogic, res
			case uop.KindOrRI:
				res := regs[u.Dst] | u.Imm
				regs[u.Dst] = res
				v.m.Fl.Op, v.m.Fl.Res = uop.FlagLogic, res
			case uop.KindXorRR:
				res := regs[u.Dst] ^ regs[u.Src]
				regs[u.Dst] = res
				v.m.Fl.Op, v.m.Fl.Res = uop.FlagLogic, res
			case uop.KindXorRI:
				res := regs[u.Dst] ^ u.Imm
				regs[u.Dst] = res
				v.m.Fl.Op, v.m.Fl.Res = uop.FlagLogic, res
			case uop.KindTestRR:
				v.m.Fl.Op, v.m.Fl.Res = uop.FlagLogic, regs[u.Dst]&regs[u.Src]
			case uop.KindTestRI:
				v.m.Fl.Op, v.m.Fl.Res = uop.FlagLogic, regs[u.Dst]&u.Imm

			// --- remaining ALU forms (ADC/SBB, memory, byte operands) ---
			case uop.KindAluRR:
				if res, wb := v.ualu(uop.AluOp(u.Sub), regs[u.Dst], regs[u.Src], 4); wb {
					regs[u.Dst] = res
				}
			case uop.KindAluRI:
				if res, wb := v.ualu(uop.AluOp(u.Sub), regs[u.Dst], u.Imm, 4); wb {
					regs[u.Dst] = res
				}
			case uop.KindAluRM:
				addr := u.Disp + regs[u.Base] + regs[u.Idx]*uint32(u.Scale)
				if !geom.ReadOK(addr, 4, brk) {
					return v.uopTrap(us, i, memTrap(u.EIP, addr))
				}
				if res, wb := v.ualu(uop.AluOp(u.Sub), regs[u.Dst], le32(mem, addr), 4); wb {
					regs[u.Dst] = res
				}
			case uop.KindAluMR:
				addr := u.Disp + regs[u.Base] + regs[u.Idx]*uint32(u.Scale)
				if !geom.ReadOK(addr, 4, brk) {
					return v.uopTrap(us, i, memTrap(u.EIP, addr))
				}
				if res, wb := v.ualu(uop.AluOp(u.Sub), le32(mem, addr), regs[u.Src], 4); wb {
					if !geom.WriteOK(addr, 4, brk) {
						return v.uopTrap(us, i, v.storeTrap(u.EIP, addr, 4))
					}
					st32(mem, addr, res)
				}
			case uop.KindAluMI:
				addr := u.Disp + regs[u.Base] + regs[u.Idx]*uint32(u.Scale)
				if !geom.ReadOK(addr, 4, brk) {
					return v.uopTrap(us, i, memTrap(u.EIP, addr))
				}
				if res, wb := v.ualu(uop.AluOp(u.Sub), le32(mem, addr), u.Imm, 4); wb {
					if !geom.WriteOK(addr, 4, brk) {
						return v.uopTrap(us, i, v.storeTrap(u.EIP, addr, 4))
					}
					st32(mem, addr, res)
				}
			case uop.KindAlu8RR:
				if res, wb := v.ualu8(uop.AluOp(u.Sub), v.rd8(u.Dst, u.Dsh), v.rd8(u.Src, u.Ssh)); wb {
					v.wr8(u.Dst, u.Dsh, res)
				}
			case uop.KindAlu8RI:
				if res, wb := v.ualu8(uop.AluOp(u.Sub), v.rd8(u.Dst, u.Dsh), u.Imm); wb {
					v.wr8(u.Dst, u.Dsh, res)
				}
			case uop.KindAlu8RM:
				addr := u.Disp + regs[u.Base] + regs[u.Idx]*uint32(u.Scale)
				if !geom.ReadOK(addr, 1, brk) {
					return v.uopTrap(us, i, memTrap(u.EIP, addr))
				}
				if res, wb := v.ualu8(uop.AluOp(u.Sub), v.rd8(u.Dst, u.Dsh), uint32(mem[addr])); wb {
					v.wr8(u.Dst, u.Dsh, res)
				}
			case uop.KindAlu8MR:
				addr := u.Disp + regs[u.Base] + regs[u.Idx]*uint32(u.Scale)
				if !geom.ReadOK(addr, 1, brk) {
					return v.uopTrap(us, i, memTrap(u.EIP, addr))
				}
				if res, wb := v.ualu8(uop.AluOp(u.Sub), uint32(mem[addr]), v.rd8(u.Src, u.Ssh)); wb {
					if !geom.WriteOK(addr, 1, brk) {
						return v.uopTrap(us, i, v.storeTrap(u.EIP, addr, 1))
					}
					mem[addr] = byte(res)
				}
			case uop.KindAlu8MI:
				addr := u.Disp + regs[u.Base] + regs[u.Idx]*uint32(u.Scale)
				if !geom.ReadOK(addr, 1, brk) {
					return v.uopTrap(us, i, memTrap(u.EIP, addr))
				}
				if res, wb := v.ualu8(uop.AluOp(u.Sub), uint32(mem[addr]), u.Imm); wb {
					if !geom.WriteOK(addr, 1, brk) {
						return v.uopTrap(us, i, v.storeTrap(u.EIP, addr, 1))
					}
					mem[addr] = byte(res)
				}

			case uop.KindIncR:
				cf := v.fCF() // INC preserves CF
				val := regs[u.Dst]
				res := val + 1
				regs[u.Dst] = res
				v.m.Fl = uop.Flags{Op: uop.FlagAddKeep, A: val, B: 1, Res: res, KeptCF: cf}
			case uop.KindDecR:
				cf := v.fCF() // DEC preserves CF
				val := regs[u.Dst]
				res := val - 1
				regs[u.Dst] = res
				v.m.Fl = uop.Flags{Op: uop.FlagSubKeep, A: val, B: 1, Res: res, KeptCF: cf}
			case uop.KindNegR:
				val := regs[u.Dst]
				res := -val
				regs[u.Dst] = res
				v.m.Fl.Op, v.m.Fl.A, v.m.Fl.B, v.m.Fl.Res = uop.FlagSub, 0, val, res
			case uop.KindNotR:
				regs[u.Dst] = ^regs[u.Dst]

			// --- shifts ---
			case uop.KindShiftRI:
				v.ushift32(uop.ShOp(u.Sub), u.Dst, u.Imm)
			case uop.KindShiftRCL:
				if c := regs[x86.ECX] & 31; c != 0 {
					v.ushift32(uop.ShOp(u.Sub), u.Dst, c)
				}

			// --- multiply / divide ---
			case uop.KindImulRR:
				v.uimul(u.Dst, regs[u.Dst], regs[u.Src])
			case uop.KindImulRM:
				bv, ok := v.uload32(v.uea(u))
				if !ok {
					return v.uopTrap(us, i, memTrap(u.EIP, v.uea(u)))
				}
				v.uimul(u.Dst, regs[u.Dst], bv)
			case uop.KindImulRRI:
				v.uimul(u.Dst, u.Imm, regs[u.Src])
			case uop.KindImulRMI:
				bv, ok := v.uload32(v.uea(u))
				if !ok {
					return v.uopTrap(us, i, memTrap(u.EIP, v.uea(u)))
				}
				v.uimul(u.Dst, u.Imm, bv)
			case uop.KindMulR:
				v.umul1(regs[u.Src], u.Sub != 0)
			case uop.KindMulM:
				val, ok := v.uload32(v.uea(u))
				if !ok {
					return v.uopTrap(us, i, memTrap(u.EIP, v.uea(u)))
				}
				v.umul1(val, u.Sub != 0)
			case uop.KindDivR:
				if err := v.udiv(regs[u.Src], u.Sub != 0, u.EIP); err != nil {
					return v.uopTrap(us, i, err)
				}
			case uop.KindDivM:
				val, ok := v.uload32(v.uea(u))
				if !ok {
					return v.uopTrap(us, i, memTrap(u.EIP, v.uea(u)))
				}
				if err := v.udiv(val, u.Sub != 0, u.EIP); err != nil {
					return v.uopTrap(us, i, err)
				}
			case uop.KindCdq:
				regs[x86.EDX] = uint32(int32(regs[x86.EAX]) >> 31)

			// --- stack ---
			case uop.KindPushR:
				sp := regs[x86.ESP] - 4
				if !geom.WriteOK(sp, 4, brk) {
					return v.uopTrap(us, i, v.storeTrap(u.EIP, sp, 4))
				}
				st32(mem, sp, regs[u.Src])
				regs[x86.ESP] = sp
			case uop.KindPushI:
				sp := regs[x86.ESP] - 4
				if !geom.WriteOK(sp, 4, brk) {
					return v.uopTrap(us, i, v.storeTrap(u.EIP, sp, 4))
				}
				st32(mem, sp, u.Imm)
				regs[x86.ESP] = sp
			case uop.KindPushM:
				val, ok := v.uload32(v.uea(u))
				if !ok {
					return v.uopTrap(us, i, memTrap(u.EIP, v.uea(u)))
				}
				if err := v.upush32(val, u.EIP); err != nil {
					return v.uopTrap(us, i, err)
				}
			case uop.KindPopR:
				sp := regs[x86.ESP]
				if !geom.ReadOK(sp, 4, brk) {
					return v.uopTrap(us, i, memTrap(u.EIP, sp))
				}
				regs[x86.ESP] = sp + 4
				regs[u.Dst] = le32(mem, sp) // a popped ESP wins over the increment
			case uop.KindPopM:
				sp := regs[x86.ESP]
				val, ok := v.uload32(sp)
				if !ok {
					return v.uopTrap(us, i, memTrap(u.EIP, sp))
				}
				regs[x86.ESP] = sp + 4
				addr := v.uea(u) // the store address sees the popped ESP
				if !v.ustore32(addr, val) {
					return v.uopTrap(us, i, v.storeTrap(u.EIP, addr, 4))
				}

			// --- setcc ---
			case uop.KindSetccR8:
				var val uint32
				if v.ucond(x86.CC(u.Sub)) {
					val = 1
				}
				v.wr8(u.Dst, u.Dsh, val)
			case uop.KindSetccM8:
				var val uint32
				if v.ucond(x86.CC(u.Sub)) {
					val = 1
				}
				addr := v.uea(u)
				if !v.ustore8(addr, val) {
					return v.uopTrap(us, i, v.storeTrap(u.EIP, addr, 1))
				}

			// --- flag-suppressed ALU forms (dead-flag elimination) ---
			case uop.KindAddRRNF:
				regs[u.Dst] += regs[u.Src]
			case uop.KindAddRINF:
				regs[u.Dst] += u.Imm
			case uop.KindSubRRNF:
				regs[u.Dst] -= regs[u.Src]
			case uop.KindSubRINF:
				regs[u.Dst] -= u.Imm
			case uop.KindAndRRNF:
				regs[u.Dst] &= regs[u.Src]
			case uop.KindAndRINF:
				regs[u.Dst] &= u.Imm
			case uop.KindOrRRNF:
				regs[u.Dst] |= regs[u.Src]
			case uop.KindOrRINF:
				regs[u.Dst] |= u.Imm
			case uop.KindXorRRNF:
				regs[u.Dst] ^= regs[u.Src]
			case uop.KindXorRINF:
				regs[u.Dst] ^= u.Imm
			case uop.KindIncRNF:
				regs[u.Dst]++
			case uop.KindDecRNF:
				regs[u.Dst]--
			case uop.KindShiftRINF:
				switch uop.ShOp(u.Sub) {
				case uop.ShShl:
					regs[u.Dst] <<= u.Imm
				case uop.ShShr:
					regs[u.Dst] >>= u.Imm
				default: // ShSar
					regs[u.Dst] = uint32(int32(regs[u.Dst]) >> u.Imm)
				}
			case uop.KindShiftRCLNF:
				if c := regs[x86.ECX] & 31; c != 0 {
					switch uop.ShOp(u.Sub) {
					case uop.ShShl:
						regs[u.Dst] <<= c
					case uop.ShShr:
						regs[u.Dst] >>= c
					default: // ShSar
						regs[u.Dst] = uint32(int32(regs[u.Dst]) >> c)
					}
				}

			// --- fused compare/setcc and boolean materialization ---
			case uop.KindCmpSetccRR, uop.KindCmpSetccRI:
				a, bb := regs[u.Src], u.Imm
				if u.Kind == uop.KindCmpSetccRR {
					bb = regs[u.Aux]
				}
				v.m.Fl.Op, v.m.Fl.A, v.m.Fl.B, v.m.Fl.Res = uop.FlagSub, a, bb, a-bb
				var val uint32
				if condSub(x86.CC(u.Sub), a, bb) {
					val = 1
				}
				v.wr8(u.Dst, u.Dsh, val)
			case uop.KindTestSetccRR, uop.KindTestSetccRI:
				res := regs[u.Src] & u.Imm
				if u.Kind == uop.KindTestSetccRR {
					res = regs[u.Src] & regs[u.Aux]
				}
				v.m.Fl.Op, v.m.Fl.Res = uop.FlagLogic, res
				var val uint32
				if condLogic(x86.CC(u.Sub), res) {
					val = 1
				}
				v.wr8(u.Dst, u.Dsh, val)
			case uop.KindCmpBoolRR, uop.KindCmpBoolRI:
				a, bb := regs[u.Src], u.Imm
				if u.Kind == uop.KindCmpBoolRR {
					bb = regs[u.Aux]
				}
				v.m.Fl.Op, v.m.Fl.A, v.m.Fl.B, v.m.Fl.Res = uop.FlagSub, a, bb, a-bb
				var val uint32
				if condSub(x86.CC(u.Sub), a, bb) {
					val = 1
				}
				regs[u.Dst] = val
			case uop.KindTestBoolRR, uop.KindTestBoolRI:
				res := regs[u.Src] & u.Imm
				if u.Kind == uop.KindTestBoolRR {
					res = regs[u.Src] & regs[u.Aux]
				}
				v.m.Fl.Op, v.m.Fl.Res = uop.FlagLogic, res
				var val uint32
				if condLogic(x86.CC(u.Sub), res) {
					val = 1
				}
				regs[u.Dst] = val
			case uop.KindCmpBoolRRNF, uop.KindCmpBoolRINF:
				a, bb := regs[u.Src], u.Imm
				if u.Kind == uop.KindCmpBoolRRNF {
					bb = regs[u.Aux]
				}
				var val uint32
				if condSub(x86.CC(u.Sub), a, bb) {
					val = 1
				}
				regs[u.Dst] = val
			case uop.KindTestBoolRRNF, uop.KindTestBoolRINF:
				res := regs[u.Src] & u.Imm
				if u.Kind == uop.KindTestBoolRRNF {
					res = regs[u.Src] & regs[u.Aux]
				}
				var val uint32
				if condLogic(x86.CC(u.Sub), res) {
					val = 1
				}
				regs[u.Dst] = val

			// --- fused load-op ---
			case uop.KindLoadAluRR:
				addr := u.Disp + regs[u.Base] + regs[u.Idx]*uint32(u.Scale)
				if !geom.ReadOK(addr, 4, brk) {
					return v.uopTrap(us, i, memTrap(u.EIP, addr))
				}
				regs[u.Aux] = le32(mem, addr)
				if res, wb := v.ualu(uop.AluOp(u.Sub), regs[u.Dst], regs[u.Src], 4); wb {
					regs[u.Dst] = res
				}
			case uop.KindLoadAluRRNF:
				addr := u.Disp + regs[u.Base] + regs[u.Idx]*uint32(u.Scale)
				if !geom.ReadOK(addr, 4, brk) {
					return v.uopTrap(us, i, memTrap(u.EIP, addr))
				}
				regs[u.Aux] = le32(mem, addr)
				if res, wb := v.ualuQ(uop.AluOp(u.Sub), regs[u.Dst], regs[u.Src]); wb {
					regs[u.Dst] = res
				}

			// --- superblock guard exits ---
			case uop.KindGuard:
				if !v.ucond(x86.CC(u.Sub)) {
					break // stay on the trace
				}
				v.eip = u.Target
				v.sbLeave(us, i)
				nb, err := v.guardExit(br, u)
				if err != nil {
					return err
				}
				br = nb
				continue blocks
			case uop.KindGuardCmpRR, uop.KindGuardCmpRI:
				a, bb := regs[u.Dst], u.Imm
				if u.Kind == uop.KindGuardCmpRR {
					bb = regs[u.Src]
				}
				// The compare executes on both paths: record its flags.
				v.m.Fl.Op, v.m.Fl.A, v.m.Fl.B, v.m.Fl.Res = uop.FlagSub, a, bb, a-bb
				if !condSub(x86.CC(u.Sub), a, bb) {
					break
				}
				v.eip = u.Target
				v.sbLeave(us, i)
				nb, err := v.guardExit(br, u)
				if err != nil {
					return err
				}
				br = nb
				continue blocks
			case uop.KindGuardTestRR, uop.KindGuardTestRI:
				res := regs[u.Dst] & u.Imm
				if u.Kind == uop.KindGuardTestRR {
					res = regs[u.Dst] & regs[u.Src]
				}
				v.m.Fl.Op, v.m.Fl.Res = uop.FlagLogic, res
				if !condLogic(x86.CC(u.Sub), res) {
					break
				}
				v.eip = u.Target
				v.sbLeave(us, i)
				nb, err := v.guardExit(br, u)
				if err != nil {
					return err
				}
				br = nb
				continue blocks
			case uop.KindGuardCmpRRNF, uop.KindGuardCmpRINF:
				a, bb := regs[u.Dst], u.Imm
				if u.Kind == uop.KindGuardCmpRRNF {
					bb = regs[u.Src]
				}
				if !condSub(x86.CC(u.Sub), a, bb) {
					break // flags provably dead on the trace
				}
				// Exiting: the compare's flags become the visible state.
				v.m.Fl.Op, v.m.Fl.A, v.m.Fl.B, v.m.Fl.Res = uop.FlagSub, a, bb, a-bb
				v.eip = u.Target
				v.sbLeave(us, i)
				nb, err := v.guardExit(br, u)
				if err != nil {
					return err
				}
				br = nb
				continue blocks
			case uop.KindGuardTestRRNF, uop.KindGuardTestRINF:
				res := regs[u.Dst] & u.Imm
				if u.Kind == uop.KindGuardTestRRNF {
					res = regs[u.Dst] & regs[u.Src]
				}
				if !condLogic(x86.CC(u.Sub), res) {
					break
				}
				v.m.Fl.Op, v.m.Fl.Res = uop.FlagLogic, res
				v.eip = u.Target
				v.sbLeave(us, i)
				nb, err := v.guardExit(br, u)
				if err != nil {
					return err
				}
				br = nb
				continue blocks

			// --- control transfers (always the last micro-op) ---
			case uop.KindJmp:
				v.eip = u.Target
				if c := br.taken; c != nil {
					br = c
					continue blocks
				}
				nb, err := v.chainTo(&br.taken, u.Target)
				if err != nil {
					return err
				}
				br = nb
				continue blocks
			case uop.KindJcc:
				if v.ucond(x86.CC(u.Sub)) {
					br.takenCnt++
					v.eip = u.Target
					if c := br.taken; c != nil {
						br = c
						continue blocks
					}
					nb, err := v.chainTo(&br.taken, u.Target)
					if err != nil {
						return err
					}
					br = nb
					continue blocks
				}
				br.fallCnt++
				v.eip = u.Next
				if c := br.fall; c != nil {
					br = c
					continue blocks
				}
				nb, err := v.chainTo(&br.fall, u.Next)
				if err != nil {
					return err
				}
				br = nb
				continue blocks
			case uop.KindCmpJccRR, uop.KindCmpJccRI,
				uop.KindTestJccRR, uop.KindTestJccRI:
				// Fused compare/branch: the condition is evaluated
				// directly from the compare operands (no flag
				// materialization); the compare's record is still
				// written for whatever the successor block may read.
				var take bool
				switch u.Kind {
				case uop.KindCmpJccRR, uop.KindCmpJccRI:
					a, bb := regs[u.Dst], u.Imm
					if u.Kind == uop.KindCmpJccRR {
						bb = regs[u.Src]
					}
					v.m.Fl.Op, v.m.Fl.A, v.m.Fl.B, v.m.Fl.Res = uop.FlagSub, a, bb, a-bb
					take = condSub(x86.CC(u.Sub), a, bb)
				default:
					res := regs[u.Dst] & u.Imm
					if u.Kind == uop.KindTestJccRR {
						res = regs[u.Dst] & regs[u.Src]
					}
					v.m.Fl.Op, v.m.Fl.Res = uop.FlagLogic, res
					take = condLogic(x86.CC(u.Sub), res)
				}
				if take {
					br.takenCnt++
					v.eip = u.Target
					if c := br.taken; c != nil {
						br = c
						continue blocks
					}
					nb, err := v.chainTo(&br.taken, u.Target)
					if err != nil {
						return err
					}
					br = nb
					continue blocks
				}
				br.fallCnt++
				v.eip = u.Next
				if c := br.fall; c != nil {
					br = c
					continue blocks
				}
				nb, err := v.chainTo(&br.fall, u.Next)
				if err != nil {
					return err
				}
				br = nb
				continue blocks
			case uop.KindCall:
				if err := v.upush32(u.Next, u.EIP); err != nil {
					return v.uopTrap(us, i, err)
				}
				v.eip = u.Target
				if c := br.taken; c != nil {
					br = c
					continue blocks
				}
				nb, err := v.chainTo(&br.taken, u.Target)
				if err != nil {
					return err
				}
				br = nb
				continue blocks
			case uop.KindCallR:
				target := regs[u.Src]
				if err := v.upush32(u.Next, u.EIP); err != nil {
					return v.uopTrap(us, i, err)
				}
				v.eip = target
				nb, err := v.indirect(br, target)
				if err != nil {
					return err
				}
				br = nb
				continue blocks
			case uop.KindCallM:
				target, ok := v.uload32(v.uea(u))
				if !ok {
					return v.uopTrap(us, i, memTrap(u.EIP, v.uea(u)))
				}
				if err := v.upush32(u.Next, u.EIP); err != nil {
					return v.uopTrap(us, i, err)
				}
				v.eip = target
				nb, err := v.indirect(br, target)
				if err != nil {
					return err
				}
				br = nb
				continue blocks
			case uop.KindRet:
				sp := regs[x86.ESP]
				if !geom.ReadOK(sp, 4, brk) {
					return v.uopTrap(us, i, memTrap(u.EIP, sp))
				}
				target := le32(mem, sp)
				regs[x86.ESP] = sp + 4 + u.Imm
				v.eip = target
				if c := br.ind; c != nil && br.indAddr == target {
					br = c
					continue blocks
				}
				nb, err := v.indirect(br, target)
				if err != nil {
					return err
				}
				br = nb
				continue blocks
			case uop.KindPushCall:
				sp := regs[x86.ESP] - 4
				if !geom.WriteOK(sp, 4, brk) {
					return v.uopTrap(us, i, v.storeTrap(u.EIP, sp, 4))
				}
				st32(mem, sp, regs[u.Src])
				regs[x86.ESP] = sp
				sp -= 4
				if !geom.WriteOK(sp, 4, brk) {
					return v.uopTrapN(us, i, 2, v.storeTrap(u.Imm, sp, 4))
				}
				st32(mem, sp, u.Next)
				regs[x86.ESP] = sp
				v.eip = u.Target
				if c := br.taken; c != nil {
					br = c
					continue blocks
				}
				nb, err := v.chainTo(&br.taken, u.Target)
				if err != nil {
					return err
				}
				br = nb
				continue blocks
			case uop.KindPopRet:
				// Fusion guarantees Dst != ESP, so the RET pops sp+4.
				sp := regs[x86.ESP]
				if !geom.ReadOK(sp, 4, brk) {
					return v.uopTrap(us, i, memTrap(u.EIP, sp))
				}
				regs[x86.ESP] = sp + 4
				regs[u.Dst] = le32(mem, sp)
				if !geom.ReadOK(sp+4, 4, brk) {
					return v.uopTrapN(us, i, 2, memTrap(u.Disp, sp+4))
				}
				target := le32(mem, sp+4)
				regs[x86.ESP] = sp + 8 + u.Imm
				v.eip = target
				if c := br.ind; c != nil && br.indAddr == target {
					br = c
					continue blocks
				}
				nb, err := v.indirect(br, target)
				if err != nil {
					return err
				}
				br = nb
				continue blocks
			case uop.KindRetGuard:
				sp := regs[x86.ESP]
				if !geom.ReadOK(sp, 4, brk) {
					return v.uopTrap(us, i, memTrap(u.EIP, sp))
				}
				target := le32(mem, sp)
				regs[x86.ESP] = sp + 4 + u.Imm
				if target == u.Target {
					break // the inlined return: stay on the trace
				}
				v.eip = target
				v.sbLeave(us, i)
				nb, err := v.retGuardExit(br, u, target)
				if err != nil {
					return err
				}
				br = nb
				continue blocks
			case uop.KindJmpR:
				target := regs[u.Src]
				v.eip = target
				nb, err := v.indirect(br, target)
				if err != nil {
					return err
				}
				br = nb
				continue blocks
			case uop.KindJmpM:
				target, ok := v.uload32(v.uea(u))
				if !ok {
					return v.uopTrap(us, i, memTrap(u.EIP, v.uea(u)))
				}
				v.eip = target
				nb, err := v.indirect(br, target)
				if err != nil {
					return err
				}
				br = nb
				continue blocks
			case uop.KindInt:
				v.eip = u.Next // the guest resumes after the gate
				if u.Imm != 0x80 {
					return v.uopTrap(us, i, &Trap{Kind: TrapSyscall, EIP: u.EIP,
						Msg: "interrupt vector not the VXA syscall gate"})
				}
				if err := v.syscall(); err != nil {
					return v.uopTrap(us, i, err)
				}
				brk = v.m.Brk // setperm may have grown the heap
				if c := br.taken; c != nil {
					br = c
					continue blocks
				}
				nb, err := v.chainTo(&br.taken, u.Next)
				if err != nil {
					return err
				}
				br = nb
				continue blocks
			case uop.KindHlt:
				return v.uopTrap(us, i, &Trap{Kind: TrapIllegal, EIP: u.EIP, Msg: "privileged instruction"})
			case uop.KindUd2:
				return v.uopTrap(us, i, &Trap{Kind: TrapIllegal, EIP: u.EIP, Msg: "ud2"})

			// --- escapes to the reference engine ---
			case uop.KindString:
				v.eip = u.EIP // string traps report the op itself
				if err := v.stringOp(u.Inst); err != nil {
					return v.uopTrap(us, i, err)
				}
			default: // KindGeneric
				v.materializeFlags()
				if err := v.exec(u.Inst, u.EIP); err != nil {
					return v.uopTrap(us, i, err)
				}
			}
		}

		// The block ended without a control transfer (fragment length
		// cap): fall through to the next address.
		v.eip = b.end
		if c := br.fall; c != nil {
			br = c
			continue
		}
		nb, err := v.chainTo(&br.fall, b.end)
		if err != nil {
			return err
		}
		br = nb
	}
}
