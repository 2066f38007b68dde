//go:build amd64 && linux

package tier2

import (
	"unsafe"

	"vxa/internal/vm/uop"
	"vxa/internal/x86"
)

// Static lazy-flag tracking for the emitter.
//
// The tier-1 engine materializes EFLAGS bits on demand by inspecting
// Fl.Op at run time (vm's fCF..fPF and ucond). The emitter instead
// tracks the flag representation at COMPILE time: emission walks the
// trace linearly, so
// at any micro-op the last unconditional flag writer earlier in the
// trace is known statically, and the materialization sequence for
// exactly that FlagOp can be emitted inline. The trace entry state is
// pinned by contract instead of tracked: a trace whose consumers read
// flags before any in-trace writer sets Trace.NeedFlags, the glue
// materializes the VM's flags before every run that starts there and
// links no exit to it that does not leave them materialized, so the
// entry state is statically FlagNone; the trace's own loop back edge
// re-materializes (matAll) whenever the body leaves a record behind,
// which is what makes that exit one the glue may link (Exit.Eager).
// Only a conditional writer (ShiftRCL
// skips its record when the masked count is zero) leaves the state
// unknown (flUnknown) and makes later consumers bail back to tier-1.
//
// Every sequence below mirrors a formula in uop/flags.go or one of
// vm's lazy-flag accessors (uexec.go); none relies on host flag bits that x86 leaves undefined
// (shift OF, for one, is computed from the record, not replayed).

const (
	flUnknown = -1 // no statically-known writer: consumers bail
	flEntry   = -2 // trace entry: FlagNone, guaranteed by the NeedFlags glue
)

var (
	offFlKeep   = offFl + 1 // Fl.KeptCF; layout asserted in native_amd64.go
	offFlagsMat = int32(unsafe.Offsetof(zm.FlagsMaterialized))
)

// curFl resolves the tracked state for a consumer. Reading the entry
// state leans on the glue contract — whoever enters a NeedFlags trace
// arrives with Fl.Op == FlagNone — and marks the trace as needing it.
func (e *nemit) curFl() uop.FlagOp {
	if e.flOp == flEntry {
		e.usedEntry = true
		return uop.FlagNone
	}
	return uop.FlagOp(e.flOp)
}

// matAll converts the current record to the eager representation —
// the five bools from the record, then Op = FlagNone — mirroring
// VM.materializeFlags (including its materialization counts: the
// extractors add 5, or 3 for the FlagSZP partial record). Emitted on
// the loop back edge of a trace that consumed its entry state (link),
// so every pass sees the same FlagNone entry the glue guaranteed the
// first one. Does not advance e.flOp: a second looping edge of the same
// trace must still see the real end state.
func (e *nemit) matAll() {
	a := &e.a
	if uop.FlagOp(e.flOp) != uop.FlagSZP { // SZP keeps CF/OF eager already
		e.cfValue(hAX)
		a.movTo8(fld(offCF), hAX)
		e.ofValue(hAX)
		a.movTo8(fld(offOF), hAX)
	}
	e.zfValue(hAX)
	a.movTo8(fld(offZF), hAX)
	e.sfValue(hAX)
	a.movTo8(fld(offSF), hAX)
	e.pfValue(hAX)
	a.movTo8(fld(offPF), hAX)
	a.movI8(fld(offFlOp), byte(uop.FlagNone))
}

// cfValue leaves the guest CF as 0 or 1 in dst, mirroring
// VM.fCF for the statically-known record e.flOp (which must not
// be flUnknown). Clobbers CX, DX and the host flags; dst must be
// neither of those.
func (e *nemit) cfValue(dst int) {
	a := &e.a
	switch op := e.curFl(); op {
	case uop.FlagNone, uop.FlagSZP:
		a.movx(movzx8, dst, fld(offCF)) // eager bool is authoritative
		return
	case uop.FlagAddKeep, uop.FlagSubKeep:
		a.movx(movzx8, dst, fld(offFlKeep))
	case uop.FlagLogic, uop.FlagLogic8:
		a.movI(rg(dst), 0)
	case uop.FlagAdd:
		a.mov(hCX, fld(offFlA))
		a.alu(aluAddRM, hCX, fld(offFlB))
		a.movI(rg(dst), 0)
		a.setcc(byte(x86.CCB), rg(dst)) // carry out of A+B
	case uop.FlagAdc:
		a.mov(hCX, fld(offFlCin))
		a.shiftI(shrExt, hCX, 1) // host CF := Cin (Cin is 0 or 1)
		a.mov(hDX, fld(offFlA))
		a.alu(aluAdcRM, hDX, fld(offFlB))
		a.movI(rg(dst), 0)
		a.setcc(byte(x86.CCB), rg(dst))
	case uop.FlagSub, uop.FlagSub8:
		a.mov(hCX, fld(offFlA))
		a.alu(aluCmpRM, hCX, fld(offFlB))
		a.movI(rg(dst), 0)
		a.setcc(byte(x86.CCB), rg(dst)) // A < B
	case uop.FlagSbb:
		// A < B+Cin over 33 bits: if B+Cin wraps 32 bits the borrow
		// is certain, otherwise compare against the 32-bit sum.
		a.mov(hDX, fld(offFlB))
		a.alu(aluAddRM, hDX, fld(offFlCin))
		a.movI(rg(dst), 0)
		a.setcc(byte(x86.CCB), rg(dst))
		a.mov(hCX, fld(offFlA))
		a.aluTo(aluCmpMR, rg(hCX), hDX)
		a.movI(rg(hCX), 0)
		a.setcc(byte(x86.CCB), rg(hCX))
		a.aluTo(aluOrMR, rg(dst), hCX)
	case uop.FlagShl:
		// Bit (32-B) of A; the record guarantees B in 1..31.
		a.mov(hCX, fld(offFlB))
		a.movI(rg(hDX), 32)
		a.aluTo(aluSubMR, rg(hDX), hCX)
		a.mov(hCX, rg(hDX))
		a.mov(dst, fld(offFlA))
		a.shiftCL(shrExt, dst)
		a.aluI(aluAndExt, rg(dst), 1)
	case uop.FlagShr, uop.FlagSar:
		// Bit (B-1) of A, through the matching shift for SAR.
		ext := shrExt
		if op == uop.FlagSar {
			ext = sarExt
		}
		a.mov(hCX, fld(offFlB))
		a.aluI(aluSubExt, rg(hCX), 1)
		a.mov(dst, fld(offFlA))
		a.shiftCL(ext, dst)
		a.aluI(aluAndExt, rg(dst), 1)
	case uop.FlagAdd8:
		a.mov(dst, fld(offFlA))
		a.alu(aluAddRM, dst, fld(offFlB))
		a.shiftI(shrExt, dst, 8) // bit 8 of an 8-bit sum
	case uop.FlagAdc8:
		a.mov(dst, fld(offFlA))
		a.alu(aluAddRM, dst, fld(offFlB))
		a.alu(aluAddRM, dst, fld(offFlCin))
		a.shiftI(shrExt, dst, 8)
	case uop.FlagSbb8:
		// B+Cin <= 0x100: no 32-bit wrap possible, one compare does.
		a.mov(hDX, fld(offFlB))
		a.alu(aluAddRM, hDX, fld(offFlCin))
		a.mov(hCX, fld(offFlA))
		a.aluTo(aluCmpMR, rg(hCX), hDX)
		a.movI(rg(dst), 0)
		a.setcc(byte(x86.CCB), rg(dst))
	}
	a.aluI64(aluAddExt, fld(offFlagsMat), 1)
}

// zfValue leaves the guest ZF as 0 or 1 in dst. Same clobbers as
// cfValue.
func (e *nemit) zfValue(dst int) {
	a := &e.a
	if e.curFl() == uop.FlagNone {
		a.movx(movzx8, dst, fld(offZF))
		return
	}
	a.mov(hCX, fld(offFlRes)) // writers store Res pre-masked
	a.movI(rg(dst), 0)
	a.aluTo(aluTestMR, rg(hCX), hCX)
	a.setcc(byte(x86.CCE), rg(dst))
	a.aluI64(aluAddExt, fld(offFlagsMat), 1)
}

// sfValue leaves the guest SF as 0 or 1 in dst: the result's top bit
// at the record's width.
func (e *nemit) sfValue(dst int) {
	a := &e.a
	op := e.curFl()
	if op == uop.FlagNone {
		a.movx(movzx8, dst, fld(offSF))
		return
	}
	a.mov(dst, fld(offFlRes))
	if op >= uop.FlagAdd8 {
		a.shiftI(shrExt, dst, 7) // Res pre-masked to 8 bits
	} else {
		a.shiftI(shrExt, dst, 31)
	}
	a.aluI64(aluAddExt, fld(offFlagsMat), 1)
}

// pfValue leaves the guest PF as 0 or 1 in dst. Host PF after any
// width of TEST reflects only the low result byte — exactly the
// record formula.
func (e *nemit) pfValue(dst int) {
	a := &e.a
	if e.curFl() == uop.FlagNone {
		a.movx(movzx8, dst, fld(offPF))
		return
	}
	a.mov(hCX, fld(offFlRes))
	a.movI(rg(dst), 0)
	a.aluTo(aluTestMR, rg(hCX), hCX)
	a.setcc(byte(x86.CCP), rg(dst))
	a.aluI64(aluAddExt, fld(offFlagsMat), 1)
}

// ofValue leaves the guest OF as 0 or 1 in dst. The shift forms use
// the record formulas rather than a hardware replay: host OF after a
// multi-bit shift is undefined, the guest's is not.
func (e *nemit) ofValue(dst int) {
	a := &e.a
	op := e.curFl()
	switch op {
	case uop.FlagNone, uop.FlagSZP:
		a.movx(movzx8, dst, fld(offOF))
		return
	case uop.FlagLogic, uop.FlagLogic8, uop.FlagSar:
		a.movI(rg(dst), 0)
	case uop.FlagShr:
		a.mov(dst, fld(offFlA))
		a.shiftI(shrExt, dst, 31)
	case uop.FlagShl:
		// OF = sign(Res) != CF; cfValue counts the materialization.
		e.cfValue(dst)
		a.mov(hCX, fld(offFlRes))
		a.shiftI(shrExt, hCX, 31)
		a.aluTo(aluXorMR, rg(dst), hCX)
		return
	default:
		// Add/sub families: signed overflow from operands and result.
		sign := uint32(0x80000000)
		if op >= uop.FlagAdd8 {
			sign = 0x80
		}
		a.mov(dst, fld(offFlA))
		a.mov(hCX, fld(offFlB))
		a.aluTo(aluXorMR, rg(hCX), dst) // A^B
		switch op {
		case uop.FlagAdd, uop.FlagAdc, uop.FlagAddKeep, uop.FlagAdd8, uop.FlagAdc8:
			a.unary(notExt, rg(hCX)) // add overflows where the signs agreed
		}
		a.mov(hDX, fld(offFlRes))
		a.aluTo(aluXorMR, rg(hDX), dst) // A^Res
		a.aluTo(aluAndMR, rg(hCX), hDX)
		a.testI(rg(hCX), sign)
		a.movI(rg(dst), 0)
		a.setcc(byte(x86.CCNE), rg(dst))
	}
	a.aluI64(aluAddExt, fld(offFlagsMat), 1)
}

// flagsCond leaves the condition cc as 0 or 1 in dst, mirroring
// VM.ucond against the statically-known flag state. sc is a
// second scratch register that must survive the per-flag sequences
// (R8 or R9). Returns false when the flag state is unknown here and
// the trace must stay on tier-1.
func (e *nemit) flagsCond(cc byte, dst, sc int) bool {
	if e.flOp == flUnknown {
		return false
	}
	a := &e.a
	switch cc &^ 1 { // the odd codes negate their even partner
	case byte(x86.CCO):
		e.ofValue(dst)
	case byte(x86.CCB):
		e.cfValue(dst)
	case byte(x86.CCE):
		e.zfValue(dst)
	case byte(x86.CCBE): // CF || ZF
		e.cfValue(dst)
		a.mov(sc, rg(dst))
		e.zfValue(dst)
		a.aluTo(aluOrMR, rg(dst), sc)
	case byte(x86.CCS):
		e.sfValue(dst)
	case byte(x86.CCP):
		e.pfValue(dst)
	case byte(x86.CCL): // SF != OF
		e.ofValue(dst)
		a.mov(sc, rg(dst))
		e.sfValue(dst)
		a.aluTo(aluXorMR, rg(dst), sc)
	default: // CCLE: ZF || SF != OF
		e.ofValue(dst)
		a.mov(sc, rg(dst))
		e.sfValue(dst)
		a.aluTo(aluXorMR, rg(dst), sc)
		a.mov(sc, rg(dst))
		e.zfValue(dst)
		a.aluTo(aluOrMR, rg(dst), sc)
	}
	if cc&1 != 0 {
		a.aluI(aluXorExt, rg(dst), 1)
	}
	return true
}
