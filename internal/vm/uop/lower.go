package uop

import "vxa/internal/x86"

// aluOps maps the x86 two-operand ALU opcodes onto AluOp selectors. It
// and the two tables after it are indexed by x86.Op: a translator looks
// one up for nearly every instruction it lowers.
var aluOps = [256]AluOp{
	x86.ADD: AluAdd, x86.ADC: AluAdc, x86.SUB: AluSub, x86.SBB: AluSbb,
	x86.AND: AluAnd, x86.OR: AluOr, x86.XOR: AluXor,
	x86.CMP: AluCmp, x86.TEST: AluTest,
}

// shOps maps the shift opcodes onto ShOp selectors.
var shOps = [256]ShOp{x86.SHL: ShShl, x86.SHR: ShShr, x86.SAR: ShSar}

// rmwForms are the kinds of the one-operand read-modify-writes by
// operand: dword register, byte register, byte memory, dword memory. A
// dword register shift is KindShiftRI or, by CL, KindShiftRCL.
var rmwForms = [256][4]Kind{
	x86.INC: {KindIncR, KindIncDec8R, KindIncDec8M, KindIncDecM},
	x86.DEC: {KindDecR, KindIncDec8R, KindIncDec8M, KindIncDecM},
	x86.NEG: {KindNegR, KindNeg8R, KindNeg8M, KindNegM},
	x86.NOT: {KindNotR, KindNot8R, KindNot8M, KindNotM},
	x86.SHL: {KindShiftRI, KindShift8R, KindShift8M, KindShiftM},
	x86.SHR: {KindShiftRI, KindShift8R, KindShift8M, KindShiftM},
	x86.SAR: {KindShiftRI, KindShift8R, KindShift8M, KindShiftM},
	x86.ROL: {KindRotR, KindRot8R, KindRot8M, KindRotM},
	x86.ROR: {KindRotR, KindRot8R, KindRot8M, KindRotM},
}

// specialized[op][imm] is the fully specialized kind of a 32-bit op with
// a register (0) or immediate (1) second operand; KindNop marks the ops
// (ADC/SBB, which consume CF) that stay on the Sub-dispatched path.
var specialized = func() (s [AluTest + 1][2]Kind) {
	for k, r := range &Kinds {
		if r.Spec && r.Def != 0 {
			i := 0
			if r.Imm {
				i = 1
			}
			s[r.Alu][i] = Kind(k)
		}
	}
	return s
}()

// Lower appends the micro-op form of inst, the guest instruction at addr,
// to dst (which a translator reuses from fragment to fragment; nil
// allocates) and returns the extended slice. Lowering is total and 1:1:
// every instruction x86.Decode returns becomes one micro-op, with Cost 1,
// that refers to nothing of inst. Only the optimizer's fusion pass
// (opt.go) breaks the 1:1 shape, and it preserves the total Cost, which
// is what the VM's fuel accounting charges.
func Lower(dst []Uop, inst *x86.Inst, addr uint32) []Uop {
	dst = append(dst, Uop{})
	lowerInst(&dst[len(dst)-1], inst, addr)
	return dst
}

// setEA copies a memory operand's pre-resolved address components,
// mapping absent registers onto the always-zero RegZero slot so the
// executor's address arithmetic is branchless.
func (u *Uop) setEA(a *x86.Arg) {
	u.Base, u.Idx, u.Scale = RegZero, RegZero, 0
	if a.Base != x86.NoReg {
		u.Base = uint8(a.Base)
	}
	if a.Index != x86.NoReg {
		u.Idx, u.Scale = uint8(a.Index), a.Scale
	}
	u.Disp = uint32(a.Disp)
}

// setDst8 and setSrc8 pre-resolve byte register operands to their
// storage slot.
func (u *Uop) setDst8(r x86.Reg) {
	store, sh := x86.Reg8Slot(r)
	u.Dst, u.Dsh = uint8(store), sh
}

func (u *Uop) setSrc8(r x86.Reg) {
	store, sh := x86.Reg8Slot(r)
	u.Src, u.Ssh = uint8(store), sh
}

// setRMW lowers the one-operand read-modify-write of a to its kind among
// forms (see rmwForms) and sets the operand's fields.
func (u *Uop) setRMW(a *x86.Arg, forms *[4]Kind) {
	switch {
	case a.Kind == x86.KindReg && a.Size == 4:
		u.Kind, u.Dst = forms[0], uint8(a.Reg)
	case a.Kind == x86.KindReg:
		u.Kind = forms[1]
		u.setDst8(a.Reg)
	case a.Size == 1:
		u.Kind = forms[2]
		u.setEA(a)
	default:
		u.Kind = forms[3]
		u.setEA(a)
	}
}

func lowerInst(u *Uop, inst *x86.Inst, addr uint32) {
	u.EIP = addr
	u.Next = addr + uint32(inst.Len)
	u.Cost = 1 // lowering is 1:1; only the optimizer's fusion changes this
	form := inst.Form()

	switch inst.Op {
	case x86.NOP:
		u.Kind = KindNop

	case x86.MOV:
		switch form {
		case x86.FormRR:
			if inst.Dst.Size == 4 {
				u.Kind, u.Dst, u.Src = KindMovRR, uint8(inst.Dst.Reg), uint8(inst.Src.Reg)
			} else {
				u.Kind = KindMovRR8
				u.setDst8(inst.Dst.Reg)
				u.setSrc8(inst.Src.Reg)
			}
		case x86.FormRI:
			if inst.Dst.Size == 4 {
				u.Kind, u.Dst, u.Imm = KindMovRI, uint8(inst.Dst.Reg), uint32(inst.Src.Imm)
			} else {
				u.Kind = KindMovRI8
				u.setDst8(inst.Dst.Reg)
				u.Imm = uint32(inst.Src.Imm) & 0xFF
			}
		case x86.FormRM:
			u.setEA(&inst.Src)
			if inst.Dst.Size == 4 {
				u.Kind, u.Dst = KindLoad, uint8(inst.Dst.Reg)
			} else {
				u.Kind = KindLoad8
				u.setDst8(inst.Dst.Reg)
			}
		case x86.FormMR:
			u.setEA(&inst.Dst)
			if inst.Dst.Size == 4 {
				u.Kind, u.Src = KindStore, uint8(inst.Src.Reg)
			} else {
				u.Kind = KindStore8
				u.setSrc8(inst.Src.Reg)
			}
		default: // FormMI
			u.setEA(&inst.Dst)
			if inst.Dst.Size == 4 {
				u.Kind, u.Imm = KindStoreI, uint32(inst.Src.Imm)
			} else {
				u.Kind, u.Imm = KindStoreI8, uint32(inst.Src.Imm)&0xFF
			}
		}

	case x86.MOVZX, x86.MOVSX:
		sx := inst.Op == x86.MOVSX
		u.Dst = uint8(inst.Dst.Reg)
		switch {
		case inst.Src.Kind == x86.KindReg && inst.Src.Size == 1:
			u.setSrc8(inst.Src.Reg)
			u.Kind = pick(sx, KindMovsxRR8, KindMovzxRR8)
		case inst.Src.Kind == x86.KindReg && inst.Src.Size == 2:
			u.Src = uint8(inst.Src.Reg)
			u.Kind = pick(sx, KindMovsxRR16, KindMovzxRR16)
		case inst.Src.Size == 1:
			u.setEA(&inst.Src)
			u.Kind = pick(sx, KindMovsxRM8, KindMovzxRM8)
		default: // a word of memory
			u.setEA(&inst.Src)
			u.Kind = pick(sx, KindMovsxRM16, KindMovzxRM16)
		}

	case x86.LEA:
		u.Kind, u.Dst = KindLea, uint8(inst.Dst.Reg)
		u.setEA(&inst.Src)

	case x86.XCHG:
		if form == x86.FormRR {
			u.Kind, u.Dst, u.Src = KindXchgRR, uint8(inst.Dst.Reg), uint8(inst.Src.Reg)
		} else {
			u.Kind, u.Src = KindXchgMR, uint8(inst.Src.Reg)
			u.setEA(&inst.Dst)
		}

	case x86.ADD, x86.ADC, x86.SUB, x86.SBB, x86.AND, x86.OR, x86.XOR, x86.CMP, x86.TEST:
		u.Sub = uint8(aluOps[inst.Op])
		wide := inst.Dst.Size == 4
		switch form {
		case x86.FormRR:
			if wide {
				u.Dst, u.Src = uint8(inst.Dst.Reg), uint8(inst.Src.Reg)
				if k := specialized[u.Sub][0]; k != KindNop {
					u.Kind = k
				} else {
					u.Kind = KindAluRR
				}
			} else {
				u.Kind = KindAlu8RR
				u.setDst8(inst.Dst.Reg)
				u.setSrc8(inst.Src.Reg)
			}
		case x86.FormRI:
			if wide {
				u.Dst, u.Imm = uint8(inst.Dst.Reg), uint32(inst.Src.Imm)
				if k := specialized[u.Sub][1]; k != KindNop {
					u.Kind = k
				} else {
					u.Kind = KindAluRI
				}
			} else {
				u.Kind = KindAlu8RI
				u.setDst8(inst.Dst.Reg)
				u.Imm = uint32(inst.Src.Imm) & 0xFF
			}
		case x86.FormRM:
			u.setEA(&inst.Src)
			if wide {
				u.Kind, u.Dst = KindAluRM, uint8(inst.Dst.Reg)
			} else {
				u.Kind = KindAlu8RM
				u.setDst8(inst.Dst.Reg)
			}
		case x86.FormMR:
			u.setEA(&inst.Dst)
			if wide {
				u.Kind, u.Src = KindAluMR, uint8(inst.Src.Reg)
			} else {
				u.Kind = KindAlu8MR
				u.setSrc8(inst.Src.Reg)
			}
		default: // FormMI
			u.setEA(&inst.Dst)
			if wide {
				u.Kind, u.Imm = KindAluMI, uint32(inst.Src.Imm)
			} else {
				u.Kind, u.Imm = KindAlu8MI, uint32(inst.Src.Imm)&0xFF
			}
		}

	case x86.INC, x86.DEC, x86.NEG, x86.NOT:
		u.setRMW(&inst.Dst, &rmwForms[inst.Op])
		if inst.Op == x86.DEC && u.Kind != KindDecR {
			u.Sub = 1 // the byte and memory forms share INC's kinds
		}

	case x86.SHL, x86.SHR, x86.SAR, x86.ROL, x86.ROR:
		count := uint32(inst.Src.Imm) & 31
		byCL := inst.Src.Kind == x86.KindReg // the decoder's only register count is CL
		if inst.Dst.Kind == x86.KindReg && !byCL && count == 0 {
			// A zero shift changes neither the value nor any flags.
			u.Kind = KindNop
			break
		}
		u.setRMW(&inst.Dst, &rmwForms[inst.Op])
		u.Sub, u.Imm = uint8(shOps[inst.Op]), count
		if inst.Op == x86.ROR {
			u.Sub = 1
		}
		if u.Kind == KindShiftRI {
			u.Kind = pick(byCL, KindShiftRCL, KindShiftRI)
		} else {
			u.Aux = RegZero // the tier-1-only forms count Imm plus register Aux
			if byCL {
				u.Aux = uint8(x86.ECX)
			}
		}

	case x86.IMUL:
		u.Dst = uint8(inst.Dst.Reg)
		switch {
		case inst.Aux.Kind == x86.KindImm && inst.Src.Kind == x86.KindReg:
			u.Kind, u.Src, u.Imm = KindImulRRI, uint8(inst.Src.Reg), uint32(inst.Aux.Imm)
		case inst.Aux.Kind == x86.KindImm:
			u.Kind, u.Imm = KindImulRMI, uint32(inst.Aux.Imm)
			u.setEA(&inst.Src)
		case inst.Src.Kind == x86.KindReg:
			u.Kind, u.Src = KindImulRR, uint8(inst.Src.Reg)
		default:
			u.Kind = KindImulRM
			u.setEA(&inst.Src)
		}

	case x86.MUL1, x86.IMUL1, x86.DIV, x86.IDIV:
		if inst.Op == x86.IMUL1 || inst.Op == x86.IDIV {
			u.Sub = 1
		}
		mul := inst.Op == x86.MUL1 || inst.Op == x86.IMUL1
		switch {
		case inst.Dst.Kind == x86.KindReg && inst.Dst.Size == 1:
			u.Kind = pick(mul, KindMul8R, KindDiv8R)
			u.setSrc8(inst.Dst.Reg)
		case inst.Dst.Kind == x86.KindReg:
			u.Kind, u.Src = pick(mul, KindMulR, KindDivR), uint8(inst.Dst.Reg)
		case inst.Dst.Size == 1:
			u.Kind = pick(mul, KindMul8M, KindDiv8M)
			u.setEA(&inst.Dst)
		default:
			u.Kind = pick(mul, KindMulM, KindDivM)
			u.setEA(&inst.Dst)
		}

	case x86.CDQ:
		u.Kind = KindCdq

	case x86.PUSH:
		switch inst.Dst.Kind {
		case x86.KindReg:
			u.Kind, u.Src = KindPushR, uint8(inst.Dst.Reg)
		case x86.KindImm:
			u.Kind, u.Imm = KindPushI, uint32(inst.Dst.Imm)
		default:
			u.Kind = KindPushM
			u.setEA(&inst.Dst)
		}

	case x86.POP:
		if inst.Dst.Kind == x86.KindReg {
			u.Kind, u.Dst = KindPopR, uint8(inst.Dst.Reg)
		} else {
			u.Kind = KindPopM
			u.setEA(&inst.Dst)
		}

	case x86.SETCC:
		u.Sub = uint8(inst.CC)
		if inst.Dst.Kind == x86.KindReg {
			u.Kind = KindSetccR8
			u.setDst8(inst.Dst.Reg)
		} else {
			u.Kind = KindSetccM8
			u.setEA(&inst.Dst)
		}

	case x86.JMP:
		u.Kind, u.Target = KindJmp, u.Next+uint32(inst.Rel)

	case x86.JCC:
		u.Kind, u.Sub, u.Target = KindJcc, uint8(inst.CC), u.Next+uint32(inst.Rel)

	case x86.CALL:
		u.Kind, u.Target = KindCall, u.Next+uint32(inst.Rel)

	case x86.CALLM:
		if inst.Dst.Kind == x86.KindReg {
			u.Kind, u.Src = KindCallR, uint8(inst.Dst.Reg)
		} else {
			u.Kind = KindCallM
			u.setEA(&inst.Dst)
		}

	case x86.RET:
		u.Kind = KindRet
		if inst.Dst.Kind == x86.KindImm {
			u.Imm = uint32(inst.Dst.Imm)
		}

	case x86.JMPM:
		if inst.Dst.Kind == x86.KindReg {
			u.Kind, u.Src = KindJmpR, uint8(inst.Dst.Reg)
		} else {
			u.Kind = KindJmpM
			u.setEA(&inst.Dst)
		}

	case x86.INT:
		u.Kind, u.Imm = KindInt, uint32(inst.Dst.Imm)

	case x86.HLT:
		u.Kind = KindHlt

	case x86.UD2:
		u.Kind = KindUd2

	case x86.MOVSB, x86.MOVSD, x86.STOSB, x86.STOSD:
		op := StrOp(0)
		if inst.Op == x86.MOVSD || inst.Op == x86.STOSD {
			op |= StrDword
		}
		if inst.Op == x86.STOSB || inst.Op == x86.STOSD {
			op |= StrStos
		}
		if inst.Rep {
			op |= StrRep
		}
		u.Kind, u.Sub = KindStr, uint8(op)

	default:
		panic("uop: Lower given " + inst.Op.String() + ", which x86.Decode never returns")
	}
}

func pick(cond bool, a, b Kind) Kind {
	if cond {
		return a
	}
	return b
}
