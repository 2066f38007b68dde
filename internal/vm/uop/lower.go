package uop

import "vxa/internal/x86"

// aluOps maps the x86 two-operand ALU opcodes onto AluOp selectors.
var aluOps = map[x86.Op]AluOp{
	x86.ADD: AluAdd, x86.ADC: AluAdc, x86.SUB: AluSub, x86.SBB: AluSbb,
	x86.AND: AluAnd, x86.OR: AluOr, x86.XOR: AluXor,
	x86.CMP: AluCmp, x86.TEST: AluTest,
}

// shOps maps the specialized shift opcodes onto ShOp selectors (rotates
// are not specialized and take the generic path).
var shOps = map[x86.Op]ShOp{x86.SHL: ShShl, x86.SHR: ShShr, x86.SAR: ShSar}

// aluRRKinds and aluRIKinds give the fully specialized kind for the
// hottest 32-bit reg/reg and reg/imm ALU forms; KindNop marks the ops
// (ADC/SBB, which consume CF) that stay on the Sub-dispatched path.
var aluRRKinds = [9]Kind{
	AluAdd: KindAddRR, AluSub: KindSubRR, AluCmp: KindCmpRR,
	AluAnd: KindAndRR, AluOr: KindOrRR, AluXor: KindXorRR, AluTest: KindTestRR,
}

var aluRIKinds = [9]Kind{
	AluAdd: KindAddRI, AluSub: KindSubRI, AluCmp: KindCmpRI,
	AluAnd: KindAndRI, AluOr: KindOrRI, AluXor: KindXorRI, AluTest: KindTestRI,
}

// Lower translates one decoded basic block into its micro-op form,
// appended to dst (which a translator reuses from fragment to fragment;
// nil allocates). insts must be the block's own backing slice: generic
// escapes keep pointers into it, so it must stay immutable for the
// lifetime of the result. addrs[i] is the guest address of insts[i].
// Lowering is 1:1 — uop i is instruction i, each with Cost 1. Only the
// optimizer's fusion pass (opt.go) breaks the 1:1 shape, and it preserves
// the total Cost, which is what the VM's fuel accounting charges.
func Lower(dst []Uop, insts []x86.Inst, addrs []uint32) []Uop {
	n := len(dst)
	dst = append(dst, make([]Uop, len(insts))...)
	for i := range insts {
		lowerInst(&dst[n+i], &insts[i], addrs[i])
	}
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

func lowerInst(u *Uop, inst *x86.Inst, addr uint32) {
	u.EIP = addr
	u.Next = addr + uint32(inst.Len)
	u.Cost = 1 // lowering is 1:1; only the optimizer's fusion changes this
	form := inst.Form()

	// generic routes the instruction to the reference interpreter.
	generic := func(k Kind) {
		u.Kind = k
		u.Inst = inst
	}

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
		case x86.FormMI:
			u.setEA(&inst.Dst)
			if inst.Dst.Size == 4 {
				u.Kind, u.Imm = KindStoreI, uint32(inst.Src.Imm)
			} else {
				u.Kind, u.Imm = KindStoreI8, uint32(inst.Src.Imm)&0xFF
			}
		default:
			generic(KindGeneric)
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
		case inst.Src.Kind == x86.KindMem && inst.Src.Size == 1:
			u.setEA(&inst.Src)
			u.Kind = pick(sx, KindMovsxRM8, KindMovzxRM8)
		case inst.Src.Kind == x86.KindMem && inst.Src.Size == 2:
			u.setEA(&inst.Src)
			u.Kind = pick(sx, KindMovsxRM16, KindMovzxRM16)
		default:
			generic(KindGeneric)
		}

	case x86.LEA:
		u.Kind, u.Dst = KindLea, uint8(inst.Dst.Reg)
		u.setEA(&inst.Src)

	case x86.XCHG:
		if form == x86.FormRR && inst.Dst.Size == 4 {
			u.Kind, u.Dst, u.Src = KindXchgRR, uint8(inst.Dst.Reg), uint8(inst.Src.Reg)
		} else {
			generic(KindGeneric)
		}

	case x86.ADD, x86.ADC, x86.SUB, x86.SBB, x86.AND, x86.OR, x86.XOR, x86.CMP, x86.TEST:
		u.Sub = uint8(aluOps[inst.Op])
		wide := inst.Dst.Size == 4
		switch form {
		case x86.FormRR:
			if wide {
				u.Dst, u.Src = uint8(inst.Dst.Reg), uint8(inst.Src.Reg)
				if k := aluRRKinds[u.Sub]; k != KindNop {
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
				if k := aluRIKinds[u.Sub]; k != KindNop {
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
		case x86.FormMI:
			u.setEA(&inst.Dst)
			if wide {
				u.Kind, u.Imm = KindAluMI, uint32(inst.Src.Imm)
			} else {
				u.Kind, u.Imm = KindAlu8MI, uint32(inst.Src.Imm)&0xFF
			}
		default:
			generic(KindGeneric)
		}

	case x86.INC, x86.DEC:
		if form == x86.FormR && inst.Dst.Size == 4 {
			u.Dst = uint8(inst.Dst.Reg)
			u.Kind = pick(inst.Op == x86.INC, KindIncR, KindDecR)
		} else {
			generic(KindGeneric)
		}

	case x86.NEG:
		if form == x86.FormR && inst.Dst.Size == 4 {
			u.Kind, u.Dst = KindNegR, uint8(inst.Dst.Reg)
		} else {
			generic(KindGeneric)
		}

	case x86.NOT:
		if form == x86.FormR && inst.Dst.Size == 4 {
			u.Kind, u.Dst = KindNotR, uint8(inst.Dst.Reg)
		} else {
			generic(KindGeneric)
		}

	case x86.SHL, x86.SHR, x86.SAR:
		if inst.Dst.Kind != x86.KindReg || inst.Dst.Size != 4 {
			generic(KindGeneric)
			break
		}
		u.Sub = uint8(shOps[inst.Op])
		u.Dst = uint8(inst.Dst.Reg)
		if inst.Src.Kind == x86.KindImm {
			count := uint32(inst.Src.Imm) & 31
			if count == 0 {
				// A zero shift changes neither the value nor any flags.
				*u = Uop{Kind: KindNop, EIP: u.EIP, Next: u.Next, Cost: 1}
				break
			}
			u.Kind, u.Imm = KindShiftRI, count
		} else {
			// The decoder only produces CL as a register count.
			u.Kind = KindShiftRCL
		}

	case x86.IMUL:
		wide := inst.Dst.Size == 4 && inst.Src.Size == 4
		u.Dst = uint8(inst.Dst.Reg)
		switch {
		case !wide:
			generic(KindGeneric)
		case inst.Aux.Kind == x86.KindImm && inst.Src.Kind == x86.KindReg:
			u.Kind, u.Src, u.Imm = KindImulRRI, uint8(inst.Src.Reg), uint32(inst.Aux.Imm)
		case inst.Aux.Kind == x86.KindImm && inst.Src.Kind == x86.KindMem:
			u.Kind, u.Imm = KindImulRMI, uint32(inst.Aux.Imm)
			u.setEA(&inst.Src)
		case inst.Src.Kind == x86.KindReg:
			u.Kind, u.Src = KindImulRR, uint8(inst.Src.Reg)
		case inst.Src.Kind == x86.KindMem:
			u.Kind = KindImulRM
			u.setEA(&inst.Src)
		default:
			generic(KindGeneric)
		}

	case x86.MUL1, x86.IMUL1:
		if inst.Dst.Size != 4 {
			generic(KindGeneric)
			break
		}
		if inst.Op == x86.IMUL1 {
			u.Sub = 1
		}
		if inst.Dst.Kind == x86.KindReg {
			u.Kind, u.Src = KindMulR, uint8(inst.Dst.Reg)
		} else {
			u.Kind = KindMulM
			u.setEA(&inst.Dst)
		}

	case x86.DIV, x86.IDIV:
		if inst.Dst.Size != 4 {
			generic(KindGeneric)
			break
		}
		if inst.Op == x86.IDIV {
			u.Sub = 1
		}
		if inst.Dst.Kind == x86.KindReg {
			u.Kind, u.Src = KindDivR, uint8(inst.Dst.Reg)
		} else {
			u.Kind = KindDivM
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
		generic(KindString)

	default:
		generic(KindGeneric)
	}
}

func pick(cond bool, a, b Kind) Kind {
	if cond {
		return a
	}
	return b
}
