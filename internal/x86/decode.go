package x86

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Decode errors.
var (
	// ErrTruncated reports that the byte stream ended inside an instruction.
	ErrTruncated = errors.New("x86: truncated instruction")
	// ErrIllegal reports an instruction outside the VXA subset.
	ErrIllegal = errors.New("x86: illegal or unsupported instruction")
)

// opcodeError is the ErrIllegal of an opcode outside the subset. Decode
// returns a pointer into opcodeErrs, so a rejected opcode allocates
// nothing; the message is formatted only when asked for.
type opcodeError struct {
	escaped bool // a two-byte opcode, behind 0x0F
	op      byte
}

func (e *opcodeError) Error() string {
	if e.escaped {
		return fmt.Sprintf("%v: opcode 0x0f 0x%02x", ErrIllegal, e.op)
	}
	return fmt.Sprintf("%v: opcode 0x%02x", ErrIllegal, e.op)
}

func (e *opcodeError) Unwrap() error { return ErrIllegal }

// opcodeErrs holds the one-byte opcodes' errors, then the two-byte ones'.
var opcodeErrs = func() (errs [512]opcodeError) {
	for i := range errs {
		errs[i] = opcodeError{escaped: i >= 256, op: byte(i)}
	}
	return errs
}()

// decoder reads one instruction from b. A read past the end of b yields
// zeros and still advances pos, so the decode runs on to an answer
// without an error check per byte; Decode then reports ErrTruncated
// whenever pos has passed len(b), which is exactly when a decoder that
// stopped at its first short read would have: every illegal-instruction
// verdict is reached only along reads that came first, and returns at
// once.
type decoder struct {
	b   []byte
	pos int
}

func (d *decoder) u8() uint8 {
	p := d.pos
	d.pos++
	if p < len(d.b) {
		return d.b[p]
	}
	return 0
}

func (d *decoder) s8() int32 { return int32(int8(d.u8())) }

func (d *decoder) u16() uint16 {
	p := d.pos
	d.pos += 2
	if p+2 <= len(d.b) {
		return binary.LittleEndian.Uint16(d.b[p:])
	}
	return 0
}

func (d *decoder) s32() int32 {
	p := d.pos
	d.pos += 4
	if p+4 <= len(d.b) {
		return int32(binary.LittleEndian.Uint32(d.b[p:]))
	}
	return 0
}

// reset zeroes *i. The symbols, which Decode never sets, are cleared only
// when there is one: zeroing a string is a pointer write, which the
// garbage collector may have to be told of.
func (i *Inst) reset() {
	if i.Sym != "" || i.Dst.Sym != "" || i.Src.Sym != "" || i.Aux.Sym != "" {
		*i = Inst{}
		return
	}
	i.Op, i.CC, i.Rel, i.Rep, i.Len = 0, 0, 0, false, 0
	i.Dst.reset()
	i.Src.reset()
	i.Aux.reset()
}

// reset zeroes every field of *a but Sym.
func (a *Arg) reset() {
	a.Kind, a.Reg, a.Base, a.Index, a.Scale, a.Disp, a.Imm, a.Size = 0, 0, 0, 0, 0, 0, 0, 0
}

func (a *Arg) setReg(r Reg, size uint8) { a.Kind, a.Reg, a.Size = KindReg, r, size }

func (a *Arg) setImm(v int32, size uint8) { a.Kind, a.Imm, a.Size = KindImm, v, size }

// modRM decodes a ModRM byte, and the SIB byte and displacement after it
// if any, into rm, an operand of size bytes, and returns the ModRM's reg
// field.
func (d *decoder) modRM(rm *Arg, size uint8) Reg {
	m := d.u8()
	mod, reg, rmBits := m>>6, Reg(m>>3)&7, m&7
	if mod == 3 {
		rm.setReg(Reg(rmBits), size)
		return reg
	}
	rm.Kind, rm.Base, rm.Index, rm.Scale, rm.Size = KindMem, NoReg, NoReg, 1, size
	switch {
	case rmBits == 4: // SIB follows
		sib := d.u8()
		if index := (sib >> 3) & 7; index != 4 { // index=ESP means "no index"
			rm.Index, rm.Scale = Reg(index), 1<<(sib>>6)
		}
		if base := sib & 7; base == 5 && mod == 0 {
			rm.Disp = d.s32()
		} else {
			rm.Base = Reg(base)
		}
	case rmBits == 5 && mod == 0: // absolute disp32
		rm.Disp = d.s32()
	default:
		rm.Base = Reg(rmBits)
	}
	switch mod {
	case 1:
		rm.Disp += d.s8()
	case 2:
		rm.Disp += d.s32()
	}
	return reg
}

// aluOps maps the 0x00-0x3F opcode block's /r group to operations.
var aluOps = [8]Op{ADD, OR, ADC, SBB, AND, SUB, XOR, CMP}

// grp2Ops maps shift-group ModRM reg fields to operations.
var grp2Ops = [8]Op{ROL, ROR, BAD, BAD, SHL, SHR, BAD, SAR}

// grp3Ops maps group 3's ModRM reg fields 2-7 to operations (0 is TEST
// with an immediate, 1 is illegal).
var grp3Ops = [8]Op{TEST, BAD, NOT, NEG, MUL1, IMUL1, DIV, IDIV}

// grp5Ops maps group 5's ModRM reg fields to operations; group 4 (0xFE)
// takes its first two.
var grp5Ops = [8]Op{INC, DEC, CALLM, BAD, JMPM, BAD, PUSH, BAD}

// Decode decodes the instruction at the start of b into *inst, which it
// overwrites whole. It returns ErrIllegal for instructions outside the
// VXA subset and ErrTruncated if b ends mid-instruction, leaving *inst
// unspecified. On success, inst.Len gives the encoded length, at most
// 13 bytes (a prefix, two opcode bytes, ModRM, SIB, a displacement and
// an immediate), within the architectural limit of 15.
func Decode(b []byte, inst *Inst) error {
	inst.reset()
	d := decoder{b: b}
	err := d.inst(inst)
	if d.pos > len(b) {
		return ErrTruncated
	}
	if err != nil {
		return err
	}
	inst.Len = uint8(d.pos)
	return nil
}

func (d *decoder) inst(inst *Inst) error {
	op := d.u8()
	rep := op == 0xF3 // REP prefix
	if rep {
		op = d.u8()
	}

	// The regular ALU block: 0x00-0x3D, op = block>>3, form = op&7.
	if op < 0x40 && (op&7) <= 5 {
		inst.Op = aluOps[op>>3]
		switch op & 7 {
		case 0: // op r/m8, r8
			inst.Src.setReg(d.modRM(&inst.Dst, 1), 1)
		case 1: // op r/m32, r32
			inst.Src.setReg(d.modRM(&inst.Dst, 4), 4)
		case 2: // op r8, r/m8
			inst.Dst.setReg(d.modRM(&inst.Src, 1), 1)
		case 3: // op r32, r/m32
			inst.Dst.setReg(d.modRM(&inst.Src, 4), 4)
		case 4: // op al, imm8
			inst.Dst.setReg(EAX, 1)
			inst.Src.setImm(d.s8(), 1)
		case 5: // op eax, imm32
			inst.Dst.setReg(EAX, 4)
			inst.Src.setImm(d.s32(), 4)
		}
		return nil
	}

	switch op >> 3 {
	case 0x40 >> 3:
		inst.Op = INC
		inst.Dst.setReg(Reg(op&7), 4)
		return nil
	case 0x48 >> 3:
		inst.Op = DEC
		inst.Dst.setReg(Reg(op&7), 4)
		return nil
	case 0x50 >> 3:
		inst.Op = PUSH
		inst.Dst.setReg(Reg(op&7), 4)
		return nil
	case 0x58 >> 3:
		inst.Op = POP
		inst.Dst.setReg(Reg(op&7), 4)
		return nil
	case 0x70 >> 3, 0x78 >> 3:
		inst.Op, inst.CC, inst.Rel = JCC, CC(op-0x70), d.s8()
		return nil
	case 0xB0 >> 3:
		inst.Op = MOV
		inst.Dst.setReg(Reg(op&7), 1)
		inst.Src.setImm(d.s8(), 1)
		return nil
	case 0xB8 >> 3:
		inst.Op = MOV
		inst.Dst.setReg(Reg(op&7), 4)
		inst.Src.setImm(d.s32(), 4)
		return nil
	}

	switch op {
	case 0x68: // push imm32
		inst.Op = PUSH
		inst.Dst.setImm(d.s32(), 4)
	case 0x6A: // push imm8 (sign-extended)
		inst.Op = PUSH
		inst.Dst.setImm(d.s8(), 4)
	case 0x69: // imul r32, r/m32, imm32
		inst.Op = IMUL
		inst.Dst.setReg(d.modRM(&inst.Src, 4), 4)
		inst.Aux.setImm(d.s32(), 4)
	case 0x6B: // imul r32, r/m32, imm8
		inst.Op = IMUL
		inst.Dst.setReg(d.modRM(&inst.Src, 4), 4)
		inst.Aux.setImm(d.s8(), 4)
	case 0x80, 0x81, 0x83: // group 1: ALU r/m, imm
		size := uint8(4)
		if op == 0x80 {
			size = 1
		}
		inst.Op = aluOps[d.modRM(&inst.Dst, size)]
		if op == 0x81 {
			inst.Src.setImm(d.s32(), size)
		} else {
			inst.Src.setImm(d.s8(), size)
		}
	case 0x84: // test r/m8, r8
		inst.Op = TEST
		inst.Src.setReg(d.modRM(&inst.Dst, 1), 1)
	case 0x85: // test r/m32, r32
		inst.Op = TEST
		inst.Src.setReg(d.modRM(&inst.Dst, 4), 4)
	case 0x87: // xchg r/m32, r32
		inst.Op = XCHG
		inst.Src.setReg(d.modRM(&inst.Dst, 4), 4)
	case 0x88: // mov r/m8, r8
		inst.Op = MOV
		inst.Src.setReg(d.modRM(&inst.Dst, 1), 1)
	case 0x89: // mov r/m32, r32
		inst.Op = MOV
		inst.Src.setReg(d.modRM(&inst.Dst, 4), 4)
	case 0x8A: // mov r8, r/m8
		inst.Op = MOV
		inst.Dst.setReg(d.modRM(&inst.Src, 1), 1)
	case 0x8B: // mov r32, r/m32
		inst.Op = MOV
		inst.Dst.setReg(d.modRM(&inst.Src, 4), 4)
	case 0x8D: // lea r32, m
		inst.Op = LEA
		inst.Dst.setReg(d.modRM(&inst.Src, 4), 4)
		if inst.Src.Kind != KindMem {
			return ErrIllegal
		}
	case 0x90:
		inst.Op = NOP
	case 0x99:
		inst.Op = CDQ
	case 0xA4:
		inst.Op, inst.Rep = MOVSB, rep
	case 0xA5:
		inst.Op, inst.Rep = MOVSD, rep
	case 0xAA:
		inst.Op, inst.Rep = STOSB, rep
	case 0xAB:
		inst.Op, inst.Rep = STOSD, rep
	case 0xC0, 0xC1, 0xD0, 0xD1, 0xD2, 0xD3: // shift groups
		size := uint8(4)
		if op&1 == 0 {
			size = 1
		}
		inst.Op = grp2Ops[d.modRM(&inst.Dst, size)]
		if inst.Op == BAD {
			return ErrIllegal
		}
		switch op {
		case 0xC0, 0xC1:
			inst.Src.setImm(d.s8()&31, 1)
		case 0xD0, 0xD1:
			inst.Src.setImm(1, 1)
		default: // 0xD2, 0xD3: shift by CL
			inst.Src.setReg(ECX, 1)
		}
	case 0xC2: // ret imm16
		inst.Op = RET
		inst.Dst.setImm(int32(d.u16()), 4)
	case 0xC3:
		inst.Op = RET
	case 0xC6, 0xC7: // mov r/m, imm
		size := uint8(4)
		if op == 0xC6 {
			size = 1
		}
		inst.Op = MOV
		if d.modRM(&inst.Dst, size) != 0 {
			return ErrIllegal
		}
		if size == 1 {
			inst.Src.setImm(d.s8(), 1)
		} else {
			inst.Src.setImm(d.s32(), 4)
		}
	case 0xCD: // int imm8
		inst.Op = INT
		inst.Dst.setImm(d.s8()&0xFF, 1)
	case 0xE8: // call rel32
		inst.Op, inst.Rel = CALL, d.s32()
	case 0xE9: // jmp rel32
		inst.Op, inst.Rel = JMP, d.s32()
	case 0xEB: // jmp rel8
		inst.Op, inst.Rel = JMP, d.s8()
	case 0xF4:
		inst.Op = HLT
	case 0xF6, 0xF7: // group 3
		size := uint8(4)
		if op == 0xF6 {
			size = 1
		}
		inst.Op = grp3Ops[d.modRM(&inst.Dst, size)]
		switch inst.Op {
		case BAD:
			return ErrIllegal
		case TEST:
			if size == 4 {
				inst.Src.setImm(d.s32(), 4)
			} else {
				inst.Src.setImm(d.s8(), 1)
			}
		}
	case 0xFE, 0xFF: // group 4: inc/dec r/m8; group 5
		size := uint8(4)
		if op == 0xFE {
			size = 1
		}
		reg := d.modRM(&inst.Dst, size)
		inst.Op = grp5Ops[reg]
		if inst.Op == BAD || op == 0xFE && reg > 1 {
			return ErrIllegal
		}
	case 0x0F:
		return d.inst0F(inst)
	default:
		return &opcodeErrs[op]
	}
	return nil
}

func (d *decoder) inst0F(inst *Inst) error {
	op := d.u8()
	switch op >> 4 {
	case 0x8: // jcc rel32
		inst.Op, inst.CC, inst.Rel = JCC, CC(op-0x80), d.s32()
		return nil
	case 0x9: // setcc r/m8
		inst.Op, inst.CC = SETCC, CC(op-0x90)
		d.modRM(&inst.Dst, 1)
		return nil
	}
	switch op {
	case 0x0B:
		inst.Op = UD2
	case 0xAF: // imul r32, r/m32
		inst.Op = IMUL
		inst.Dst.setReg(d.modRM(&inst.Src, 4), 4)
	case 0xB6, 0xB7, 0xBE, 0xBF: // movzx/movsx
		size := uint8(1)
		if op&1 != 0 {
			size = 2
		}
		inst.Op = MOVZX
		if op >= 0xBE {
			inst.Op = MOVSX
		}
		inst.Dst.setReg(d.modRM(&inst.Src, size), 4)
	default:
		return &opcodeErrs[256+int(op)]
	}
	return nil
}
