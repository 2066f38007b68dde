package vm

import (
	"errors"
	"math/bits"

	"vxa/internal/x86"
)

// This file is the reference interpreter, the differential tests' oracle:
// it executes one decoded x86.Inst at a time on eager flags, with no
// translation, no micro-ops and no shared code with the engine beyond the
// VM's state, the sandbox predicates (readable, writable, inText), the
// syscall gate and cond. The engine never calls it.

// load/store helpers — all of the oracle's guest accesses funnel through
// these, which is where it enforces the sandbox.

func (v *VM) load(addr, size uint32) (uint32, error) {
	if !v.readable(addr, size) {
		return 0, &Trap{Kind: TrapMemory, EIP: v.eip, Addr: addr}
	}
	m := v.mem
	switch size {
	case 1:
		return uint32(m[addr]), nil
	case 2:
		return uint32(m[addr]) | uint32(m[addr+1])<<8, nil
	default:
		return uint32(m[addr]) | uint32(m[addr+1])<<8 |
			uint32(m[addr+2])<<16 | uint32(m[addr+3])<<24, nil
	}
}

func (v *VM) store(addr, size, val uint32) error {
	if !v.writable(addr, size) {
		k := TrapMemory
		if v.readable(addr, size) {
			k = TrapWrite
		}
		return &Trap{Kind: k, EIP: v.eip, Addr: addr}
	}
	m := v.mem
	switch size {
	case 1:
		m[addr] = byte(val)
	case 2:
		m[addr] = byte(val)
		m[addr+1] = byte(val >> 8)
	default:
		m[addr] = byte(val)
		m[addr+1] = byte(val >> 8)
		m[addr+2] = byte(val >> 16)
		m[addr+3] = byte(val >> 24)
	}
	return nil
}

// refFetch decodes the instruction at addr for the oracle. Only the
// read-only text is fetched from: an instruction that starts outside it,
// or runs past its end, is a memory fault at addr.
func (v *VM) refFetch(addr uint32) (x86.Inst, error) {
	var code []byte
	if inText(addr, addr+1, v.roLimit) {
		code = v.mem[addr:v.roLimit]
	}
	var inst x86.Inst
	err := x86.Decode(code[:min(len(code), 15)], &inst)
	switch {
	case err == nil:
		return inst, nil
	case errors.Is(err, x86.ErrTruncated) && len(code) <= 15:
		return x86.Inst{}, &Trap{Kind: TrapMemory, EIP: addr, Addr: addr, Msg: "fetch outside text"}
	}
	return x86.Inst{}, &Trap{Kind: TrapIllegal, EIP: addr, Msg: err.Error()}
}

// effAddr computes the effective address of a memory operand.
func (v *VM) effAddr(a *x86.Arg) uint32 {
	addr := uint32(a.Disp)
	if a.Base != x86.NoReg {
		addr += v.m.Regs[a.Base]
	}
	if a.Index != x86.NoReg {
		addr += v.m.Regs[a.Index] * uint32(a.Scale)
	}
	return addr
}

// readReg reads a register operand of the given width, zero-extended.
func (v *VM) readReg(r x86.Reg, size uint8) uint32 {
	if size == 1 {
		if r < 4 {
			return v.m.Regs[r] & 0xFF
		}
		return (v.m.Regs[r-4] >> 8) & 0xFF // AH/CH/DH/BH
	}
	return v.m.Regs[r]
}

func (v *VM) writeReg(r x86.Reg, size uint8, val uint32) {
	if size == 1 {
		if r < 4 {
			v.m.Regs[r] = v.m.Regs[r]&^uint32(0xFF) | val&0xFF
		} else {
			v.m.Regs[r-4] = v.m.Regs[r-4]&^uint32(0xFF00) | (val&0xFF)<<8
		}
		return
	}
	v.m.Regs[r] = val
}

// readArg reads an operand value, zero-extended to 32 bits.
func (v *VM) readArg(a *x86.Arg) (uint32, error) {
	switch a.Kind {
	case x86.KindReg:
		return v.readReg(a.Reg, a.Size), nil
	case x86.KindImm:
		if a.Size == 1 {
			return uint32(a.Imm) & 0xFF, nil
		}
		return uint32(a.Imm), nil
	case x86.KindMem:
		return v.load(v.effAddr(a), uint32(a.Size))
	}
	return 0, &Trap{Kind: TrapIllegal, EIP: v.eip, Msg: "bad operand"}
}

func (v *VM) writeArg(a *x86.Arg, val uint32) error {
	switch a.Kind {
	case x86.KindReg:
		v.writeReg(a.Reg, a.Size, val)
		return nil
	case x86.KindMem:
		return v.store(v.effAddr(a), uint32(a.Size), val)
	}
	return &Trap{Kind: TrapIllegal, EIP: v.eip, Msg: "bad store operand"}
}

// widthMask and signBit return the value mask and sign bit for an operand
// width in bytes.
func widthMask(size uint8) uint32 {
	if size == 1 {
		return 0xFF
	}
	return 0xFFFFFFFF
}

func signBit(size uint8) uint32 {
	if size == 1 {
		return 0x80
	}
	return 0x80000000
}

// setSZP sets the sign, zero and parity flags from a result of the given
// width. PF considers only the low byte, as on hardware.
func (v *VM) setSZP(res uint32, size uint8) {
	res &= widthMask(size)
	v.m.ZF = res == 0
	v.m.SF = res&signBit(size) != 0
	v.m.PF = bits.OnesCount8(uint8(res))%2 == 0
}

func (v *VM) setLogicFlags(res uint32, size uint8) {
	v.m.CF, v.m.OF = false, false
	v.setSZP(res, size)
}

// addFlags computes a+b+carry of the given width and sets CF/OF/SZP.
func (v *VM) addFlags(a, b uint32, carry uint32, size uint8) uint32 {
	mask := widthMask(size)
	a &= mask
	b &= mask
	wide := uint64(a) + uint64(b) + uint64(carry)
	res := uint32(wide) & mask
	v.m.CF = wide > uint64(mask)
	v.m.OF = (^(a ^ b) & (a ^ res) & signBit(size)) != 0
	v.setSZP(res, size)
	return res
}

// subFlags computes a-b-borrow of the given width and sets CF/OF/SZP.
func (v *VM) subFlags(a, b uint32, borrow uint32, size uint8) uint32 {
	mask := widthMask(size)
	a &= mask
	b &= mask
	res := (a - b - borrow) & mask
	v.m.CF = uint64(a) < uint64(b)+uint64(borrow)
	v.m.OF = ((a ^ b) & (a ^ res) & signBit(size)) != 0
	v.setSZP(res, size)
	return res
}

func (v *VM) push32(val uint32) error {
	sp := v.m.Regs[x86.ESP] - 4
	if err := v.store(sp, 4, val); err != nil {
		return err
	}
	v.m.Regs[x86.ESP] = sp
	return nil
}

func (v *VM) pop32() (uint32, error) {
	sp := v.m.Regs[x86.ESP]
	val, err := v.load(sp, 4)
	if err != nil {
		return 0, err
	}
	v.m.Regs[x86.ESP] = sp + 4
	return val, nil
}

// exec executes one instruction located at addr. On return v.eip points
// at the next instruction to execute.
func (v *VM) exec(inst *x86.Inst, addr uint32) error {
	v.eip = addr // so traps report the faulting instruction
	next := addr + uint32(inst.Len)

	switch inst.Op {
	case x86.MOV:
		val, err := v.readArg(&inst.Src)
		if err != nil {
			return err
		}
		if err := v.writeArg(&inst.Dst, val); err != nil {
			return err
		}

	case x86.MOVZX:
		val, err := v.readArg(&inst.Src)
		if err != nil {
			return err
		}
		v.m.Regs[inst.Dst.Reg] = val // readArg already zero-extends

	case x86.MOVSX:
		val, err := v.readArg(&inst.Src)
		if err != nil {
			return err
		}
		if inst.Src.Size == 1 {
			val = uint32(int32(int8(val)))
		} else {
			val = uint32(int32(int16(val)))
		}
		v.m.Regs[inst.Dst.Reg] = val

	case x86.LEA:
		v.m.Regs[inst.Dst.Reg] = v.effAddr(&inst.Src)

	case x86.XCHG:
		a, err := v.readArg(&inst.Dst)
		if err != nil {
			return err
		}
		b, err := v.readArg(&inst.Src)
		if err != nil {
			return err
		}
		if err := v.writeArg(&inst.Dst, b); err != nil {
			return err
		}
		if err := v.writeArg(&inst.Src, a); err != nil {
			return err
		}

	case x86.ADD, x86.ADC, x86.SUB, x86.SBB, x86.AND, x86.OR, x86.XOR, x86.CMP, x86.TEST:
		if err := v.alu(inst); err != nil {
			return err
		}

	case x86.INC, x86.DEC:
		val, err := v.readArg(&inst.Dst)
		if err != nil {
			return err
		}
		cf := v.m.CF // INC/DEC preserve CF
		var res uint32
		if inst.Op == x86.INC {
			res = v.addFlags(val, 1, 0, inst.Dst.Size)
		} else {
			res = v.subFlags(val, 1, 0, inst.Dst.Size)
		}
		v.m.CF = cf
		if err := v.writeArg(&inst.Dst, res); err != nil {
			return err
		}

	case x86.NEG:
		val, err := v.readArg(&inst.Dst)
		if err != nil {
			return err
		}
		res := v.subFlags(0, val, 0, inst.Dst.Size)
		v.m.CF = val&widthMask(inst.Dst.Size) != 0
		if err := v.writeArg(&inst.Dst, res); err != nil {
			return err
		}

	case x86.NOT:
		val, err := v.readArg(&inst.Dst)
		if err != nil {
			return err
		}
		if err := v.writeArg(&inst.Dst, ^val); err != nil {
			return err
		}

	case x86.IMUL:
		src, err := v.readArg(&inst.Src)
		if err != nil {
			return err
		}
		var a uint32
		if inst.Aux.Kind == x86.KindImm {
			a = uint32(inst.Aux.Imm)
		} else {
			a = v.m.Regs[inst.Dst.Reg]
		}
		full := int64(int32(a)) * int64(int32(src))
		res := uint32(full)
		v.m.Regs[inst.Dst.Reg] = res
		over := full != int64(int32(res))
		v.m.CF, v.m.OF = over, over
		v.setSZP(res, 4) // SF/ZF/PF architecturally undefined; we define them

	case x86.MUL1:
		src, err := v.readArg(&inst.Dst)
		if err != nil {
			return err
		}
		if inst.Dst.Size == 1 { // AX = AL * src
			ax := v.readReg(x86.EAX, 1) * src
			v.m.Regs[x86.EAX] = v.m.Regs[x86.EAX]&^0xFFFF | ax
			v.m.CF, v.m.OF = ax>>8 != 0, ax>>8 != 0
			v.setSZP(ax, 1)
			break
		}
		full := uint64(v.m.Regs[x86.EAX]) * uint64(src)
		v.m.Regs[x86.EAX] = uint32(full)
		v.m.Regs[x86.EDX] = uint32(full >> 32)
		over := v.m.Regs[x86.EDX] != 0
		v.m.CF, v.m.OF = over, over
		v.setSZP(uint32(full), 4)

	case x86.IMUL1:
		src, err := v.readArg(&inst.Dst)
		if err != nil {
			return err
		}
		if inst.Dst.Size == 1 { // AX = AL * src, signed
			ax := int16(int8(v.m.Regs[x86.EAX])) * int16(int8(src))
			v.m.Regs[x86.EAX] = v.m.Regs[x86.EAX]&^0xFFFF | uint32(uint16(ax))
			over := ax != int16(int8(ax))
			v.m.CF, v.m.OF = over, over
			v.setSZP(uint32(ax), 1)
			break
		}
		full := int64(int32(v.m.Regs[x86.EAX])) * int64(int32(src))
		v.m.Regs[x86.EAX] = uint32(full)
		v.m.Regs[x86.EDX] = uint32(uint64(full) >> 32)
		over := full != int64(int32(full))
		v.m.CF, v.m.OF = over, over
		v.setSZP(uint32(full), 4)

	case x86.DIV:
		src, err := v.readArg(&inst.Dst)
		if err != nil {
			return err
		}
		if src == 0 {
			return &Trap{Kind: TrapDivide, EIP: addr}
		}
		if inst.Dst.Size == 1 { // AL = AX / src, AH = AX % src
			ax := v.m.Regs[x86.EAX] & 0xFFFF
			if ax/src > 0xFF {
				return &Trap{Kind: TrapDivide, EIP: addr, Msg: "quotient overflow"}
			}
			v.m.Regs[x86.EAX] = v.m.Regs[x86.EAX]&^0xFFFF | (ax%src)<<8 | ax/src
			break
		}
		dividend := uint64(v.m.Regs[x86.EDX])<<32 | uint64(v.m.Regs[x86.EAX])
		q := dividend / uint64(src)
		if q > 0xFFFFFFFF {
			return &Trap{Kind: TrapDivide, EIP: addr, Msg: "quotient overflow"}
		}
		v.m.Regs[x86.EAX] = uint32(q)
		v.m.Regs[x86.EDX] = uint32(dividend % uint64(src))

	case x86.IDIV:
		src, err := v.readArg(&inst.Dst)
		if err != nil {
			return err
		}
		if src == 0 {
			return &Trap{Kind: TrapDivide, EIP: addr}
		}
		if inst.Dst.Size == 1 { // AL = AX / src, AH = AX % src, signed
			ax, d := int16(v.m.Regs[x86.EAX]), int16(int8(src))
			if ax/d > 127 || ax/d < -128 {
				return &Trap{Kind: TrapDivide, EIP: addr, Msg: "quotient overflow"}
			}
			v.m.Regs[x86.EAX] = v.m.Regs[x86.EAX]&^0xFFFF | uint32(uint8(ax%d))<<8 | uint32(uint8(ax/d))
			break
		}
		dividend := int64(uint64(v.m.Regs[x86.EDX])<<32 | uint64(v.m.Regs[x86.EAX]))
		divisor := int64(int32(src))
		q := dividend / divisor
		if q > 0x7FFFFFFF || q < -0x80000000 {
			return &Trap{Kind: TrapDivide, EIP: addr, Msg: "quotient overflow"}
		}
		v.m.Regs[x86.EAX] = uint32(int32(q))
		v.m.Regs[x86.EDX] = uint32(int32(dividend % divisor))

	case x86.SHL, x86.SHR, x86.SAR, x86.ROL, x86.ROR:
		if err := v.shift(inst); err != nil {
			return err
		}

	case x86.CDQ:
		v.m.Regs[x86.EDX] = uint32(int32(v.m.Regs[x86.EAX]) >> 31)

	case x86.PUSH:
		val, err := v.readArg(&inst.Dst)
		if err != nil {
			return err
		}
		if err := v.push32(val); err != nil {
			return err
		}

	case x86.POP:
		val, err := v.pop32()
		if err != nil {
			return err
		}
		if err := v.writeArg(&inst.Dst, val); err != nil {
			return err
		}

	case x86.CALL:
		if err := v.push32(next); err != nil {
			return err
		}
		v.eip = next + uint32(inst.Rel)
		return nil

	case x86.CALLM:
		target, err := v.readArg(&inst.Dst)
		if err != nil {
			return err
		}
		if err := v.push32(next); err != nil {
			return err
		}
		v.eip = target
		return nil

	case x86.RET:
		target, err := v.pop32()
		if err != nil {
			return err
		}
		if inst.Dst.Kind == x86.KindImm {
			v.m.Regs[x86.ESP] += uint32(inst.Dst.Imm)
		}
		v.eip = target
		return nil

	case x86.JMP:
		v.eip = next + uint32(inst.Rel)
		return nil

	case x86.JMPM:
		target, err := v.readArg(&inst.Dst)
		if err != nil {
			return err
		}
		v.eip = target
		return nil

	case x86.JCC:
		if v.cond(inst.CC) {
			v.eip = next + uint32(inst.Rel)
		} else {
			v.eip = next
		}
		return nil

	case x86.SETCC:
		var val uint32
		if v.cond(inst.CC) {
			val = 1
		}
		if err := v.writeArg(&inst.Dst, val); err != nil {
			return err
		}

	case x86.INT:
		v.eip = next // the guest resumes after the gate
		if inst.Dst.Imm != 0x80 {
			return &Trap{Kind: TrapSyscall, EIP: addr,
				Msg: "interrupt vector not the VXA syscall gate"}
		}
		return v.syscall()

	case x86.NOP:

	case x86.HLT:
		return &Trap{Kind: TrapIllegal, EIP: addr, Msg: "privileged instruction"}

	case x86.UD2:
		return &Trap{Kind: TrapIllegal, EIP: addr, Msg: "ud2"}

	case x86.MOVSB, x86.MOVSD, x86.STOSB, x86.STOSD:
		if err := v.stringOp(inst); err != nil {
			return err
		}

	default:
		return &Trap{Kind: TrapIllegal, EIP: addr, Msg: inst.Op.String()}
	}

	v.eip = next
	return nil
}

func (v *VM) alu(inst *x86.Inst) error {
	a, err := v.readArg(&inst.Dst)
	if err != nil {
		return err
	}
	b, err := v.readArg(&inst.Src)
	if err != nil {
		return err
	}
	size := inst.Dst.Size
	var res uint32
	write := true
	switch inst.Op {
	case x86.ADD:
		res = v.addFlags(a, b, 0, size)
	case x86.ADC:
		c := uint32(0)
		if v.m.CF {
			c = 1
		}
		res = v.addFlags(a, b, c, size)
	case x86.SUB:
		res = v.subFlags(a, b, 0, size)
	case x86.SBB:
		c := uint32(0)
		if v.m.CF {
			c = 1
		}
		res = v.subFlags(a, b, c, size)
	case x86.CMP:
		v.subFlags(a, b, 0, size)
		write = false
	case x86.AND:
		res = (a & b) & widthMask(size)
		v.setLogicFlags(res, size)
	case x86.OR:
		res = (a | b) & widthMask(size)
		v.setLogicFlags(res, size)
	case x86.XOR:
		res = (a ^ b) & widthMask(size)
		v.setLogicFlags(res, size)
	case x86.TEST:
		v.setLogicFlags(a&b, size)
		write = false
	}
	if !write {
		return nil
	}
	return v.writeArg(&inst.Dst, res)
}

func (v *VM) shift(inst *x86.Inst) error {
	val, err := v.readArg(&inst.Dst)
	if err != nil {
		return err
	}
	cntv, err := v.readArg(&inst.Src)
	if err != nil {
		return err
	}
	size := inst.Dst.Size
	w := uint32(size) * 8
	count := cntv & 31
	if count == 0 {
		// Shift by zero changes neither the value nor any flags.
		return nil
	}
	mask := widthMask(size)
	val &= mask
	var res uint32
	switch inst.Op {
	case x86.SHL:
		if count <= w {
			v.m.CF = val&(1<<(w-count)) != 0
		} else {
			v.m.CF = false
		}
		if count >= w {
			res = 0
		} else {
			res = (val << count) & mask
		}
		v.m.OF = ((res & signBit(size)) != 0) != v.m.CF
		v.setSZP(res, size)
	case x86.SHR:
		if count <= w {
			v.m.CF = val&(1<<(count-1)) != 0
		} else {
			v.m.CF = false
		}
		if count >= w {
			res = 0
		} else {
			res = val >> count
		}
		v.m.OF = val&signBit(size) != 0 // defined for count==1; we fix it always
		v.setSZP(res, size)
	case x86.SAR:
		sv := int32(val)
		if size == 1 {
			sv = int32(int8(val))
		}
		if count >= w {
			res = uint32(sv>>31) & mask
			v.m.CF = sv < 0
		} else {
			v.m.CF = (uint32(sv)>>(count-1))&1 != 0
			res = uint32(sv>>count) & mask
		}
		v.m.OF = false
		v.setSZP(res, size)
	case x86.ROL:
		c := count % w
		res = (val<<c | val>>(w-c)) & mask
		if c == 0 {
			res = val
		}
		v.m.CF = res&1 != 0
		v.m.OF = ((res & signBit(size)) != 0) != v.m.CF
		// Rotates do not affect SF/ZF/PF.
	case x86.ROR:
		c := count % w
		res = (val>>c | val<<(w-c)) & mask
		if c == 0 {
			res = val
		}
		v.m.CF = res&signBit(size) != 0
		v.m.OF = ((res&signBit(size) != 0) != (res&(signBit(size)>>1) != 0))
	}
	return v.writeArg(&inst.Dst, res)
}

// stringOp implements MOVSB/MOVSD/STOSB/STOSD with an optional REP
// prefix. The direction flag is architecturally always clear in the VXA
// subset (no STD instruction exists), so strings always run forward.
func (v *VM) stringOp(inst *x86.Inst) error {
	width := uint32(1)
	if inst.Op == x86.MOVSD || inst.Op == x86.STOSD {
		width = 4
	}
	count := uint32(1)
	if inst.Rep {
		count = v.m.Regs[x86.ECX]
		if count == 0 {
			return nil
		}
	}
	n := count * width
	if n/width != count {
		return &Trap{Kind: TrapMemory, EIP: v.eip, Addr: v.m.Regs[x86.EDI], Msg: "rep length overflow"}
	}
	dst := v.m.Regs[x86.EDI]
	if !v.writable(dst, n) {
		return &Trap{Kind: TrapMemory, EIP: v.eip, Addr: dst}
	}
	switch inst.Op {
	case x86.MOVSB, x86.MOVSD:
		src := v.m.Regs[x86.ESI]
		if !v.readable(src, n) {
			return &Trap{Kind: TrapMemory, EIP: v.eip, Addr: src}
		}
		if dst > src && dst < src+n {
			// Hardware MOVS copies element by element in ascending order,
			// so a copy whose destination overlaps its source propagates
			// the leading elements (LZ77 decoders depend on this). Go's
			// copy is memmove, so emulate the architectural behaviour
			// directly, one element of the operand width at a time.
			for i := uint32(0); i < n; i += width {
				val, _ := v.load(src+i, width)
				v.store(dst+i, width, val)
			}
		} else {
			copy(v.mem[dst:dst+n], v.mem[src:src+n])
		}
		v.m.Regs[x86.ESI] = src + n
	case x86.STOSB:
		al := byte(v.m.Regs[x86.EAX])
		seg := v.mem[dst : dst+n]
		for i := range seg {
			seg[i] = al
		}
	case x86.STOSD:
		eax := v.m.Regs[x86.EAX]
		for off := uint32(0); off < n; off += 4 {
			v.mem[dst+off] = byte(eax)
			v.mem[dst+off+1] = byte(eax >> 8)
			v.mem[dst+off+2] = byte(eax >> 16)
			v.mem[dst+off+3] = byte(eax >> 24)
		}
	}
	v.m.Regs[x86.EDI] = dst + n
	if inst.Rep {
		v.m.Regs[x86.ECX] = 0
		// Charge fuel for the iterations beyond the one already counted.
		if count > 1 {
			v.m.Fuel -= int64(count - 1)
			v.stats.Steps += uint64(count - 1)
		}
	}
	return nil
}
