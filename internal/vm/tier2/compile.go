package tier2

import (
	"os"

	"vxa/internal/vm/uop"
	"vxa/internal/x86"
)

// Compile compiles one optimized superblock trace for m's geometry.
// The native backend reads only m.Geometry and returns a trace any
// Machine with that geometry can run. The closure backend fuses the
// trace into flat closures bound to m itself: register operands become
// pointers into m.Regs, immediates and effective-address shapes become
// captured constants (m.Mem included), and the trace runs against m
// only. Either way every exit site gets a static Exit descriptor.
// Returns nil when the trace contains a micro-op the tier cannot
// compile (the reference escapes KindString/KindGeneric, or a malformed
// trace); the superblock then simply keeps executing on the tier-1
// dispatch loop.
func Compile(us []uop.Uop, entry uint32, m *Machine) *Trace {
	if i, _ := Unsupported(us); i >= 0 {
		return nil
	}
	t := &Trace{
		Entry: entry,
		Cost:  uop.Cost(us),
		NUops: len(us),
		Geom:  m.Geometry,
	}
	// Backend selection, read per call so the test wall can flip it with
	// t.Setenv: the default is the native machine-code emitter (the
	// closure backend measures slower than the tier-1 dispatch loop, so
	// it exists as a portable semantic reference, not a fallback). A
	// native bail — an unsupported micro-op or no executable memory —
	// leaves the superblock on tier-1.
	if os.Getenv("VXA_TIER2_BACKEND") != "closure" {
		if !nativeAvailable {
			return nil
		}
		if nativeCompile(us, entry, m.Geometry, t) {
			return t
		}
		return nil
	}
	c := &comp{m: m, t: t, us: us, tail: suffixCosts(make([]int64, len(us)), us), mem: m.Mem, g: m.Geometry}
	// Compile back to front, threading each closure's continuation: a
	// closure's fall-through is a direct call of the (one, specific)
	// next closure, so every continuation call site is monomorphic —
	// the branch predictor resolves the whole trace body, where a
	// dispatch loop would mispredict on every data-dependent transfer.
	var next func() int32
	for i := len(us) - 1; i >= 0; i-- {
		fn := c.one(i, next)
		if fn == nil {
			return nil
		}
		next = fn
	}
	t.head = next
	return t
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

// comp carries the compile-time captures shared by every closure of one
// trace.
type comp struct {
	m    *Machine
	t    *Trace
	us   []uop.Uop
	tail []int64 // suffixCosts(us)

	mem []byte
	g   Geometry
}

func (c *comp) exit(e Exit) int32 {
	c.t.Exits = append(c.t.Exits, newExit(c.us, c.tail, e))
	return int32(len(c.t.Exits))
}

// rf and wf allocate read/write memory-fault exits; eip is the trap
// EIP (the fused-pair spare field when started > 1).
func (c *comp) rf(i int, eip, size uint32, started int) int32 {
	return c.exit(Exit{Kind: ExitReadFault, Uop: i, EIP: eip, Size: size, Started: started})
}

func (c *comp) wf(i int, eip, size uint32, started int) int32 {
	return c.exit(Exit{Kind: ExitWriteFault, Uop: i, EIP: eip, Size: size, Started: started})
}

// end allocates the unconditional trace-end transfer.
func (c *comp) end(i int, target uint32) int32 {
	return c.exit(Exit{Kind: ExitEnd, Uop: i, Target: target})
}

// one compiles micro-op i into its closure, threading next as its
// fall-through continuation (nil for the trace terminator, which always
// exits). Every case mirrors the tier-1 handler in uexec.go exactly —
// same evaluation order, same flag records, same trap-site EIPs and
// started counts.
func (c *comp) one(i int, next func() int32) func() int32 {
	u := &c.us[i]
	m := c.m
	mem, g := c.mem, c.g
	// Register-operand pointers; RegZero (8) reads as the pinned zero slot.
	pd, ps := &m.Regs[u.Dst], &m.Regs[u.Src]
	pb, pi := &m.Regs[u.Base], &m.Regs[u.Idx]
	// Aux is a register operand only for the kinds that dereference pa;
	// guards reuse it as a chain-slot index, which may exceed the file.
	pa := &m.Regs[uop.RegZero]
	if int(u.Aux) < len(m.Regs) {
		pa = &m.Regs[u.Aux]
	}
	pesp, pecx := &m.Regs[x86.ESP], &m.Regs[x86.ECX]
	peax, pedx := &m.Regs[x86.EAX], &m.Regs[x86.EDX]
	imm, disp, scale := u.Imm, u.Disp, uint32(u.Scale)
	dsh, ssh := u.Dsh, u.Ssh
	cc := x86.CC(u.Sub)
	aluOp := uop.AluOp(u.Sub)

	switch u.Kind {
	case uop.KindNop:
		return next // a Nop costs literally nothing

	// --- moves ---
	case uop.KindMovRR:
		return func() int32 { *pd = *ps; return next() }
	case uop.KindMovRI:
		return func() int32 { *pd = imm; return next() }
	case uop.KindMovRR8:
		return func() int32 {
			val := (*ps >> ssh) & 0xFF
			*pd = *pd&^(uint32(0xFF)<<dsh) | val<<dsh
			return next()
		}
	case uop.KindMovRI8:
		return func() int32 {
			*pd = *pd&^(uint32(0xFF)<<dsh) | (imm&0xFF)<<dsh
			return next()
		}
	case uop.KindLoad:
		s := c.rf(i, u.EIP, 4, 1)
		return func() int32 {
			addr := disp + *pb + *pi*scale
			if !g.ReadOK(addr, 4, m.Brk) {
				m.TrapAddr = addr
				return s
			}
			*pd = le32(mem, addr)
			return next()
		}
	case uop.KindLoad8:
		s := c.rf(i, u.EIP, 1, 1)
		return func() int32 {
			addr := disp + *pb + *pi*scale
			if !g.ReadOK(addr, 1, m.Brk) {
				m.TrapAddr = addr
				return s
			}
			*pd = *pd&^(uint32(0xFF)<<dsh) | uint32(mem[addr])<<dsh
			return next()
		}
	case uop.KindStore:
		s := c.wf(i, u.EIP, 4, 1)
		return func() int32 {
			addr := disp + *pb + *pi*scale
			if !g.WriteOK(addr, 4, m.Brk) {
				m.TrapAddr = addr
				return s
			}
			st32(mem, addr, *ps)
			return next()
		}
	case uop.KindStore8:
		s := c.wf(i, u.EIP, 1, 1)
		return func() int32 {
			addr := disp + *pb + *pi*scale
			if !g.WriteOK(addr, 1, m.Brk) {
				m.TrapAddr = addr
				return s
			}
			mem[addr] = byte(*ps >> ssh)
			return next()
		}
	case uop.KindStoreI:
		s := c.wf(i, u.EIP, 4, 1)
		return func() int32 {
			addr := disp + *pb + *pi*scale
			if !g.WriteOK(addr, 4, m.Brk) {
				m.TrapAddr = addr
				return s
			}
			st32(mem, addr, imm)
			return next()
		}
	case uop.KindStoreI8:
		s := c.wf(i, u.EIP, 1, 1)
		return func() int32 {
			addr := disp + *pb + *pi*scale
			if !g.WriteOK(addr, 1, m.Brk) {
				m.TrapAddr = addr
				return s
			}
			mem[addr] = byte(imm)
			return next()
		}
	case uop.KindLea:
		return func() int32 { *pd = disp + *pb + *pi*scale; return next() }

	// --- widening moves ---
	case uop.KindMovzxRR8:
		return func() int32 { *pd = (*ps >> ssh) & 0xFF; return next() }
	case uop.KindMovzxRR16:
		return func() int32 { *pd = *ps & 0xFFFF; return next() }
	case uop.KindMovzxRM8:
		s := c.rf(i, u.EIP, 1, 1)
		return func() int32 {
			addr := disp + *pb + *pi*scale
			if !g.ReadOK(addr, 1, m.Brk) {
				m.TrapAddr = addr
				return s
			}
			*pd = uint32(mem[addr])
			return next()
		}
	case uop.KindMovzxRM16:
		s := c.rf(i, u.EIP, 2, 1)
		return func() int32 {
			addr := disp + *pb + *pi*scale
			if !g.ReadOK(addr, 2, m.Brk) {
				m.TrapAddr = addr
				return s
			}
			*pd = uint32(mem[addr]) | uint32(mem[addr+1])<<8
			return next()
		}
	case uop.KindMovsxRR8:
		return func() int32 { *pd = uint32(int32(int8(*ps >> ssh))); return next() }
	case uop.KindMovsxRR16:
		return func() int32 { *pd = uint32(int32(int16(*ps))); return next() }
	case uop.KindMovsxRM8:
		s := c.rf(i, u.EIP, 1, 1)
		return func() int32 {
			addr := disp + *pb + *pi*scale
			if !g.ReadOK(addr, 1, m.Brk) {
				m.TrapAddr = addr
				return s
			}
			*pd = uint32(int32(int8(mem[addr])))
			return next()
		}
	case uop.KindMovsxRM16:
		s := c.rf(i, u.EIP, 2, 1)
		return func() int32 {
			addr := disp + *pb + *pi*scale
			if !g.ReadOK(addr, 2, m.Brk) {
				m.TrapAddr = addr
				return s
			}
			*pd = uint32(int32(int16(uint32(mem[addr]) | uint32(mem[addr+1])<<8)))
			return next()
		}

	case uop.KindXchgRR:
		return func() int32 { *pd, *ps = *ps, *pd; return next() }

	// --- fully specialized 32-bit ALU forms ---
	case uop.KindAddRR:
		return func() int32 {
			a, b := *pd, *ps
			res := a + b
			*pd = res
			m.Fl = uop.Flags{Op: uop.FlagAdd, A: a, B: b, Res: res}
			return next()
		}
	case uop.KindAddRI:
		return func() int32 {
			a := *pd
			res := a + imm
			*pd = res
			m.Fl = uop.Flags{Op: uop.FlagAdd, A: a, B: imm, Res: res}
			return next()
		}
	case uop.KindSubRR:
		return func() int32 {
			a, b := *pd, *ps
			res := a - b
			*pd = res
			m.Fl = uop.Flags{Op: uop.FlagSub, A: a, B: b, Res: res}
			return next()
		}
	case uop.KindSubRI:
		return func() int32 {
			a := *pd
			res := a - imm
			*pd = res
			m.Fl = uop.Flags{Op: uop.FlagSub, A: a, B: imm, Res: res}
			return next()
		}
	case uop.KindCmpRR:
		return func() int32 {
			a, b := *pd, *ps
			m.Fl = uop.Flags{Op: uop.FlagSub, A: a, B: b, Res: a - b}
			return next()
		}
	case uop.KindCmpRI:
		return func() int32 {
			a := *pd
			m.Fl = uop.Flags{Op: uop.FlagSub, A: a, B: imm, Res: a - imm}
			return next()
		}
	case uop.KindAndRR:
		return func() int32 {
			res := *pd & *ps
			*pd = res
			m.Fl = uop.Flags{Op: uop.FlagLogic, Res: res}
			return next()
		}
	case uop.KindAndRI:
		return func() int32 {
			res := *pd & imm
			*pd = res
			m.Fl = uop.Flags{Op: uop.FlagLogic, Res: res}
			return next()
		}
	case uop.KindOrRR:
		return func() int32 {
			res := *pd | *ps
			*pd = res
			m.Fl = uop.Flags{Op: uop.FlagLogic, Res: res}
			return next()
		}
	case uop.KindOrRI:
		return func() int32 {
			res := *pd | imm
			*pd = res
			m.Fl = uop.Flags{Op: uop.FlagLogic, Res: res}
			return next()
		}
	case uop.KindXorRR:
		return func() int32 {
			res := *pd ^ *ps
			*pd = res
			m.Fl = uop.Flags{Op: uop.FlagLogic, Res: res}
			return next()
		}
	case uop.KindXorRI:
		return func() int32 {
			res := *pd ^ imm
			*pd = res
			m.Fl = uop.Flags{Op: uop.FlagLogic, Res: res}
			return next()
		}
	case uop.KindTestRR:
		return func() int32 {
			m.Fl = uop.Flags{Op: uop.FlagLogic, Res: *pd & *ps}
			return next()
		}
	case uop.KindTestRI:
		return func() int32 {
			m.Fl = uop.Flags{Op: uop.FlagLogic, Res: *pd & imm}
			return next()
		}

	// --- remaining ALU forms (ADC/SBB, memory, byte operands) ---
	case uop.KindAluRR:
		return func() int32 {
			if res, wb := m.ualu(aluOp, *pd, *ps); wb {
				*pd = res
			}
			return next()
		}
	case uop.KindAluRI:
		return func() int32 {
			if res, wb := m.ualu(aluOp, *pd, imm); wb {
				*pd = res
			}
			return next()
		}
	case uop.KindAluRM:
		s := c.rf(i, u.EIP, 4, 1)
		return func() int32 {
			addr := disp + *pb + *pi*scale
			if !g.ReadOK(addr, 4, m.Brk) {
				m.TrapAddr = addr
				return s
			}
			if res, wb := m.ualu(aluOp, *pd, le32(mem, addr)); wb {
				*pd = res
			}
			return next()
		}
	case uop.KindAluMR:
		sr := c.rf(i, u.EIP, 4, 1)
		sw := c.wf(i, u.EIP, 4, 1)
		return func() int32 {
			addr := disp + *pb + *pi*scale
			if !g.ReadOK(addr, 4, m.Brk) {
				m.TrapAddr = addr
				return sr
			}
			if res, wb := m.ualu(aluOp, le32(mem, addr), *ps); wb {
				if !g.WriteOK(addr, 4, m.Brk) {
					m.TrapAddr = addr
					return sw
				}
				st32(mem, addr, res)
			}
			return next()
		}
	case uop.KindAluMI:
		sr := c.rf(i, u.EIP, 4, 1)
		sw := c.wf(i, u.EIP, 4, 1)
		return func() int32 {
			addr := disp + *pb + *pi*scale
			if !g.ReadOK(addr, 4, m.Brk) {
				m.TrapAddr = addr
				return sr
			}
			if res, wb := m.ualu(aluOp, le32(mem, addr), imm); wb {
				if !g.WriteOK(addr, 4, m.Brk) {
					m.TrapAddr = addr
					return sw
				}
				st32(mem, addr, res)
			}
			return next()
		}
	case uop.KindAlu8RR:
		return func() int32 {
			if res, wb := m.ualu8(aluOp, (*pd>>dsh)&0xFF, (*ps>>ssh)&0xFF); wb {
				*pd = *pd&^(uint32(0xFF)<<dsh) | (res&0xFF)<<dsh
			}
			return next()
		}
	case uop.KindAlu8RI:
		return func() int32 {
			if res, wb := m.ualu8(aluOp, (*pd>>dsh)&0xFF, imm); wb {
				*pd = *pd&^(uint32(0xFF)<<dsh) | (res&0xFF)<<dsh
			}
			return next()
		}
	case uop.KindAlu8RM:
		s := c.rf(i, u.EIP, 1, 1)
		return func() int32 {
			addr := disp + *pb + *pi*scale
			if !g.ReadOK(addr, 1, m.Brk) {
				m.TrapAddr = addr
				return s
			}
			if res, wb := m.ualu8(aluOp, (*pd>>dsh)&0xFF, uint32(mem[addr])); wb {
				*pd = *pd&^(uint32(0xFF)<<dsh) | (res&0xFF)<<dsh
			}
			return next()
		}
	case uop.KindAlu8MR:
		sr := c.rf(i, u.EIP, 1, 1)
		sw := c.wf(i, u.EIP, 1, 1)
		return func() int32 {
			addr := disp + *pb + *pi*scale
			if !g.ReadOK(addr, 1, m.Brk) {
				m.TrapAddr = addr
				return sr
			}
			if res, wb := m.ualu8(aluOp, uint32(mem[addr]), (*ps>>ssh)&0xFF); wb {
				if !g.WriteOK(addr, 1, m.Brk) {
					m.TrapAddr = addr
					return sw
				}
				mem[addr] = byte(res)
			}
			return next()
		}
	case uop.KindAlu8MI:
		sr := c.rf(i, u.EIP, 1, 1)
		sw := c.wf(i, u.EIP, 1, 1)
		return func() int32 {
			addr := disp + *pb + *pi*scale
			if !g.ReadOK(addr, 1, m.Brk) {
				m.TrapAddr = addr
				return sr
			}
			if res, wb := m.ualu8(aluOp, uint32(mem[addr]), imm); wb {
				if !g.WriteOK(addr, 1, m.Brk) {
					m.TrapAddr = addr
					return sw
				}
				mem[addr] = byte(res)
			}
			return next()
		}

	case uop.KindIncR:
		return func() int32 {
			cf := m.fCF() // INC preserves CF
			val := *pd
			res := val + 1
			*pd = res
			m.Fl = uop.Flags{Op: uop.FlagAddKeep, A: val, B: 1, Res: res, KeptCF: cf}
			return next()
		}
	case uop.KindDecR:
		return func() int32 {
			cf := m.fCF() // DEC preserves CF
			val := *pd
			res := val - 1
			*pd = res
			m.Fl = uop.Flags{Op: uop.FlagSubKeep, A: val, B: 1, Res: res, KeptCF: cf}
			return next()
		}
	case uop.KindNegR:
		return func() int32 {
			val := *pd
			res := -val
			*pd = res
			m.Fl = uop.Flags{Op: uop.FlagSub, A: 0, B: val, Res: res}
			return next()
		}
	case uop.KindNotR:
		return func() int32 { *pd = ^*pd; return next() }

	// --- shifts ---
	case uop.KindShiftRI:
		switch uop.ShOp(u.Sub) {
		case uop.ShShl:
			return func() int32 {
				val := *pd
				res := val << imm
				*pd = res
				m.Fl = uop.Flags{Op: uop.FlagShl, A: val, B: imm, Res: res}
				return next()
			}
		case uop.ShShr:
			return func() int32 {
				val := *pd
				res := val >> imm
				*pd = res
				m.Fl = uop.Flags{Op: uop.FlagShr, A: val, B: imm, Res: res}
				return next()
			}
		default: // ShSar
			return func() int32 {
				val := *pd
				res := uint32(int32(val) >> imm)
				*pd = res
				m.Fl = uop.Flags{Op: uop.FlagSar, A: val, B: imm, Res: res}
				return next()
			}
		}
	case uop.KindShiftRCL:
		shop := uop.ShOp(u.Sub)
		return func() int32 {
			count := *pecx & 31
			if count == 0 {
				return next()
			}
			val := *pd
			var res uint32
			var fo uop.FlagOp
			switch shop {
			case uop.ShShl:
				res, fo = val<<count, uop.FlagShl
			case uop.ShShr:
				res, fo = val>>count, uop.FlagShr
			default: // ShSar
				res, fo = uint32(int32(val)>>count), uop.FlagSar
			}
			*pd = res
			m.Fl = uop.Flags{Op: fo, A: val, B: count, Res: res}
			return next()
		}

	// --- multiply / divide ---
	case uop.KindImulRR:
		dst := u.Dst
		return func() int32 { m.uimul(dst, *pd, *ps); return next() }
	case uop.KindImulRM:
		dst := u.Dst
		s := c.rf(i, u.EIP, 4, 1)
		return func() int32 {
			addr := disp + *pb + *pi*scale
			if !g.ReadOK(addr, 4, m.Brk) {
				m.TrapAddr = addr
				return s
			}
			m.uimul(dst, *pd, le32(mem, addr))
			return next()
		}
	case uop.KindImulRRI:
		dst := u.Dst
		return func() int32 { m.uimul(dst, imm, *ps); return next() }
	case uop.KindImulRMI:
		dst := u.Dst
		s := c.rf(i, u.EIP, 4, 1)
		return func() int32 {
			addr := disp + *pb + *pi*scale
			if !g.ReadOK(addr, 4, m.Brk) {
				m.TrapAddr = addr
				return s
			}
			m.uimul(dst, imm, le32(mem, addr))
			return next()
		}
	case uop.KindMulR:
		signed := u.Sub != 0
		return func() int32 { m.umul1(*ps, signed); return next() }
	case uop.KindMulM:
		signed := u.Sub != 0
		s := c.rf(i, u.EIP, 4, 1)
		return func() int32 {
			addr := disp + *pb + *pi*scale
			if !g.ReadOK(addr, 4, m.Brk) {
				m.TrapAddr = addr
				return s
			}
			m.umul1(le32(mem, addr), signed)
			return next()
		}
	case uop.KindDivR:
		signed := u.Sub != 0
		s := c.exit(Exit{Kind: ExitDivide, Uop: i, EIP: u.EIP, Started: 1})
		return func() int32 {
			if !m.udiv(*ps, signed) {
				return s
			}
			return next()
		}
	case uop.KindDivM:
		signed := u.Sub != 0
		sr := c.rf(i, u.EIP, 4, 1)
		sd := c.exit(Exit{Kind: ExitDivide, Uop: i, EIP: u.EIP, Started: 1})
		return func() int32 {
			addr := disp + *pb + *pi*scale
			if !g.ReadOK(addr, 4, m.Brk) {
				m.TrapAddr = addr
				return sr
			}
			if !m.udiv(le32(mem, addr), signed) {
				return sd
			}
			return next()
		}
	case uop.KindCdq:
		return func() int32 {
			*pedx = uint32(int32(*peax) >> 31)
			return next()
		}

	// --- stack ---
	case uop.KindPushR:
		s := c.wf(i, u.EIP, 4, 1)
		return func() int32 {
			sp := *pesp - 4
			if !g.WriteOK(sp, 4, m.Brk) {
				m.TrapAddr = sp
				return s
			}
			st32(mem, sp, *ps)
			*pesp = sp
			return next()
		}
	case uop.KindPushI:
		s := c.wf(i, u.EIP, 4, 1)
		return func() int32 {
			sp := *pesp - 4
			if !g.WriteOK(sp, 4, m.Brk) {
				m.TrapAddr = sp
				return s
			}
			st32(mem, sp, imm)
			*pesp = sp
			return next()
		}
	case uop.KindPushM:
		sr := c.rf(i, u.EIP, 4, 1)
		sw := c.wf(i, u.EIP, 4, 1)
		return func() int32 {
			addr := disp + *pb + *pi*scale
			if !g.ReadOK(addr, 4, m.Brk) {
				m.TrapAddr = addr
				return sr
			}
			val := le32(mem, addr)
			sp := *pesp - 4
			if !g.WriteOK(sp, 4, m.Brk) {
				m.TrapAddr = sp
				return sw
			}
			st32(mem, sp, val)
			*pesp = sp
			return next()
		}
	case uop.KindPopR:
		s := c.rf(i, u.EIP, 4, 1)
		return func() int32 {
			sp := *pesp
			if !g.ReadOK(sp, 4, m.Brk) {
				m.TrapAddr = sp
				return s
			}
			*pesp = sp + 4
			*pd = le32(mem, sp) // a popped ESP wins over the increment
			return next()
		}
	case uop.KindPopM:
		sr := c.rf(i, u.EIP, 4, 1)
		sw := c.wf(i, u.EIP, 4, 1)
		return func() int32 {
			sp := *pesp
			if !g.ReadOK(sp, 4, m.Brk) {
				m.TrapAddr = sp
				return sr
			}
			val := le32(mem, sp)
			*pesp = sp + 4
			addr := disp + *pb + *pi*scale // the store address sees the popped ESP
			if !g.WriteOK(addr, 4, m.Brk) {
				m.TrapAddr = addr
				return sw
			}
			st32(mem, addr, val)
			return next()
		}

	// --- setcc ---
	case uop.KindSetccR8:
		return func() int32 {
			var val uint32
			if m.ucond(cc) {
				val = 1
			}
			*pd = *pd&^(uint32(0xFF)<<dsh) | val<<dsh
			return next()
		}
	case uop.KindSetccM8:
		s := c.wf(i, u.EIP, 1, 1)
		return func() int32 {
			var val uint32
			if m.ucond(cc) {
				val = 1
			}
			addr := disp + *pb + *pi*scale
			if !g.WriteOK(addr, 1, m.Brk) {
				m.TrapAddr = addr
				return s
			}
			mem[addr] = byte(val)
			return next()
		}

	// --- flag-suppressed ALU forms ---
	case uop.KindAddRRNF:
		return func() int32 { *pd += *ps; return next() }
	case uop.KindAddRINF:
		return func() int32 { *pd += imm; return next() }
	case uop.KindSubRRNF:
		return func() int32 { *pd -= *ps; return next() }
	case uop.KindSubRINF:
		return func() int32 { *pd -= imm; return next() }
	case uop.KindAndRRNF:
		return func() int32 { *pd &= *ps; return next() }
	case uop.KindAndRINF:
		return func() int32 { *pd &= imm; return next() }
	case uop.KindOrRRNF:
		return func() int32 { *pd |= *ps; return next() }
	case uop.KindOrRINF:
		return func() int32 { *pd |= imm; return next() }
	case uop.KindXorRRNF:
		return func() int32 { *pd ^= *ps; return next() }
	case uop.KindXorRINF:
		return func() int32 { *pd ^= imm; return next() }
	case uop.KindIncRNF:
		return func() int32 { *pd++; return next() }
	case uop.KindDecRNF:
		return func() int32 { *pd--; return next() }
	case uop.KindShiftRINF:
		switch uop.ShOp(u.Sub) {
		case uop.ShShl:
			return func() int32 { *pd <<= imm; return next() }
		case uop.ShShr:
			return func() int32 { *pd >>= imm; return next() }
		default: // ShSar
			return func() int32 { *pd = uint32(int32(*pd) >> imm); return next() }
		}
	case uop.KindShiftRCLNF:
		shop := uop.ShOp(u.Sub)
		return func() int32 {
			count := *pecx & 31
			if count == 0 {
				return next()
			}
			switch shop {
			case uop.ShShl:
				*pd <<= count
			case uop.ShShr:
				*pd >>= count
			default: // ShSar
				*pd = uint32(int32(*pd) >> count)
			}
			return next()
		}

	// --- fused compare/setcc and boolean materialization ---
	case uop.KindCmpSetccRR, uop.KindCmpSetccRI:
		rr := u.Kind == uop.KindCmpSetccRR
		return func() int32 {
			a, b := *ps, imm
			if rr {
				b = *pa
			}
			m.Fl = uop.Flags{Op: uop.FlagSub, A: a, B: b, Res: a - b}
			var val uint32
			if condSub(cc, a, b) {
				val = 1
			}
			*pd = *pd&^(uint32(0xFF)<<dsh) | val<<dsh
			return next()
		}
	case uop.KindTestSetccRR, uop.KindTestSetccRI:
		rr := u.Kind == uop.KindTestSetccRR
		return func() int32 {
			res := *ps & imm
			if rr {
				res = *ps & *pa
			}
			m.Fl = uop.Flags{Op: uop.FlagLogic, Res: res}
			var val uint32
			if condLogic(cc, res) {
				val = 1
			}
			*pd = *pd&^(uint32(0xFF)<<dsh) | val<<dsh
			return next()
		}
	case uop.KindCmpBoolRR, uop.KindCmpBoolRI:
		rr := u.Kind == uop.KindCmpBoolRR
		return func() int32 {
			a, b := *ps, imm
			if rr {
				b = *pa
			}
			m.Fl = uop.Flags{Op: uop.FlagSub, A: a, B: b, Res: a - b}
			var val uint32
			if condSub(cc, a, b) {
				val = 1
			}
			*pd = val
			return next()
		}
	case uop.KindTestBoolRR, uop.KindTestBoolRI:
		rr := u.Kind == uop.KindTestBoolRR
		return func() int32 {
			res := *ps & imm
			if rr {
				res = *ps & *pa
			}
			m.Fl = uop.Flags{Op: uop.FlagLogic, Res: res}
			var val uint32
			if condLogic(cc, res) {
				val = 1
			}
			*pd = val
			return next()
		}
	case uop.KindCmpBoolRRNF, uop.KindCmpBoolRINF:
		rr := u.Kind == uop.KindCmpBoolRRNF
		return func() int32 {
			a, b := *ps, imm
			if rr {
				b = *pa
			}
			var val uint32
			if condSub(cc, a, b) {
				val = 1
			}
			*pd = val
			return next()
		}
	case uop.KindTestBoolRRNF, uop.KindTestBoolRINF:
		rr := u.Kind == uop.KindTestBoolRRNF
		return func() int32 {
			res := *ps & imm
			if rr {
				res = *ps & *pa
			}
			var val uint32
			if condLogic(cc, res) {
				val = 1
			}
			*pd = val
			return next()
		}

	// --- fused load-op ---
	case uop.KindLoadAluRR:
		s := c.rf(i, u.EIP, 4, 1)
		return func() int32 {
			addr := disp + *pb + *pi*scale
			if !g.ReadOK(addr, 4, m.Brk) {
				m.TrapAddr = addr
				return s
			}
			*pa = le32(mem, addr)
			if res, wb := m.ualu(aluOp, *pd, *ps); wb {
				*pd = res
			}
			return next()
		}
	case uop.KindLoadAluRRNF:
		s := c.rf(i, u.EIP, 4, 1)
		return func() int32 {
			addr := disp + *pb + *pi*scale
			if !g.ReadOK(addr, 4, m.Brk) {
				m.TrapAddr = addr
				return s
			}
			*pa = le32(mem, addr)
			if res, wb := ualuQ(aluOp, *pd, *ps); wb {
				*pd = res
			}
			return next()
		}

	// --- data-movement pair fusions ---
	case uop.KindMovPop:
		s := c.rf(i, u.Imm, 4, 2) // pop EIP rides in Imm
		return func() int32 {
			*pa = *ps
			sp := *pesp
			if !g.ReadOK(sp, 4, m.Brk) {
				m.TrapAddr = sp
				return s
			}
			*pesp = sp + 4
			*pd = le32(mem, sp)
			return next()
		}
	case uop.KindMovPopAluRR, uop.KindMovPopAluRRNF:
		rec := u.Kind == uop.KindMovPopAluRR
		s := c.rf(i, u.Imm, 4, 2)
		return func() int32 {
			*pa = *ps
			sp := *pesp
			if !g.ReadOK(sp, 4, m.Brk) {
				m.TrapAddr = sp
				return s
			}
			*pesp = sp + 4
			a, b := le32(mem, sp), *pa
			var res uint32
			switch aluOp {
			case uop.AluAdd:
				res = a + b
				if rec {
					m.Fl = uop.Flags{Op: uop.FlagAdd, A: a, B: b, Res: res}
				}
			case uop.AluSub:
				res = a - b
				if rec {
					m.Fl = uop.Flags{Op: uop.FlagSub, A: a, B: b, Res: res}
				}
			case uop.AluAnd:
				res = a & b
				if rec {
					m.Fl = uop.Flags{Op: uop.FlagLogic, Res: res}
				}
			case uop.AluOr:
				res = a | b
				if rec {
					m.Fl = uop.Flags{Op: uop.FlagLogic, Res: res}
				}
			default: // AluXor
				res = a ^ b
				if rec {
					m.Fl = uop.Flags{Op: uop.FlagLogic, Res: res}
				}
			}
			*pd = res
			return next()
		}
	case uop.KindPushLoad:
		sw := c.wf(i, u.EIP, 4, 1)
		sr := c.rf(i, u.Imm, 4, 2) // load EIP rides in Imm
		return func() int32 {
			sp := *pesp - 4
			if !g.WriteOK(sp, 4, m.Brk) {
				m.TrapAddr = sp
				return sw
			}
			st32(mem, sp, *ps)
			*pesp = sp
			addr := disp + *pb + *pi*scale
			if !g.ReadOK(addr, 4, m.Brk) {
				m.TrapAddr = addr
				return sr
			}
			*pd = le32(mem, addr)
			return next()
		}
	case uop.KindLoadPush:
		sr := c.rf(i, u.EIP, 4, 1)
		sw := c.wf(i, u.Imm, 4, 2) // push EIP rides in Imm
		return func() int32 {
			addr := disp + *pb + *pi*scale
			if !g.ReadOK(addr, 4, m.Brk) {
				m.TrapAddr = addr
				return sr
			}
			*pa = le32(mem, addr)
			sp := *pesp - 4
			if !g.WriteOK(sp, 4, m.Brk) {
				m.TrapAddr = sp
				return sw
			}
			st32(mem, sp, *ps)
			*pesp = sp
			return next()
		}
	case uop.KindPushMovI:
		s := c.wf(i, u.EIP, 4, 1)
		return func() int32 {
			sp := *pesp - 4
			if !g.WriteOK(sp, 4, m.Brk) {
				m.TrapAddr = sp
				return s
			}
			st32(mem, sp, *ps)
			*pesp = sp
			*pd = imm
			return next()
		}
	case uop.KindMovIPush:
		s := c.wf(i, u.Disp, 4, 2) // push EIP rides in Disp
		return func() int32 {
			*pd = imm
			sp := *pesp - 4
			if !g.WriteOK(sp, 4, m.Brk) {
				m.TrapAddr = sp
				return s
			}
			st32(mem, sp, *ps)
			*pesp = sp
			return next()
		}
	case uop.KindMovIMov:
		return func() int32 {
			*pd = imm
			*pa = *ps
			return next()
		}
	case uop.KindMovLoad:
		s := c.rf(i, u.Imm, 4, 2) // load EIP rides in Imm
		return func() int32 {
			*pa = *ps
			addr := disp + *pb + *pi*scale
			if !g.ReadOK(addr, 4, m.Brk) {
				m.TrapAddr = addr
				return s
			}
			*pd = le32(mem, addr)
			return next()
		}
	case uop.KindPopStore:
		sr := c.rf(i, u.EIP, 4, 1)
		sw := c.wf(i, u.Imm, 4, 2) // store EIP rides in Imm
		return func() int32 {
			sp := *pesp
			if !g.ReadOK(sp, 4, m.Brk) {
				m.TrapAddr = sp
				return sr
			}
			*pesp = sp + 4
			*pd = le32(mem, sp) // a popped ESP wins over the increment
			addr := disp + *pb + *pi*scale
			if !g.WriteOK(addr, 4, m.Brk) {
				m.TrapAddr = addr
				return sw
			}
			st32(mem, addr, *ps)
			return next()
		}

	// --- superblock guard exits ---
	case uop.KindGuard:
		c.t.Guards++
		s := c.exit(Exit{Kind: ExitGuard, Uop: i, Target: u.Target})
		return func() int32 {
			if !m.ucond(cc) {
				return next() // stay on the trace
			}
			return s
		}
	case uop.KindGuardCmpRR, uop.KindGuardCmpRI:
		c.t.Guards++
		rr := u.Kind == uop.KindGuardCmpRR
		s := c.exit(Exit{Kind: ExitGuard, Uop: i, Target: u.Target})
		return func() int32 {
			a, b := *pd, imm
			if rr {
				b = *ps
			}
			// The compare executes on both paths: record its flags.
			m.Fl = uop.Flags{Op: uop.FlagSub, A: a, B: b, Res: a - b}
			if !condSub(cc, a, b) {
				return next()
			}
			return s
		}
	case uop.KindGuardTestRR, uop.KindGuardTestRI:
		c.t.Guards++
		rr := u.Kind == uop.KindGuardTestRR
		s := c.exit(Exit{Kind: ExitGuard, Uop: i, Target: u.Target})
		return func() int32 {
			res := *pd & imm
			if rr {
				res = *pd & *ps
			}
			m.Fl = uop.Flags{Op: uop.FlagLogic, Res: res}
			if !condLogic(cc, res) {
				return next()
			}
			return s
		}
	case uop.KindGuardCmpRRNF, uop.KindGuardCmpRINF:
		c.t.Guards++
		rr := u.Kind == uop.KindGuardCmpRRNF
		s := c.exit(Exit{Kind: ExitGuard, Uop: i, Target: u.Target})
		return func() int32 {
			a, b := *pd, imm
			if rr {
				b = *ps
			}
			if !condSub(cc, a, b) {
				return next() // flags provably dead on the trace
			}
			// Exiting: the compare's flags become the visible state.
			m.Fl = uop.Flags{Op: uop.FlagSub, A: a, B: b, Res: a - b}
			return s
		}
	case uop.KindGuardTestRRNF, uop.KindGuardTestRINF:
		c.t.Guards++
		rr := u.Kind == uop.KindGuardTestRRNF
		s := c.exit(Exit{Kind: ExitGuard, Uop: i, Target: u.Target})
		return func() int32 {
			res := *pd & imm
			if rr {
				res = *pd & *ps
			}
			if !condLogic(cc, res) {
				return next()
			}
			m.Fl = uop.Flags{Op: uop.FlagLogic, Res: res}
			return s
		}
	case uop.KindRetGuard:
		c.t.Rets++
		want := u.Target
		st := c.rf(i, u.EIP, 4, 1)
		s := c.exit(Exit{Kind: ExitRetGuard, Uop: i})
		return func() int32 {
			sp := *pesp
			if !g.ReadOK(sp, 4, m.Brk) {
				m.TrapAddr = sp
				return st
			}
			target := le32(mem, sp)
			*pesp = sp + 4 + imm
			if target == want {
				return next() // the inlined return: stay on the trace
			}
			m.ExitTarget = target
			return s
		}

	// --- control transfers (always the trace's last micro-op) ---
	case uop.KindJmp:
		s := c.end(i, u.Target)
		return func() int32 { return s }
	case uop.KindJcc:
		st := c.exit(Exit{Kind: ExitJccTaken, Uop: i, Target: u.Target})
		sf := c.exit(Exit{Kind: ExitJccFall, Uop: i, Target: u.Next})
		return func() int32 {
			if m.ucond(cc) {
				return st
			}
			return sf
		}
	case uop.KindCmpJccRR, uop.KindCmpJccRI:
		rr := u.Kind == uop.KindCmpJccRR
		st := c.exit(Exit{Kind: ExitJccTaken, Uop: i, Target: u.Target})
		sf := c.exit(Exit{Kind: ExitJccFall, Uop: i, Target: u.Next})
		return func() int32 {
			a, b := *pd, imm
			if rr {
				b = *ps
			}
			m.Fl = uop.Flags{Op: uop.FlagSub, A: a, B: b, Res: a - b}
			if condSub(cc, a, b) {
				return st
			}
			return sf
		}
	case uop.KindTestJccRR, uop.KindTestJccRI:
		rr := u.Kind == uop.KindTestJccRR
		st := c.exit(Exit{Kind: ExitJccTaken, Uop: i, Target: u.Target})
		sf := c.exit(Exit{Kind: ExitJccFall, Uop: i, Target: u.Next})
		return func() int32 {
			res := *pd & imm
			if rr {
				res = *pd & *ps
			}
			m.Fl = uop.Flags{Op: uop.FlagLogic, Res: res}
			if condLogic(cc, res) {
				return st
			}
			return sf
		}
	case uop.KindCall:
		next := u.Next
		sw := c.wf(i, u.EIP, 4, 1)
		s := c.end(i, u.Target)
		return func() int32 {
			sp := *pesp - 4
			if !g.WriteOK(sp, 4, m.Brk) {
				m.TrapAddr = sp
				return sw
			}
			st32(mem, sp, next)
			*pesp = sp
			return s
		}
	case uop.KindCallR:
		next := u.Next
		sw := c.wf(i, u.EIP, 4, 1)
		s := c.exit(Exit{Kind: ExitInd, Uop: i})
		return func() int32 {
			target := *ps
			sp := *pesp - 4
			if !g.WriteOK(sp, 4, m.Brk) {
				m.TrapAddr = sp
				return sw
			}
			st32(mem, sp, next)
			*pesp = sp
			m.ExitTarget = target
			return s
		}
	case uop.KindCallM:
		next := u.Next
		sr := c.rf(i, u.EIP, 4, 1)
		sw := c.wf(i, u.EIP, 4, 1)
		s := c.exit(Exit{Kind: ExitInd, Uop: i})
		return func() int32 {
			addr := disp + *pb + *pi*scale
			if !g.ReadOK(addr, 4, m.Brk) {
				m.TrapAddr = addr
				return sr
			}
			target := le32(mem, addr)
			sp := *pesp - 4
			if !g.WriteOK(sp, 4, m.Brk) {
				m.TrapAddr = sp
				return sw
			}
			st32(mem, sp, next)
			*pesp = sp
			m.ExitTarget = target
			return s
		}
	case uop.KindRet:
		sr := c.rf(i, u.EIP, 4, 1)
		s := c.exit(Exit{Kind: ExitInd, Uop: i})
		return func() int32 {
			sp := *pesp
			if !g.ReadOK(sp, 4, m.Brk) {
				m.TrapAddr = sp
				return sr
			}
			target := le32(mem, sp)
			*pesp = sp + 4 + imm
			m.ExitTarget = target
			return s
		}
	case uop.KindPopRet:
		// Fusion guarantees Dst != ESP, so the RET pops sp+4.
		s1 := c.rf(i, u.EIP, 4, 1)
		s2 := c.rf(i, u.Disp, 4, 2) // ret EIP rides in Disp
		s := c.exit(Exit{Kind: ExitInd, Uop: i})
		return func() int32 {
			sp := *pesp
			if !g.ReadOK(sp, 4, m.Brk) {
				m.TrapAddr = sp
				return s1
			}
			*pesp = sp + 4
			*pd = le32(mem, sp)
			if !g.ReadOK(sp+4, 4, m.Brk) {
				m.TrapAddr = sp + 4
				return s2
			}
			target := le32(mem, sp+4)
			*pesp = sp + 8 + imm
			m.ExitTarget = target
			return s
		}
	case uop.KindPushCall:
		next := u.Next
		s1 := c.wf(i, u.EIP, 4, 1)
		s2 := c.wf(i, u.Imm, 4, 2) // call EIP rides in Imm
		s := c.end(i, u.Target)
		return func() int32 {
			sp := *pesp - 4
			if !g.WriteOK(sp, 4, m.Brk) {
				m.TrapAddr = sp
				return s1
			}
			st32(mem, sp, *ps)
			*pesp = sp
			sp -= 4
			if !g.WriteOK(sp, 4, m.Brk) {
				m.TrapAddr = sp
				return s2
			}
			st32(mem, sp, next)
			*pesp = sp
			return s
		}
	case uop.KindJmpR:
		s := c.exit(Exit{Kind: ExitInd, Uop: i})
		return func() int32 {
			m.ExitTarget = *ps
			return s
		}
	case uop.KindJmpM:
		sr := c.rf(i, u.EIP, 4, 1)
		s := c.exit(Exit{Kind: ExitInd, Uop: i})
		return func() int32 {
			addr := disp + *pb + *pi*scale
			if !g.ReadOK(addr, 4, m.Brk) {
				m.TrapAddr = addr
				return sr
			}
			m.ExitTarget = le32(mem, addr)
			return s
		}
	case uop.KindInt:
		// The syscall gate always hands control back to the VM, which
		// validates the vector, runs the syscall and re-enters.
		s := c.exit(Exit{Kind: ExitInt, Uop: i, EIP: u.EIP, Started: 1})
		return func() int32 { return s }
	case uop.KindHlt:
		s := c.exit(Exit{Kind: ExitIllegal, Uop: i, EIP: u.EIP, Started: 1})
		return func() int32 { m.TrapAux = 0; return s }
	case uop.KindUd2:
		s := c.exit(Exit{Kind: ExitIllegal, Uop: i, EIP: u.EIP, Started: 1})
		return func() int32 { m.TrapAux = 1; return s }
	}
	return nil // KindString/KindGeneric and anything unknown: bail
}
