//go:build amd64 && linux

package tier2

import (
	"runtime"
	"syscall"
	"unsafe"
)

// This file is the emitter's substrate: a minimal x86-64 assembler for
// exactly the instruction shapes the trace compiler needs, plus the
// mapping of the executable arena (execbuf.go). Every instruction form
// takes its r/m operand as one rm value — a register, or memory
// [base+idx*scale+disp] with either register optional — so one encoder
// per opcode serves register operands, Machine fields off RDI, guest
// memory off RSI and link-table slots alike. The register convention the
// emitted code follows is native_amd64.go's; the assembler knows none of
// it.
//
// Besides bytes the assembler keeps two things the emitter and the
// ledger read: a count of instructions emitted, and a log of what each
// instruction did to its destination register (see def).

// Host register numbers (ModRM encoding).
const (
	hAX  = 0
	hCX  = 1
	hDX  = 2
	hBX  = 3
	hSP  = 4
	hBP  = 5
	hSI  = 6
	hDI  = 7
	hR8  = 8
	hR9  = 9
	hR10 = 10
	hR11 = 11
	hR12 = 12
	hR13 = 13
	hR15 = 15
)

// ALU opcode selectors: the "r/m, reg" store forms, the "reg, r/m" load
// forms, and the /ext of the 0x81/0x83 immediate group. TEST has only a
// store form.
const (
	aluAddMR, aluAddRM, aluAddExt = 0x01, 0x03, 0
	aluOrMR, aluOrRM, aluOrExt    = 0x09, 0x0B, 1
	aluAdcRM                      = 0x13
	aluAndMR, aluAndRM, aluAndExt = 0x21, 0x23, 4
	aluSubMR, aluSubRM, aluSubExt = 0x29, 0x2B, 5
	aluXorMR, aluXorRM, aluXorExt = 0x31, 0x33, 6
	aluCmpMR, aluCmpRM, aluCmpExt = 0x39, 0x3B, 7
	aluTestMR                     = 0x85
)

// Shift /ext selectors of the 0xC1/0xD3 group, and the 0xF7 group.
const (
	shlExt = 4
	shrExt = 5
	sarExt = 7

	notExt  = 2
	negExt  = 3
	mulExt  = 4
	imulExt = 5
	divExt  = 6
	idivExt = 7
)

// Widening-move second opcode bytes (0F xx).
const (
	movzx8  = 0xB6
	movzx16 = 0xB7
	movsx8  = 0xBE
	movsx16 = 0xBF
)

// rm is a ModRM r/m operand: the register base when direct, else memory
// at [base + idx*scale + disp], base and idx each -1 when absent.
type rm struct {
	base, idx int
	scale     uint8 // 1, 2, 4 or 8; ignored without idx
	disp      int32
	direct    bool
}

// rg is the register operand r.
func rg(r int) rm { return rm{base: r, idx: -1, direct: true} }

// at is the memory operand [base+disp].
func at(base int, disp int32) rm { return rm{base: base, idx: -1, disp: disp} }

// sib is the memory operand [base+idx*scale+disp]; pass -1 for an absent
// base or index.
func sib(base, idx int, scale uint8, disp int32) rm {
	return rm{base: base, idx: idx, scale: scale, disp: disp}
}

// fix is the site of a rel32 placeholder awaiting its target.
type fix int32

type nasm struct {
	c []byte
	n int // instructions emitted

	// The write log: register r holds sym[r] + off[r] (mod 2^32), where
	// a symbol stands for one value the code did not compute from a
	// constant. Two registers with the same symbol differ by a known
	// constant; a register whose symbol is unchanged between two points
	// moved only by the difference of its offsets. This is what lets
	// the emitter put accesses off [ebp-8], off the esp a push moved,
	// and off the ebp that "mov ebp, esp" made, in one bounds check.
	sym  [16]uint32
	off  [16]int64
	nsym uint32

	// long: every displacement and every immediate of the 0x81/0x83 group
	// takes its 32-bit form whatever its value, so that the emitter can
	// emit the instruction again, in place, once it knows the value.
	long bool
}

func (a *nasm) db(bs ...byte) { a.c = append(a.c, bs...) }

func (a *nasm) d32(v uint32) {
	a.c = append(a.c, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func (a *nasm) here() int32 { return int32(len(a.c)) }

// def logs that reg now holds a value unrelated to any other.
func (a *nasm) def(reg int) {
	a.nsym++
	a.sym[reg], a.off[reg] = a.nsym, 0
}

// alias logs reg = src + d (32-bit).
func (a *nasm) alias(reg, src int, d int32) {
	a.sym[reg], a.off[reg] = a.sym[src], a.off[src]+int64(d)
}

// Which operands of an instruction are 8-bit registers: those need a REX
// prefix to reach SPL/BPL/SIL/DIL instead of AH/CH/DH/BH.
const (
	noB8  = 0
	regB8 = 1 // the reg field
	rmB8  = 2 // the r/m, when it is a register
)

// ins encodes one instruction: optional REX, the opcode bytes, then ModRM
// (+SIB, +displacement) with reg in the reg field and o as r/m.
func (a *nasm) ins(w bool, b8 int, reg int, o rm, op ...byte) {
	a.n++
	// At most REX, three opcode bytes, ModRM, SIB and a disp32.
	var buf [10]byte
	n := 0
	rex := byte(0x40)
	if w {
		rex |= 8
	}
	if reg >= 8 {
		rex |= 4
	}
	if o.idx >= 8 {
		rex |= 2
	}
	if o.base >= 8 {
		rex |= 1
	}
	if rex != 0x40 || b8&regB8 != 0 && reg >= 4 || b8&rmB8 != 0 && o.direct && o.base >= 4 {
		buf[0], n = rex, 1
	}
	n += copy(buf[n:], op)
	r := byte(reg&7) << 3
	sibByte := func() byte {
		if o.idx == hSP {
			panic("tier2: rsp as an index register")
		}
		if o.idx < 0 {
			return 4 << 3 // no index
		}
		return scaleBits(o.scale)<<6 | byte(o.idx&7)<<3
	}
	disp := 0 // bytes of displacement to emit
	switch {
	case o.direct:
		buf[n] = 0xC0 | r | byte(o.base&7)
		n++
	case o.base < 0:
		// No base: SIB with base=101 under mod=00 means disp32 alone.
		buf[n], buf[n+1] = r|4, sibByte()|5
		n, disp = n+2, 4
	default:
		mod := byte(0x80)
		disp = 4
		switch {
		case a.long:
		case o.disp == 0 && o.base&7 != 5: // rbp/r13 have no mod=00 form
			mod, disp = 0, 0
		case o.disp >= -128 && o.disp <= 127:
			mod, disp = 0x40, 1
		}
		if o.idx >= 0 || o.base&7 == 4 { // rsp/r12 as base need a SIB
			buf[n], buf[n+1] = mod|r|4, sibByte()|byte(o.base&7)
			n += 2
		} else {
			buf[n] = mod | r | byte(o.base&7)
			n++
		}
	}
	for k := 0; k < disp; k++ {
		buf[n] = byte(uint32(o.disp) >> (8 * k))
		n++
	}
	a.c = append(a.c, buf[:n]...)
}

func scaleBits(scale uint8) byte {
	switch scale {
	case 2:
		return 1
	case 4:
		return 2
	case 8:
		return 3
	}
	return 0
}

// ---- moves ---------------------------------------------------------------

// mov: mov dst32, r/m32.
func (a *nasm) mov(dst int, src rm) {
	a.ins(false, noB8, dst, src, 0x8B)
	if src.direct {
		a.alias(dst, src.base, 0)
	} else {
		a.def(dst)
	}
}

// mov64: mov dst64, r/m64.
func (a *nasm) mov64(dst int, src rm) {
	a.ins(true, noB8, dst, src, 0x8B)
	a.def(dst)
}

// movTo: mov r/m32, src32 (a store; movTo64 the 64-bit one).
func (a *nasm) movTo(dst rm, src int) { a.ins(false, noB8, src, dst, 0x89) }

func (a *nasm) movTo64(dst rm, src int) { a.ins(true, noB8, src, dst, 0x89) }

// mov8: mov dst8, r/m8 — the low byte of dst, the rest of it kept.
func (a *nasm) mov8(dst int, src rm) {
	a.ins(false, regB8|rmB8, dst, src, 0x8A)
	a.def(dst)
}

// movTo8: mov m8, src8 (the low byte of src).
func (a *nasm) movTo8(dst rm, src int) { a.ins(false, regB8|rmB8, src, dst, 0x88) }

// movI: mov dword r/m32, imm32.
func (a *nasm) movI(dst rm, imm uint32) {
	if dst.direct {
		a.n++
		if dst.base >= 8 {
			a.db(0x41)
		}
		a.db(byte(0xB8 | dst.base&7))
		a.def(dst.base)
	} else {
		a.ins(false, noB8, 0, dst, 0xC7)
	}
	a.d32(imm)
}

// movI8: mov byte r/m8, imm8.
func (a *nasm) movI8(dst rm, imm byte) {
	a.ins(false, rmB8, 0, dst, 0xC6)
	a.db(imm)
	if dst.direct {
		a.def(dst.base)
	}
}

// movI64: movabs reg64, imm64.
func (a *nasm) movI64(reg int, imm uint64) {
	a.n++
	a.db(byte(0x48|reg>>3), byte(0xB8|reg&7))
	a.d32(uint32(imm))
	a.d32(uint32(imm >> 32))
	a.def(reg)
}

// movx: movzx/movsx dst32, r/m8 or r/m16 (op is the second opcode byte).
func (a *nasm) movx(op byte, dst int, src rm) {
	b8 := noB8
	if op == movzx8 || op == movsx8 {
		b8 = rmB8
	}
	a.ins(false, b8, dst, src, 0x0F, op)
	a.def(dst)
}

// movsxd: movsxd dst64, r/m32.
func (a *nasm) movsxd(dst int, src rm) {
	a.ins(true, noB8, dst, src, 0x63)
	a.def(dst)
}

// xchg: xchg a32, b32.
func (a *nasm) xchg(x, y int) {
	a.ins(false, noB8, x, rg(y), 0x87)
	a.sym[x], a.sym[y] = a.sym[y], a.sym[x]
	a.off[x], a.off[y] = a.off[y], a.off[x]
}

// lea: lea dst32, [m] — 32-bit address arithmetic, mod 2^32 like the
// guest's. lea64 is the exact 64-bit sum.
func (a *nasm) lea(dst int, m rm) {
	a.ins(false, noB8, dst, m, 0x8D)
	if m.idx < 0 && m.base >= 0 {
		a.alias(dst, m.base, m.disp)
	} else {
		a.def(dst)
	}
}

func (a *nasm) lea64(dst int, m rm) {
	a.ins(true, noB8, dst, m, 0x8D)
	a.def(dst)
}

// push / pop: the 64-bit host-stack forms, for the one spill the flag
// materializer needs.
func (a *nasm) push(reg int) {
	a.n++
	if reg >= 8 {
		a.db(0x41)
	}
	a.db(byte(0x50 | reg&7))
}

func (a *nasm) pop(reg int) {
	a.n++
	if reg >= 8 {
		a.db(0x41)
	}
	a.db(byte(0x58 | reg&7))
	a.def(reg)
}

// ---- arithmetic ----------------------------------------------------------

// alu: op dst32, r/m32 (the "reg, r/m" forms; alu64 the REX.W ones).
func (a *nasm) alu(opRM byte, dst int, src rm) {
	a.ins(false, noB8, dst, src, opRM)
	if opRM != aluCmpRM {
		a.def(dst)
	}
}

func (a *nasm) alu64(opRM byte, dst int, src rm) {
	a.ins(true, noB8, dst, src, opRM)
	if opRM != aluCmpRM {
		a.def(dst)
	}
}

// aluTo: op r/m32, src32 (the "r/m, reg" forms, TEST among them).
func (a *nasm) aluTo(opMR byte, dst rm, src int) {
	a.ins(false, noB8, src, dst, opMR)
	if dst.direct && opMR != aluCmpMR && opMR != aluTestMR {
		a.def(dst.base)
	}
}

// aluI: op r/m32, imm — the sign-extended imm8 form when it fits (and
// the assembler is not long). An
// add or sub of a constant to a register keeps the register's symbol.
func (a *nasm) aluI(ext int, dst rm, imm uint32) {
	a.immGroup(false, ext, dst, imm)
	switch {
	case !dst.direct || ext == aluCmpExt:
	case ext == aluAddExt:
		a.off[dst.base] += int64(int32(imm))
	case ext == aluSubExt:
		a.off[dst.base] -= int64(int32(imm))
	default:
		a.def(dst.base)
	}
}

// aluI64: op r/m64, imm32 sign-extended.
func (a *nasm) aluI64(ext int, dst rm, imm uint32) {
	a.immGroup(true, ext, dst, imm)
	if dst.direct && ext != aluCmpExt {
		a.def(dst.base)
	}
}

func (a *nasm) immGroup(w bool, ext int, dst rm, imm uint32) {
	if v := int32(imm); v >= -128 && v <= 127 && !a.long {
		a.ins(w, noB8, ext, dst, 0x83)
		a.db(byte(imm))
		return
	}
	a.ins(w, noB8, ext, dst, 0x81)
	a.d32(imm)
}

// testI: test r/m32, imm32.
func (a *nasm) testI(dst rm, imm uint32) {
	a.ins(false, noB8, 0, dst, 0xF7)
	a.d32(imm)
}

// shiftI: sh r/m32, imm8 (shiftI64 the REX.W form); shiftCL: sh r/m32, cl.
func (a *nasm) shiftI(ext, reg int, n byte) {
	a.ins(false, noB8, ext, rg(reg), 0xC1)
	a.db(n)
	a.def(reg)
}

func (a *nasm) shiftI64(ext, reg int, n byte) {
	a.ins(true, noB8, ext, rg(reg), 0xC1)
	a.db(n)
	a.def(reg)
}

func (a *nasm) shiftCL(ext, reg int) {
	a.ins(false, noB8, ext, rg(reg), 0xD3)
	a.def(reg)
}

// unary: the 0xF7 group on r/m32 — not and neg write their operand; mul,
// imul, div and idiv write EAX and EDX. unary64 is the REX.W form.
func (a *nasm) unary(ext int, o rm) {
	a.ins(false, noB8, ext, o, 0xF7)
	a.unaryDefs(ext, o)
}

func (a *nasm) unary64(ext int, o rm) {
	a.ins(true, noB8, ext, o, 0xF7)
	a.unaryDefs(ext, o)
}

func (a *nasm) unaryDefs(ext int, o rm) {
	if ext >= mulExt {
		a.def(hAX)
		a.def(hDX)
	} else if o.direct {
		a.def(o.base)
	}
}

// cqo sign-extends rax into rdx.
func (a *nasm) cqo() {
	a.n++
	a.db(0x48, 0x99)
	a.def(hDX)
}

// imul: imul dst32, r/m32; imulI: imul dst32, r/m32, imm32.
func (a *nasm) imul(dst int, src rm) {
	a.ins(false, noB8, dst, src, 0x0F, 0xAF)
	a.def(dst)
}

func (a *nasm) imulI(dst int, src rm, imm uint32) {
	a.ins(false, noB8, dst, src, 0x69)
	a.d32(imm)
	a.def(dst)
}

// setcc: setcc r/m8.
func (a *nasm) setcc(cc byte, dst rm) {
	a.ins(false, rmB8, 0, dst, 0x0F, 0x90|cc)
	if dst.direct {
		a.def(dst.base)
	}
}

// ---- control flow --------------------------------------------------------

// jcc emits jcc rel32 with a placeholder and returns the fixup site.
func (a *nasm) jcc(cc byte) fix {
	a.n++
	a.db(0x0F, 0x80|cc)
	a.d32(0)
	return fix(a.here() - 4)
}

// patch resolves a fixup to the current position.
func (a *nasm) patch(p fix) {
	rel := a.here() - (int32(p) + 4)
	a.c[p] = byte(rel)
	a.c[p+1] = byte(rel >> 8)
	a.c[p+2] = byte(rel >> 16)
	a.c[p+3] = byte(rel >> 24)
}

// jmpM: jmp qword [m] — with ret, the only indirect branch the emitter
// produces.
func (a *nasm) jmpM(m rm) { a.ins(false, noB8, 4, m, 0xFF) }

// retStatus: mov eax, status; ret.
func (a *nasm) retStatus(s int32) {
	a.movI(rg(hAX), uint32(s))
	a.n++
	a.db(0xC3)
}

// ---- executable memory ---------------------------------------------------

// Linux's memfd_create on amd64 and the two of its flags used here; the
// frozen syscall package predates all three.
const (
	sysMemfdCreate = 319
	mfdCloexec     = 0x1
	mfdExec        = 0x10
)

// mapViews backs the arena with an anonymous memory file mapped twice,
// read+write and read+execute. The file descriptor does not outlive the
// call; the region lives until unmap drops both views. It reports whether
// the host allowed all of it.
func (a *Arena) mapViews() bool {
	name := [...]byte{'v', 'x', 'a', '-', 'c', 'o', 'd', 'e', 0}
	// Kernels from 6.3 want to be told the file may be mapped executable;
	// older ones reject the flag they do not know.
	fd, _, errno := syscall.Syscall(sysMemfdCreate, uintptr(unsafe.Pointer(&name[0])), mfdCloexec|mfdExec, 0)
	if errno == syscall.EINVAL {
		fd, _, errno = syscall.Syscall(sysMemfdCreate, uintptr(unsafe.Pointer(&name[0])), mfdCloexec, 0)
	}
	if errno != 0 {
		return false
	}
	defer syscall.Close(int(fd))
	if syscall.Ftruncate(int(fd), int64(a.size)) != nil {
		return false
	}
	rw, err := syscall.Mmap(int(fd), 0, a.size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return false
	}
	rx, err := syscall.Mmap(int(fd), 0, a.size, syscall.PROT_READ|syscall.PROT_EXEC, syscall.MAP_SHARED)
	if err != nil {
		syscall.Munmap(rw)
		return false
	}
	a.rw, a.rx = rw, rx
	runtime.SetFinalizer(a, (*Arena).unmap)
	return true
}

func (a *Arena) unmap() {
	syscall.Munmap(a.rw)
	syscall.Munmap(a.rx)
	a.rw, a.rx = nil, nil
}
