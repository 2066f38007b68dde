//go:build amd64 && linux

package tier2

import (
	"runtime"
	"syscall"
)

// This file is the emitter's substrate: a minimal x86-64 assembler for
// exactly the instruction shapes the trace compiler needs, plus the
// executable-memory allocator. Emitted code follows the jitcall
// convention: DI = *Machine, SI = guest memory base, DX = the entered
// trace's link-slot offset at a trace entry, AX/CX/DX/R8-R11 scratch,
// status out in AX, no stack use beyond the call's own return address
// and one spilled register. Guest values are 32-bit throughout; every
// 32-bit register write zero-extends on amd64, so address arithmetic
// composed from 32-bit operations is automatically mod 2^32 and safe to
// use directly as an unsigned index off SI.

// Host register numbers (ModRM encoding).
const (
	hAX = 0
	hCX = 1
	hDX = 2
	hSP = 4
	hSI = 6
	hDI = 7
	hR8 = 8
	hR9 = 9
)

// ALU opcode selectors: the "r/m, reg" store forms, the "reg, r/m" load
// forms, and the /ext of the 0x81 immediate group.
const (
	aluAddMR, aluAddRM, aluAddExt = 0x01, 0x03, 0
	aluOrMR, aluOrRM, aluOrExt    = 0x09, 0x0B, 1
	aluAndMR, aluAndRM, aluAndExt = 0x21, 0x23, 4
	aluSubMR, aluSubRM, aluSubExt = 0x29, 0x2B, 5
	aluXorMR, aluXorRM, aluXorExt = 0x31, 0x33, 6
	aluCmpMR, aluCmpRM, aluCmpExt = 0x39, 0x3B, 7

	// Carry-consuming "reg, r/m" forms (no immediate group needed:
	// the flag materializer only ever folds memory operands).
	aluAdcRM = 0x13
)

// Shift /ext selectors of the 0xC1/0xD3 group.
const (
	shlExt = 4
	shrExt = 5
	sarExt = 7
)

type nasm struct {
	c []byte
}

func (a *nasm) db(bs ...byte) { a.c = append(a.c, bs...) }

func (a *nasm) d32(v uint32) {
	a.c = append(a.c, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func (a *nasm) here() int32 { return int32(len(a.c)) }

// rex emits a REX prefix when any of the extension bits are needed.
func (a *nasm) rex(w bool, reg, idx, rm int) {
	b := byte(0x40)
	if w {
		b |= 8
	}
	if reg >= 8 {
		b |= 4
	}
	if idx >= 8 {
		b |= 2
	}
	if rm >= 8 {
		b |= 1
	}
	if b != 0x40 || w {
		a.db(b)
	}
}

// modrmDI emits the ModRM (+disp) addressing [rdi+off].
func (a *nasm) modrmDI(reg int, off int32) {
	if off >= -128 && off <= 127 {
		a.db(byte(0x40|(reg&7)<<3|hDI), byte(off))
		return
	}
	a.db(byte(0x80 | (reg&7)<<3 | hDI))
	a.d32(uint32(off))
}

// modrmSIX emits the ModRM+SIB addressing [rsi + rX] (scale 1).
func (a *nasm) modrmSIX(reg, idx int) {
	a.db(byte(0x00|(reg&7)<<3|4), byte(0x00|(idx&7)<<3|hSI))
}

// ---- register <-> Machine field moves -----------------------------------

// loadM: mov reg32, [rdi+off]
func (a *nasm) loadM(reg int, off int32) {
	a.rex(false, reg, 0, 0)
	a.db(0x8B)
	a.modrmDI(reg, off)
}

// loadM64: mov reg64, [rdi+off]
func (a *nasm) loadM64(reg int, off int32) {
	a.rex(true, reg, 0, 0)
	a.db(0x8B)
	a.modrmDI(reg, off)
}

// storeM: mov [rdi+off], reg32
func (a *nasm) storeM(off int32, reg int) {
	a.rex(false, reg, 0, 0)
	a.db(0x89)
	a.modrmDI(reg, off)
}

// storeMI: mov dword [rdi+off], imm32
func (a *nasm) storeMI(off int32, imm uint32) {
	a.db(0xC7)
	a.modrmDI(0, off)
	a.d32(imm)
}

// storeMI8: mov byte [rdi+off], imm8
func (a *nasm) storeMI8(off int32, imm byte) {
	a.db(0xC6)
	a.modrmDI(0, off)
	a.db(imm)
}

// storeM8: mov [rdi+off], reg8 (low byte; reg must be AX/CX/DX or R8+).
func (a *nasm) storeM8(off int32, reg int) {
	a.rex(false, reg, 0, 0)
	a.db(0x88)
	a.modrmDI(reg, off)
}

// ---- immediates and reg-reg forms ---------------------------------------

// movRI: mov reg32, imm32
func (a *nasm) movRI(reg int, imm uint32) {
	a.rex(false, 0, 0, reg)
	a.db(byte(0xB8 | reg&7))
	a.d32(imm)
}

// movRR: mov dst32, src32
func (a *nasm) movRR(dst, src int) {
	a.rex(false, src, 0, dst)
	a.db(0x89, byte(0xC0|(src&7)<<3|dst&7))
}

// aluRR emits one of the "r/m, reg" ALU forms: op dst, src.
func (a *nasm) aluRR(opMR byte, dst, src int) {
	a.rex(false, src, 0, dst)
	a.db(opMR, byte(0xC0|(src&7)<<3|dst&7))
}

// aluRI: op reg, imm32 (0x81 group).
func (a *nasm) aluRI(ext, reg int, imm uint32) {
	a.rex(false, 0, 0, reg)
	a.db(0x81, byte(0xC0|ext<<3|reg&7))
	a.d32(imm)
}

// aluRM: op reg, [rdi+off] ("reg, r/m" load forms).
func (a *nasm) aluRM(opRM byte, reg int, off int32) {
	a.rex(false, reg, 0, 0)
	a.db(opRM)
	a.modrmDI(reg, off)
}

// aluMR: op [rdi+off], reg ("r/m, reg" store forms).
func (a *nasm) aluMR(opMR byte, off int32, reg int) {
	a.rex(false, reg, 0, 0)
	a.db(opMR)
	a.modrmDI(reg, off)
}

// aluMI: op dword [rdi+off], imm32 (0x81 group).
func (a *nasm) aluMI(ext int, off int32, imm uint32) {
	a.db(0x81)
	a.modrmDI(ext, off)
	a.d32(imm)
}

// loadM8: movzx reg32, byte [rdi+off] — bool and byte Machine fields.
func (a *nasm) loadM8(reg int, off int32) {
	a.rex(false, reg, 0, 0)
	a.db(0x0F, 0xB6)
	a.modrmDI(reg, off)
}

// pushR / popR: 64-bit host-stack push/pop, for the rare spill when
// every scratch register is live across a flag materialization.
func (a *nasm) pushR(reg int) {
	if reg >= 8 {
		a.db(0x41)
	}
	a.db(byte(0x50 | reg&7))
}

func (a *nasm) popR(reg int) {
	if reg >= 8 {
		a.db(0x41)
	}
	a.db(byte(0x58 | reg&7))
}

// testRR: test r/m32, r32.
func (a *nasm) testRR(dst, src int) {
	a.rex(false, src, 0, dst)
	a.db(0x85, byte(0xC0|(src&7)<<3|dst&7))
}

// testRI: test reg, imm32.
func (a *nasm) testRI(reg int, imm uint32) {
	a.rex(false, 0, 0, reg)
	a.db(0xF7, byte(0xC0|reg&7))
	a.d32(imm)
}

// shiftRI: sh reg, imm (imm in 1..31).
func (a *nasm) shiftRI(ext, reg int, imm byte) {
	a.rex(false, 0, 0, reg)
	a.db(0xC1, byte(0xC0|ext<<3|reg&7), imm)
}

// shiftCL: sh reg, cl.
func (a *nasm) shiftCL(ext, reg int) {
	a.rex(false, 0, 0, reg)
	a.db(0xD3, byte(0xC0|ext<<3|reg&7))
}

// negNot: F7 /3 (neg) or /2 (not) on reg32.
func (a *nasm) negNot(ext, reg int) {
	a.rex(false, 0, 0, reg)
	a.db(0xF7, byte(0xC0|ext<<3|reg&7))
}

// imulRR: imul dst32, src32.
func (a *nasm) imulRR(dst, src int) {
	a.rex(false, dst, 0, src)
	a.db(0x0F, 0xAF, byte(0xC0|(dst&7)<<3|src&7))
}

// mulDiv: F7 /4 mul, /5 imul, /6 div, /7 idiv on reg32.
func (a *nasm) mulDiv(ext, reg int) {
	a.rex(false, 0, 0, reg)
	a.db(0xF7, byte(0xC0|ext<<3|reg&7))
}

// mulDiv64: the REX.W forms on reg64 (cqo pairs separately).
func (a *nasm) mulDiv64(ext, reg int) {
	a.rex(true, 0, 0, reg)
	a.db(0xF7, byte(0xC0|ext<<3|reg&7))
}

// movzx8/16, movsx8/16: widening reg, reg (low byte / low word).
func (a *nasm) widenRR(op byte, dst, src int) {
	a.rex(false, dst, 0, src)
	a.db(0x0F, op, byte(0xC0|(dst&7)<<3|src&7))
}

// setcc: setcc reg8 (low byte).
func (a *nasm) setcc(cc byte, reg int) {
	a.rex(false, 0, 0, reg)
	a.db(0x0F, 0x90|cc, byte(0xC0|reg&7))
}

// setccM: setcc byte [rdi+off].
func (a *nasm) setccM(cc byte, off int32) {
	a.db(0x0F, 0x90|cc)
	a.modrmDI(0, off)
}

// lea32: lea dst32, [base + idx*scale + disp] (scale 1/2/4/8).
func (a *nasm) lea32(dst, base, idx int, scale uint8, disp uint32) {
	var ss byte
	switch scale {
	case 1:
		ss = 0
	case 2:
		ss = 1
	case 4:
		ss = 2
	default:
		ss = 3
	}
	a.rex(false, dst, idx, base)
	a.db(0x8D, byte(0x80|(dst&7)<<3|4), byte(ss<<6|byte(idx&7)<<3|byte(base&7)))
	a.d32(disp)
}

// leaD: lea dst32, [base + disp] (no index).
func (a *nasm) leaD(dst, base int, disp uint32) {
	a.rex(false, dst, 0, base)
	a.db(0x8D, byte(0x80|(dst&7)<<3|base&7))
	if base&7 == 4 {
		// base SP/R12 needs a SIB with no index.
		panic("tier2: leaD on rsp-coded base")
	}
	a.d32(disp)
}

// ---- guest memory access (through SI) -----------------------------------

// loadG: load from guest memory at [rsi+addrReg]: size 4 plain, size
// 1/2 zero- or sign-extending into a 32-bit register.
func (a *nasm) loadG(reg, addrReg int, size uint32, signed bool) {
	switch {
	case size == 4:
		a.rex(false, reg, addrReg, 0)
		a.db(0x8B)
	case size == 2 && !signed:
		a.rex(false, reg, addrReg, 0)
		a.db(0x0F, 0xB7)
	case size == 2:
		a.rex(false, reg, addrReg, 0)
		a.db(0x0F, 0xBF)
	case !signed:
		a.rex(false, reg, addrReg, 0)
		a.db(0x0F, 0xB6)
	default:
		a.rex(false, reg, addrReg, 0)
		a.db(0x0F, 0xBE)
	}
	a.modrmSIX(reg, addrReg)
}

// storeG: store reg (32-bit or low byte) to guest memory at [rsi+addrReg].
func (a *nasm) storeG(addrReg, reg int, size uint32) {
	a.rex(false, reg, addrReg, 0)
	if size == 1 {
		a.db(0x88)
	} else {
		a.db(0x89)
	}
	a.modrmSIX(reg, addrReg)
}

// storeGI: mov dword [rsi+addrReg], imm32 / mov byte [...], imm8.
func (a *nasm) storeGI(addrReg int, imm uint32, size uint32) {
	a.rex(false, 0, addrReg, 0)
	if size == 1 {
		a.db(0xC6)
		a.modrmSIX(0, addrReg)
		a.db(byte(imm))
		return
	}
	a.db(0xC7)
	a.modrmSIX(0, addrReg)
	a.d32(imm)
}

// ---- control flow -------------------------------------------------------

// jcc32 emits jcc rel32 with a placeholder and returns the fixup site.
func (a *nasm) jcc32(cc byte) int32 {
	a.db(0x0F, 0x80|cc)
	p := a.here()
	a.d32(0)
	return p
}

// jmp32 emits jmp rel32 with a placeholder and returns the fixup site.
func (a *nasm) jmp32() int32 {
	a.db(0xE9)
	p := a.here()
	a.d32(0)
	return p
}

// patch resolves a forward fixup to the current position.
func (a *nasm) patch(p int32) {
	rel := a.here() - (p + 4)
	a.c[p] = byte(rel)
	a.c[p+1] = byte(rel >> 8)
	a.c[p+2] = byte(rel >> 16)
	a.c[p+3] = byte(rel >> 24)
}

// retStatus: mov eax, status; ret.
func (a *nasm) retStatus(s int32) {
	a.movRI(hAX, uint32(s))
	a.db(0xC3)
}

// ---- 64-bit accounting helpers ------------------------------------------

// incM64: inc qword [rdi+off].
func (a *nasm) incM64(off int32) {
	a.rex(true, 0, 0, 0)
	a.db(0xFF)
	a.modrmDI(0, off)
}

// aluMI64: op qword [rdi+off], imm32 (sign-extended; 0x81 group).
func (a *nasm) aluMI64(ext int, off int32, imm uint32) {
	a.rex(true, 0, 0, 0)
	a.db(0x81)
	a.modrmDI(ext, off)
	a.d32(imm)
}

// cmpMI64: cmp qword [rdi+off], imm32 (sign-extended).
func (a *nasm) cmpMI64(off int32, imm uint32) { a.aluMI64(aluCmpExt, off, imm) }

// storeM64: mov [rdi+off], reg64
func (a *nasm) storeM64(off int32, reg int) {
	a.rex(true, reg, 0, 0)
	a.db(0x89)
	a.modrmDI(reg, off)
}

// addRM64: add reg64, [rdi+off]
func (a *nasm) addRM64(reg int, off int32) {
	a.rex(true, reg, 0, 0)
	a.db(aluAddRM)
	a.modrmDI(reg, off)
}

// ---- link-table access (through a slot pointer in AX or CX) -------------

// modrmBD emits the ModRM (+disp) addressing [base+disp]; base must need
// no SIB (AX, CX, DX).
func (a *nasm) modrmBD(reg, base int, disp int32) {
	if disp >= -128 && disp <= 127 {
		a.db(byte(0x40|(reg&7)<<3|base&7), byte(disp))
		return
	}
	a.db(byte(0x80 | (reg&7)<<3 | base&7))
	a.d32(uint32(disp))
}

// loadRD: mov reg32, [base+disp]
func (a *nasm) loadRD(reg, base int, disp int32) {
	a.rex(false, reg, 0, base)
	a.db(0x8B)
	a.modrmBD(reg, base, disp)
}

// cmpRMD: cmp reg32, [base+disp]
func (a *nasm) cmpRMD(reg, base int, disp int32) {
	a.rex(false, reg, 0, base)
	a.db(aluCmpRM)
	a.modrmBD(reg, base, disp)
}

// jmpMD: jmp qword [base+disp] — with ret, the only indirect branch the
// emitter produces.
func (a *nasm) jmpMD(base int, disp int32) {
	a.db(0xFF)
	a.modrmBD(4, base, disp)
}

// ---- executable memory --------------------------------------------------

// sealExec copies code into a fresh anonymous mapping and seals it
// read+execute. Returns nil when the platform refuses executable
// mappings (hardened kernels); the caller then stays on tier-1.
func sealExec(code []byte) *execBuf {
	if len(code) == 0 {
		return nil
	}
	buf, err := syscall.Mmap(-1, 0, len(code),
		syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil
	}
	copy(buf, code)
	if err := syscall.Mprotect(buf, syscall.PROT_READ|syscall.PROT_EXEC); err != nil {
		syscall.Munmap(buf)
		return nil
	}
	e := &execBuf{buf: buf}
	runtime.SetFinalizer(e, (*execBuf).release)
	return e
}

func (e *execBuf) release() {
	if e.buf != nil {
		syscall.Munmap(e.buf)
		e.buf = nil
	}
}
