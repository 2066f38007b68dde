package vm

import (
	"bytes"
	"fmt"
	"testing"

	"vxa/internal/x86"
)

// TestMovzxMovsx covers the widening loads from memory and registers.
func TestMovzxMovsx(t *testing.T) {
	v := newBare(t)
	addr := uint32(PageSize + 0x100)
	v.mem[addr] = 0x80
	v.mem[addr+1] = 0xFF
	v.m.Regs[x86.EBX] = addr

	cases := []struct {
		inst x86.Inst
		want uint32
	}{
		{x86.Inst{Op: x86.MOVZX, Dst: x86.R(x86.EAX), Src: x86.M8(x86.EBX, 0)}, 0x80},
		{x86.Inst{Op: x86.MOVSX, Dst: x86.R(x86.EAX), Src: x86.M8(x86.EBX, 0)}, 0xFFFFFF80},
		{x86.Inst{Op: x86.MOVZX, Dst: x86.R(x86.EAX), Src: x86.M16(x86.EBX, 0)}, 0xFF80},
		{x86.Inst{Op: x86.MOVSX, Dst: x86.R(x86.EAX), Src: x86.M16(x86.EBX, 0)}, 0xFFFFFF80},
	}
	for _, c := range cases {
		v.m.Regs[x86.EAX] = 0xDEADBEEF
		if err := step(t, v, c.inst); err != nil {
			t.Fatal(err)
		}
		if v.m.Regs[x86.EAX] != c.want {
			t.Errorf("%v: eax = %#x, want %#x", c.inst, v.m.Regs[x86.EAX], c.want)
		}
	}
}

func TestXchgMem(t *testing.T) {
	v := newBare(t)
	addr := uint32(PageSize + 0x40)
	v.store(addr, 4, 0x1111)
	v.m.Regs[x86.EBX] = addr
	v.m.Regs[x86.ECX] = 0x2222
	if err := step(t, v, x86.Inst{Op: x86.XCHG, Dst: x86.M(x86.EBX, 0), Src: x86.R(x86.ECX)}); err != nil {
		t.Fatal(err)
	}
	got, _ := v.load(addr, 4)
	if got != 0x2222 || v.m.Regs[x86.ECX] != 0x1111 {
		t.Fatalf("xchg: mem=%#x ecx=%#x", got, v.m.Regs[x86.ECX])
	}
}

func TestSetccAllConditions(t *testing.T) {
	v := newBare(t)
	// After cmp 3, 5 (signed less, unsigned less, not equal):
	v.m.Regs[x86.EAX], v.m.Regs[x86.EBX] = 3, 5
	if err := step(t, v, x86.Inst{Op: x86.CMP, Dst: x86.R(x86.EAX), Src: x86.R(x86.EBX)}); err != nil {
		t.Fatal(err)
	}
	want := map[x86.CC]uint32{
		x86.CCE: 0, x86.CCNE: 1, x86.CCL: 1, x86.CCGE: 0,
		x86.CCB: 1, x86.CCAE: 0, x86.CCLE: 1, x86.CCG: 0,
		x86.CCBE: 1, x86.CCA: 0, x86.CCS: 1, x86.CCNS: 0,
	}
	for cc, expect := range want {
		cf, zf, sf, of := v.m.CF, v.m.ZF, v.m.SF, v.m.OF
		v.m.Regs[x86.EDX] = 0xFFFFFFFF
		if err := step(t, v, x86.Inst{Op: x86.SETCC, CC: cc, Dst: x86.R8(x86.EDX)}); err != nil {
			t.Fatal(err)
		}
		if v.m.Regs[x86.EDX]&0xFF != expect {
			t.Errorf("set%v = %d, want %d", cc, v.m.Regs[x86.EDX]&0xFF, expect)
		}
		if v.m.Regs[x86.EDX]>>8 != 0xFFFFFF {
			t.Errorf("set%v clobbered upper bytes", cc)
		}
		v.m.CF, v.m.ZF, v.m.SF, v.m.OF = cf, zf, sf, of
	}
}

func TestPushImmAndMem(t *testing.T) {
	v := newBare(t)
	sp0 := v.m.Regs[x86.ESP]
	if err := step(t, v, x86.Inst{Op: x86.PUSH, Dst: x86.I(-7)}); err != nil {
		t.Fatal(err)
	}
	got, _ := v.load(v.m.Regs[x86.ESP], 4)
	if int32(got) != -7 || v.m.Regs[x86.ESP] != sp0-4 {
		t.Fatalf("push imm: [esp]=%d esp=%#x", int32(got), v.m.Regs[x86.ESP])
	}
	// push [mem]
	addr := uint32(PageSize + 8)
	v.store(addr, 4, 0xCAFE)
	v.m.Regs[x86.EBX] = addr
	if err := step(t, v, x86.Inst{Op: x86.PUSH, Dst: x86.M(x86.EBX, 0)}); err != nil {
		t.Fatal(err)
	}
	got, _ = v.load(v.m.Regs[x86.ESP], 4)
	if got != 0xCAFE {
		t.Fatalf("push mem: %#x", got)
	}
}

func TestStosdAndMovsd(t *testing.T) {
	v := newBare(t)
	dst := uint32(PageSize + 0x200)
	v.m.Regs[x86.EDI] = dst
	v.m.Regs[x86.EAX] = 0x11223344
	v.m.Regs[x86.ECX] = 4
	if err := step(t, v, x86.Inst{Op: x86.STOSD, Rep: true}); err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 4; i++ {
		got, _ := v.load(dst+i*4, 4)
		if got != 0x11223344 {
			t.Fatalf("stosd word %d = %#x", i, got)
		}
	}
	if v.m.Regs[x86.EDI] != dst+16 || v.m.Regs[x86.ECX] != 0 {
		t.Fatalf("stosd regs: edi=%#x ecx=%d", v.m.Regs[x86.EDI], v.m.Regs[x86.ECX])
	}
	// movsd copies dwords.
	v.m.Regs[x86.ESI] = dst
	v.m.Regs[x86.EDI] = dst + 64
	v.m.Regs[x86.ECX] = 4
	if err := step(t, v, x86.Inst{Op: x86.MOVSD, Rep: true}); err != nil {
		t.Fatal(err)
	}
	got, _ := v.load(dst+64+12, 4)
	if got != 0x11223344 {
		t.Fatalf("movsd tail = %#x", got)
	}
}

// TestRepZeroCount: rep with ECX=0 is a no-op that must not fault even
// with bad pointers.
func TestRepZeroCount(t *testing.T) {
	v := newBare(t)
	v.m.Regs[x86.EDI] = 0xFFFFFFF0 // would fault if touched
	v.m.Regs[x86.ESI] = 0xFFFFFFF0
	v.m.Regs[x86.ECX] = 0
	if err := step(t, v, x86.Inst{Op: x86.MOVSB, Rep: true}); err != nil {
		t.Fatalf("rep movsb with ecx=0 faulted: %v", err)
	}
	if err := step(t, v, x86.Inst{Op: x86.STOSB, Rep: true}); err != nil {
		t.Fatalf("rep stosb with ecx=0 faulted: %v", err)
	}
}

// TestRepFaultsAtomically: a rep whose range crosses the sandbox boundary
// traps without partial effects on registers.
func TestRepFaultsAtomically(t *testing.T) {
	v := newBare(t)
	v.m.Regs[x86.EDI] = v.m.Brk - 4 // 4 valid bytes, then out of bounds
	v.m.Regs[x86.ECX] = 100
	v.m.Regs[x86.EAX] = 0xAA
	err := step(t, v, x86.Inst{Op: x86.STOSB, Rep: true})
	if k, ok := trapKind(err); !ok || k != TrapMemory {
		t.Fatalf("err = %v, want memory trap", err)
	}
	if v.m.Regs[x86.ECX] != 100 {
		t.Fatalf("partial rep visible: ecx = %d", v.m.Regs[x86.ECX])
	}
}

// TestIndirectCallThroughTable exercises JMPM/CALLM with a jump table in
// guest memory, the pattern behind switch statements.
func TestIndirectCallThroughTable(t *testing.T) {
	v := diffVM(t)
	// Build: table at data page holding the address of "target".
	// target: mov ebx, 99; exit.
	code := uint32(diffCode)
	asmAt := func(addr uint32, insts ...x86.Inst) uint32 {
		for _, in := range insts {
			b, err := x86.Encode(in)
			if err != nil {
				t.Fatal(err)
			}
			copy(v.mem[addr:], b)
			addr += uint32(len(b))
		}
		return addr
	}
	table := uint32(diffData)
	// start: mov eax, [table]; jmp eax
	asmAt(code,
		x86.Inst{Op: x86.MOV, Dst: x86.R(x86.EAX), Src: x86.MAbs("", int32(table), 4)},
		x86.Inst{Op: x86.JMPM, Dst: x86.R(x86.EAX)},
	)
	target := uint32(diffCode + 0x400)
	asmAt(target,
		x86.Inst{Op: x86.MOV, Dst: x86.R(x86.EAX), Src: x86.I(SysExit)},
		x86.Inst{Op: x86.MOV, Dst: x86.R(x86.EBX), Src: x86.I(99)},
		x86.Inst{Op: x86.INT, Dst: x86.Arg{Kind: x86.KindImm, Imm: 0x80, Size: 1}},
	)
	v.store(table, 4, target)
	v.SetEntry(code)
	st, err := v.Run()
	if err != nil || st != StatusExit || v.ExitCode() != 99 {
		t.Fatalf("st=%v err=%v code=%d", st, err, v.ExitCode())
	}
}

// onEngineAndOracle runs inst, then a UD2, from the state setup leaves on
// the micro-op engine at every optimization level and on the reference
// interpreter, and hands check each VM with its error (the UD2's trap
// dropped) under a name for messages.
func onEngineAndOracle(t *testing.T, inst x86.Inst, setup func(v *VM), check func(name string, v *VM, err error)) {
	t.Helper()
	for _, level := range OptLevels() {
		v, ref := diffVMAt(t, level), diffVM(t)
		setup(v)
		setup(ref)
		err, refErr := diffRun(t, v, ref, inst)
		check(fmt.Sprintf("%v at %v", inst, level), v, err)
		check(fmt.Sprintf("%v on the reference", inst), ref, refErr)
	}
}

// TestByteMulDiv holds F6 /4-/7 to the SDM's byte forms, with values
// worked from its definitions: MUL and IMUL r/m8 set AX to AL times the
// operand, with CF = OF = 1 exactly when AH is not the zero (MUL) or sign
// (IMUL) extension of AL; DIV and IDIV r/m8 set AL to AX over the operand
// and AH to the remainder, and raise #DE for a zero divisor or a quotient
// AL cannot hold. EDX is not touched. SF, ZF and PF, which the SDM leaves
// undefined after a multiply, follow AL as the dword forms' follow EAX.
func TestByteMulDiv(t *testing.T) {
	for _, c := range []struct {
		op             x86.Op
		eax, bl        uint32
		want           uint32 // EAX; a divide that traps leaves it as it was
		trap           bool
		cf, zf, sf, pf bool // after a multiply; OF = CF
	}{
		{op: x86.MUL1, eax: 0x12340010, bl: 0x10, want: 0x12340100, cf: true, zf: true, pf: true},
		{op: x86.MUL1, eax: 0x12340007, bl: 0x09, want: 0x1234003F, pf: true},
		{op: x86.IMUL1, eax: 0xAAAA00FE, bl: 0x03, want: 0xAAAAFFFA, sf: true, pf: true}, // -2 * 3
		{op: x86.IMUL1, eax: 0x00000040, bl: 0x02, want: 0x00000080, cf: true, sf: true}, // 64 * 2 overflows AL
		{op: x86.DIV, eax: 0x55550105, bl: 0x10, want: 0x55550510},                       // 261 = 16*16 + 5
		{op: x86.IDIV, eax: 0x5555FEFB, bl: 0x10, want: 0x5555FBF0},                      // -261 = -16*16 - 5
		{op: x86.DIV, eax: 0x00001000, bl: 0x10, trap: true},                             // 256 does not fit AL
		{op: x86.DIV, eax: 0x00000005, bl: 0x00, trap: true},
		{op: x86.IDIV, eax: 0x00000080, bl: 0x01, trap: true}, // 128 does not fit AL
		{op: x86.IDIV, eax: 0x00008000, bl: 0xFF, trap: true}, // -32768 / -1
	} {
		inst := x86.Inst{Op: c.op, Dst: x86.R8(x86.EBX)}
		setup := func(v *VM) {
			v.m.Regs[x86.EAX], v.m.Regs[x86.EBX], v.m.Regs[x86.EDX] = c.eax, 0xBBBBBB00|c.bl, 0xEDEDEDED
			v.m.Fl.Op = 0
		}
		onEngineAndOracle(t, inst, setup, func(name string, v *VM, err error) {
			want := c.want
			if c.trap {
				want = c.eax
				if tr, ok := err.(*Trap); !ok || tr.Kind != TrapDivide || tr.EIP != diffCode {
					t.Errorf("%s: %v, want a divide error at %#x", name, err, diffCode)
				}
			} else if err != nil {
				t.Errorf("%s: %v", name, err)
			}
			if v.m.Regs[x86.EAX] != want || v.m.Regs[x86.EDX] != 0xEDEDEDED {
				t.Errorf("%s: EAX=%#x EDX=%#x, want EAX=%#x EDX=0xedededed", name, v.m.Regs[x86.EAX], v.m.Regs[x86.EDX], want)
			}
			if c.op == x86.MUL1 || c.op == x86.IMUL1 {
				got := [5]bool{v.m.CF, v.m.OF, v.m.ZF, v.m.SF, v.m.PF}
				if exp := [5]bool{c.cf, c.cf, c.zf, c.sf, c.pf}; got != exp {
					t.Errorf("%s: CF/OF/ZF/SF/PF %v, want %v", name, got, exp)
				}
			}
		})
	}
}

// TestRepMovsElementwise: a MOVS whose destination starts 1-3 bytes above its
// source copies element by element at its operand width, as the hardware
// does, never byte by byte; the byte form with the destination two above
// repeats the first two bytes, the LZ77 copy decoders depend on. On the
// engine and on the reference interpreter.
func TestRepMovsElementwise(t *testing.T) {
	for _, c := range []struct {
		op       x86.Op
		d, count uint32
		want     string
	}{
		{x86.MOVSD, 1, 3, "aabcddfghhjklnop"},
		{x86.MOVSD, 2, 3, "ababcdcdghghklop"},
		{x86.MOVSD, 3, 3, "abcabcdbcdhcdhlp"},
		{x86.MOVSB, 2, 8, "abababababklmnop"},
	} {
		n := c.count
		if c.op == x86.MOVSD {
			n *= 4
		}
		setup := func(v *VM) {
			copy(v.mem[diffData:], "abcdefghijklmnop")
			v.m.Regs[x86.ESI], v.m.Regs[x86.EDI], v.m.Regs[x86.ECX] = diffData, diffData+c.d, c.count
		}
		onEngineAndOracle(t, x86.Inst{Op: c.op, Rep: true}, setup, func(name string, v *VM, err error) {
			if err != nil {
				t.Fatalf("%s (d=%d): %v", name, c.d, err)
			}
			if got := string(v.mem[diffData : diffData+16]); got != c.want {
				t.Errorf("%s (d=%d): %q, want %q", name, c.d, got, c.want)
			}
			if r := &v.m.Regs; r[x86.ESI] != diffData+n || r[x86.EDI] != diffData+c.d+n || r[x86.ECX] != 0 {
				t.Errorf("%s (d=%d): ESI=%#x EDI=%#x ECX=%d", name, c.d, r[x86.ESI], r[x86.EDI], r[x86.ECX])
			}
		})
	}
}

// TestTier1OnlyWriteFault: a tier-1-only kind that writes memory traps on
// a read-only page exactly as the reference interpreter does — a
// read-modify-write or an exchange with TrapWrite at its operand, a
// string store with TrapMemory at its destination — and leaves the page
// as it was.
func TestTier1OnlyWriteFault(t *testing.T) {
	const ro = diffCode + 0x800 // in the read-only code page
	m := func(size uint8) x86.Arg { return x86.MSIB(x86.EBX, x86.NoReg, 1, 0, size) }
	cl, one := x86.R8(x86.ECX), x86.Arg{Kind: x86.KindImm, Imm: 1, Size: 1}
	for _, inst := range []x86.Inst{
		{Op: x86.INC, Dst: m(1)}, {Op: x86.DEC, Dst: m(4)}, {Op: x86.NEG, Dst: m(1)}, {Op: x86.NEG, Dst: m(4)},
		{Op: x86.NOT, Dst: m(1)}, {Op: x86.NOT, Dst: m(4)}, {Op: x86.SHL, Dst: m(1), Src: one},
		{Op: x86.SAR, Dst: m(4), Src: cl}, {Op: x86.ROL, Dst: m(1), Src: cl}, {Op: x86.ROR, Dst: m(4), Src: one},
		{Op: x86.XCHG, Dst: m(4), Src: x86.R(x86.EDX)}, {Op: x86.STOSB}, {Op: x86.MOVSD, Rep: true},
	} {
		setup := func(v *VM) {
			r := &v.m.Regs
			r[x86.EBX], r[x86.EDI], r[x86.ESI], r[x86.ECX] = ro, ro, diffData, 5
		}
		onEngineAndOracle(t, inst, setup, func(name string, v *VM, err error) {
			want := TrapWrite
			if inst.Op == x86.STOSB || inst.Op == x86.MOVSD {
				want = TrapMemory
			}
			if tr, ok := err.(*Trap); !ok || tr.Kind != want || tr.EIP != diffCode || tr.Addr != ro {
				t.Errorf("%s: %v, want a %v trap at %#x for %#x", name, err, want, diffCode, ro)
			}
			if !bytes.Equal(v.mem[ro:ro+32], make([]byte, 32)) {
				t.Errorf("%s: the read-only page changed", name)
			}
		})
	}
}
