package vm

import (
	"math/rand"
	"testing"

	"vxa/internal/x86"
)

// newBare returns a VM suitable for single-instruction white-box tests.
func newBare(t *testing.T) *VM {
	t.Helper()
	v, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Give the tests a writable scratch region.
	if err := v.MapSegment(PageSize, make([]byte, PageSize), PageSize, false); err != nil {
		t.Fatal(err)
	}
	return v
}

// step executes a single constructed instruction.
func step(t *testing.T, v *VM, inst x86.Inst) error {
	t.Helper()
	b, err := x86.Encode(inst)
	if err != nil {
		t.Fatalf("encode %v: %v", inst, err)
	}
	inst.Len = uint8(len(b))
	return v.exec(&inst, 2*PageSize-32)
}

// flagRef is an independently computed reference for the arithmetic flags.
type flagRef struct {
	res            uint32
	cf, zf, sf, of bool
}

func refAdd(a, b uint32, carry uint32) flagRef {
	r := a + b + carry
	return flagRef{
		res: r,
		cf:  uint64(a)+uint64(b)+uint64(carry) > 0xFFFFFFFF,
		zf:  r == 0,
		sf:  int32(r) < 0,
		of:  int64(int32(a))+int64(int32(b))+int64(carry) != int64(int32(r)),
	}
}

func refSub(a, b uint32, borrow uint32) flagRef {
	r := a - b - borrow
	return flagRef{
		res: r,
		cf:  uint64(a) < uint64(b)+uint64(borrow),
		zf:  r == 0,
		sf:  int32(r) < 0,
		of:  int64(int32(a))-int64(int32(b))-int64(borrow) != int64(int32(r)),
	}
}

func refAdd8(a, b uint8, carry uint8) flagRef {
	r := a + b + carry
	return flagRef{
		res: uint32(r),
		cf:  uint32(a)+uint32(b)+uint32(carry) > 0xFF,
		zf:  r == 0,
		sf:  int8(r) < 0,
		of:  int16(int8(a))+int16(int8(b))+int16(carry) != int16(int8(r)),
	}
}

func refSub8(a, b uint8, borrow uint8) flagRef {
	r := a - b - borrow
	return flagRef{
		res: uint32(r),
		cf:  uint32(a) < uint32(b)+uint32(borrow),
		zf:  r == 0,
		sf:  int8(r) < 0,
		of:  int16(int8(a))-int16(int8(b))-int16(borrow) != int16(int8(r)),
	}
}

func (v *VM) checkFlags(t *testing.T, name string, want flagRef, gotRes uint32) {
	t.Helper()
	if gotRes != want.res {
		t.Fatalf("%s: result = %#x, want %#x", name, gotRes, want.res)
	}
	if v.m.CF != want.cf || v.m.ZF != want.zf || v.m.SF != want.sf || v.m.OF != want.of {
		t.Fatalf("%s: flags cf=%v zf=%v sf=%v of=%v, want cf=%v zf=%v sf=%v of=%v",
			name, v.m.CF, v.m.ZF, v.m.SF, v.m.OF, want.cf, want.zf, want.sf, want.of)
	}
}

// TestALUFlags32 is a differential test of 32-bit arithmetic flag
// semantics against an independently computed reference.
func TestALUFlags32(t *testing.T) {
	v := newBare(t)
	r := rand.New(rand.NewSource(7))
	interesting := []uint32{0, 1, 2, 0x7FFFFFFF, 0x80000000, 0x80000001, 0xFFFFFFFF, 0xFFFFFFFE}
	vals := append([]uint32{}, interesting...)
	for i := 0; i < 200; i++ {
		vals = append(vals, r.Uint32())
	}
	for _, a := range vals {
		for _, b := range interesting {
			// ADD
			v.m.Regs[x86.EAX], v.m.Regs[x86.EBX] = a, b
			if err := step(t, v, x86.Inst{Op: x86.ADD, Dst: x86.R(x86.EAX), Src: x86.R(x86.EBX)}); err != nil {
				t.Fatal(err)
			}
			v.checkFlags(t, "add", refAdd(a, b, 0), v.m.Regs[x86.EAX])

			// SUB
			v.m.Regs[x86.EAX], v.m.Regs[x86.EBX] = a, b
			if err := step(t, v, x86.Inst{Op: x86.SUB, Dst: x86.R(x86.EAX), Src: x86.R(x86.EBX)}); err != nil {
				t.Fatal(err)
			}
			v.checkFlags(t, "sub", refSub(a, b, 0), v.m.Regs[x86.EAX])

			// CMP leaves the destination alone but sets SUB flags.
			v.m.Regs[x86.EAX], v.m.Regs[x86.EBX] = a, b
			if err := step(t, v, x86.Inst{Op: x86.CMP, Dst: x86.R(x86.EAX), Src: x86.R(x86.EBX)}); err != nil {
				t.Fatal(err)
			}
			want := refSub(a, b, 0)
			want.res = a
			v.checkFlags(t, "cmp", want, v.m.Regs[x86.EAX])

			// ADC/SBB with both carry states.
			for _, c := range []bool{false, true} {
				cu := uint32(0)
				if c {
					cu = 1
				}
				v.m.Regs[x86.EAX], v.m.Regs[x86.EBX] = a, b
				v.m.CF = c
				if err := step(t, v, x86.Inst{Op: x86.ADC, Dst: x86.R(x86.EAX), Src: x86.R(x86.EBX)}); err != nil {
					t.Fatal(err)
				}
				v.checkFlags(t, "adc", refAdd(a, b, cu), v.m.Regs[x86.EAX])

				v.m.Regs[x86.EAX], v.m.Regs[x86.EBX] = a, b
				v.m.CF = c
				if err := step(t, v, x86.Inst{Op: x86.SBB, Dst: x86.R(x86.EAX), Src: x86.R(x86.EBX)}); err != nil {
					t.Fatal(err)
				}
				v.checkFlags(t, "sbb", refSub(a, b, cu), v.m.Regs[x86.EAX])
			}

			// Logic ops clear CF/OF.
			v.m.Regs[x86.EAX], v.m.Regs[x86.EBX] = a, b
			if err := step(t, v, x86.Inst{Op: x86.AND, Dst: x86.R(x86.EAX), Src: x86.R(x86.EBX)}); err != nil {
				t.Fatal(err)
			}
			res := a & b
			v.checkFlags(t, "and", flagRef{res: res, zf: res == 0, sf: int32(res) < 0}, v.m.Regs[x86.EAX])
		}
	}
}

// TestALUFlags8 checks that byte-width operations compute flags at 8 bits.
func TestALUFlags8(t *testing.T) {
	v := newBare(t)
	for a := 0; a < 256; a += 3 {
		for b := 0; b < 256; b += 7 {
			v.m.Regs[x86.EAX] = 0xAAAA_0000 | uint32(a)
			v.m.Regs[x86.EBX] = uint32(b)
			if err := step(t, v, x86.Inst{Op: x86.ADD, Dst: x86.R8(x86.EAX), Src: x86.R8(x86.EBX)}); err != nil {
				t.Fatal(err)
			}
			want := refAdd8(uint8(a), uint8(b), 0)
			v.checkFlags(t, "add8", want, v.m.Regs[x86.EAX]&0xFF)
			if v.m.Regs[x86.EAX]>>16 != 0xAAAA {
				t.Fatalf("add8 clobbered the upper bits: %#x", v.m.Regs[x86.EAX])
			}

			v.m.Regs[x86.EAX] = uint32(a)
			v.m.Regs[x86.EBX] = uint32(b)
			if err := step(t, v, x86.Inst{Op: x86.SUB, Dst: x86.R8(x86.EAX), Src: x86.R8(x86.EBX)}); err != nil {
				t.Fatal(err)
			}
			v.checkFlags(t, "sub8", refSub8(uint8(a), uint8(b), 0), v.m.Regs[x86.EAX]&0xFF)
		}
	}
}

// TestHighByteRegisters checks the AH/CH/DH/BH views.
func TestHighByteRegisters(t *testing.T) {
	v := newBare(t)
	v.m.Regs[x86.EAX] = 0x11223344
	// mov ah, 0x99 — encoded as register 4 at byte width.
	if err := step(t, v, x86.Inst{Op: x86.MOV,
		Dst: x86.Arg{Kind: x86.KindReg, Reg: 4, Size: 1},
		Src: x86.Arg{Kind: x86.KindImm, Imm: int32(int8(-0x67)), Size: 1}}); err != nil {
		t.Fatal(err)
	}
	if v.m.Regs[x86.EAX] != 0x11229944 {
		t.Fatalf("eax = %#x, want 0x11229944", v.m.Regs[x86.EAX])
	}
	// Read back AH.
	v.m.Regs[x86.EBX] = 0
	if err := step(t, v, x86.Inst{Op: x86.MOV,
		Dst: x86.Arg{Kind: x86.KindReg, Reg: x86.EBX, Size: 1},
		Src: x86.Arg{Kind: x86.KindReg, Reg: 4, Size: 1}}); err != nil {
		t.Fatal(err)
	}
	if v.m.Regs[x86.EBX]&0xFF != 0x99 {
		t.Fatalf("bl = %#x, want 0x99", v.m.Regs[x86.EBX]&0xFF)
	}
}

// TestShifts checks shift results and the CF they leave behind.
func TestShifts(t *testing.T) {
	v := newBare(t)
	cases := []struct {
		op      x86.Op
		val     uint32
		count   int32
		want    uint32
		wantCF  bool
		checkCF bool
	}{
		{x86.SHL, 1, 4, 16, false, true},
		{x86.SHL, 0x80000000, 1, 0, true, true},
		{x86.SHL, 0xC0000000, 1, 0x80000000, true, true},
		{x86.SHR, 16, 4, 1, false, true},
		{x86.SHR, 17, 1, 8, true, true},
		{x86.SHR, 0x80000000, 31, 1, false, true},
		{x86.SAR, 0x80000000, 31, 0xFFFFFFFF, false, true},
		{x86.SAR, 0xFFFFFFFF, 1, 0xFFFFFFFF, true, true},
		{x86.SAR, 4, 1, 2, false, true},
		{x86.ROL, 0x80000001, 1, 0x00000003, true, true},
		{x86.ROR, 0x00000001, 1, 0x80000000, true, true},
		{x86.ROL, 0x12345678, 8, 0x34567812, false, false},
	}
	for _, c := range cases {
		v.m.Regs[x86.EAX] = c.val
		if err := step(t, v, x86.Inst{Op: c.op, Dst: x86.R(x86.EAX),
			Src: x86.Arg{Kind: x86.KindImm, Imm: c.count, Size: 1}}); err != nil {
			t.Fatal(err)
		}
		if v.m.Regs[x86.EAX] != c.want {
			t.Errorf("%v %#x,%d = %#x, want %#x", c.op, c.val, c.count, v.m.Regs[x86.EAX], c.want)
		}
		if c.checkCF && v.m.CF != c.wantCF {
			t.Errorf("%v %#x,%d: cf=%v, want %v", c.op, c.val, c.count, v.m.CF, c.wantCF)
		}
	}

	// Shift by zero must leave flags untouched.
	v.m.Regs[x86.EAX] = 0xFF
	v.m.CF, v.m.ZF, v.m.SF, v.m.OF = true, true, true, true
	v.m.Regs[x86.ECX] = 32 // CL & 31 == 0
	if err := step(t, v, x86.Inst{Op: x86.SHL, Dst: x86.R(x86.EAX), Src: x86.R8(x86.ECX)}); err != nil {
		t.Fatal(err)
	}
	if !v.m.CF || !v.m.ZF || !v.m.SF || !v.m.OF || v.m.Regs[x86.EAX] != 0xFF {
		t.Fatal("shift by 0 must be a no-op on value and flags")
	}
}

// TestMulDiv checks the widening multiply and divide family.
func TestMulDiv(t *testing.T) {
	v := newBare(t)

	v.m.Regs[x86.EAX] = 0xFFFFFFFF
	v.m.Regs[x86.EBX] = 2
	if err := step(t, v, x86.Inst{Op: x86.MUL1, Dst: x86.R(x86.EBX)}); err != nil {
		t.Fatal(err)
	}
	if v.m.Regs[x86.EDX] != 1 || v.m.Regs[x86.EAX] != 0xFFFFFFFE {
		t.Fatalf("mul: edx:eax = %#x:%#x", v.m.Regs[x86.EDX], v.m.Regs[x86.EAX])
	}
	if !v.m.CF || !v.m.OF {
		t.Fatal("mul with significant high half must set CF/OF")
	}

	v.m.Regs[x86.EAX] = u32(-6)
	if err := step(t, v, x86.Inst{Op: x86.CDQ}); err != nil {
		t.Fatal(err)
	}
	if v.m.Regs[x86.EDX] != 0xFFFFFFFF {
		t.Fatalf("cdq: edx = %#x", v.m.Regs[x86.EDX])
	}
	v.m.Regs[x86.EBX] = uint32(int32(4))
	if err := step(t, v, x86.Inst{Op: x86.IDIV, Dst: x86.R(x86.EBX)}); err != nil {
		t.Fatal(err)
	}
	if int32(v.m.Regs[x86.EAX]) != -1 || int32(v.m.Regs[x86.EDX]) != -2 {
		t.Fatalf("idiv -6/4: q=%d r=%d, want -1 rem -2", int32(v.m.Regs[x86.EAX]), int32(v.m.Regs[x86.EDX]))
	}

	// Divide by zero traps.
	v.m.Regs[x86.EBX] = 0
	err := step(t, v, x86.Inst{Op: x86.DIV, Dst: x86.R(x86.EBX)})
	if tr, ok := err.(*Trap); !ok || tr.Kind != TrapDivide {
		t.Fatalf("div by zero: %v, want divide trap", err)
	}

	// Quotient overflow traps (0x80000000:0 / 1 does not fit).
	v.m.Regs[x86.EDX], v.m.Regs[x86.EAX] = 0x80000000, 0
	v.m.Regs[x86.EBX] = 1
	err = step(t, v, x86.Inst{Op: x86.DIV, Dst: x86.R(x86.EBX)})
	if tr, ok := err.(*Trap); !ok || tr.Kind != TrapDivide {
		t.Fatalf("div overflow: %v, want divide trap", err)
	}

	// IMUL 3-operand.
	v.m.Regs[x86.EBX] = u32(-3)
	if err := step(t, v, x86.Inst{Op: x86.IMUL, Dst: x86.R(x86.EAX), Src: x86.R(x86.EBX), Aux: x86.I(7)}); err != nil {
		t.Fatal(err)
	}
	if int32(v.m.Regs[x86.EAX]) != -21 {
		t.Fatalf("imul -3*7 = %d", int32(v.m.Regs[x86.EAX]))
	}
	if v.m.CF || v.m.OF {
		t.Fatal("imul without overflow must clear CF/OF")
	}
}

// TestConditionCodes exercises every Jcc predicate against CMP results.
func TestConditionCodes(t *testing.T) {
	v := newBare(t)
	type tc struct {
		a, b uint32
		cc   x86.CC
		want bool
	}
	cases := []tc{
		{5, 5, x86.CCE, true}, {5, 4, x86.CCE, false},
		{5, 4, x86.CCNE, true},
		{3, 5, x86.CCB, true}, {5, 3, x86.CCB, false},
		{5, 3, x86.CCA, true}, {3, 5, x86.CCA, false}, {5, 5, x86.CCA, false},
		{5, 5, x86.CCAE, true}, {5, 5, x86.CCBE, true},
		{u32(-1), 1, x86.CCL, true},
		{1, u32(-1), x86.CCG, true},
		{u32(-1), 1, x86.CCB, false}, // unsigned: 0xFFFFFFFF > 1
		{5, 5, x86.CCGE, true}, {5, 5, x86.CCLE, true},
		{u32(-5), u32(-3), x86.CCL, true},
		{0x80000000, 1, x86.CCL, true}, // overflow case: SF != OF
		{1, 2, x86.CCS, true}, {2, 1, x86.CCS, false},
	}
	for _, c := range cases {
		v.m.Regs[x86.EAX], v.m.Regs[x86.EBX] = c.a, c.b
		if err := step(t, v, x86.Inst{Op: x86.CMP, Dst: x86.R(x86.EAX), Src: x86.R(x86.EBX)}); err != nil {
			t.Fatal(err)
		}
		if got := v.cond(c.cc); got != c.want {
			t.Errorf("cmp %#x,%#x; j%v = %v, want %v", c.a, c.b, c.cc, got, c.want)
		}
	}
}

// TestIncDecPreserveCF verifies INC/DEC leave CF alone but set OF.
func TestIncDecPreserveCF(t *testing.T) {
	v := newBare(t)
	v.m.CF = true
	v.m.Regs[x86.EAX] = 0x7FFFFFFF
	if err := step(t, v, x86.Inst{Op: x86.INC, Dst: x86.R(x86.EAX)}); err != nil {
		t.Fatal(err)
	}
	if !v.m.CF {
		t.Fatal("inc must preserve CF")
	}
	if !v.m.OF {
		t.Fatal("inc 0x7FFFFFFF must set OF")
	}
	v.m.CF = false
	v.m.Regs[x86.EAX] = 0x80000000
	if err := step(t, v, x86.Inst{Op: x86.DEC, Dst: x86.R(x86.EAX)}); err != nil {
		t.Fatal(err)
	}
	if v.m.CF {
		t.Fatal("dec must preserve CF")
	}
	if !v.m.OF {
		t.Fatal("dec 0x80000000 must set OF")
	}
}

// TestNegFlags verifies NEG's special CF rule.
func TestNegFlags(t *testing.T) {
	v := newBare(t)
	v.m.Regs[x86.EAX] = 0
	if err := step(t, v, x86.Inst{Op: x86.NEG, Dst: x86.R(x86.EAX)}); err != nil {
		t.Fatal(err)
	}
	if v.m.CF || !v.m.ZF {
		t.Fatal("neg 0: CF must be clear, ZF set")
	}
	v.m.Regs[x86.EAX] = 5
	if err := step(t, v, x86.Inst{Op: x86.NEG, Dst: x86.R(x86.EAX)}); err != nil {
		t.Fatal(err)
	}
	if !v.m.CF || v.m.Regs[x86.EAX] != u32(-5) {
		t.Fatalf("neg 5 = %d cf=%v", int32(v.m.Regs[x86.EAX]), v.m.CF)
	}
	v.m.Regs[x86.EAX] = 0x80000000
	if err := step(t, v, x86.Inst{Op: x86.NEG, Dst: x86.R(x86.EAX)}); err != nil {
		t.Fatal(err)
	}
	if !v.m.OF || v.m.Regs[x86.EAX] != 0x80000000 {
		t.Fatal("neg INT_MIN must set OF and leave the value")
	}
}

// u32 reinterprets a signed value as its two's-complement bits.
func u32(v int32) uint32 { return uint32(v) }
