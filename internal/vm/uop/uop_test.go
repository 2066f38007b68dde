package uop

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"vxa/internal/x86"
)

// lowerAll lowers insts, instruction i at addrs[i], into one fragment.
func lowerAll(insts []x86.Inst, addrs []uint32) []Uop {
	var us []Uop
	for i := range insts {
		us = Lower(us, &insts[i], addrs[i])
	}
	return us
}

// TestLowerOneToOne pins the invariant the VM's per-block fuel
// accounting depends on: lowering is 1:1, micro-op i describes
// instruction i, with EIP/Next taken from the address table.
func TestLowerOneToOne(t *testing.T) {
	insts := []x86.Inst{
		{Op: x86.MOV, Dst: x86.R(x86.EAX), Src: x86.I(7), Len: 5},
		{Op: x86.ADD, Dst: x86.R(x86.EAX), Src: x86.R(x86.ECX), Len: 2},
		{Op: x86.JCC, CC: x86.CCNE, Rel: -9, Len: 2},
	}
	addrs := []uint32{0x1000, 0x1005, 0x1007}
	us := lowerAll(insts, addrs)
	if len(us) != len(insts) {
		t.Fatalf("lowered %d uops for %d insts", len(us), len(insts))
	}
	for i := range us {
		if us[i].EIP != addrs[i] {
			t.Errorf("uop %d: EIP %#x, want %#x", i, us[i].EIP, addrs[i])
		}
		if want := addrs[i] + uint32(insts[i].Len); us[i].Next != want {
			t.Errorf("uop %d: Next %#x, want %#x", i, us[i].Next, want)
		}
	}
	if us[0].Kind != KindMovRI || us[0].Imm != 7 {
		t.Errorf("mov lowered to %d imm %d", us[0].Kind, us[0].Imm)
	}
	if us[1].Kind != KindAddRR {
		t.Errorf("add reg,reg lowered to kind %d, want KindAddRR", us[1].Kind)
	}
	if us[2].Kind != KindJcc || us[2].Target != 0x1000 {
		t.Errorf("jcc lowered to kind %d target %#x, want KindJcc -> 0x1000", us[2].Kind, us[2].Target)
	}
}

// TestLowerIsTotal sweeps every one- and two-byte opcode with every ModRM
// byte behind it, bare and behind an F3 or 66 prefix, and the bytes after
// them all zero or all one, and requires that whatever x86.Decode accepts
// lowers to one micro-op at Cost 1 that the artifact loader would accept,
// of a kind the tier-1 executor has an arm for (read from ../uexec.go). A
// KindNop comes only of a NOP or of a register shifted by an immediate
// zero, never of a form lowering forgot.
func TestLowerIsTotal(t *testing.T) {
	arms := execArms(t)
	const addr = 0x2000
	accepted := map[Kind]int{}
	for _, prefix := range []byte{0, 0xF3, 0x66} {
		for _, pad := range []byte{0, 1} {
			for op := range 2 * 256 * 256 { // opcode and ModRM, from 256*256 on behind 0x0F
				code := []byte{prefix, byte(op >> 8), byte(op)}
				if op >= 256*256 {
					code = []byte{prefix, 0x0F, byte(op >> 8), byte(op)}
				}
				if prefix == 0 {
					code = code[1:]
				}
				var inst x86.Inst
				if err := x86.Decode(append(code, bytes.Repeat([]byte{pad}, 16)...), &inst); err != nil {
					continue
				}
				us := Lower(nil, &inst, addr)
				u := &us[0]
				if len(us) != 1 || u.Cost != 1 || u.EIP != addr || u.Next != addr+uint32(inst.Len) {
					t.Fatalf("% x (%v) lowered to %+v", code, inst.Op, us)
				}
				shiftZero := inst.Dst.Kind == x86.KindReg && inst.Src.Kind == x86.KindImm && inst.Src.Imm&31 == 0
				switch {
				case !arms[u.Kind] || !u.Kind.Lowered():
					t.Fatalf("% x (%v) lowered to %v, which Lower may not emit or tier 1 has no arm for", code, inst.Op, u.Kind)
				case u.BadField() != "" || max(u.Dst, u.Src, u.Base, u.Idx, u.Aux) > RegZero:
					t.Fatalf("% x (%v) lowered to %+v, which the loader refuses", code, inst.Op, *u)
				case u.Kind == KindNop && inst.Op != x86.NOP && !(shiftZero && (inst.Op == x86.SHL || inst.Op == x86.SHR ||
					inst.Op == x86.SAR || inst.Op == x86.ROL || inst.Op == x86.ROR)):
					t.Fatalf("% x (%v) lowered to a Nop", code, inst.Op)
				}
				accepted[u.Kind]++
			}
		}
	}
	for _, k := range []Kind{KindIncDec8R, KindIncDecM, KindNeg8M, KindNot8R, KindShift8M, KindShiftM, KindRotR, KindRot8M,
		KindMul8R, KindDiv8M, KindXchgMR, KindStr} {
		if accepted[k] == 0 {
			t.Errorf("no decoded instruction lowered to %v", k)
		}
	}
}

// execArms returns the kinds named by the case clauses of the tier-1
// executor, execUops in ../uexec.go.
func execArms(t *testing.T) map[Kind]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "../uexec.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Kind{}
	for k := range Kinds {
		byName["Kind"+Kinds[k].Name] = Kind(k)
	}
	arms := map[Kind]bool{}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "execUops" {
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if cc, ok := n.(*ast.CaseClause); ok {
					for _, e := range cc.List {
						if sel, ok := e.(*ast.SelectorExpr); ok {
							if k, ok := byName[sel.Sel.Name]; ok {
								arms[k] = true
							}
						}
					}
				}
				return true
			})
		}
	}
	if len(arms) == 0 {
		t.Fatal("no case clauses in execUops")
	}
	return arms
}

// TestUopSize: a micro-op is 32 bytes of integers and holds no pointer,
// so the arrays of them a translation cache keeps are never scanned by
// the garbage collector.
func TestUopSize(t *testing.T) {
	if n := unsafe.Sizeof(Uop{}); n != 32 {
		t.Errorf("a Uop is %d bytes, want 32", n)
	}
	typ := reflect.TypeOf(Uop{})
	for i := range typ.NumField() {
		if f := typ.Field(i); f.Type.Kind() != reflect.Uint8 && f.Type.Kind() != reflect.Uint32 {
			t.Errorf("Uop.%s is a %v", f.Name, f.Type)
		}
	}
}

// TestFlagsReference checks every lazy flag formula against a widened
// brute-force model over randomized operands, both widths.
func TestFlagsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20000; trial++ {
		a, b := rng.Uint32(), rng.Uint32()
		cin := uint32(rng.Intn(2))

		// 32-bit add with carry-in.
		res := a + b + cin
		f := Flags{Op: FlagAdc, A: a, B: b, Cin: cin, Res: res}
		if got, want := f.CF(), uint64(a)+uint64(b)+uint64(cin) > 0xFFFFFFFF; got != want {
			t.Fatalf("adc CF(%#x,%#x,%d) = %v, want %v", a, b, cin, got, want)
		}
		if got, want := f.OF(), int64(int32(a))+int64(int32(b))+int64(cin) != int64(int32(res)); got != want {
			t.Fatalf("adc OF(%#x,%#x,%d) = %v, want %v", a, b, cin, got, want)
		}
		if f.ZF() != (res == 0) || f.SF() != (int32(res) < 0) {
			t.Fatalf("adc SZ(%#x,%#x,%d) wrong", a, b, cin)
		}

		// 32-bit subtract with borrow-in.
		res = a - b - cin
		f = Flags{Op: FlagSbb, A: a, B: b, Cin: cin, Res: res}
		if got, want := f.CF(), uint64(a) < uint64(b)+uint64(cin); got != want {
			t.Fatalf("sbb CF(%#x,%#x,%d) = %v, want %v", a, b, cin, got, want)
		}
		if got, want := f.OF(), int64(int32(a))-int64(int32(b))-int64(cin) != int64(int32(res)); got != want {
			t.Fatalf("sbb OF(%#x,%#x,%d) = %v, want %v", a, b, cin, got, want)
		}

		// Byte width.
		a8, b8 := a&0xFF, b&0xFF
		res = (a8 + b8 + cin) & 0xFF
		f = Flags{Op: FlagAdc8, A: a8, B: b8, Cin: cin, Res: res}
		if got, want := f.CF(), a8+b8+cin > 0xFF; got != want {
			t.Fatalf("adc8 CF(%#x,%#x,%d) = %v, want %v", a8, b8, cin, got, want)
		}
		if got, want := f.OF(), int16(int8(a8))+int16(int8(b8))+int16(cin) != int16(int8(res)); got != want {
			t.Fatalf("adc8 OF(%#x,%#x,%d) = %v, want %v", a8, b8, cin, got, want)
		}
		if f.SF() != (int8(res) < 0) || f.ZF() != (res == 0) {
			t.Fatalf("adc8 SZ(%#x,%#x,%d) wrong", a8, b8, cin)
		}

		// Shifts, count 1..31 at 32-bit width.
		count := uint32(1 + rng.Intn(31))
		res = a << count
		f = Flags{Op: FlagShl, A: a, B: count, Res: res}
		if got, want := f.CF(), (a>>(32-count))&1 != 0; got != want {
			t.Fatalf("shl CF(%#x,%d) = %v, want %v", a, count, got, want)
		}
		res = a >> count
		f = Flags{Op: FlagShr, A: a, B: count, Res: res}
		if got, want := f.CF(), (a>>(count-1))&1 != 0; got != want {
			t.Fatalf("shr CF(%#x,%d) = %v, want %v", a, count, got, want)
		}
		if got, want := f.OF(), int32(a) < 0; got != want {
			t.Fatalf("shr OF(%#x,%d) = %v, want %v", a, count, got, want)
		}
	}
}

// TestKindNames: a kind prints its row's name, and a value past the
// table prints as a number (TestKindTable holds the names to the const
// block).
func TestKindNames(t *testing.T) {
	if got := KindStr.String(); got != "Str" {
		t.Fatalf("KindStr.String() = %q", got)
	}
	if got := Kind(200).String(); got != "Kind(200)" {
		t.Fatalf("out-of-range Kind string = %q", got)
	}
}
