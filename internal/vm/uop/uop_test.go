package uop

import (
	"math/rand"
	"testing"

	"vxa/internal/x86"
)

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
	us := Lower(nil, insts, addrs)
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

// TestLowerTotal: every opcode/operand shape lowers to something — an
// unspecialized shape must carry its instruction into the generic
// escape rather than produce a zero-value micro-op that silently
// executes as a NOP.
func TestLowerTotal(t *testing.T) {
	odd := []x86.Inst{
		{Op: x86.ROL, Dst: x86.R(x86.EAX), Src: x86.I8(3), Len: 3},          // rotate: generic
		{Op: x86.INC, Dst: x86.M8(x86.EAX, 0), Len: 2},                      // byte-mem inc: generic
		{Op: x86.SHL, Dst: x86.M(x86.EBX, 4), Src: x86.I8(1), Len: 4},       // mem shift: generic
		{Op: x86.XCHG, Dst: x86.M(x86.ESI, 0), Src: x86.R(x86.ECX), Len: 2}, // mem xchg: generic
		{Op: x86.MOVSB, Rep: true, Len: 2},                                  // string op escape
	}
	addrs := make([]uint32, len(odd))
	for i := range addrs {
		addrs[i] = uint32(0x2000 + 4*i)
	}
	us := Lower(nil, odd, addrs)
	for i, u := range us {
		if u.Kind != KindGeneric && u.Kind != KindString {
			t.Errorf("inst %d (%v) lowered to kind %d, want an escape", i, odd[i].Op, u.Kind)
		}
		if u.Inst == nil {
			t.Errorf("inst %d (%v): escape lost its instruction payload", i, odd[i].Op)
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

// TestKindNames pins the name table against the const block: the last
// declared kind must be the last name, so an added or reordered kind
// without a matching table entry fails here rather than printing the
// wrong mnemonic in trace-plan dumps.
func TestKindNames(t *testing.T) {
	if got := KindGeneric.String(); got != "Generic" {
		t.Fatalf("KindGeneric.String() = %q", got)
	}
	if got := len(kindNames); got != int(KindGeneric)+1 {
		t.Fatalf("kindNames has %d entries, want %d", got, int(KindGeneric)+1)
	}
	if got := Kind(200).String(); got != "Kind(200)" {
		t.Fatalf("out-of-range Kind string = %q", got)
	}
}
