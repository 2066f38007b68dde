package x86

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// canon normalizes an Inst for comparison between a hand-constructed
// instruction and its decode(encode(·)) image. The differences it erases
// are pure encoding freedom: scale on an absent index, immediate width
// choices, and the Len bookkeeping field.
func canon(i Inst) Inst {
	i.Len = 0
	i.Sym = ""
	for _, a := range []*Arg{&i.Dst, &i.Src, &i.Aux} {
		a.Sym = ""
		if a.Kind == KindMem && a.Index == NoReg {
			a.Scale = 1
		}
		if a.Kind != KindMem {
			a.Base, a.Index, a.Scale, a.Disp = 0, 0, 0, 0
		}
		if a.Kind == KindImm {
			// Width of the immediate encoding is not semantic; the
			// value is. Normalize to the value sign-extended to 32 bits.
			a.Size = 4
			a.Reg = 0
		}
		if a.Kind == KindNone {
			*a = Arg{}
		}
	}
	return i
}

func roundTrip(t *testing.T, in Inst) {
	t.Helper()
	b, err := Encode(in)
	if err != nil {
		t.Fatalf("encode %v: %v", in, err)
	}
	var out Inst
	if err := Decode(b, &out); err != nil {
		t.Fatalf("decode % x (from %v): %v", b, in, err)
	}
	if int(out.Len) != len(b) {
		t.Fatalf("decode %v: len=%d want %d", in, out.Len, len(b))
	}
	if canon(out) != canon(in) {
		t.Fatalf("round trip mismatch:\n in  %+v\n out %+v\n bytes % x", canon(in), canon(out), b)
	}
}

func TestRoundTripBasic(t *testing.T) {
	cases := []Inst{
		{Op: MOV, Dst: R(EAX), Src: I(42)},
		{Op: MOV, Dst: R(EDI), Src: I(-1)},
		{Op: MOV, Dst: R(EAX), Src: M(EBX, 0)},
		{Op: MOV, Dst: M(EBP, -8), Src: R(ECX)},
		{Op: MOV, Dst: M8(ESI, 3), Src: R8(EDX)},
		{Op: MOV, Dst: R8(EBX), Src: Arg{Kind: KindImm, Imm: 7, Size: 1}},
		{Op: MOV, Dst: M(ESP, 4), Src: I(123456)},
		{Op: MOV, Dst: M8(EAX, 0), Src: Arg{Kind: KindImm, Imm: -2, Size: 1}},
		{Op: MOV, Dst: R(EAX), Src: MSIB(EBX, ECX, 4, 100, 4)},
		{Op: MOV, Dst: R(EDX), Src: MSIB(NoReg, EDI, 2, -64, 4)},
		{Op: MOV, Dst: R(EDX), Src: MAbs("", 0x1234, 4)},
		{Op: MOVZX, Dst: R(EAX), Src: M8(ESI, 0)},
		{Op: MOVZX, Dst: R(ECX), Src: M16(EDI, 2)},
		{Op: MOVSX, Dst: R(EBX), Src: Arg{Kind: KindReg, Reg: EAX, Size: 1}},
		{Op: MOVSX, Dst: R(EBX), Src: M16(EBP, -4)},
		{Op: LEA, Dst: R(EAX), Src: MSIB(EBX, ESI, 8, 12, 4)},
		{Op: XCHG, Dst: R(EAX), Src: R(EDX)},
		{Op: ADD, Dst: R(EAX), Src: R(EBX)},
		{Op: ADD, Dst: R(EAX), Src: I(300)},
		{Op: ADD, Dst: R(EAX), Src: I(3)},
		{Op: ADC, Dst: R(EDX), Src: I(0)},
		{Op: SUB, Dst: M(EBP, -12), Src: R(EAX)},
		{Op: SBB, Dst: R(ECX), Src: R(ECX)},
		{Op: AND, Dst: R(ESI), Src: I(0xFF)},
		{Op: OR, Dst: R(EDI), Src: M(EAX, 16)},
		{Op: XOR, Dst: R(EAX), Src: R(EAX)},
		{Op: CMP, Dst: R(EAX), Src: I(-5)},
		{Op: CMP, Dst: M8(EBX, 1), Src: Arg{Kind: KindImm, Imm: 10, Size: 1}},
		{Op: TEST, Dst: R(EAX), Src: R(EAX)},
		{Op: TEST, Dst: R(EBX), Src: I(1)},
		{Op: TEST, Dst: Arg{Kind: KindReg, Reg: ECX, Size: 1}, Src: Arg{Kind: KindImm, Imm: 3, Size: 1}},
		{Op: INC, Dst: R(EAX)},
		{Op: DEC, Dst: R(EDI)},
		{Op: INC, Dst: M(EBX, 8)},
		{Op: DEC, Dst: M8(EBX, 8)},
		{Op: NEG, Dst: R(EAX)},
		{Op: NOT, Dst: M(ECX, 0)},
		{Op: IMUL, Dst: R(EAX), Src: R(EBX)},
		{Op: IMUL, Dst: R(EAX), Src: M(EBP, -4), Aux: I(100)},
		{Op: MUL1, Dst: R(EBX)},
		{Op: IMUL1, Dst: M(ESI, 0)},
		{Op: DIV, Dst: R(ECX)},
		{Op: IDIV, Dst: R(EDI)},
		{Op: SHL, Dst: R(EAX), Src: Arg{Kind: KindImm, Imm: 4, Size: 1}},
		{Op: SHR, Dst: R(EDX), Src: R8(ECX)},
		{Op: SAR, Dst: M(EBP, -16), Src: Arg{Kind: KindImm, Imm: 31, Size: 1}},
		{Op: ROL, Dst: R(EAX), Src: Arg{Kind: KindImm, Imm: 1, Size: 1}},
		{Op: ROR, Dst: R(EBX), Src: R8(ECX)},
		{Op: CDQ},
		{Op: PUSH, Dst: R(EBP)},
		{Op: PUSH, Dst: I(0x12345678)},
		{Op: PUSH, Dst: M(ESP, 0)},
		{Op: POP, Dst: R(EBP)},
		{Op: CALL, Rel: 100},
		{Op: CALLM, Dst: R(EAX)},
		{Op: CALLM, Dst: M(EBX, 4)},
		{Op: RET},
		{Op: RET, Dst: I(8)},
		{Op: JMP, Rel: -20},
		{Op: JMPM, Dst: MSIB(NoReg, EAX, 4, 0x2000, 4)},
		{Op: JCC, CC: CCE, Rel: 64},
		{Op: JCC, CC: CCG, Rel: -128},
		{Op: SETCC, CC: CCL, Dst: R8(EAX)},
		{Op: SETCC, CC: CCA, Dst: M8(EBP, -1)},
		{Op: INT, Dst: Arg{Kind: KindImm, Imm: 0x80, Size: 1}},
		{Op: NOP},
		{Op: HLT},
		{Op: UD2},
		{Op: MOVSB},
		{Op: MOVSB, Rep: true},
		{Op: STOSB, Rep: true},
		{Op: MOVSD, Rep: true},
		{Op: STOSD, Rep: true},
	}
	for _, c := range cases {
		roundTrip(t, c)
	}
}

func TestEncodeEBPBase(t *testing.T) {
	// [ebp] has no mod=00 encoding; the encoder must fall back to disp8=0.
	b, err := Encode(Inst{Op: MOV, Dst: R(EAX), Src: M(EBP, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, []byte{0x8B, 0x45, 0x00}) {
		t.Fatalf("mov eax, [ebp] = % x, want 8b 45 00", b)
	}
}

func TestEncodeESPBase(t *testing.T) {
	// [esp] requires a SIB byte.
	b, err := Encode(Inst{Op: MOV, Dst: R(EAX), Src: M(ESP, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, []byte{0x8B, 0x04, 0x24}) {
		t.Fatalf("mov eax, [esp] = % x, want 8b 04 24", b)
	}
}

func TestEncodeFixups(t *testing.T) {
	in := Inst{Op: MOV, Dst: R(EAX), Src: MAbs("g_table", 8, 4)}
	b, fix, err := EncodeFixups(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(fix) != 1 || fix[0].Sym != "g_table" {
		t.Fatalf("fixups = %+v, want one g_table slot", fix)
	}
	// The disp32 slot must hold the addend (8) before relocation.
	off := fix[0].Off
	got := uint32(b[off]) | uint32(b[off+1])<<8 | uint32(b[off+2])<<16 | uint32(b[off+3])<<24
	if got != 8 {
		t.Fatalf("addend = %d, want 8", got)
	}

	in2 := Inst{Op: MOV, Dst: R(ECX), Src: ISym("main")}
	_, fix2, err := EncodeFixups(in2)
	if err != nil {
		t.Fatal(err)
	}
	if len(fix2) != 1 || fix2[0].Sym != "main" {
		t.Fatalf("fixups = %+v, want one main slot", fix2)
	}
}

func TestEncodeSymbolForcesDisp32(t *testing.T) {
	// A symbolic displacement must use a full 32-bit slot even when the
	// addend would fit in 8 bits, so the linker can patch it.
	b, fix, err := EncodeFixups(Inst{Op: MOV, Dst: R(EAX), Src: Arg{
		Kind: KindMem, Base: EBX, Index: NoReg, Disp: 1, Size: 4, Sym: "g",
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(fix) != 1 {
		t.Fatalf("fixups = %+v", fix)
	}
	if len(b) != 2+4 {
		t.Fatalf("len = %d (% x), want mod=10 form", len(b), b)
	}
}

func TestDecodeErrors(t *testing.T) {
	var in Inst
	if err := Decode(nil, &in); !errors.Is(err, ErrTruncated) {
		t.Errorf("Decode(nil) = %v, want ErrTruncated", err)
	}
	if err := Decode([]byte{0xE8, 1, 2}, &in); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated call = %v, want ErrTruncated", err)
	}
	// Privileged / unsupported opcodes must decode as illegal.
	for _, b := range [][]byte{
		{0xFA},       // cli
		{0x0F, 0x01}, // lgdt group (truncated is fine too, but must error)
		{0xEC},       // in al, dx
		{0xCF},       // iret
		{0x9C},       // pushf
		{0x66, 0x90}, // operand-size prefix
		{0x8E, 0xC0}, // mov segment reg
	} {
		if err := Decode(b, &in); err == nil {
			t.Errorf("Decode(% x) succeeded, want error", b)
		}
	}
}

func TestDecodeShortForms(t *testing.T) {
	// Forms the encoder never emits must still decode (the VM scans
	// arbitrary archive-supplied code).
	cases := []struct {
		b    []byte
		want string
	}{
		{[]byte{0x04, 0x05}, "add al, 0x5"},
		{[]byte{0x05, 0x10, 0x00, 0x00, 0x00}, "add eax, 0x10"},
		{[]byte{0x74, 0xFE}, "je .-2"},
		{[]byte{0xEB, 0x00}, "jmp .+0"},
		{[]byte{0xD1, 0xE8}, "shr eax, 0x1"},
		{[]byte{0xD0, 0xE1}, "shl cl, 0x1"},
		{[]byte{0x6A, 0xFF}, "push 0xffffffff"},
		{[]byte{0xC2, 0x08, 0x00}, "ret 0x8"},
	}
	for _, c := range cases {
		var in Inst
		if err := Decode(c.b, &in); err != nil {
			t.Errorf("Decode(% x): %v", c.b, err)
			continue
		}
		if in.String() != c.want {
			t.Errorf("Decode(% x) = %q, want %q", c.b, in.String(), c.want)
		}
	}
}

// randInst generates a random encodable instruction.
func randInst(r *rand.Rand) Inst {
	regs := []Reg{EAX, ECX, EDX, EBX, ESP, EBP, ESI, EDI}
	randReg := func() Reg { return regs[r.Intn(len(regs))] }
	randMem := func(size uint8) Arg {
		a := Arg{Kind: KindMem, Base: NoReg, Index: NoReg, Scale: 1, Size: size}
		switch r.Intn(3) {
		case 0:
			a.Base = randReg()
		case 1:
			a.Base = randReg()
			for {
				a.Index = randReg()
				if a.Index != ESP {
					break
				}
			}
			a.Scale = uint8(1) << r.Intn(4)
		case 2: // absolute
		}
		switch r.Intn(3) {
		case 0:
		case 1:
			a.Disp = int32(int8(r.Uint32()))
		case 2:
			a.Disp = int32(r.Uint32())
		}
		return a
	}
	randRM := func(size uint8) Arg {
		if r.Intn(2) == 0 {
			return Arg{Kind: KindReg, Reg: randReg(), Size: size}
		}
		return randMem(size)
	}

	aluOps := []Op{ADD, ADC, SUB, SBB, AND, OR, XOR, CMP}
	switch r.Intn(12) {
	case 0: // mov r32, r/m32 or r/m32, r32
		if r.Intn(2) == 0 {
			return Inst{Op: MOV, Dst: R(randReg()), Src: randRM(4)}
		}
		return Inst{Op: MOV, Dst: randMem(4), Src: R(randReg())}
	case 1: // mov with immediates
		if r.Intn(2) == 0 {
			return Inst{Op: MOV, Dst: R(randReg()), Src: I(int32(r.Uint32()))}
		}
		return Inst{Op: MOV, Dst: randMem(4), Src: I(int32(r.Uint32()))}
	case 2: // byte moves
		if r.Intn(2) == 0 {
			return Inst{Op: MOV, Dst: Arg{Kind: KindReg, Reg: randReg(), Size: 1}, Src: randMem(1)}
		}
		return Inst{Op: MOV, Dst: randMem(1), Src: Arg{Kind: KindReg, Reg: randReg(), Size: 1}}
	case 3: // ALU reg forms
		op := aluOps[r.Intn(len(aluOps))]
		if r.Intn(2) == 0 {
			return Inst{Op: op, Dst: R(randReg()), Src: randRM(4)}
		}
		return Inst{Op: op, Dst: randMem(4), Src: R(randReg())}
	case 4: // ALU imm
		op := aluOps[r.Intn(len(aluOps))]
		return Inst{Op: op, Dst: randRM(4), Src: I(int32(r.Uint32()))}
	case 5: // movzx/movsx
		op := MOVZX
		if r.Intn(2) == 0 {
			op = MOVSX
		}
		size := uint8(1)
		if r.Intn(2) == 0 {
			size = 2
		}
		return Inst{Op: op, Dst: R(randReg()), Src: randRM(size)}
	case 6: // shifts
		ops := []Op{SHL, SHR, SAR, ROL, ROR}
		op := ops[r.Intn(len(ops))]
		if r.Intn(2) == 0 {
			return Inst{Op: op, Dst: randRM(4), Src: Arg{Kind: KindImm, Imm: int32(r.Intn(32)), Size: 1}}
		}
		return Inst{Op: op, Dst: randRM(4), Src: R8(ECX)}
	case 7: // unary group
		ops := []Op{NOT, NEG, MUL1, IMUL1, DIV, IDIV, INC, DEC}
		return Inst{Op: ops[r.Intn(len(ops))], Dst: randRM(4)}
	case 8: // stack
		if r.Intn(2) == 0 {
			return Inst{Op: PUSH, Dst: R(randReg())}
		}
		return Inst{Op: POP, Dst: R(randReg())}
	case 9: // branches
		switch r.Intn(3) {
		case 0:
			return Inst{Op: CALL, Rel: int32(r.Uint32())}
		case 1:
			return Inst{Op: JMP, Rel: int32(r.Uint32())}
		default:
			return Inst{Op: JCC, CC: CC(r.Intn(16)), Rel: int32(r.Uint32())}
		}
	case 10: // lea
		return Inst{Op: LEA, Dst: R(randReg()), Src: randMem(4)}
	default: // imul forms
		if r.Intn(2) == 0 {
			return Inst{Op: IMUL, Dst: R(randReg()), Src: randRM(4)}
		}
		return Inst{Op: IMUL, Dst: R(randReg()), Src: randRM(4), Aux: I(int32(r.Uint32()))}
	}
}

// TestRoundTripRandom is the encode/decode round-trip property test.
func TestRoundTripRandom(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		roundTrip(t, randInst(r))
	}
}

// TestDecodeRandomBytesStable feeds random byte windows to the decoder:
// it must never panic, and anything it accepts must re-encode to bytes
// that decode to the same instruction (decode is a left inverse of the
// encoding it reports).
func TestDecodeRandomBytesStable(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	buf := make([]byte, 16)
	for i := 0; i < 50000; i++ {
		r.Read(buf)
		var in Inst
		if err := Decode(buf, &in); err != nil {
			continue
		}
		b2, err := Encode(in)
		if err != nil {
			// Some decodable forms (e.g. short jumps) have no canonical
			// re-encoding only if we chose not to support them; but every
			// Op the decoder produces must be encodable.
			t.Fatalf("decoded %v (% x) but cannot re-encode: %v", in, buf[:in.Len], err)
		}
		var in2 Inst
		if err := Decode(b2, &in2); err != nil {
			t.Fatalf("re-decode of %v failed: %v", in, err)
		}
		if canon(in) != canon(in2) {
			t.Fatalf("unstable decode: % x -> %v -> % x -> %v", buf[:in.Len], in, b2, in2)
		}
	}
}
