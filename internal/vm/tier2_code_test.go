//go:build amd64 && linux

package vm

import (
	"fmt"
	"math/rand"
	"testing"

	"vxa/internal/vm/tier2"
)

// hostInst is one decoded instruction of emitted trace code: its length
// and, for the control transfers that matter here, what it is.
type hostInst struct {
	n     int
	ret   bool
	indir bool  // FF /2../5: an indirect call or jump
	ext   byte  // the /ext of an indirect branch
	mod   byte  // its ModRM.mod
	base  byte  // its ModRM.rm, REX.B included
	disp  int32 // its displacement
}

// decodeHost decodes the instruction at code[0]. It knows exactly the
// encodings tier2's assembler (nasm_amd64.go) produces and fails on
// anything else, so scanning a trace with it also proves the trace is
// nothing but instructions the assembler meant to emit — in particular
// no far return, no call, no branch through a register.
func decodeHost(code []byte) (hostInst, error) {
	var in hostInst
	i := 0
	var rex byte
	if code[i]&0xF0 == 0x40 {
		rex = code[i]
		i++
	}
	op := code[i]
	i++
	modrm, imm := false, 0
	switch {
	case op == 0x0F:
		op2 := code[i]
		i++
		switch {
		case op2&0xF0 == 0x80: // jcc rel32
			imm = 4
		case op2&0xF0 == 0x90, op2 == 0xB6, op2 == 0xB7, op2 == 0xBE, op2 == 0xBF, op2 == 0xAF:
			modrm = true
		default:
			return in, fmt.Errorf("unknown opcode 0F %02X", op2)
		}
	case op == 0x01, op == 0x03, op == 0x09, op == 0x0B, op == 0x13,
		op == 0x21, op == 0x23, op == 0x29, op == 0x2B, op == 0x31, op == 0x33,
		op == 0x39, op == 0x3B, op == 0x63, op == 0x85, op == 0x88, op == 0x89,
		op == 0x8B, op == 0x8D, op == 0xD3:
		modrm = true
	case op == 0x81, op == 0xC7:
		modrm, imm = true, 4
	case op == 0xC1, op == 0xC6:
		modrm, imm = true, 1
	case op == 0xF7:
		modrm = true
		if code[i]>>3&7 == 0 { // test r/m32, imm32
			imm = 4
		}
	case op == 0xFF:
		modrm = true
		if ext := code[i] >> 3 & 7; ext != 0 { // /0 is inc
			in.indir, in.ext = true, ext
		}
	case op&0xF8 == 0xB8: // mov reg, imm32 / movabs reg, imm64
		imm = 4
		if rex&8 != 0 {
			imm = 8
		}
	case op&0xF0 == 0x50, op == 0x99: // push/pop reg, cdq/cqo
	case op == 0xC3:
		in.ret = true
	case op == 0xE9:
		imm = 4
	default:
		return in, fmt.Errorf("unknown opcode %02X", op)
	}
	if modrm {
		m := code[i]
		i++
		mod, rm := m>>6, m&7
		in.mod, in.base = mod, rm|rex&1<<3
		dispLen := 0
		if mod != 3 && rm == 4 {
			if sib := code[i]; mod == 0 && sib&7 == 5 {
				dispLen = 4
			}
			i++
		}
		switch {
		case mod == 1:
			dispLen = 1
			in.disp = int32(int8(code[i]))
		case mod == 2, mod == 0 && rm == 5:
			dispLen = 4
			in.disp = int32(uint32(code[i]) | uint32(code[i+1])<<8 | uint32(code[i+2])<<16 | uint32(code[i+3])<<24)
		}
		i += dispLen
	}
	in.n = i + imm
	if in.n > len(code) {
		return in, fmt.Errorf("instruction runs off the end of the code")
	}
	return in, nil
}

// checkTraceCode scans one native trace: it must decode end to end, and
// its only indirect control transfers are ret and one `jmp [slot]` per
// link slot, each through the slot pointer the exit sequence builds in
// RAX or RCX, at that slot's displacement.
func checkTraceCode(t *testing.T, tr *tier2.Trace) {
	t.Helper()
	code := tr.Code()
	slots := make(map[int32]bool)
	rets := 0
	for off := 0; off < len(code); {
		in, err := decodeHost(code[off:])
		if err != nil {
			t.Fatalf("trace %#x, code offset %#x: %v", tr.Entry, off, err)
		}
		switch {
		case in.ret:
			rets++
		case in.indir:
			if in.ext != 4 || in.mod == 3 || in.mod == 0 || in.base > 1 {
				t.Fatalf("trace %#x, code offset %#x: indirect branch FF /%d mod=%d rm=%d is no slot jump",
					tr.Entry, off, in.ext, in.mod, in.base)
			}
			if in.disp%int32(tier2.LinkSize) != 0 || slots[in.disp] {
				t.Fatalf("trace %#x, code offset %#x: slot jump at displacement %d", tr.Entry, off, in.disp)
			}
			slots[in.disp] = true
		}
		off += in.n
	}
	if len(slots) != tr.Slots {
		t.Fatalf("trace %#x: %d slot jumps for %d link slots", tr.Entry, len(slots), tr.Slots)
	}
	for k := 0; k < tr.Slots; k++ {
		if !slots[int32(k)*int32(tier2.LinkSize)] {
			t.Fatalf("trace %#x: no jump through slot %d", tr.Entry, k)
		}
	}
	if rets == 0 {
		t.Fatalf("trace %#x never returns", tr.Entry)
	}
}

// TestTraceCodeIndirectBranches: the emitter produces no indirect branch
// but the slot jumps and ret, over every trace the soak programs compile.
func TestTraceCodeIndirectBranches(t *testing.T) {
	forceTier2Hot(t)
	traces := 0
	scan := func(v *VM) {
		for _, br := range v.blocks {
			if sb := br.sb; sb != nil && sb.t2 != nil && sb.t2.Native() {
				checkTraceCode(t, sb.t2)
				traces++
			}
		}
	}
	for seed := int64(1); seed <= 100; seed++ {
		image := make([]byte, soakSpan)
		rng := rand.New(rand.NewSource(seed))
		soakBuildProgram(t, rng, image)
		v := soakVM(t, image)
		soakSeedRegs(rng, v)
		v.eip = soakBlockAddr(0)
		if _, err := v.Run(); err == nil {
			t.Fatal("soak program did not trap")
		}
		scan(v)
	}
	if traces < 50 {
		t.Fatalf("only %d native traces scanned", traces)
	}
}
