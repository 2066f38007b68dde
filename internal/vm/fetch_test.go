package vm

import (
	"testing"

	"vxa/internal/x86"
)

// TestFetchOutsideText: instructions are fetched from the read-only text
// alone, so nothing translated can go stale. Each guest warms up in hot
// loops, compiled at the levels that compile, then sends control to an
// instruction that is not wholly inside the text: code the guest wrote
// into its data page and calls three times with three immediates (a
// level that cached its first translation would return the first
// immediate three times), or an instruction whose first two bytes end
// the text and whose last three are data, fallen into or jumped to. An
// undecodable instruction in the text, fallen into, is held to the same,
// since a fragment ends before any instruction it cannot fetch. Every
// level and the oracle must stop with the same trap, at the same EIP and
// address, after the same Steps, with the same registers (-v logs each),
// and what the level translated must load back from an artifact.
func TestFetchOutsideText(t *testing.T) {
	const (
		straddle = diffData - 2     // mov eax, imm32: two bytes of text, three of data
		fn       = diffData + 0x100 // mov eax, imm32; ret, in the data page
	)
	data := make([]byte, fn-diffData+6)
	data[3] = 0xC3 // ret, after the straddler's imm32
	copy(data[fn-diffData:], []byte{0xB8, 0, 0, 0, 0, 0xC3})
	cases := []struct {
		name string
		tail func(a *t2asm) (eip uint32, kind TrapKind)
	}{
		{"written", func(a *t2asm) (uint32, TrapKind) {
			for i := range 3 {
				a.op2(x86.MOV, x86.R(x86.EDX), x86.I(int32(i)))
				a.op2(x86.MOV, x86.MAbs("", int32(fn+1), 4), x86.R(x86.EDX))
				a.branch(x86.Inst{Op: x86.CALL})(fn)
				a.op2(x86.ADD, x86.R(x86.EBX), x86.R(x86.EAX))
			}
			a.emit(x86.Inst{Op: x86.UD2})
			return fn, TrapMemory
		}},
		{"straddle", func(a *t2asm) (uint32, TrapKind) {
			a.jmp(straddle - 5)
			return straddle, TrapMemory
		}},
		{"straddle entered", func(a *t2asm) (uint32, TrapKind) {
			a.jmp(straddle)
			return straddle, TrapMemory
		}},
		{"undecodable", func(a *t2asm) (uint32, TrapKind) {
			a.op2(x86.MOV, x86.R(x86.EBX), x86.I(9))
			eip := a.cur()
			a.code = append(a.code, 0x0F, 0xFF)
			return eip, TrapIllegal
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// The hot loops: 100 times, 10 calls of a function in the
			// text.
			a := &t2asm{t: t, base: diffCode}
			a.op2(x86.MOV, x86.R(x86.EDI), x86.I(100))
			outer := a.cur()
			a.op2(x86.MOV, x86.R(x86.ESI), x86.I(10))
			inner := a.cur()
			call := a.branch(x86.Inst{Op: x86.CALL})
			a.op2(x86.ADD, x86.R(x86.EBX), x86.R(x86.EAX))
			a.op2(x86.SUB, x86.R(x86.ESI), x86.I(1))
			a.jcc(x86.CCNE, inner)
			a.op2(x86.SUB, x86.R(x86.EDI), x86.I(1))
			a.jcc(x86.CCNE, outer)
			eip, kind := c.tail(a)
			call(a.cur())
			a.op2(x86.MOV, x86.R(x86.EAX), x86.I(1))
			a.emit(x86.Inst{Op: x86.RET})
			// The last two instructions of the text: mov ebx, 7 and the
			// straddler.
			a.code = append(a.code, make([]byte, straddle-5-a.cur())...)
			a.op2(x86.MOV, x86.R(x86.EBX), x86.I(7))
			a.code = append(a.code, 0xB8, 0x02)
			if a.cur() != diffData {
				t.Fatalf("the text ends at %#x", a.cur())
			}
			load := func(v *VM) *VM {
				copy(v.mem[diffCode:], a.code)
				copy(v.mem[diffData:], data)
				v.eip = diffCode
				return v
			}

			ref := load(diffVM(t))
			n, err := refRun(ref, 1<<20)
			refSteps := uint64(n)
			want, ok := err.(*Trap)
			if !ok || want.Kind != kind || want.EIP != eip || kind == TrapMemory && want.Addr != eip {
				t.Fatalf("oracle: %v, want a %v at %#x", err, kind, eip)
			}
			t.Logf("oracle: %v after %d steps", want, refSteps)
			for _, level := range OptLevels() {
				v := load(diffVMAt(t, level))
				_, err := v.Run()
				st := v.Stats()
				t.Logf("%v: %v after %d steps", level, err, st.Steps)
				got, ok := err.(*Trap)
				if !ok || got.Kind != want.Kind || got.EIP != want.EIP || got.Addr != want.Addr || st.Steps != refSteps {
					t.Fatalf("%v: %v after %d steps, oracle %v after %d", level, err, st.Steps, want, refSteps)
				}
				if v.m.Regs != ref.m.Regs {
					t.Fatalf("%v: registers %#x, oracle %#x", level, v.m.Regs, ref.m.Regs)
				}
				if level >= OptTier2 && nativeTier2() && st.Tier2Compiled == 0 {
					t.Fatalf("%v: the hot loops compiled no trace", level)
				}
				// A fragment cut short before the instruction loads back
				// from an artifact.
				data, err := v.Snapshot().Serialize()
				if err != nil {
					t.Fatal(err)
				}
				if _, err := Deserialize(data); err != nil {
					t.Fatalf("%v: %v", level, err)
				}
			}
		})
	}
}
