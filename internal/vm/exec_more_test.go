package vm

import (
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
	v := newBare(t)
	// Build: table at data page holding the address of "target".
	// target: mov ebx, 99; exit.
	code := uint32(PageSize)
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
	table := uint32(PageSize + 0x800)
	// start: mov eax, [table]; jmp eax
	asmAt(code,
		x86.Inst{Op: x86.MOV, Dst: x86.R(x86.EAX), Src: x86.MAbs("", int32(table), 4)},
		x86.Inst{Op: x86.JMPM, Dst: x86.R(x86.EAX)},
	)
	target := uint32(PageSize + 0x400)
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
