package asm

import (
	"testing"

	"vxa/internal/x86"
)

func TestLinkLayout(t *testing.T) {
	u := New()
	u.DefData("ro1", ROData, []byte("hello"))
	u.DefData("d1", Data, []byte{1, 2, 3, 4})
	u.DefBSS("b1", 100, 16)
	u.DefBSS("b2", 4, 4)
	u.Label("start")
	u.Op2(x86.MOV, x86.R(x86.EAX), x86.ISym("ro1"))
	u.Op2(x86.MOV, x86.R(x86.EBX), x86.ISym("b1"))
	u.Op0(x86.RET)
	im, err := u.Link(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if im.Symbols["start"] != 0x1000 {
		t.Fatalf("start = %#x", im.Symbols["start"])
	}
	if im.Symbols["ro1"] != im.ROBase() {
		t.Fatalf("ro1 = %#x, ROBase = %#x", im.Symbols["ro1"], im.ROBase())
	}
	if im.Symbols["d1"] != im.DataBase() {
		t.Fatalf("d1 = %#x, DataBase = %#x", im.Symbols["d1"], im.DataBase())
	}
	if b1 := im.Symbols["b1"]; b1 < im.BSSBase() || b1%16 != 0 {
		t.Fatalf("b1 = %#x (bss base %#x)", b1, im.BSSBase())
	}
	if im.Symbols["__end"] != im.End() {
		t.Fatalf("__end = %#x, End = %#x", im.Symbols["__end"], im.End())
	}
	// The ro1 string must actually be in the blob at its address.
	blob := im.Blob()
	off := im.Symbols["ro1"] - im.Base
	if string(blob[off:off+5]) != "hello" {
		t.Fatalf("ro1 content misplaced")
	}
}

func TestBranchResolution(t *testing.T) {
	u := New()
	u.Label("start")
	u.Jmp("target")
	u.Op0(x86.NOP) // skipped
	u.Label("target")
	u.Op0(x86.RET)
	im, err := u.Link(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	// jmp rel32 is 5 bytes; target is at +6; rel = 6 - 5 = 1.
	var inst x86.Inst
	if err := x86.Decode(im.Text, &inst); err != nil {
		t.Fatal(err)
	}
	if inst.Op != x86.JMP || inst.Rel != 1 {
		t.Fatalf("jmp rel = %d, want 1", inst.Rel)
	}
}

func TestBackwardBranch(t *testing.T) {
	u := New()
	u.Label("loop")
	u.Op1(x86.DEC, x86.R(x86.ECX))
	u.Jcc(x86.CCNE, "loop")
	im, err := u.Link(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	// dec ecx = 1 byte, jcc rel32 = 6 bytes; rel = -(1+6) = -7.
	var inst x86.Inst
	if err := x86.Decode(im.Text[1:], &inst); err != nil {
		t.Fatal(err)
	}
	if inst.Rel != -7 {
		t.Fatalf("jcc rel = %d, want -7", inst.Rel)
	}
}

func TestErrors(t *testing.T) {
	u := New()
	u.Label("start")
	u.Jmp("nowhere")
	if _, err := u.Link(0x1000); err == nil {
		t.Error("undefined branch target accepted")
	}

	u2 := New()
	u2.Label("dup")
	u2.Label("dup")
	if _, err := u2.Link(0x1000); err == nil {
		t.Error("duplicate label accepted")
	}

	u3 := New()
	u3.DefData("x", ROData, []byte{1})
	u3.DefBSS("x", 4, 4)
	if _, err := u3.Link(0x1000); err == nil {
		t.Error("duplicate data symbol accepted")
	}
}
