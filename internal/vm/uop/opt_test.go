package uop

import (
	"testing"

	"vxa/internal/x86"
)

// lowerSeq lowers a hand-built instruction sequence at address 0x1000.
func lowerSeq(t *testing.T, insts []x86.Inst) []Uop {
	t.Helper()
	addrs := make([]uint32, len(insts))
	addr := uint32(0x1000)
	for i := range insts {
		if insts[i].Len == 0 {
			insts[i].Len = 4 // synthetic; only Next/cost bookkeeping sees it
		}
		addrs[i] = addr
		addr += uint32(insts[i].Len)
	}
	return Lower(nil, insts, addrs)
}

// TestFuseCmpJcc pins the compare/branch terminator fusion and the cost
// invariant.
func TestFuseCmpJcc(t *testing.T) {
	us := lowerSeq(t, []x86.Inst{
		{Op: x86.CMP, Dst: x86.R(x86.EAX), Src: x86.R(x86.ECX)},
		{Op: x86.JCC, CC: x86.CCL, Rel: 16},
	})
	before := Cost(us)
	out, st := Optimize(us)
	if len(out) != 1 || out[0].Kind != KindCmpJccRR {
		t.Fatalf("want one KindCmpJccRR, got %+v", out)
	}
	if out[0].Sub != uint8(x86.CCL) || out[0].Cost != 2 {
		t.Fatalf("bad fused op: %+v", out[0])
	}
	if st.UopsFused != 1 {
		t.Fatalf("UopsFused = %d, want 1", st.UopsFused)
	}
	if Cost(out) != before {
		t.Fatalf("cost changed: %d -> %d", before, Cost(out))
	}
}

// TestFuseBoolTriple pins the cmp;setcc;movzx boolean idiom collapsing
// to one micro-op.
func TestFuseBoolTriple(t *testing.T) {
	us := lowerSeq(t, []x86.Inst{
		{Op: x86.CMP, Dst: x86.R(x86.EAX), Src: x86.R(x86.ECX)},
		{Op: x86.SETCC, CC: x86.CCB, Dst: x86.R8(x86.EAX)},
		{Op: x86.MOVZX, Dst: x86.R(x86.EAX), Src: x86.R8(x86.EAX)},
	})
	out, _ := Optimize(us)
	if len(out) != 1 || out[0].Kind != KindCmpBoolRR {
		t.Fatalf("want one KindCmpBoolRR, got %+v", out)
	}
	if out[0].Cost != 3 {
		t.Fatalf("cost = %d, want 3", out[0].Cost)
	}
}

// TestFuseCallReturn pins the two stack fusions that remain — push;call
// and pop;ret, the function-boundary idioms — and that the vxcc-2
// stack-shuffle pairs around them stay two micro-ops each.
func TestFuseCallReturn(t *testing.T) {
	us := lowerSeq(t, []x86.Inst{
		{Op: x86.MOV, Dst: x86.R(x86.ECX), Src: x86.R(x86.EAX)},
		{Op: x86.POP, Dst: x86.R(x86.EAX)},
		{Op: x86.ADD, Dst: x86.R(x86.EAX), Src: x86.R(x86.ECX)},
		{Op: x86.PUSH, Dst: x86.R(x86.EAX)},
		{Op: x86.CALL, Rel: 64},
	})
	before := Cost(us)
	out, st := Optimize(us)
	if len(out) != 4 || out[3].Kind != KindPushCall || out[3].Cost != 2 || st.UopsFused != 1 {
		t.Fatalf("want mov, pop, add, PushCall; got %+v (fused %d)", out, st.UopsFused)
	}
	if Cost(out) != before {
		t.Fatalf("cost changed: %d -> %d", before, Cost(out))
	}

	us = lowerSeq(t, []x86.Inst{
		{Op: x86.POP, Dst: x86.R(x86.EBP)},
		{Op: x86.RET},
	})
	if out, _ = Optimize(us); len(out) != 1 || out[0].Kind != KindPopRet {
		t.Fatalf("want one KindPopRet, got %+v", out)
	}
	// pop esp would move the stack the RET reads: never fused.
	us = lowerSeq(t, []x86.Inst{
		{Op: x86.POP, Dst: x86.R(x86.ESP)},
		{Op: x86.RET},
	})
	if out, _ = Optimize(us); len(out) != 2 {
		t.Fatalf("pop esp ; ret fused: %+v", out)
	}
}

// TestElideDeadFlags pins dead-flag elimination: a flag-writing op
// whose record is clobbered before any consumer loses it; the last
// writer before the block exit keeps it.
func TestElideDeadFlags(t *testing.T) {
	us := lowerSeq(t, []x86.Inst{
		{Op: x86.ADD, Dst: x86.R(x86.EAX), Src: x86.R(x86.ECX)}, // dead: xor clobbers
		{Op: x86.XOR, Dst: x86.R(x86.EDX), Src: x86.R(x86.EDX)}, // live at exit
	})
	out, st := Optimize(us)
	if st.FlagsElided != 1 {
		t.Fatalf("FlagsElided = %d, want 1", st.FlagsElided)
	}
	if out[0].Kind != KindAddRRNF || out[1].Kind != KindXorRR {
		t.Fatalf("bad kinds: %v %v", out[0].Kind, out[1].Kind)
	}
}

// TestElideRespectsConsumers pins the other side: ADC reads CF, a Jcc
// reads its condition flags, and an INC whose record survives must keep
// reading the preserved CF.
func TestElideRespectsConsumers(t *testing.T) {
	us := lowerSeq(t, []x86.Inst{
		{Op: x86.ADD, Dst: x86.R(x86.EAX), Src: x86.R(x86.ECX)}, // CF feeds ADC
		{Op: x86.ADC, Dst: x86.R(x86.EDX), Src: x86.R(x86.EBX)},
	})
	out, st := Optimize(us)
	if st.FlagsElided != 0 {
		t.Fatalf("FlagsElided = %d, want 0", st.FlagsElided)
	}
	if out[0].Kind != KindAddRR {
		t.Fatalf("ADD lost its record: %v", out[0].Kind)
	}

	// A dead CMP becomes a NOP but keeps its fuel cost.
	us = lowerSeq(t, []x86.Inst{
		{Op: x86.CMP, Dst: x86.R(x86.EAX), Src: x86.R(x86.ECX)},
		{Op: x86.SUB, Dst: x86.R(x86.EAX), Src: x86.R(x86.ECX)},
	})
	out, st = Optimize(us)
	if st.FlagsElided != 1 || out[0].Kind != KindNop || out[0].Cost != 1 {
		t.Fatalf("dead CMP not elided to a costed NOP: %+v (elided %d)", out[0], st.FlagsElided)
	}
}
