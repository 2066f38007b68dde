package vm

// Tier-2 guard-exit trap exactness: a compiled loop trace whose interior
// guard fires mid-trace on the final iteration, with the guard's exit
// path leading straight into a faulting instruction. The trap the guest
// observes — kind, EIP, faulting address — and the architectural state
// around it — registers, the five flags, fuel — must be identical to
// the reference engine's, which pins down the per-trace fuel charge and
// the tail refund a guard exit performs. (tier2_link_test.go holds the
// harness and the cases whose failure lands behind a link.)

import (
	"encoding/binary"
	"testing"

	"vxa/internal/x86"
)

// t2asm is a tiny forward assembler over a guest address range; branch
// displacements are patched after the target address is known.
type t2asm struct {
	t    *testing.T
	base uint32
	code []byte
}

func (a *t2asm) cur() uint32 { return a.base + uint32(len(a.code)) }

func (a *t2asm) emit(inst x86.Inst) {
	enc, err := x86.Encode(inst)
	if err != nil {
		a.t.Fatalf("encode %v: %v", inst, err)
	}
	a.code = append(a.code, enc...)
}

// patchRel32 rewrites the rel32 that ends the instruction finishing at
// end so it reaches target.
func (a *t2asm) patchRel32(end, target uint32) {
	binary.LittleEndian.PutUint32(a.code[end-a.base-4:], target-end)
}

// tier2Legs are the engine levels the differential walls run at: every
// superblock compiled on its first entry, traces compiled once their
// superblock has run hot on tier 1, and tier 2 off.
var tier2Legs = []OptLevel{OptEager, OptTier2, OptSuperblocks}

// forTier2Legs runs f as a subtest per leg, named after the level.
func forTier2Legs(t *testing.T, f func(t *testing.T, level OptLevel)) {
	for _, level := range tier2Legs {
		t.Run(level.String(), func(t *testing.T) { f(t, level) })
	}
}

func TestDiffTier2GuardExitTrap(t *testing.T) {
	forTier2Legs(t, runTier2GuardExitTrap)
}

func runTier2GuardExitTrap(t *testing.T, level OptLevel) {
	const (
		fuel  = 4096
		loops = 200 // iterations before the guard finally fires
	)

	// A:    add eax, 1
	//       cmp ecx, 0
	//       je  EXIT          ; fall-dominant: becomes the trace guard
	// B:    sub ecx, 1
	//       jmp A             ; loop back edge closes the trace
	// EXIT: mov [edx], eax    ; edx points below the first page: faults
	//       ud2
	asm := &t2asm{t: t, base: diffCode}
	aAddr := asm.cur()
	asm.emit(x86.Inst{Op: x86.ADD, Dst: x86.R(x86.EAX), Src: x86.I(1)})
	asm.emit(x86.Inst{Op: x86.CMP, Dst: x86.R(x86.ECX), Src: x86.I(0)})
	asm.emit(x86.Inst{Op: x86.JCC, CC: x86.CCE, Rel: 0})
	jeEnd := asm.cur()
	asm.emit(x86.Inst{Op: x86.SUB, Dst: x86.R(x86.ECX), Src: x86.I(1)})
	asm.emit(x86.Inst{Op: x86.JMP, Rel: 0})
	exitAddr := asm.cur()
	asm.patchRel32(asm.cur(), aAddr) // jmp A
	asm.patchRel32(jeEnd, exitAddr)  // je EXIT
	asm.emit(x86.Inst{Op: x86.MOV, Dst: x86.MSIB(x86.EDX, x86.NoReg, 1, 0, 4), Src: x86.R(x86.EAX)})
	asm.emit(x86.Inst{Op: x86.UD2})

	// Two passes on one VM: the first forms and compiles the loop's trace
	// part-way through, the second starts on it and takes its back edge
	// through the trace's own link slot every iteration.
	g := linkGuest{code: asm.code, fuel: fuel,
		regs: map[x86.Reg]uint32{x86.ECX: loops, x86.EDX: 0x10}}
	v1 := diffVMAt(t, level) // uop engine
	v2 := diffVM(t)          // reference engine
	seed := [8]uint32{7, 77, 777, 7777, 0, 0, 70, 700}
	for pass := 1; pass <= 2; pass++ {
		// runOnce holds trap, registers, flags, Steps and fuel to the
		// reference's: the trace charges its full cost per iteration and
		// the exit refunds the skipped tail, so the engines must agree
		// that every started instruction cost exactly one.
		tr := g.runOnce(t, v1, v2, seed).(*Trap)
		if tr.EIP != exitAddr {
			t.Fatalf("pass %d: trap EIP = %#x, want the guard exit path %#x", pass, tr.EIP, exitAddr)
		}
	}
	br := v1.blocks[diffCode]

	if level == OptEager && nativeTier2() {
		st := v1.Stats()
		if st.Tier2Executed == 0 {
			t.Fatalf("tier-2 forced hot but no compiled trace ran (%d compiled)", st.Tier2Compiled)
		}
		if br.sb == nil || br.sb.t2 == nil {
			t.Fatalf("loop head has no compiled superblock trace")
		}
	} else if st := v1.Stats(); level < OptTier2 && st.Tier2Executed != 0 {
		t.Fatalf("tier-2 disabled but %d compiled iterations ran", st.Tier2Executed)
	}
}
