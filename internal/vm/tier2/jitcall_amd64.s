//go:build amd64 && linux

#include "go_asm.h"
#include "textflag.h"

// func jitcall(code uintptr, m *Machine, cur uint32) int32
//
// Enters emitted trace code and is the one place where guest registers
// move between Machine.Regs and the host registers they are pinned in
// while compiled code runs. The convention of emitted code (the table is
// native_amd64.go's; the two are one):
//
//	guest  host     guest  host     host   role
//	EAX    R9       ESP    R12      DI     *Machine, never written
//	ECX    R10      EBP    BP       SI     guest memory base, never written
//	EDX    R11      ESI    R13      DX     the entered trace's link-slot offset, at a trace entry only
//	EBX    BX       EDI    R15      AX CX DX R8   scratch; AX is the exit status at ret
//	                                R14    the meter: Machine.Meter, in and out
//
// The shim loads SI, the meter and the eight pinned registers, calls the
// trace, and stores the meter and the eight back whichever trace of a
// linked chain returns:
// traces reach one another by jumping, never by calling, so however many
// run there is one call and one return, the code never calls back into
// Go, and the stack holds this frame, one return address and at most one
// register the emitted code spills. The frame is real so that the
// assembler's prologue saves BP and its epilogue restores it from the
// stack; Go's ABI0 asks nothing else of us — it has no other callee-saved
// register, and leaves R14 (g in Go's internal ABI) and X15 undefined:
// the wrapper Go calls this through reloads g from thread-local storage
// when it returns, and X15 is not touched. A profiling or preemption
// signal that lands while BP holds a guest value and R14 the meter sees a
// PC outside any Go function and unwinds nothing; the handler loads g
// from thread-local storage itself and restores R14 when it returns
// (TestSpinningGuestComesBackEveryQuantum spins a guest under the CPU
// profiler and the collector).
TEXT ·jitcall(SB), NOSPLIT, $8-28
	MOVQ code+0(FP), AX
	MOVQ m+8(FP), DI
	MOVL cur+16(FP), DX
	MOVQ Machine_Mem(DI), SI
	MOVL (Machine_Regs+0)(DI), R9
	MOVL (Machine_Regs+4)(DI), R10
	MOVL (Machine_Regs+8)(DI), R11
	MOVL (Machine_Regs+12)(DI), BX
	MOVL (Machine_Regs+16)(DI), R12
	MOVL (Machine_Regs+20)(DI), BP
	MOVL (Machine_Regs+24)(DI), R13
	MOVL (Machine_Regs+28)(DI), R15
	MOVQ Machine_Meter(DI), R14
	CALL AX
	MOVQ R14, Machine_Meter(DI)
	MOVL R9, (Machine_Regs+0)(DI)
	MOVL R10, (Machine_Regs+4)(DI)
	MOVL R11, (Machine_Regs+8)(DI)
	MOVL BX, (Machine_Regs+12)(DI)
	MOVL R12, (Machine_Regs+16)(DI)
	MOVL BP, (Machine_Regs+20)(DI)
	MOVL R13, (Machine_Regs+24)(DI)
	MOVL R15, (Machine_Regs+28)(DI)
	MOVL AX, ret+24(FP)
	RET
