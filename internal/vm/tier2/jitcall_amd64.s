//go:build amd64 && linux

#include "textflag.h"

// func jitcall(code uintptr, m *Machine, cur uint32) int32
//
// Enters emitted trace code with the Machine pointer in DI and the
// entered trace's link-slot offset in DX. The emitted code follows a
// private convention: DI = *Machine for the whole run, SI = guest memory
// base (loaded by every trace entry), AX/CX/DX/R8-R11 scratch, exit
// status returned in AX. Traces reach one another by jumping, never by
// calling, so however many run the code never calls back into Go, never
// grows the stack beyond this frame plus one return address and a
// spilled register, and preserves all callee-saved registers (including
// R14/g): NOSPLIT is safe and the goroutine state stays coherent across
// the call.
TEXT ·jitcall(SB), NOSPLIT, $0-28
	MOVQ code+0(FP), AX
	MOVQ m+8(FP), DI
	MOVL cur+16(FP), DX
	CALL AX
	MOVL AX, ret+24(FP)
	RET
