// Package uop defines the VM's micro-op intermediate representation: the
// dense, operand-specialized form that decoded x86 fragments are lowered
// into before execution. Where the x86.Inst form is symbolic (operand
// kinds re-inspected on every step), a Uop resolves the operand shape at
// translate time — register numbers, partial-register byte slots,
// effective-address components and immediates sit in flat fields keyed by
// a specialized Kind, so the executor is a single dense switch with no
// per-step interface dance.
//
// The package also implements the lazy-flags discipline (see Flags):
// arithmetic micro-ops record {op, a, b, result} and the individual
// EFLAGS bits are materialized only when a consumer (Jcc, SETcc, ADC,
// SBB, or a generic-fallback instruction) actually asks for them.
//
// Lowering is total: any instruction without a specialized handler
// lowers to KindGeneric, which carries the decoded x86.Inst through to
// the VM's reference interpreter. Correctness therefore never depends on
// the specialization coverage — only speed does.
package uop

import "vxa/internal/x86"

// RegZero is the lowered encoding of an absent base or index register:
// it indexes the VM's ninth, always-zero register slot, so the executor
// computes every effective address branchlessly as
// disp + regs[Base] + regs[Idx]*Scale (an absent index also gets Scale
// 0). Translate time absorbs the x86.NoReg checks the interpreter used
// to make per step.
const RegZero uint8 = 8

// Kind selects the specialized handler for one micro-op. The executor
// switches on it; translate-time specialization means each kind's fields
// have a fixed, fully-resolved meaning.
type Kind uint8

// Micro-op kinds. Unless suffixed otherwise, operands are 32-bit.
// Suffix letters read dst-then-src: RR = reg←reg, RI = reg←imm,
// RM = reg←mem, MR = mem←reg, MI = mem←imm. An "8" names the byte form,
// whose register operands are pre-resolved (storage register + shift)
// partial-register slots.
const (
	KindNop Kind = iota

	// Moves.
	KindMovRR  // Dst ← Src
	KindMovRI  // Dst ← Imm
	KindMovRR8 // Dst.byte[Dsh] ← Src.byte[Ssh]
	KindMovRI8 // Dst.byte[Dsh] ← Imm
	KindLoad   // Dst ← mem32[ea]
	KindLoad8  // Dst.byte[Dsh] ← mem8[ea]
	KindStore  // mem32[ea] ← Src
	KindStore8 // mem8[ea] ← Src.byte[Ssh]
	KindStoreI // mem32[ea] ← Imm
	KindStoreI8
	KindLea // Dst ← ea

	// Widening moves.
	KindMovzxRR8  // Dst ← zx(Src.byte[Ssh])
	KindMovzxRR16 // Dst ← zx(Src & 0xFFFF)
	KindMovzxRM8  // Dst ← zx(mem8[ea])
	KindMovzxRM16 // Dst ← zx(mem16[ea])
	KindMovsxRR8
	KindMovsxRR16
	KindMovsxRM8
	KindMovsxRM16

	KindXchgRR // Dst ↔ Src

	// Fully specialized 32-bit ALU forms for the hottest operations:
	// the operation is baked into the kind, so the executor's case body
	// is a handful of machine ops with no secondary dispatch.
	KindAddRR
	KindAddRI
	KindSubRR
	KindSubRI
	KindCmpRR
	KindCmpRI
	KindAndRR
	KindAndRI
	KindOrRR
	KindOrRI
	KindXorRR
	KindXorRI
	KindTestRR
	KindTestRI

	// ALU, Sub = AluOp. CMP and TEST suppress the writeback.
	KindAluRR  // a=Dst, b=Src
	KindAluRI  // a=Dst, b=Imm
	KindAluRM  // a=Dst, b=mem32[ea]
	KindAluMR  // a=mem32[ea], b=Src, result back to mem
	KindAluMI  // a=mem32[ea], b=Imm, result back to mem
	KindAlu8RR // byte forms, reg slots pre-resolved
	KindAlu8RI
	KindAlu8RM
	KindAlu8MR
	KindAlu8MI

	KindIncR // Dst++ (CF preserved)
	KindDecR // Dst-- (CF preserved)
	KindNegR
	KindNotR

	// Shifts, Sub = ShOp; 32-bit register destinations only.
	KindShiftRI  // count = Imm (1..31; a zero count lowers to KindNop)
	KindShiftRCL // count = CL & 31 (a zero count is a runtime no-op)

	// Multiply/divide.
	KindImulRR  // Dst ← Dst * Src (signed, flags = overflow)
	KindImulRM  // Dst ← Dst * mem32[ea]
	KindImulRRI // Dst ← Src * Imm
	KindImulRMI // Dst ← mem32[ea] * Imm
	KindMulR    // edx:eax ← eax * Src; Sub != 0 means signed (IMUL1)
	KindMulM
	KindDivR // eax,edx ← edx:eax ÷ Src; Sub != 0 means signed (IDIV)
	KindDivM
	KindCdq

	// Stack.
	KindPushR
	KindPushI
	KindPushM
	KindPopR
	KindPopM

	KindSetccR8 // Dst.byte[Dsh] ← Sub(cc) ? 1 : 0
	KindSetccM8

	// Flag-suppressed ("NF") forms, produced by the optimizer's
	// dead-flag elimination pass: identical to their base kind except
	// that no lazy flag record is written (and for Inc/Dec, the
	// preserved CF is not read). Only emitted where liveness proved no
	// later consumer can observe the flags; see opt.go.
	KindAddRRNF
	KindAddRINF
	KindSubRRNF
	KindSubRINF
	KindAndRRNF
	KindAndRINF
	KindOrRRNF
	KindOrRINF
	KindXorRRNF
	KindXorRINF
	KindIncRNF
	KindDecRNF
	KindShiftRINF
	KindShiftRCLNF

	// Fused forms, produced by the optimizer's peephole pass. Each
	// represents Cost consecutive guest instructions; EIP is the first
	// instruction's address, Next the address after the last.
	//
	// The compare/branch and compare/setcc fusions evaluate the
	// condition directly from the compare operands — no lazy-flag
	// materialization at all — and still record the compare's flag
	// state for later consumers (unless liveness elides it; see the
	// NF variants and guards).

	// cmp a,b ; jcc — block terminator. Dst=a, Src/Imm=b, Sub=cc.
	KindCmpJccRR
	KindCmpJccRI
	// test a,b ; jcc.
	KindTestJccRR
	KindTestJccRI

	// cmp a,b ; setcc dst8. Src=a, Aux/Imm=b, Dst.byte[Dsh]=bool,
	// Sub=cc.
	KindCmpSetccRR
	KindCmpSetccRI
	KindTestSetccRR
	KindTestSetccRI

	// cmp a,b ; setcc dst8 ; movzx dst32,dst8 — the full boolean
	// materialization idiom. Src=a, Aux/Imm=b, Dst ← bool32, Sub=cc.
	KindCmpBoolRR
	KindCmpBoolRI
	KindTestBoolRR
	KindTestBoolRI
	KindCmpBoolRRNF // flag-record-suppressed variants
	KindCmpBoolRINF
	KindTestBoolRRNF
	KindTestBoolRINF

	// mov Aux, mem32[ea] ; alu Dst, Src — fused load-op. Sub=AluOp;
	// one of Dst/Src equals Aux (the loaded register).
	KindLoadAluRR
	KindLoadAluRRNF

	// Call/return pair fusions: push arg ; call and pop reg ; ret, the
	// idioms around every function boundary. The second constituent
	// instruction can trap, so its EIP rides in an otherwise-unused
	// field, noted per kind; the executor reports its faults with
	// started=2 accounting.
	KindPopRet   // Dst ← pop ; eip ← pop ; esp += Imm (ret EIP in Disp); terminator
	KindPushCall // push Src ; push Next ; eip ← Target (call EIP in Imm); terminator

	// Guarded return, only inside superblocks: the trace inlined a
	// call, so the matching RET is expected to pop Target (the inlined
	// return address) and fall through; any other popped value exits
	// the superblock through the guard's indirect inline cache (Aux).
	// esp += 4 + Imm as for KindRet.
	KindRetGuard

	// Superblock guard exits (only ever inside a superblock; see
	// vm/superblock.go). A guard evaluates its condition and either
	// falls through to the next micro-op (the profiled hot path) or
	// leaves the superblock to Target. Aux indexes the superblock's
	// per-guard chain slot.
	KindGuard // Sub=cc evaluated from the current (possibly lazy) flags
	// Fused compare guards: condition from operands (Dst=a, Src/Imm=b).
	// The base forms record the compare's flag state on both paths —
	// architecturally the compare executes whether or not the branch
	// leaves the trace. The NF forms record it only on the exit path:
	// liveness substitutes them when the straight-line continuation
	// provably clobbers the flags before reading them.
	KindGuardCmpRR
	KindGuardCmpRI
	KindGuardTestRR
	KindGuardTestRI
	KindGuardCmpRRNF
	KindGuardCmpRINF
	KindGuardTestRRNF
	KindGuardTestRINF

	// Control transfers; always the last micro-op of a block.
	KindJmp   // eip ← Target (chainable)
	KindJcc   // Sub = cc; eip ← Target or Next (both chainable)
	KindCall  // push Next; eip ← Target (chainable)
	KindCallR // push Next; eip ← Src (indirect)
	KindCallM // push Next; eip ← mem32[ea] (indirect)
	KindRet   // eip ← pop; esp += Imm
	KindJmpR  // eip ← Src (indirect)
	KindJmpM  // eip ← mem32[ea] (indirect)
	KindInt   // syscall gate; resumes at Next (chainable)
	KindHlt
	KindUd2

	// Escapes to the reference interpreter.
	KindString  // MOVS/STOS (flag-free; Inst carries the REP prefix)
	KindGeneric // materialize flags, run Inst on the reference engine
)

// AluOp is the Sub selector of the KindAlu* micro-ops.
type AluOp uint8

// ALU sub-operations.
const (
	AluAdd AluOp = iota
	AluAdc
	AluSub
	AluSbb
	AluAnd
	AluOr
	AluXor
	AluCmp
	AluTest
)

// ShOp is the Sub selector of the KindShift* micro-ops.
type ShOp uint8

// Shift sub-operations.
const (
	ShShl ShOp = iota
	ShShr
	ShSar
)

// Uop is one micro-op. Field meaning is keyed by Kind; unused fields are
// zero. Register fields hold register numbers (or pre-resolved byte-slot
// storage registers for the 8-bit kinds, with Dsh/Ssh the slot shifts).
// Base/Idx/Scale/Disp describe the effective address of the memory
// operand; an absent base or index is encoded as RegZero (with Scale 0
// for an absent index), never as x86.NoReg.
type Uop struct {
	Kind  Kind
	Sub   uint8 // AluOp, ShOp, condition code, or signedness selector
	Dst   uint8
	Src   uint8
	Dsh   uint8 // byte-slot shift of Dst (0 or 8)
	Ssh   uint8 // byte-slot shift of Src (0 or 8)
	Base  uint8
	Idx   uint8
	Scale uint8
	Aux   uint8 // fused-form extra register / guard chain-slot index
	Cost  uint8 // guest instructions this micro-op represents (fuel units)

	Imm    uint32 // immediate / RET stack adjustment
	Disp   uint32 // effective-address displacement
	EIP    uint32 // address of the source instruction (trap reporting)
	Next   uint32 // address of the following instruction
	Target uint32 // absolute branch target for Jmp/Jcc/Call and guards

	Inst *x86.Inst // KindString / KindGeneric escape payload
}
