package uop

import (
	"fmt"

	"vxa/internal/x86"
)

// Info states what every layer around the executors knows about one
// micro-op kind. Lowering, the optimizer, superblock formation, the
// native emitter at compile time and the artifact loader read it; the
// executors' switches, which are the kinds' behaviour, never do.
type Info struct {
	Name string
	// Use and Def are the flags the kind reads and defines, as the
	// liveness pass sees them. A kind that may leave the flags untouched
	// at runtime (a CL shift by zero) defines none. What depends on the
	// operands — ADC/SBB's carry, a Jcc's condition (ReadsCC) — is
	// flagEffect's.
	Use, Def x86.FlagSet
	ReadsCC  bool // reads the flags its condition code names
	// NF is the flag-suppressed form dead-flag elimination downgrades
	// the kind to, 0 when it has none.
	NF Kind
	// Fused are the forms a compare becomes with the micro-op after it.
	Fused Fusion
	// Spec marks the fully specialized 32-bit ALU kinds, Dst = Dst Alu
	// Src (or Imm). Alu is the operation of those and of the fused
	// compares, Imm that their second operand is the immediate.
	Spec bool
	Alu  AluOp
	Imm  bool
	// Term: a control transfer, the last micro-op of its fragment.
	// Guard: a conditional superblock exit, Aux its chain slot.
	// EndsTrace: superblock growth stops at it.
	Term, Guard, EndsTrace bool
	// Ops is the kind's operand shape: which fields it uses.
	Ops Shape
}

// Fusion names a compare's fused forms before a Jcc, a superblock guard,
// a SETcc, and a SETcc whose byte a MOVZX widens.
type Fusion struct{ Jcc, Guard, Setcc, Bool Kind }

// Shape is a set of the operand fields a kind uses, each with its
// domain; the artifact loader holds every field a kind uses to it
// (Uop.BadField).
type Shape uint16

// Operand fields.
const (
	OpDst Shape = 1 << iota // Dst is a register
	OpSrc                   // Src is a register
	OpAux                   // Aux is a register
	OpDsh                   // Dsh is a byte-slot shift: 0 or 8
	OpSsh                   // Ssh is a byte-slot shift: 0 or 8
	OpMem                   // Base, Idx, Scale, Disp: a memory operand; Scale 0, 1, 2, 4 or 8
	OpCC                    // Sub is a condition code: below 16
	OpAlu                   // Sub is an AluOp
	OpSh                    // Sub is a ShOp
	OpStr                   // Sub is a StrOp: below 8
)

// Shapes the rows share.
const (
	rr  = OpDst | OpSrc
	rr8 = OpDst | OpDsh | OpSrc | OpSsh
	rm  = OpDst | OpMem
)

const all, cf = x86.FlagsAll, x86.FlagCF

// Kinds holds one row per kind, indexed by Kind.
var Kinds = [KindStr + 1]Info{
	KindNop:       {Name: "Nop"},
	KindMovRR:     {Name: "MovRR", Ops: rr},
	KindMovRI:     {Name: "MovRI", Ops: OpDst},
	KindMovRR8:    {Name: "MovRR8", Ops: rr8},
	KindMovRI8:    {Name: "MovRI8", Ops: OpDst | OpDsh},
	KindLoad:      {Name: "Load", Ops: rm},
	KindLoad8:     {Name: "Load8", Ops: rm | OpDsh},
	KindStore:     {Name: "Store", Ops: OpSrc | OpMem},
	KindStore8:    {Name: "Store8", Ops: OpSrc | OpSsh | OpMem},
	KindStoreI:    {Name: "StoreI", Ops: OpMem},
	KindStoreI8:   {Name: "StoreI8", Ops: OpMem},
	KindLea:       {Name: "Lea", Ops: rm},
	KindMovzxRR8:  {Name: "MovzxRR8", Ops: rr | OpSsh},
	KindMovzxRR16: {Name: "MovzxRR16", Ops: rr},
	KindMovzxRM8:  {Name: "MovzxRM8", Ops: rm},
	KindMovzxRM16: {Name: "MovzxRM16", Ops: rm},
	KindMovsxRR8:  {Name: "MovsxRR8", Ops: rr | OpSsh},
	KindMovsxRR16: {Name: "MovsxRR16", Ops: rr},
	KindMovsxRM8:  {Name: "MovsxRM8", Ops: rm},
	KindMovsxRM16: {Name: "MovsxRM16", Ops: rm},
	KindXchgRR:    {Name: "XchgRR", Ops: rr},

	KindAddRR:  {Name: "AddRR", Def: all, NF: KindAddRRNF, Spec: true, Alu: AluAdd, Ops: rr},
	KindAddRI:  {Name: "AddRI", Def: all, NF: KindAddRINF, Spec: true, Alu: AluAdd, Imm: true, Ops: OpDst},
	KindSubRR:  {Name: "SubRR", Def: all, NF: KindSubRRNF, Spec: true, Alu: AluSub, Ops: rr},
	KindSubRI:  {Name: "SubRI", Def: all, NF: KindSubRINF, Spec: true, Alu: AluSub, Imm: true, Ops: OpDst},
	KindCmpRR:  {Name: "CmpRR", Def: all, Fused: Fusion{KindCmpJccRR, KindGuardCmpRR, KindCmpSetccRR, KindCmpBoolRR}, Spec: true, Alu: AluCmp, Ops: rr},
	KindCmpRI:  {Name: "CmpRI", Def: all, Fused: Fusion{KindCmpJccRI, KindGuardCmpRI, KindCmpSetccRI, KindCmpBoolRI}, Spec: true, Alu: AluCmp, Imm: true, Ops: OpDst},
	KindAndRR:  {Name: "AndRR", Def: all, NF: KindAndRRNF, Spec: true, Alu: AluAnd, Ops: rr},
	KindAndRI:  {Name: "AndRI", Def: all, NF: KindAndRINF, Spec: true, Alu: AluAnd, Imm: true, Ops: OpDst},
	KindOrRR:   {Name: "OrRR", Def: all, NF: KindOrRRNF, Spec: true, Alu: AluOr, Ops: rr},
	KindOrRI:   {Name: "OrRI", Def: all, NF: KindOrRINF, Spec: true, Alu: AluOr, Imm: true, Ops: OpDst},
	KindXorRR:  {Name: "XorRR", Def: all, NF: KindXorRRNF, Spec: true, Alu: AluXor, Ops: rr},
	KindXorRI:  {Name: "XorRI", Def: all, NF: KindXorRINF, Spec: true, Alu: AluXor, Imm: true, Ops: OpDst},
	KindTestRR: {Name: "TestRR", Def: all, Fused: Fusion{KindTestJccRR, KindGuardTestRR, KindTestSetccRR, KindTestBoolRR}, Spec: true, Alu: AluTest, Ops: rr},
	KindTestRI: {Name: "TestRI", Def: all, Fused: Fusion{KindTestJccRI, KindGuardTestRI, KindTestSetccRI, KindTestBoolRI}, Spec: true, Alu: AluTest, Imm: true, Ops: OpDst},

	KindAluRR:  {Name: "AluRR", Def: all, NF: KindAluRRNF, Ops: rr | OpAlu},
	KindAluRI:  {Name: "AluRI", Def: all, NF: KindAluRINF, Ops: OpDst | OpAlu},
	KindAluRM:  {Name: "AluRM", Def: all, NF: KindAluRMNF, Ops: rm | OpAlu},
	KindAluMR:  {Name: "AluMR", Def: all, NF: KindAluMRNF, Ops: OpSrc | OpMem | OpAlu},
	KindAluMI:  {Name: "AluMI", Def: all, NF: KindAluMINF, Ops: OpMem | OpAlu},
	KindAlu8RR: {Name: "Alu8RR", Def: all, NF: KindAlu8RRNF, Ops: rr8 | OpAlu},
	KindAlu8RI: {Name: "Alu8RI", Def: all, NF: KindAlu8RINF, Ops: OpDst | OpDsh | OpAlu},
	KindAlu8RM: {Name: "Alu8RM", Def: all, NF: KindAlu8RMNF, Ops: rm | OpDsh | OpAlu},
	KindAlu8MR: {Name: "Alu8MR", Def: all, NF: KindAlu8MRNF, Ops: OpSrc | OpSsh | OpMem | OpAlu},
	KindAlu8MI: {Name: "Alu8MI", Def: all, NF: KindAlu8MINF, Ops: OpMem | OpAlu},

	// INC/DEC preserve CF: the full record they write carries the
	// incoming CF through, so they read it.
	KindIncR:     {Name: "IncR", Use: cf, Def: all, NF: KindIncRNF, Ops: OpDst},
	KindDecR:     {Name: "DecR", Use: cf, Def: all, NF: KindDecRNF, Ops: OpDst},
	KindNegR:     {Name: "NegR", Def: all, NF: KindNegRNF, Ops: OpDst},
	KindNotR:     {Name: "NotR", Ops: OpDst},
	KindShiftRI:  {Name: "ShiftRI", Def: all, NF: KindShiftRINF, Ops: OpDst | OpSh},
	KindShiftRCL: {Name: "ShiftRCL", NF: KindShiftRCLNF, Ops: OpDst | OpSh},

	KindImulRR:  {Name: "ImulRR", Def: all, NF: KindImulRRNF, Ops: rr},
	KindImulRM:  {Name: "ImulRM", Def: all, NF: KindImulRMNF, Ops: rm},
	KindImulRRI: {Name: "ImulRRI", Def: all, NF: KindImulRRINF, Ops: rr},
	KindImulRMI: {Name: "ImulRMI", Def: all, NF: KindImulRMINF, Ops: rm},
	KindMulR:    {Name: "MulR", Def: all, NF: KindMulRNF, Ops: OpSrc},
	KindMulM:    {Name: "MulM", Def: all, NF: KindMulMNF, Ops: OpMem},
	KindDivR:    {Name: "DivR", Ops: OpSrc},
	KindDivM:    {Name: "DivM", Ops: OpMem},
	KindCdq:     {Name: "Cdq"},

	KindPushR:   {Name: "PushR", Ops: OpSrc},
	KindPushI:   {Name: "PushI"},
	KindPushM:   {Name: "PushM", Ops: OpMem},
	KindPopR:    {Name: "PopR", Ops: OpDst},
	KindPopM:    {Name: "PopM", Ops: OpMem},
	KindSetccR8: {Name: "SetccR8", ReadsCC: true, Ops: OpDst | OpDsh | OpCC},
	KindSetccM8: {Name: "SetccM8", ReadsCC: true, Ops: OpMem | OpCC},

	KindAddRRNF:    {Name: "AddRRNF", Spec: true, Alu: AluAdd, Ops: rr},
	KindAddRINF:    {Name: "AddRINF", Spec: true, Alu: AluAdd, Imm: true, Ops: OpDst},
	KindSubRRNF:    {Name: "SubRRNF", Spec: true, Alu: AluSub, Ops: rr},
	KindSubRINF:    {Name: "SubRINF", Spec: true, Alu: AluSub, Imm: true, Ops: OpDst},
	KindAndRRNF:    {Name: "AndRRNF", Spec: true, Alu: AluAnd, Ops: rr},
	KindAndRINF:    {Name: "AndRINF", Spec: true, Alu: AluAnd, Imm: true, Ops: OpDst},
	KindOrRRNF:     {Name: "OrRRNF", Spec: true, Alu: AluOr, Ops: rr},
	KindOrRINF:     {Name: "OrRINF", Spec: true, Alu: AluOr, Imm: true, Ops: OpDst},
	KindXorRRNF:    {Name: "XorRRNF", Spec: true, Alu: AluXor, Ops: rr},
	KindXorRINF:    {Name: "XorRINF", Spec: true, Alu: AluXor, Imm: true, Ops: OpDst},
	KindIncRNF:     {Name: "IncRNF", Ops: OpDst},
	KindDecRNF:     {Name: "DecRNF", Ops: OpDst},
	KindShiftRINF:  {Name: "ShiftRINF", Ops: OpDst | OpSh},
	KindShiftRCLNF: {Name: "ShiftRCLNF", Ops: OpDst | OpSh},
	KindAluRRNF:    {Name: "AluRRNF", Ops: rr | OpAlu},
	KindAluRINF:    {Name: "AluRINF", Ops: OpDst | OpAlu},
	KindAluRMNF:    {Name: "AluRMNF", Ops: rm | OpAlu},
	KindAluMRNF:    {Name: "AluMRNF", Ops: OpSrc | OpMem | OpAlu},
	KindAluMINF:    {Name: "AluMINF", Ops: OpMem | OpAlu},
	KindAlu8RRNF:   {Name: "Alu8RRNF", Ops: rr8 | OpAlu},
	KindAlu8RINF:   {Name: "Alu8RINF", Ops: OpDst | OpDsh | OpAlu},
	KindAlu8RMNF:   {Name: "Alu8RMNF", Ops: rm | OpDsh | OpAlu},
	KindAlu8MRNF:   {Name: "Alu8MRNF", Ops: OpSrc | OpSsh | OpMem | OpAlu},
	KindAlu8MINF:   {Name: "Alu8MINF", Ops: OpMem | OpAlu},
	KindNegRNF:     {Name: "NegRNF", Ops: OpDst},
	KindImulRRNF:   {Name: "ImulRRNF", Ops: rr},
	KindImulRMNF:   {Name: "ImulRMNF", Ops: rm},
	KindImulRRINF:  {Name: "ImulRRINF", Ops: rr},
	KindImulRMINF:  {Name: "ImulRMINF", Ops: rm},
	KindMulRNF:     {Name: "MulRNF", Ops: OpSrc},
	KindMulMNF:     {Name: "MulMNF", Ops: OpMem},

	KindCmpJccRR:     {Name: "CmpJccRR", Def: all, Alu: AluCmp, Term: true, Ops: rr | OpCC},
	KindCmpJccRI:     {Name: "CmpJccRI", Def: all, Alu: AluCmp, Imm: true, Term: true, Ops: OpDst | OpCC},
	KindTestJccRR:    {Name: "TestJccRR", Def: all, Alu: AluTest, Term: true, Ops: rr | OpCC},
	KindTestJccRI:    {Name: "TestJccRI", Def: all, Alu: AluTest, Imm: true, Term: true, Ops: OpDst | OpCC},
	KindCmpSetccRR:   {Name: "CmpSetccRR", Def: all, Alu: AluCmp, Ops: OpDst | OpDsh | OpSrc | OpAux | OpCC},
	KindCmpSetccRI:   {Name: "CmpSetccRI", Def: all, Alu: AluCmp, Imm: true, Ops: OpDst | OpDsh | OpSrc | OpCC},
	KindTestSetccRR:  {Name: "TestSetccRR", Def: all, Alu: AluTest, Ops: OpDst | OpDsh | OpSrc | OpAux | OpCC},
	KindTestSetccRI:  {Name: "TestSetccRI", Def: all, Alu: AluTest, Imm: true, Ops: OpDst | OpDsh | OpSrc | OpCC},
	KindCmpBoolRR:    {Name: "CmpBoolRR", Def: all, NF: KindCmpBoolRRNF, Alu: AluCmp, Ops: rr | OpAux | OpCC},
	KindCmpBoolRI:    {Name: "CmpBoolRI", Def: all, NF: KindCmpBoolRINF, Alu: AluCmp, Imm: true, Ops: rr | OpCC},
	KindTestBoolRR:   {Name: "TestBoolRR", Def: all, NF: KindTestBoolRRNF, Alu: AluTest, Ops: rr | OpAux | OpCC},
	KindTestBoolRI:   {Name: "TestBoolRI", Def: all, NF: KindTestBoolRINF, Alu: AluTest, Imm: true, Ops: rr | OpCC},
	KindCmpBoolRRNF:  {Name: "CmpBoolRRNF", Alu: AluCmp, Ops: rr | OpAux | OpCC},
	KindCmpBoolRINF:  {Name: "CmpBoolRINF", Alu: AluCmp, Imm: true, Ops: rr | OpCC},
	KindTestBoolRRNF: {Name: "TestBoolRRNF", Alu: AluTest, Ops: rr | OpAux | OpCC},
	KindTestBoolRINF: {Name: "TestBoolRINF", Alu: AluTest, Imm: true, Ops: rr | OpCC},
	KindLoadAluRR:    {Name: "LoadAluRR", Def: all, NF: KindLoadAluRRNF, Ops: rr | OpAux | OpMem | OpAlu},
	KindLoadAluRRNF:  {Name: "LoadAluRRNF", Ops: rr | OpAux | OpMem | OpAlu},
	KindPopRet:       {Name: "PopRet", Term: true, Ops: OpDst},
	KindPushCall:     {Name: "PushCall", Term: true, Ops: OpSrc},

	// A guard leaves the superblock with the current flags observable
	// by arbitrary successors, so every flag is live through it. A fused
	// compare guard executes its compare on both paths; the NF form
	// records it only on the exit path, where it is the whole flag
	// state, and is transparent on the straight-line one.
	KindRetGuard:      {Name: "RetGuard", Use: all},
	KindGuard:         {Name: "Guard", Use: all, Guard: true, Ops: OpCC},
	KindGuardCmpRR:    {Name: "GuardCmpRR", Def: all, NF: KindGuardCmpRRNF, Alu: AluCmp, Guard: true, Ops: rr | OpCC},
	KindGuardCmpRI:    {Name: "GuardCmpRI", Def: all, NF: KindGuardCmpRINF, Alu: AluCmp, Imm: true, Guard: true, Ops: OpDst | OpCC},
	KindGuardTestRR:   {Name: "GuardTestRR", Def: all, NF: KindGuardTestRRNF, Alu: AluTest, Guard: true, Ops: rr | OpCC},
	KindGuardTestRI:   {Name: "GuardTestRI", Def: all, NF: KindGuardTestRINF, Alu: AluTest, Imm: true, Guard: true, Ops: OpDst | OpCC},
	KindGuardCmpRRNF:  {Name: "GuardCmpRRNF", Alu: AluCmp, Guard: true, Ops: rr | OpCC},
	KindGuardCmpRINF:  {Name: "GuardCmpRINF", Alu: AluCmp, Imm: true, Guard: true, Ops: OpDst | OpCC},
	KindGuardTestRRNF: {Name: "GuardTestRRNF", Alu: AluTest, Guard: true, Ops: rr | OpCC},
	KindGuardTestRINF: {Name: "GuardTestRINF", Alu: AluTest, Imm: true, Guard: true, Ops: OpDst | OpCC},

	// Syscall gates park the VM with snapshot-visible state, and HLT/UD2
	// are the deliberate, differential-tested trap points: both see exact
	// flags. Direct calls and returns do not end a trace: it grows through
	// them, pairing each inlined call with a guarded return.
	KindJmp:   {Name: "Jmp", Term: true},
	KindJcc:   {Name: "Jcc", ReadsCC: true, Term: true, Ops: OpCC},
	KindCall:  {Name: "Call", Term: true},
	KindCallR: {Name: "CallR", Term: true, EndsTrace: true, Ops: OpSrc},
	KindCallM: {Name: "CallM", Term: true, EndsTrace: true, Ops: OpMem},
	KindRet:   {Name: "Ret", Term: true},
	KindJmpR:  {Name: "JmpR", Term: true, EndsTrace: true, Ops: OpSrc},
	KindJmpM:  {Name: "JmpM", Term: true, EndsTrace: true, Ops: OpMem},
	KindInt:   {Name: "Int", Use: all, Term: true, EndsTrace: true},
	KindHlt:   {Name: "Hlt", Use: all, Term: true, EndsTrace: true},
	KindUd2:   {Name: "Ud2", Use: all, Term: true, EndsTrace: true},

	// A shift or rotate may count zero and keep the flags, so it defines
	// none.
	KindIncDec8R: {Name: "IncDec8R", Use: cf, Def: all, Ops: OpDst | OpDsh},
	KindIncDec8M: {Name: "IncDec8M", Use: cf, Def: all, Ops: OpMem},
	KindIncDecM:  {Name: "IncDecM", Use: cf, Def: all, Ops: OpMem},
	KindNeg8R:    {Name: "Neg8R", Def: all, Ops: OpDst | OpDsh},
	KindNeg8M:    {Name: "Neg8M", Def: all, Ops: OpMem},
	KindNegM:     {Name: "NegM", Def: all, Ops: OpMem},
	KindNot8R:    {Name: "Not8R", Ops: OpDst | OpDsh},
	KindNot8M:    {Name: "Not8M", Ops: OpMem},
	KindNotM:     {Name: "NotM", Ops: OpMem},
	KindShift8R:  {Name: "Shift8R", Ops: OpDst | OpDsh | OpAux | OpSh},
	KindShift8M:  {Name: "Shift8M", Ops: OpMem | OpAux | OpSh},
	KindShiftM:   {Name: "ShiftM", Ops: OpMem | OpAux | OpSh},
	KindRotR:     {Name: "RotR", Ops: OpDst | OpAux},
	KindRot8R:    {Name: "Rot8R", Ops: OpDst | OpDsh | OpAux},
	KindRot8M:    {Name: "Rot8M", Ops: OpMem | OpAux},
	KindRotM:     {Name: "RotM", Ops: OpMem | OpAux},
	KindMul8R:    {Name: "Mul8R", Def: all, Ops: OpSrc | OpSsh},
	KindMul8M:    {Name: "Mul8M", Def: all, Ops: OpMem},
	KindDiv8R:    {Name: "Div8R", Ops: OpSrc | OpSsh},
	KindDiv8M:    {Name: "Div8M", Ops: OpMem},
	KindXchgMR:   {Name: "XchgMR", Ops: OpSrc | OpMem},
	KindStr:      {Name: "Str", Ops: OpStr},
}

// Lowered reports whether Lower can emit k. The kinds only the optimizer
// and superblock formation make — the NF and fused forms, the guards —
// are declared together, from KindAddRRNF to KindGuardTestRINF.
func (k Kind) Lowered() bool {
	return k < KindAddRRNF || k > KindGuardTestRINF && int(k) < len(Kinds)
}

// String names the micro-op kind for trace-plan dumps and debugging.
func (k Kind) String() string {
	if int(k) < len(Kinds) {
		return Kinds[k].Name
	}
	return fmt.Sprintf("Kind(%d)", k)
}

// BadField names the first field of u, among those its kind uses, whose
// value lies outside the field's domain (see Shape), or returns "". The
// native emitter encodes these fields into host instructions, so micro-ops
// that did not come from lowering are held to it; a field the kind does
// not use is not looked at. u.Kind must have a row.
func (u *Uop) BadField() string {
	ops := Kinds[u.Kind].Ops
	switch {
	case ops&OpCC != 0 && u.Sub >= 16:
		return "condition code (Sub)"
	case ops&OpAlu != 0 && AluOp(u.Sub) > AluTest:
		return "AluOp (Sub)"
	case ops&OpSh != 0 && ShOp(u.Sub) > ShSar:
		return "ShOp (Sub)"
	case ops&OpStr != 0 && u.Sub >= 8:
		return "StrOp (Sub)"
	case ops&OpDsh != 0 && u.Dsh != 0 && u.Dsh != 8:
		return "byte-slot shift Dsh"
	case ops&OpSsh != 0 && u.Ssh != 0 && u.Ssh != 8:
		return "byte-slot shift Ssh"
	case ops&OpMem != 0 && (u.Scale > 8 || u.Scale&(u.Scale-1) != 0):
		return "Scale"
	}
	return ""
}
