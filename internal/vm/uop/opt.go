package uop

import "vxa/internal/x86"

// This file is the translation-time optimizer: a pass pipeline run over
// a lowered fragment (or a superblock assembled from several fragments)
// before it enters the execution cache.
//
//   1. Fusion (peephole): adjacent guest instructions that form one
//      logical operation collapse into one micro-op. The targets are
//      the compiler idioms that dominate VXA decoder code — cmp/test
//      followed by a conditional branch (or a superblock guard), the
//      cmp/test;setcc;movzx boolean-materialization triple,
//      mov reg,[mem] feeding a register ALU op, and the push;call and
//      pop;ret pairs at function boundaries. Fused compare forms
//      evaluate their condition directly from the operands, so the
//      branch never pays the lazy-flag materialization dance.
//   2. Dead-flag elimination (backward liveness): a lazy-flag record is
//      only worth writing if some later instruction can observe it.
//      Walking the fragment backward with a conservative all-live seed
//      at the exit, every flag-writing micro-op whose flags are
//      provably dead before the next full clobber is downgraded to its
//      flag-suppressed (NF) form — or, for pure flag-writers like a
//      dead CMP, to a NOP.
//
// Both passes preserve the fragment's total guest-instruction count
// (the sum of Cost fields), which is what the VM's fuel accounting
// charges; they also preserve every trap's EIP. One semantic point is
// deliberately relaxed: after a fault mid-fragment, the arithmetic
// flags may not reflect the faulting instruction's predecessors (a
// trapped stream is dead — the VM reports it undecodable and nothing
// resumes it). Architecturally observable flag state — conditions,
// SETcc, ADC/SBB carries, syscall and exit boundaries, and the
// deliberate HLT/UD2 trap points — is always exact.

// OptStats counts what one Optimize call did.
type OptStats struct {
	UopsFused   uint64 // fused micro-ops created (each replaces 2-3 uops)
	FlagsElided uint64 // flag records removed by the liveness pass
}

// Optimize runs the pass pipeline over a lowered fragment and returns
// the (possibly shorter) optimized micro-op slice. The input slice is
// consumed: it may be mutated and reused as backing for the result.
func Optimize(us []Uop) ([]Uop, OptStats) {
	var st OptStats
	us, st.UopsFused = fuse(us)
	st.FlagsElided = elideDeadFlags(us)
	return us, st
}

// cmpJccKinds maps a compare kind to its fused compare/branch form;
// cmpGuardKinds and cmpSetccKinds likewise for guards and setcc.
var cmpJccKinds = map[Kind]Kind{
	KindCmpRR: KindCmpJccRR, KindCmpRI: KindCmpJccRI,
	KindTestRR: KindTestJccRR, KindTestRI: KindTestJccRI,
}

var cmpGuardKinds = map[Kind]Kind{
	KindCmpRR: KindGuardCmpRR, KindCmpRI: KindGuardCmpRI,
	KindTestRR: KindGuardTestRR, KindTestRI: KindGuardTestRI,
}

var cmpSetccKinds = map[Kind]Kind{
	KindCmpRR: KindCmpSetccRR, KindCmpRI: KindCmpSetccRI,
	KindTestRR: KindTestSetccRR, KindTestRI: KindTestSetccRI,
}

var setccBoolKinds = map[Kind]Kind{
	KindCmpSetccRR: KindCmpBoolRR, KindCmpSetccRI: KindCmpBoolRI,
	KindTestSetccRR: KindTestBoolRR, KindTestSetccRI: KindTestBoolRI,
}

// loadAluOps maps the specialized 32-bit reg/reg ALU kinds eligible for
// load-op fusion onto their AluOp selector. ADC/SBB are excluded: their
// carry-in read would survive flag elision and complicate the NF form.
var loadAluOps = map[Kind]AluOp{
	KindAddRR: AluAdd, KindSubRR: AluSub, KindCmpRR: AluCmp,
	KindAndRR: AluAnd, KindOrRR: AluOr, KindXorRR: AluXor, KindTestRR: AluTest,
}

// fuse is the peephole pass: one left-to-right scan collapsing adjacent
// fusable pairs (and the setcc;movzx triple) in place.
func fuse(us []Uop) ([]Uop, uint64) {
	out := us[:0]
	var fused uint64
	n := len(us)
	for i := 0; i < n; {
		u := us[i]
		if f, consumed := fuseAt(us, i); consumed > 1 {
			out = append(out, f)
			fused++
			i += consumed
			continue
		}
		out = append(out, u)
		i++
	}
	return out, fused
}

// fuseAt tries to fuse the micro-ops starting at index i, returning the
// fused op and how many inputs it consumed (0 means no fusion).
func fuseAt(us []Uop, i int) (Uop, int) {
	u := &us[i]
	if i+1 >= len(us) {
		return Uop{}, 0
	}
	next := &us[i+1]

	switch u.Kind {
	case KindCmpRR, KindCmpRI, KindTestRR, KindTestRI:
		switch next.Kind {
		case KindJcc:
			f := *u
			f.Kind = cmpJccKinds[u.Kind]
			f.Sub, f.Target, f.Next = next.Sub, next.Target, next.Next
			f.Cost = u.Cost + next.Cost
			return f, 2
		case KindGuard:
			f := *u
			f.Kind = cmpGuardKinds[u.Kind]
			f.Sub, f.Target, f.Next = next.Sub, next.Target, next.Next
			f.Cost = u.Cost + next.Cost
			return f, 2
		case KindSetccR8:
			// Compare operands move to Src/Aux (or Src/Imm); the setcc
			// destination byte slot takes Dst/Dsh.
			f := Uop{
				Kind: cmpSetccKinds[u.Kind], Sub: next.Sub,
				Src: u.Dst, Aux: u.Src, Imm: u.Imm,
				Dst: next.Dst, Dsh: next.Dsh,
				EIP: u.EIP, Next: next.Next, Cost: u.Cost + next.Cost,
			}
			// The full boolean idiom: setcc r8 ; movzx r32, r8 with the
			// same storage register zero-extends the condition into the
			// whole register, subsuming the byte write.
			if i+2 < len(us) {
				m := &us[i+2]
				if m.Kind == KindMovzxRR8 && m.Src == f.Dst && m.Ssh == f.Dsh &&
					m.Dst == f.Dst && f.Dsh == 0 {
					f.Kind = setccBoolKinds[f.Kind]
					f.Next = m.Next
					f.Cost += m.Cost
					return f, 3
				}
			}
			return f, 2
		}

	case KindLoad:
		op, ok := loadAluOps[next.Kind]
		if !ok {
			return Uop{}, 0
		}
		// Leave a compare for a later cmp/branch or cmp/setcc fusion:
		// evaluating the condition straight from the operands beats
		// saving one load dispatch.
		if (next.Kind == KindCmpRR || next.Kind == KindTestRR) && i+2 < len(us) {
			switch us[i+2].Kind {
			case KindJcc, KindGuard, KindSetccR8:
				return Uop{}, 0
			}
		}
		f := *u
		f.Kind = KindLoadAluRR
		f.Sub = uint8(op)
		f.Aux = u.Dst // the loaded register
		f.Dst, f.Src = next.Dst, next.Src
		f.Next = next.Next
		f.Cost = u.Cost + next.Cost
		return f, 2

	case KindPushR:
		if next.Kind == KindCall {
			return Uop{
				Kind: KindPushCall, Src: u.Src, Target: next.Target,
				Imm: next.EIP, EIP: u.EIP, Next: next.Next,
				Cost: u.Cost + next.Cost,
			}, 2
		}

	case KindPopR:
		// pop esp would redirect the RET's own stack read; leave that
		// (pathological) shape unfused.
		if next.Kind == KindRet && u.Dst != uint8(x86.ESP) {
			return Uop{
				Kind: KindPopRet, Dst: u.Dst, Imm: next.Imm,
				Disp: next.EIP, EIP: u.EIP, Next: next.Next,
				Cost: u.Cost + next.Cost,
			}, 2
		}
	}
	return Uop{}, 0
}

// nfKinds maps every flag-elision candidate to its flag-suppressed
// form. Pure flag-writers (CMP/TEST) with dead flags become NOPs.
var nfKinds = map[Kind]Kind{
	KindAddRR: KindAddRRNF, KindAddRI: KindAddRINF,
	KindSubRR: KindSubRRNF, KindSubRI: KindSubRINF,
	KindAndRR: KindAndRRNF, KindAndRI: KindAndRINF,
	KindOrRR: KindOrRRNF, KindOrRI: KindOrRINF,
	KindXorRR: KindXorRRNF, KindXorRI: KindXorRINF,
	KindIncR: KindIncRNF, KindDecR: KindDecRNF,
	KindShiftRI: KindShiftRINF, KindShiftRCL: KindShiftRCLNF,
	KindCmpRR: KindNop, KindCmpRI: KindNop,
	KindTestRR: KindNop, KindTestRI: KindNop,
	KindCmpBoolRR: KindCmpBoolRRNF, KindCmpBoolRI: KindCmpBoolRINF,
	KindTestBoolRR: KindTestBoolRRNF, KindTestBoolRI: KindTestBoolRINF,
	KindLoadAluRR:  KindLoadAluRRNF,
	KindGuardCmpRR: KindGuardCmpRRNF, KindGuardCmpRI: KindGuardCmpRINF,
	KindGuardTestRR: KindGuardTestRRNF, KindGuardTestRI: KindGuardTestRINF,
}

// elideDeadFlags is the backward liveness pass. live starts all-set at
// the fragment exit (successor blocks are unknown, so every flag must
// be assumed observable there) and flows backward; a record-writing
// micro-op reached with no live flags is downgraded in place and
// becomes transparent to the analysis, letting elision cascade through
// runs of dead flag-writers.
func elideDeadFlags(us []Uop) uint64 {
	var elided uint64
	live := x86.FlagsAll
	for i := len(us) - 1; i >= 0; i-- {
		u := &us[i]
		if live == x86.FlagsNone {
			if nk, ok := nfKinds[u.Kind]; ok {
				u.Kind = nk
				elided++
				continue
			}
		}
		use, def := flagEffect(u)
		live = live&^def | use
	}
	return elided
}

// flagEffect returns the flags one micro-op reads and writes, for the
// liveness walk. Writers of a full lazy record define all five flags;
// micro-ops that may leave the flags untouched at runtime (a CL shift
// with a zero count) define none, so earlier writers stay live across
// them.
func flagEffect(u *Uop) (use, def x86.FlagSet) {
	switch u.Kind {
	case KindAddRR, KindAddRI, KindSubRR, KindSubRI,
		KindAndRR, KindAndRI, KindOrRR, KindOrRI, KindXorRR, KindXorRI,
		KindCmpRR, KindCmpRI, KindTestRR, KindTestRI,
		KindNegR, KindShiftRI,
		KindImulRR, KindImulRM, KindImulRRI, KindImulRMI, KindMulR, KindMulM,
		KindCmpJccRR, KindCmpJccRI, KindTestJccRR, KindTestJccRI,
		KindCmpSetccRR, KindCmpSetccRI, KindTestSetccRR, KindTestSetccRI,
		KindCmpBoolRR, KindCmpBoolRI, KindTestBoolRR, KindTestBoolRI,
		KindLoadAluRR:
		return x86.FlagsNone, x86.FlagsAll

	case KindAluRR, KindAluRI, KindAluRM, KindAluMR, KindAluMI,
		KindAlu8RR, KindAlu8RI, KindAlu8RM, KindAlu8MR, KindAlu8MI:
		op := AluOp(u.Sub)
		if op == AluAdc || op == AluSbb {
			return x86.FlagCF, x86.FlagsAll
		}
		return x86.FlagsNone, x86.FlagsAll

	case KindIncR, KindDecR:
		// INC/DEC preserve CF: re-recording the full flag state carries
		// the incoming CF through, so they read it — unless elided, in
		// which case the NF form touches no flags at all.
		return x86.FlagCF, x86.FlagsAll

	case KindShiftRCL:
		// A zero CL count writes nothing at runtime; the form may not
		// define, so it kills no earlier record.
		return x86.FlagsNone, x86.FlagsNone

	case KindJcc, KindSetccR8, KindSetccM8:
		return x86.CCUses(x86.CC(u.Sub)), x86.FlagsNone

	case KindGuard, KindRetGuard:
		// A plain guard reads its condition from the current flags (a
		// return guard reads none), and both exit paths leave the
		// superblock with the current state observable by arbitrary
		// successors — so every flag is live through them.
		return x86.FlagsAll, x86.FlagsNone

	case KindGuardCmpRR, KindGuardCmpRI, KindGuardTestRR, KindGuardTestRI:
		// The fused compare executes on both paths, so it defines the
		// full flag state like any compare.
		return x86.FlagsNone, x86.FlagsAll

	case KindGuardCmpRRNF, KindGuardCmpRINF, KindGuardTestRRNF, KindGuardTestRINF:
		// Record written only on the exit path, where it is itself the
		// full flag state; transparent on the straight-line path (that
		// is what made the downgrade legal).
		return x86.FlagsNone, x86.FlagsNone

	case KindInt, KindGeneric, KindHlt, KindUd2:
		// Syscall gates park the VM with snapshot-visible state, the
		// generic escape materializes eagerly, and HLT/UD2 are the
		// deliberate, differential-tested trap points: all must see
		// exact flags.
		return x86.FlagsAll, x86.FlagsNone

	case KindString:
		// MOVS/STOS are declared flag-free in the opcode tables; keep
		// the lookup so a future string op with flag effects is
		// handled by its metadata, not by this switch.
		return u.Inst.InstFlagUse(), x86.OpFlagDef(u.Inst.Op)
	}
	return x86.FlagsNone, x86.FlagsNone
}

// Cost returns the total guest-instruction cost of a fragment: the
// fuel charge for executing it end to end.
func Cost(us []Uop) int64 {
	var c int64
	for i := range us {
		c += int64(us[i].Cost)
	}
	return c
}
