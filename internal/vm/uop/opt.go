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

// Optimize runs the pass pipeline, Fuse then ElideDeadFlags, over a
// lowered fragment and returns the (possibly shorter) optimized
// micro-op slice. The input slice is consumed: it may be mutated and
// reused as backing for the result.
func Optimize(us []Uop) ([]Uop, OptStats) {
	var st OptStats
	us, st.UopsFused = Fuse(us)
	st.FlagsElided = ElideDeadFlags(us)
	return us, st
}

// Fuse is the peephole pass: one left-to-right scan collapsing adjacent
// fusable pairs (and the setcc;movzx triple) in place. It returns the
// fused prefix of us and the number of fused micro-ops it made.
func Fuse(us []Uop) ([]Uop, uint64) {
	var fused uint64
	j := 0 // us[:j] is the output so far; it never passes the input, at i
	var f Uop
	for i := 0; i < len(us); j++ {
		if consumed := fuseAt(us, i, &f); consumed > 1 {
			us[j] = f
			fused++
			i += consumed
			continue
		}
		if j != i {
			us[j] = us[i]
		}
		i++
	}
	return us[:j], fused
}

// fuseAt tries to fuse the micro-ops starting at index i into *f, and
// returns how many inputs it consumed (0 means no fusion, and *f is left
// as it was).
func fuseAt(us []Uop, i int, f *Uop) int {
	u := &us[i]
	if i+1 >= len(us) {
		return 0
	}
	next := &us[i+1]

	if fz := Kinds[u.Kind].Fused; fz.Jcc != 0 {
		switch next.Kind {
		case KindJcc, KindGuard:
			*f = *u
			f.Kind = fz.Jcc
			if next.Kind == KindGuard {
				f.Kind = fz.Guard
			}
			f.Sub, f.Target, f.Next = next.Sub, next.Target, next.Next
			f.Cost = u.Cost + next.Cost
			return 2
		case KindSetccR8:
			// Compare operands move to Src/Aux (or Src/Imm); the setcc
			// destination byte slot takes Dst/Dsh.
			*f = Uop{
				Kind: fz.Setcc, Sub: next.Sub,
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
					f.Kind = fz.Bool
					f.Next = m.Next
					f.Cost += m.Cost
					return 3
				}
			}
			return 2
		}
		return 0
	}

	switch u.Kind {
	case KindLoad:
		// A specialized reg/reg ALU op takes the load; ADC/SBB, whose
		// carry-in read would survive flag elision, are not specialized.
		r := &Kinds[next.Kind]
		if !r.Spec || r.Imm || r.Def == 0 {
			return 0
		}
		// Leave a compare for a later cmp/branch or cmp/setcc fusion:
		// evaluating the condition straight from the operands beats
		// saving one load dispatch.
		if r.Fused.Jcc != 0 && i+2 < len(us) {
			switch us[i+2].Kind {
			case KindJcc, KindGuard, KindSetccR8:
				return 0
			}
		}
		*f = *u
		f.Kind = KindLoadAluRR
		f.Sub = uint8(r.Alu)
		f.Aux = u.Dst // the loaded register
		f.Dst, f.Src = next.Dst, next.Src
		f.Next = next.Next
		f.Cost = u.Cost + next.Cost
		return 2

	case KindPushR:
		if next.Kind == KindCall {
			*f = Uop{
				Kind: KindPushCall, Src: u.Src, Target: next.Target,
				Imm: next.EIP, EIP: u.EIP, Next: next.Next,
				Cost: u.Cost + next.Cost,
			}
			return 2
		}

	case KindPopR:
		// pop esp would redirect the RET's own stack read; leave that
		// (pathological) shape unfused.
		if next.Kind == KindRet && u.Dst != uint8(x86.ESP) {
			*f = Uop{
				Kind: KindPopRet, Dst: u.Dst, Imm: next.Imm,
				Disp: next.EIP, EIP: u.EIP, Next: next.Next,
				Cost: u.Cost + next.Cost,
			}
			return 2
		}
	}
	return 0
}

// ElideDeadFlags is the backward liveness pass. live starts all-set at
// the fragment exit (successor blocks are unknown, so every flag must
// be assumed observable there) and flows backward; a record-writing
// micro-op reached with no live flags is downgraded in place and then
// seen as what it has become: it defines nothing, so elision cascades
// through runs of dead flag-writers, and only what it still reads — an
// ADC/SBB's carry-in — stays live above it.
func ElideDeadFlags(us []Uop) uint64 {
	var elided uint64
	live := x86.FlagsAll
	for i := len(us) - 1; i >= 0; i-- {
		u := &us[i]
		// A specialized compare writes nothing but the flags: it has no
		// NF form and becomes KindNop, the zero Kind.
		if r := &Kinds[u.Kind]; live == x86.FlagsNone &&
			(r.NF != 0 || r.Spec && (r.Alu == AluCmp || r.Alu == AluTest)) {
			u.Kind = r.NF
			elided++
		}
		use, def := flagEffect(u)
		live = live&^def | use
	}
	return elided
}

// flagEffect returns the flags one micro-op reads and writes, for the
// liveness walk: its kind's row, with what the operands decide on top.
func flagEffect(u *Uop) (use, def x86.FlagSet) {
	r := &Kinds[u.Kind]
	switch {
	case r.ReadsCC:
		return x86.CCUses(x86.CC(u.Sub)), r.Def
	case r.Ops&OpAlu != 0 && (AluOp(u.Sub) == AluAdc || AluOp(u.Sub) == AluSbb):
		return x86.FlagCF, r.Def
	}
	return r.Use, r.Def
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
