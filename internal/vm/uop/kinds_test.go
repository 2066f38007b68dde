package uop

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// kindConsts returns the names of the Kind const block in uop.go, in
// declaration order.
func kindConsts(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "uop.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		g, ok := d.(*ast.GenDecl)
		if !ok || g.Tok != token.CONST {
			continue
		}
		if id, ok := g.Specs[0].(*ast.ValueSpec).Type.(*ast.Ident); !ok || id.Name != "Kind" {
			continue
		}
		var names []string
		for _, s := range g.Specs {
			for _, n := range s.(*ast.ValueSpec).Names {
				names = append(names, n.Name)
			}
		}
		return names
	}
	t.Fatal("no Kind const block in uop.go")
	return nil
}

// TestKindTable holds Kinds to the const block and to itself: a row for
// every kind, named after its constant; an NF form defines no flags and
// is its base row in every other column; a compare's fused forms keep
// its operation and its operands (moved to Src and Aux in the setcc
// forms).
func TestKindTable(t *testing.T) {
	consts := kindConsts(t)
	if len(consts) != len(Kinds) || consts[len(consts)-1] != "KindStr" {
		t.Fatalf("the const block has %d kinds ending %s, Kinds %d rows", len(consts), consts[len(consts)-1], len(Kinds))
	}
	seen := map[string]bool{}
	for k, name := range consts {
		r := &Kinds[k]
		if want := strings.TrimPrefix(name, "Kind"); r.Name != want || seen[r.Name] {
			t.Errorf("row %d is named %q, want %q once", k, r.Name, want)
		}
		seen[r.Name] = true

		if r.NF != 0 {
			nf := Kinds[r.NF]
			base := *r
			base.Name, base.Use, base.Def, base.NF = nf.Name, 0, 0, 0
			if nf != base {
				t.Errorf("%s's NF form %s: %+v, want %+v", r.Name, nf.Name, nf, base)
			}
		}

		fz := r.Fused
		if fz == (Fusion{}) {
			continue
		}
		var moved Shape // the compare's operands as the setcc forms hold them
		if r.Ops&OpDst != 0 {
			moved |= OpSrc
		}
		if r.Ops&OpSrc != 0 {
			moved |= OpAux
		}
		for _, c := range []struct {
			form       Kind
			ops        Shape
			term, guar bool
		}{
			{fz.Jcc, r.Ops | OpCC, true, false},
			{fz.Guard, r.Ops | OpCC, false, true},
			{fz.Setcc, moved | OpDst | OpDsh | OpCC, false, false},
			{fz.Bool, moved | OpDst | OpCC, false, false},
		} {
			f := &Kinds[c.form]
			if c.form == 0 || f.Alu != r.Alu || f.Imm != r.Imm || f.Ops != c.ops || f.Term != c.term || f.Guard != c.guar {
				t.Errorf("%s fuses into %s: %+v", r.Name, f.Name, *f)
			}
		}
	}
	for op := AluAdd; op <= AluTest; op++ {
		for imm := range 2 {
			k := specialized[op][imm]
			if (k == KindNop) != (op == AluAdc || op == AluSbb) || k != KindNop && (Kinds[k].Alu != op || Kinds[k].Imm != (imm == 1)) {
				t.Errorf("AluOp %d (imm %d) lowers to %s", op, imm, k)
			}
		}
	}
}

// TestLoweredKinds: the kinds Lower never emits are exactly those the
// optimizer and superblock formation make — NF and fused forms, guards —
// so the artifact loader can refuse them in a block's lowered record.
func TestLoweredKinds(t *testing.T) {
	made := map[Kind]bool{KindLoadAluRR: true, KindLoadAluRRNF: true, KindPopRet: true, KindPushCall: true, KindRetGuard: true}
	for k := range Kinds {
		r := &Kinds[k]
		for _, f := range []Kind{r.NF, r.Fused.Jcc, r.Fused.Guard, r.Fused.Setcc, r.Fused.Bool} {
			if f != 0 {
				made[f] = true
			}
		}
		if r.Guard {
			made[Kind(k)] = true
		}
	}
	for k := range Kinds {
		if Kind(k).Lowered() == made[Kind(k)] {
			t.Errorf("%s: Lowered() = %v", Kind(k), Kind(k).Lowered())
		}
	}
	if Kind(len(Kinds)).Lowered() {
		t.Error("a kind past the table counts as lowered")
	}
}

// TestRecordingKindsHaveTwins: dead-flag elimination can drop a record
// only by downgrading its writer, so every kind that records the flags
// has an NF twin, except those named here with the reason they need
// none.
func TestRecordingKindsHaveTwins(t *testing.T) {
	const (
		compare = "a register compare records nothing else: a dead one becomes KindNop"
		term    = "a terminator: liveness starts all-set at the fragment exit, so its record is never dead"
		setcc   = "a fused compare/setcc: vxcc's boolean idiom fuses into the Bool forms, which have twins"
		tier1   = "a tier-1-only form no built-in decoder runs: a twin would add a row and an arm that nothing measured pays for"
	)
	exempt := map[Kind]string{
		KindCmpRR: compare, KindCmpRI: compare, KindTestRR: compare, KindTestRI: compare,
		KindCmpJccRR: term, KindCmpJccRI: term, KindTestJccRR: term, KindTestJccRI: term,
		KindCmpSetccRR: setcc, KindCmpSetccRI: setcc, KindTestSetccRR: setcc, KindTestSetccRI: setcc,
		KindIncDec8R: tier1, KindIncDec8M: tier1, KindIncDecM: tier1, KindNeg8R: tier1, KindNeg8M: tier1,
		KindNegM: tier1, KindMul8R: tier1, KindMul8M: tier1,
	}
	for k := range Kinds {
		r := &Kinds[k]
		why, ok := exempt[Kind(k)]
		switch {
		case r.Def == 0 && ok:
			t.Errorf("%s is exempt (%s) but records nothing", r.Name, why)
		case r.Def == 0:
		case r.NF != 0 && ok:
			t.Errorf("%s is exempt (%s) but has the twin %s", r.Name, why, r.NF)
		case r.NF == 0 && !ok:
			t.Errorf("%s records the flags and has no NF twin", r.Name)
		}
	}
}
