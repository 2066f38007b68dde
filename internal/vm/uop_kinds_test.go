package vm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"vxa/internal/vm/uop"
)

// switchKinds returns the kinds named by the case clauses of the first
// switch on u.Kind in function fn of file, and whether it has a default.
func switchKinds(t *testing.T, file, fn string) (map[uop.Kind]bool, bool) {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]uop.Kind{}
	for k := range uop.Kinds {
		byName["Kind"+uop.Kinds[k].Name] = uop.Kind(k)
	}
	var sw *ast.SwitchStmt
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == fn {
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if s, ok := n.(*ast.SwitchStmt); ok && sw == nil {
					if sel, ok := s.Tag.(*ast.SelectorExpr); ok && sel.Sel.Name == "Kind" {
						sw = s
					}
				}
				return sw == nil
			})
		}
	}
	if sw == nil {
		t.Fatalf("%s: no switch on u.Kind in %s", file, fn)
	}
	kinds, dflt := map[uop.Kind]bool{}, false
	for _, s := range sw.Body.List {
		cc := s.(*ast.CaseClause)
		dflt = dflt || cc.List == nil
		for _, e := range cc.List {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				t.Fatalf("%s: %s has a case that is not a kind", file, fn)
			}
			k, ok := byName[sel.Sel.Name]
			if !ok {
				t.Fatalf("%s: %s names %s, which has no row", file, fn, sel.Sel.Name)
			}
			kinds[k] = true
		}
	}
	return kinds, dflt
}

// tier1Only names the kinds the native emitter does not express, with
// why: a trace holding one stays on the tier-1 dispatch loop. The
// tier-2 walls excuse a superblock from compiling only for one of
// these.
var tier1Only = func() map[uop.Kind]string {
	const (
		rmw   = "a byte or memory read-modify-write: no built-in decoder runs one on its golden inputs"
		rot   = "a rotate: vxcc emits none"
		byte8 = "a byte multiply or divide: vxcc emits the dword forms only"
		xchg  = "an exchange with memory: vxcc emits none"
		str   = "a string move: REP charges fuel per element, which a trace's static charge does not express"
	)
	return map[uop.Kind]string{
		uop.KindIncDec8R: rmw, uop.KindIncDec8M: rmw, uop.KindIncDecM: rmw,
		uop.KindNeg8R: rmw, uop.KindNeg8M: rmw, uop.KindNegM: rmw,
		uop.KindNot8R: rmw, uop.KindNot8M: rmw, uop.KindNotM: rmw,
		uop.KindShift8R: rmw, uop.KindShift8M: rmw, uop.KindShiftM: rmw,
		uop.KindRotR: rot, uop.KindRot8R: rot, uop.KindRot8M: rot, uop.KindRotM: rot,
		uop.KindMul8R: byte8, uop.KindMul8M: byte8, uop.KindDiv8R: byte8, uop.KindDiv8M: byte8,
		uop.KindXchgMR: xchg, uop.KindStr: str,
	}
}()

// TestEveryKindHandled: the tier-1 executor's switch names every kind and
// has no default; the native emitter's names every kind but those on
// tier1Only, less the specialized ALU kinds it handles from their rows
// ahead of the switch, and refuses the rest in its default clause. A kind
// added to the const block and the table without a handler, or a handler
// for a kind that left, fails here.
func TestEveryKindHandled(t *testing.T) {
	for _, c := range []struct {
		file, fn string
		want     func(uop.Kind, uop.Info) bool
		dflt     bool
	}{
		{"uexec.go", "execUops", func(uop.Kind, uop.Info) bool { return true }, false},
		{"tier2/native_amd64.go", "one", func(k uop.Kind, r uop.Info) bool { return tier1Only[k] == "" && !r.Spec }, true},
	} {
		got, dflt := switchKinds(t, c.file, c.fn)
		if dflt != c.dflt {
			t.Errorf("%s: default clause %v, want %v", c.fn, dflt, c.dflt)
		}
		for k, r := range uop.Kinds {
			if got[uop.Kind(k)] != c.want(uop.Kind(k), r) {
				t.Errorf("%s: case for %s is %v, want %v", c.fn, r.Name, got[uop.Kind(k)], c.want(uop.Kind(k), r))
			}
		}
	}
}
