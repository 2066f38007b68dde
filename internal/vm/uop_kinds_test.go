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

// TestEveryKindHandled: the tier-1 executor's switch names every kind but
// KindGeneric, which its default clause runs; the native emitter's names
// every kind no tier-2 code can refuse on its face (the reference escapes
// can), less the specialized ALU kinds it handles from their rows ahead
// of the switch. A kind added to the const block and the table without a
// handler, or a handler for a kind that left, fails here.
func TestEveryKindHandled(t *testing.T) {
	for _, c := range []struct {
		file, fn string
		want     func(uop.Info) bool
		dflt     bool
	}{
		{"uexec.go", "execUops", func(r uop.Info) bool { return r.Name != "Generic" }, true},
		{"tier2/native_amd64.go", "one", func(r uop.Info) bool { return !r.Escape && !r.Spec }, true},
	} {
		got, dflt := switchKinds(t, c.file, c.fn)
		if dflt != c.dflt {
			t.Errorf("%s: default clause %v, want %v", c.fn, dflt, c.dflt)
		}
		for k, r := range uop.Kinds {
			if got[uop.Kind(k)] != c.want(r) {
				t.Errorf("%s: case for %s is %v, want %v", c.fn, r.Name, got[uop.Kind(k)], c.want(r))
			}
		}
	}
}
