package vxcc

import (
	"fmt"
	"strings"
	"testing"
)

// lexAll tokenizes the whole source, the end of file included.
func lexAll(file, src string) ([]token, error) {
	l := newLexer(file, src)
	var toks []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tEOF {
			return toks, nil
		}
	}
}

// lexKinds lexes src and returns its token kinds, without the final EOF.
func lexKinds(t *testing.T, src string) []tokKind {
	t.Helper()
	toks, err := lexAll("ops.vxc", src)
	if err != nil {
		t.Fatalf("lex %q: %v", src, err)
	}
	kinds := make([]tokKind, 0, len(toks)-1)
	for _, tok := range toks[:len(toks)-1] {
		kinds = append(kinds, tok.kind)
	}
	return kinds
}

// TestOperatorTables: every operator in the lexer's tables lexes, alone
// and between operands, to its kind, and the kind prints as the operator.
func TestOperatorTables(t *testing.T) {
	ops := map[string]tokKind{}
	for text, k := range threeCharOps {
		ops[text] = k
	}
	for text, k := range twoCharOps {
		ops[text] = k
	}
	for c, k := range oneCharOps {
		if k != tEOF {
			ops[string(rune(c))] = k
		}
	}
	if len(ops) != 2+18+23 {
		t.Fatalf("%d operators in the tables, want 43", len(ops))
	}
	for text, k := range ops {
		if k.String() != text {
			t.Errorf("operator %q has kind %v", text, k)
		}
		if got := lexKinds(t, text); len(got) != 1 || got[0] != k {
			t.Errorf("%q lexes to %v, want [%v]", text, got, k)
		}
		if got := lexKinds(t, "a "+text+" 1"); len(got) != 3 || got[1] != k {
			t.Errorf("%q between operands lexes to %v, want [identifier %v integer literal]", text, got, k)
		}
	}
}

// TestOperatorLongestMatch: the longest operator at a position wins, and
// what is left lexes from where it ended.
func TestOperatorLongestMatch(t *testing.T) {
	for _, c := range []struct {
		src  string
		want []tokKind
	}{
		{"<<=", []tokKind{tShlEq}},
		{"<<", []tokKind{tShl}},
		{"<", []tokKind{tLt}},
		{">>=", []tokKind{tShrEq}},
		{">>", []tokKind{tShr}},
		{">", []tokKind{tGt}},
		{"<<==", []tokKind{tShlEq, tAssign}},
		{"<<<", []tokKind{tShl, tLt}},
		{">>>=", []tokKind{tShr, tGe}},
		{"<= =", []tokKind{tLe, tAssign}},
		{"+++", []tokKind{tInc, tPlus}},
		{"x<<=y>>1", []tokKind{tIdent, tShlEq, tIdent, tShr, tInt}},
		{"a&&&b", []tokKind{tIdent, tAndAnd, tAmp, tIdent}},
		{"!==", []tokKind{tNe, tAssign}},
	} {
		got := lexKinds(t, c.src)
		if len(got) != len(c.want) {
			t.Errorf("%q lexes to %v, want %v", c.src, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%q lexes to %v, want %v", c.src, got, c.want)
				break
			}
		}
	}
}

// TestUnexpectedCharacter: a byte that starts no token is an error that
// names it and its line, whether or not it could follow an operator.
func TestUnexpectedCharacter(t *testing.T) {
	for _, src := range []string{"@", "a = 1;\n#", "x <@", "$y", "`", "\x80"} {
		_, err := lexAll("bad.vxc", src)
		if err == nil || !strings.Contains(err.Error(), "unexpected character") {
			t.Errorf("%q: got %v, want an unexpected character error", src, err)
		}
	}
	_, err := lexAll("bad.vxc", "a = 1;\n#")
	if err == nil || !strings.HasPrefix(err.Error(), "bad.vxc:2: ") {
		t.Errorf("error %v does not name line 2", err)
	}
}

// TestLexErrorFirst: Parse reports a lexical error wherever it is in the
// file, after a complete program or after a syntax error, as it would if
// the file were lexed whole before parsing.
func TestLexErrorFirst(t *testing.T) {
	for _, tc := range []struct {
		src  string
		line int
	}{
		{"int main(void) { return 0; }\n@", 2},
		{"int main(void) { return 0; }}\n\n#", 3},
		{"int int int;\n\n\n`", 4},
		{"int main(void) { return 0 0; }\n\"x\n;", 2},
	} {
		_, err := Parse("bad.vxc", tc.src)
		if err == nil || !strings.HasPrefix(err.Error(), fmt.Sprintf("bad.vxc:%d: ", tc.line)) {
			t.Errorf("%q: got %v, want a lexical error on line %d", tc.src, err, tc.line)
		}
	}
}
