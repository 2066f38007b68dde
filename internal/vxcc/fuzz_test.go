package vxcc

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"vxa/internal/elf32"
	"vxa/internal/vm"
)

// progGen writes a random but well-defined VXC program: every operator
// and statement form, int/uint/byte locals, globals, arrays, parameters,
// address-taken locals, calls (to functions that get expanded in place,
// functions that do not, and a recursive one) inside expressions, and
// expression trees nested deeper than the three scratch registers. What
// it never writes is what the language leaves undefined: a zero or -1
// divisor, an index outside its array, an uninitialized read, or an op=
// (or ++/--) whose right side changes the object being updated.
type progGen struct {
	r  *rand.Rand
	sb strings.Builder

	scalars []string // readable scalar variables in scope
	targets []string // assignable scalar lvalues in scope (no side effects of their own)
	loopVar int      // counter for loop variable names
	inLoop  bool
}

func (p *progGen) pick(list []string) string { return list[p.r.Intn(len(list))] }

func (p *progGen) lit() string {
	switch p.r.Intn(8) {
	case 0:
		return fmt.Sprint(p.r.Intn(4))
	case 1:
		return fmt.Sprintf("%d", p.r.Intn(256))
	case 2:
		return fmt.Sprintf("(-%d)", p.r.Intn(70000))
	case 3:
		return fmt.Sprintf("0x%x", 0x80000000+uint32(p.r.Intn(1<<20))) // types as uint
	case 4:
		return fmt.Sprintf("0x%x", p.r.Uint32()>>1)
	case 5:
		return "'A'"
	}
	return fmt.Sprint(p.r.Intn(40))
}

var fuzzBinOps = []string{"+", "-", "*", "&", "|", "^", "<<", ">>", "<", "<=", ">", ">=", "==", "!=", "&&", "||", "+", "-", "&"}

// lvalue returns an assignable expression. With effects allowed its
// index may itself have side effects; the address is still computed once.
func (p *progGen) lvalue(depth int, pure bool) string {
	switch p.r.Intn(6) {
	case 0:
		return fmt.Sprintf("ga[(%s) & 7]", p.expr(depth-1, pure))
	case 1:
		return fmt.Sprintf("gb[(%s) & 7]", p.expr(depth-1, pure))
	}
	return p.pick(p.targets)
}

// expr returns an integer-valued expression; pure forbids assignments,
// ++/-- and calls anywhere inside it.
func (p *progGen) expr(depth int, pure bool) string {
	if depth <= 0 || p.r.Intn(10) == 0 {
		if p.r.Intn(3) == 0 {
			return p.lit()
		}
		return p.pick(p.scalars)
	}
	n := 14
	if !pure {
		n = 20
	}
	switch p.r.Intn(n) {
	case 0, 1, 2, 3, 4:
		op := p.pick(fuzzBinOps)
		l, r := p.expr(depth-1, pure), p.expr(depth-1, pure)
		if p.r.Intn(3) == 0 { // lean right: the shape that runs out of registers
			l = p.expr(1, pure)
		}
		return fmt.Sprintf("(%s %s %s)", l, op, r)
	case 5:
		op := p.pick([]string{"/", "%"})
		return fmt.Sprintf("(%s %s ((%s & 15) + 1))", p.expr(depth-1, pure), op, p.expr(depth-1, pure))
	case 6:
		return fmt.Sprintf("(%s %s)", p.pick([]string{"-", "~", "!"}), p.expr(depth-1, pure))
	case 7:
		return fmt.Sprintf("((%s)%s)", p.pick([]string{"byte", "int", "uint"}), p.expr(depth-1, pure))
	case 8:
		return fmt.Sprintf("(%s ? %s : %s)", p.expr(depth-1, pure), p.expr(depth-1, pure), p.expr(depth-1, pure))
	case 9:
		return fmt.Sprintf("ga[(%s) & 7]", p.expr(depth-1, pure))
	case 10:
		return fmt.Sprintf("gb[(%s) & 7]", p.expr(depth-1, pure))
	case 11:
		return fmt.Sprintf("(uint)%s / %du", p.expr(depth-1, pure), 1<<uint(p.r.Intn(5)))
	case 12:
		return fmt.Sprintf("*(ga + ((%s) & 3) + 2)", p.expr(depth-1, pure))
	case 13:
		// Address arithmetic: scaled and offset indices, scaled sums.
		a, b := p.pick(p.scalars), p.pick(p.scalars)
		return p.pick([]string{
			fmt.Sprintf("ga[((%s) & 3) + 2]", p.expr(depth-1, pure)),
			fmt.Sprintf("gb[3 + ((%s) & 3) - 1]", a),
			fmt.Sprintf("(%s * %d + %s)", a, 1<<uint(p.r.Intn(4)), b),
			fmt.Sprintf("(%s + (%s << %d))", p.expr(depth-1, pure), a, p.r.Intn(4)),
			fmt.Sprintf("(%d * %s + %d)", 2<<uint(p.r.Intn(3)), a, p.r.Intn(100)),
			fmt.Sprintf("(%s - %d)", a, p.r.Intn(300)),
		})
	case 14:
		return fmt.Sprintf("(%s = %s)", p.lvalue(depth, false), p.expr(depth-1, false))
	case 15:
		op := p.pick([]string{"+=", "-=", "*=", "&=", "|=", "^=", "<<=", ">>="})
		return fmt.Sprintf("(%s %s %s)", p.lvalue(depth, true), op, p.expr(depth-1, true))
	case 16:
		lv := p.lvalue(depth, true)
		return p.pick([]string{"++" + lv, "--" + lv, lv + "++", lv + "--"})
	case 17:
		return fmt.Sprintf("tiny(%s)", p.expr(depth-1, false))
	case 18:
		return p.pick([]string{
			fmt.Sprintf("mix(%s, %s)", p.expr(depth-1, false), p.expr(depth-1, false)),
			fmt.Sprintf("low(%s)", p.expr(depth-1, false)),
			fmt.Sprintf("rec(%s & 7, %s)", p.expr(depth-1, false), p.expr(depth-1, false)),
			fmt.Sprintf("sum(ga, (%s) & 7)", p.expr(depth-1, false)),
			fmt.Sprintf("gate((%s) | 1, %s)", p.expr(depth-1, false), p.expr(depth-1, false)),
		})
	}
	return fmt.Sprintf("bump(&%s, %s)", p.pick([]string{"a0", "a1"}), p.expr(depth-1, false))
}

func (p *progGen) line(depth int, format string, args ...any) {
	p.sb.WriteString(strings.Repeat("\t", depth))
	fmt.Fprintf(&p.sb, format, args...)
	p.sb.WriteByte('\n')
}

func (p *progGen) stmts(n, depth, indent int) {
	for i := 0; i < n; i++ {
		p.stmt(depth, indent)
	}
}

func (p *progGen) stmt(depth, indent int) {
	switch k := p.r.Intn(12); {
	case k < 4 || depth <= 0:
		p.line(indent, "%s;", p.expr(3, false))
	case k == 4:
		p.line(indent, "%s = %s;", p.lvalue(3, false), p.expr(4, false))
	case k == 5:
		p.line(indent, "if (%s) {", p.expr(3, false))
		p.stmts(1+p.r.Intn(2), depth-1, indent+1)
		if p.r.Intn(2) == 0 {
			p.line(indent, "} else {")
			p.stmts(1+p.r.Intn(2), depth-1, indent+1)
		}
		p.line(indent, "}")
	case k == 6 || k == 7:
		p.loopVar++
		v := fmt.Sprintf("i%d", p.loopVar)
		saved, was := len(p.scalars), p.inLoop
		p.line(indent, "for (int %s = 0; %s < %d; %s++) {", v, v, 1+p.r.Intn(5), v)
		p.scalars = append(p.scalars, v) // readable, never a target
		p.inLoop = true
		p.stmts(1+p.r.Intn(3), depth-1, indent+1)
		p.scalars, p.inLoop = p.scalars[:saved], was
		p.line(indent, "}")
	case k == 8:
		p.loopVar++
		v := fmt.Sprintf("w%d", p.loopVar)
		was := p.inLoop
		p.line(indent, "int %s = %d;", v, 1+p.r.Intn(4))
		if p.r.Intn(2) == 0 {
			p.line(indent, "while (%s-- > 0) {", v)
			p.inLoop = true
			p.stmts(1+p.r.Intn(2), depth-1, indent+1)
			p.line(indent, "}")
		} else {
			p.line(indent, "do {")
			p.inLoop = true
			p.stmts(1+p.r.Intn(2), depth-1, indent+1)
			p.line(indent, "} while (--%s > 0);", v)
		}
		p.inLoop = was
	case k == 9 && p.inLoop:
		p.line(indent, "if (%s) %s;", p.expr(2, false), p.pick([]string{"break", "continue"}))
	case k == 10:
		p.loopVar++
		v := fmt.Sprintf("t%d", p.loopVar)
		typ := p.pick([]string{"int", "uint", "byte"})
		p.line(indent, "{")
		p.line(indent+1, "%s %s = %s;", typ, v, p.expr(3, false))
		saved, savedT := len(p.scalars), len(p.targets)
		p.scalars, p.targets = append(p.scalars, v), append(p.targets, v)
		p.stmts(1+p.r.Intn(3), depth-1, indent+1)
		p.scalars, p.targets = p.scalars[:saved], p.targets[:savedT]
		p.line(indent, "}")
	default:
		p.line(indent, "h = h * 31u + (uint)%s;", p.expr(3, false))
	}
}

// fuzzPrelude is the fixed part of every program: the globals, and the
// helpers the random expressions call. All of them but order are small
// enough to be expanded in place at a call site inside a loop (of the
// recursive rec, the first level), and are called out of line elsewhere.
// bump writes through a pointer to one of the caller's locals. gate ends
// the way exit does but returns before it gets there: to its callers it
// is an ordinary function.
const fuzzPrelude = `
int g0 = 7;
uint g1 = 0x80000001;
byte g2 = 200;
int ga[8] = {3, -1, 4, 1, -5, 9, 2, 6};
byte gb[8] = {250, 1, 128, 7, 0, 255, 16, 99};
uint h = 17u;

int tiny(int x) { return (x ^ g0) + 3; }
byte low(int x) { g2 += 3; return x + g2; }
int mix(int a, uint b) {
	int t = a * 5 - (int)(b >> 3);
	if (t < 0) t = -t / 3;
	int k;
	for (k = 0; k < 3; k++) t = (t << 1) ^ ga[(t + k) & 7];
	g0 = (g0 + a) & 0xFFFF;
	return t;
}
int rec(int n, int acc) {
	if (n <= 0) return acc;
	return rec(n - 1, acc * 3 + n) - (n & 1);
}
int sum(int *a, int n) {
	int s = 0;
	while (n >= 0) { s += a[n] * (n + 1); n--; }
	return s;
}
int bump(int *p, int by) { *p += by & 0xFF; return *p >> 1; }
int gate(int c, int x) { if (c) return x ^ c; while (1) { } }

// order pins what the random part cannot reach by name: an lvalue whose
// address uses a register variable that the right side then changes.
int order(int n) {
	int t[4];
	int *q = t;
	int i = n & 1;
	t[0] = 1; t[1] = 2; t[2] = 3; t[3] = 4;
	t[i] = i++ + 5;         // stores at the old i
	t[i] += i++;            // address first, then the right side
	q[i & 1] = (q = t + 1) != t ? i : 7; // the old q addresses the store
	*q++ = 40 + i;
	*q = n;
	return t[0] + t[1] * 10 + t[2] * 100 + t[3] * 1000 + i * 10000;
}
`

// genProgram returns the source of one random program.
func genProgram(seed int64) string {
	p := &progGen{r: rand.New(rand.NewSource(seed))}
	p.sb.WriteString(fuzzPrelude)
	p.line(0, "int run(void) {")
	p.scalars = []string{"g0", "g1", "g2", "h"}
	p.targets = []string{"g0", "g1", "g2"}
	for i, typ := range []string{"int", "uint", "byte", "int", "int", "uint"} {
		v := fmt.Sprintf("v%d", i)
		p.line(1, "%s %s = %s;", typ, v, p.expr(2, true))
		p.scalars, p.targets = append(p.scalars, v), append(p.targets, v)
	}
	// a0/a1 have their address taken (bump), so they live in the frame.
	p.line(1, "int a0 = %s;", p.lit())
	p.line(1, "int a1 = %s;", p.lit())
	p.line(1, "int *pa = &a1;")
	p.scalars = append(p.scalars, "a0", "a1", "(*pa)")
	p.targets = append(p.targets, "a0", "(*pa)")
	p.stmts(4+p.r.Intn(8), 3, 1)
	p.line(1, "h = h * 31u + (uint)order(%s);", p.expr(2, false))
	for _, v := range p.scalars {
		p.line(1, "h = h * 31u + (uint)%s;", v)
	}
	p.line(1, "for (int i = 0; i < 8; i++) h = h * 31u + (uint)ga[i] + gb[i];")
	p.line(1, "return (int)h;")
	p.line(0, "}")
	// main's own outermost loops do not count as loops to the inliner
	// (analyze.go: outerDepth), so the random body is a function it calls.
	p.line(0, "int main(void) { return run(); }")
	return p.sb.String()
}

// checkProgram compiles src, runs it on the VM and on the oracle, and
// reports a difference.
func checkProgram(t *testing.T, src string) {
	t.Helper()
	f, err := Parse("fuzz.vxc", src)
	if err != nil {
		t.Fatalf("generator wrote a program that does not parse: %v\n%s", err, src)
	}
	want, err := runOracle(f)
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	b, err := Compile(Options{OmitRuntime: true}, Source{Name: "fuzz.vxc", Text: src})
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	v, err := elf32.NewVM(b.ELF, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := v.Run(); err != nil || st != vm.StatusExit {
		t.Fatalf("vm: status %v, %v\n%s", st, err, src)
	}
	if got := v.ExitCode(); got != want {
		t.Fatalf("compiled program returned %#x, reference interpreter %#x\n%s", uint32(got), uint32(want), src)
	}
}

// TestVxccExprCorpus runs a fixed set of generated programs in every
// tier-1 run.
func TestVxccExprCorpus(t *testing.T) {
	n := 400
	if testing.Short() {
		n = 60
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		checkProgram(t, genProgram(seed))
	}
}

// FuzzVxccExpr explores further seeds (CI fuzz-smoke runs it for 10 s).
func FuzzVxccExpr(f *testing.F) {
	for _, seed := range []int64{0, 1, 42, 1 << 40, -7} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkProgram(t, genProgram(seed))
	})
}
