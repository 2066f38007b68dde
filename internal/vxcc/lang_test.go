package vxcc

import (
	"bytes"
	"testing"

	"vxa/internal/elf32"
	"vxa/internal/vm"
)

func newTestVM(elf []byte) (*vm.VM, error) {
	return elf32.NewVM(elf, vm.Config{})
}

// Additional language-level tests: edge cases of scoping, operators,
// and the compiler/VM contract that the decoder sources depend on.

func TestShadowing(t *testing.T) {
	expectExit(t, `
int x = 1;
int main(void) {
	int x = 2;
	{
		int x = 3;
		if (x != 3) return 10;
	}
	return x * 10;  // inner scope ended; local x == 2
}`, 20)
	// A local shadows a global of the same name; the global is intact
	// after the function returns.
	expectExit(t, `
int g = 7;
int stomp() { int g = 100; return g; }
int main(void) { return stomp() + g; }`, 107)
}

func TestDeepRecursion(t *testing.T) {
	// ~20k frames of 3 words each easily fit the 1 MiB guest stack.
	expectExit(t, `
int depth(int n) {
	if (n == 0) return 0;
	return 1 + depth(n - 1);
}
int main(void) { return depth(20000) == 20000 ? 0 : 1; }`, 0)
}

func TestCharLiteralsAndEscapes(t *testing.T) {
	expectExit(t, `int main(void) { return 'A' + '\n' + '\t' + '\0' + '\\' + '\x10'; }`,
		65+10+9+0+92+16)
	code, out := runVXC(t, `
byte msg[] = "a\tb\nc\x21\\";
int main(void) {
	putn(msg, strlen(msg));
	flushout();
	return 0;
}`, nil)
	if code != 0 || string(out) != "a\tb\nc!\\" {
		t.Fatalf("code=%d out=%q", code, out)
	}
}

func TestComments(t *testing.T) {
	expectExit(t, `
// line comment with code: return 99;
/* block comment
   spanning lines */
int main(void) { return /* inline */ 5; }`, 5)
}

func TestOperatorPrecedence(t *testing.T) {
	// Mirror C precedence exactly; each case computed by Go for reference.
	cases := []struct {
		expr string
		want int32
	}{
		{"1 + 2 * 3", 1 + 2*3},
		{"10 - 4 - 3", 10 - 4 - 3}, // left assoc
		{"100 / 10 / 5", 100 / 10 / 5},
		{"1 << 2 + 1", 1 << 3}, // shift binds looser than +
		{"7 & 3 == 3", b2iHost(7&int32(b2iHost(3 == 3)) != 0)},
		{"1 | 2 ^ 3 & 2", 1 | (2 ^ (3 & 2))},
		{"2 < 3 == 1", b2iHost((2 < 3) == (1 == 1))},
		{"-3 * -4", 12},
		{"~5 & 0xFF", ^int32(5) & 0xFF},
	}
	for _, c := range cases {
		expectExit(t, "int main(void) { return "+c.expr+"; }", c.want)
	}
}

func b2iHost(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

func TestNestedLoopsBreakContinue(t *testing.T) {
	expectExit(t, `
int main(void) {
	int total = 0;
	int i;
	int j;
	for (i = 0; i < 10; i++) {
		for (j = 0; j < 10; j++) {
			if (j == 3) continue;  // affects inner loop only
			if (j == 7) break;
			total++;
		}
		if (i == 5) break;
	}
	// inner contributes 6 per outer pass (j=0,1,2,4,5,6), outer runs 6x
	return total;
}`, 36)
}

func TestWhileWithSideEffectCondition(t *testing.T) {
	code, out := runVXC(t, `
int main(void) {
	int c;
	int n = 0;
	while ((c = getb()) >= 0 && n < 5) {
		putb(c + 1);
		n++;
	}
	flushout();
	return n;
}`, []byte("abcdefgh"))
	if code != 5 || string(out) != "bcdef" {
		t.Fatalf("code=%d out=%q", code, out)
	}
}

func TestGlobalByteScalar(t *testing.T) {
	expectExit(t, `
byte state = 200;
int main(void) {
	state += 100;  // wraps at 8 bits
	return state;
}`, 44)
}

func TestPointerCompare(t *testing.T) {
	expectExit(t, `
byte buf[16];
int main(void) {
	byte *a = buf;
	byte *b = buf + 8;
	int n = 0;
	if (a < b) n |= 1;
	if (b >= a) n |= 2;
	if (a != b) n |= 4;
	a += 8;
	if (a == b) n |= 8;
	return n;
}`, 15)
}

func TestTernaryNested(t *testing.T) {
	expectExit(t, `
int classify(int v) {
	return v < 0 ? -1 : v == 0 ? 0 : 1;
}
int main(void) {
	return classify(-5) * 100 + classify(0) * 10 + classify(9);
}`, -100+0+1)
}

func TestArrayOfIntsAsBytesView(t *testing.T) {
	// The decoders routinely view int buffers as byte memory via casts.
	expectExit(t, `
int words[2];
int main(void) {
	words[0] = 0x04030201;
	byte *p = (byte*)words;
	return p[0] + p[1] * 10 + p[2] * 100 + p[3] * 1000;
}`, 1+20+300+4000)
}

func TestUnsignedWrapArithmetic(t *testing.T) {
	expectExit(t, `
int main(void) {
	uint a = 0xFFFFFFFFu;
	a += 2u;          // wraps to 1
	uint b = 3u - 5u; // wraps to 0xFFFFFFFE
	return (int)(a + (b == 0xFFFFFFFEu ? 1u : 0u));
}`, 2)
}

// TestMultiFileProgram: declarations resolve across compilation units in
// any order, as the codec sources (bitio/huff/main) require.
func TestMultiFileProgram(t *testing.T) {
	b, err := Compile(Options{},
		Source{Name: "a.vxc", Text: `
int helper(int x); // forward use across files is fine even without this
int main(void) { return helper(6) + TWENTY; }`},
		Source{Name: "b.vxc", Text: `
enum { TWENTY = 20 };
int helper(int x) { return x * 7; }`},
	)
	if err != nil {
		t.Fatal(err)
	}
	v, err := newTestVM(b.ELF)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if v.ExitCode() != 62 {
		t.Fatalf("exit = %d, want 62", v.ExitCode())
	}
}

// TestStderrOrderIndependence: writes to stderr do not disturb stdout.
func TestStderrOrderIndependence(t *testing.T) {
	b, err := Compile(Options{}, Source{Name: "t.vxc", Text: `
int main(void) {
	putb('o');
	eputs("E1");
	putb('k');
	flushout();
	eputs("E2");
	return 0;
}`})
	if err != nil {
		t.Fatal(err)
	}
	v, err := newTestVM(b.ELF)
	if err != nil {
		t.Fatal(err)
	}
	var out, diag bytes.Buffer
	v.Stdout = &out
	v.Stderr = &diag
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if out.String() != "ok" || diag.String() != "E1E2" {
		t.Fatalf("out=%q diag=%q", out.String(), diag.String())
	}
}

// TestByteValuesAreTruncated: the value of an expression of type byte is
// always zero-extended from eight bits — including the value of an
// assignment, ++/-- or op= to a byte lvalue, and a byte function's
// result — wherever the variable lives.
func TestByteValuesAreTruncated(t *testing.T) {
	expectExit(t, `int main(void) { byte b; int y = (b = 300); return y; }`, 44)
	expectExit(t, `int main(void) { byte b = 255; int y = ++b; return y; }`, 0)
	expectExit(t, `int main(void) { byte b = 200; int y = (b += 100); return y; }`, 44)
	expectExit(t, `byte f(int x) { return x; } int main(void) { return f(300); }`, 44)
	// The same through memory: a global, an array element, a pointer.
	expectExit(t, `byte g; int main(void) { int y = (g = 300); return y + g; }`, 88)
	expectExit(t, `byte a[2]; int main(void) { a[1] = 255; int y = ++a[1]; return y * 1000 + a[1]; }`, 0)
	expectExit(t, `int main(void) { byte b = 200; byte *p = &b; int y = (*p += 100); return y; }`, 44)
	expectExit(t, `int main(void) { byte b = 0; int y = b--; return y * 1000 + b; }`, 255)
	// Out of line as well as expanded in place (big is too large to inline).
	expectExit(t, `
byte big(int x) {
	int i;
	int s = 0;
	for (i = 0; i < 4; i++) { if (x & (1 << i)) s += x; else s -= 1; }
	for (i = 0; i < 4; i++) { if (s & (2 << i)) s ^= x; else s += 3; }
	return x + s - s;
}
int main(void) { return big(300); }`, 44)
}

// TestEarlyReturnBeforeFatalTail: a function that ends in exit() (or in
// "while (1) { }") but can return earlier is an ordinary function to its
// callers — the stack is balanced after every call to it, in a loop and
// across the callers' own returns.
func TestEarlyReturnBeforeFatalTail(t *testing.T) {
	expectExit(t, `
void check(int c) { if (c) return; exit(99); }
int work(int n) { int i; int s = 0; for (i = 0; i < n; i++) { check(1); s += i; } return s; }
int main(void) { int a = 7; int k; for (k = 0; k < 3; k++) a += work(5); return a; }`, 37)
	expectExit(t, `
void spin(int c) { if (c) return; while (1) { } }
int work(int n) { int i; int s = 0; for (i = 0; i < n; i++) { spin(i + 1); s += i; } return s; }
int main(void) { int a = 7; int k; for (k = 0; k < 3; k++) a += work(5); return a; }`, 37)
	// One that really cannot return is still called correctly, with
	// pending temporaries around the call.
	expectExit(t, `
void bail(int c) { flushout(); exit(c); }
int pick(int x) { if (x > 3) bail(40 + x); return x; }
int main(void) { int i; int s = 0; for (i = 0; i < 9; i++) s = s * 2 + (i + pick(i)); return s; }`, 44)
}

// TestOperandOutlivesExpansion: a variable used in place as an operand is
// read after everything else in its expression has run, including the
// body of a call expanded there; its register must not be handed to that
// body's variables even when this is the variable's last mention. (The
// expected values come from the reference interpreter, oracle_test.go.)
func TestOperandOutlivesExpansion(t *testing.T) {
	const helpers = `
int ga[8] = {3, -1, 4, 1, -5, 9, 2, 6};
int g0 = 7;
int mix(int a, uint b) {
	int t = a * 5 - (int)(b >> 3);
	int k;
	for (k = 0; k < 3; k++) t = (t << 1) ^ ga[(t + k) & 7];
	g0 = (g0 + a) & 0xFFFF;
	return t;
}
`
	// The pointer of an index expression whose index expands a call.
	checkProgram(t, helpers+`
int run(void) {
	uint u = 9; int r = 0;
	for (int i = 0; i < 3; i++) { int *p = ga + (i & 1); r += p[mix(5, u) & 3]; }
	return r;
}
int main(void) { return run(); }`)
	// A left argument read after the right argument's expansion has run.
	checkProgram(t, helpers+`
int run(void) {
	uint u = 9; int r = 0;
	for (int i = 0; i < 2; i++) { int t = i; r += mix(t + 3, mix(5, u)) & 0xFF; }
	return r;
}
int main(void) { return run(); }`)
}
