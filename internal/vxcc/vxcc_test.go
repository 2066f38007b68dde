package vxcc

import (
	"bytes"
	"hash/crc32"
	"strings"
	"testing"

	"vxa/internal/elf32"
	"vxa/internal/vm"
)

// runVXC compiles one source file (plus runtime), runs it in the VM, and
// returns the exit code and stdout.
func runVXC(t *testing.T, src string, stdin []byte) (int32, []byte) {
	t.Helper()
	b, err := Compile(Options{}, Source{Name: "test.vxc", Text: src})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	v, err := elf32.NewVM(b.ELF, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	var diag bytes.Buffer
	v.Stdin = bytes.NewReader(stdin)
	v.Stdout = &out
	v.Stderr = &diag
	st, err := v.Run()
	if err != nil {
		t.Fatalf("vm: %v (stderr: %q)", err, diag.String())
	}
	if st != vm.StatusExit {
		t.Fatalf("status = %v, want exit", st)
	}
	return v.ExitCode(), out.Bytes()
}

// expectExit asserts the program exits with the given code.
func expectExit(t *testing.T, src string, want int32) {
	t.Helper()
	code, _ := runVXC(t, src, nil)
	if code != want {
		t.Fatalf("exit = %d, want %d", code, want)
	}
}

func TestArithmetic(t *testing.T) {
	expectExit(t, `int main(void) { return 2 + 3 * 4 - 6 / 2; }`, 11)
	expectExit(t, `int main(void) { return (2 + 3) * 4; }`, 20)
	expectExit(t, `int main(void) { return 17 % 5; }`, 2)
	expectExit(t, `int main(void) { return -7 / 2; }`, -3) // C truncation
	expectExit(t, `int main(void) { return -7 % 2; }`, -1)
	expectExit(t, `int main(void) { uint a = 0x80000000u; return (int)(a / 2); }`, 0x40000000)
	expectExit(t, `int main(void) { uint a = 0xFFFFFFFEu; return (int)(a % 7); }`, int32(0xFFFFFFFE%7))
	expectExit(t, `int main(void) { return 1 << 10; }`, 1024)
	expectExit(t, `int main(void) { return -16 >> 2; }`, -4) // arithmetic shift for int
	expectExit(t, `int main(void) { uint v = 0x80000000u; return (int)(v >> 31); }`, 1)
	expectExit(t, `int main(void) { return (5 & 3) | (8 ^ 12); }`, 1|4)
	expectExit(t, `int main(void) { return ~0 + 2; }`, 1)
	expectExit(t, `int main(void) { return -(-42); }`, 42)
}

func TestComparisons(t *testing.T) {
	expectExit(t, `int main(void) { return (1 < 2) + (2 <= 2) + (3 > 2) + (2 >= 3) + (1 == 1) + (1 != 1); }`, 4)
	// Signed vs unsigned comparison semantics.
	expectExit(t, `int main(void) { int a = -1; return a < 1; }`, 1)
	expectExit(t, `int main(void) { uint a = 0xFFFFFFFFu; return a < 1u; }`, 0)
	expectExit(t, `int main(void) { uint a = 0xFFFFFFFFu; return a > 1; }`, 1)
}

func TestControlFlow(t *testing.T) {
	expectExit(t, `
int main(void) {
	int s = 0;
	int i;
	for (i = 1; i <= 100; i++) s += i;
	return s;
}`, 5050)
	expectExit(t, `
int main(void) {
	int n = 0;
	int i = 0;
	while (1) {
		i++;
		if (i % 3 == 0) continue;
		if (i > 10) break;
		n += i;
	}
	return n;
}`, 1+2+4+5+7+8+10)
	expectExit(t, `
int main(void) {
	int n = 0;
	do { n++; } while (n < 5);
	return n;
}`, 5)
	expectExit(t, `
int main(void) {
	for (int i = 0; i < 4; i++) { }
	int j = 7;
	if (j > 5) { if (j > 10) return 1; else return 2; }
	return 3;
}`, 2)
}

func TestFunctionsAndRecursion(t *testing.T) {
	expectExit(t, `
int fib(int n) {
	if (n < 2) return n;
	return fib(n - 1) + fib(n - 2);
}
int main(void) { return fib(15); }`, 610)
	expectExit(t, `
int add3(int a, int b, int c) { return a + b * 10 + c * 100; }
int main(void) { return add3(1, 2, 3); }`, 321)
	expectExit(t, `
void bump(int *p, int by) { *p += by; }
int main(void) { int x = 5; bump(&x, 37); return x; }`, 42)
}

func TestGlobals(t *testing.T) {
	expectExit(t, `
int counter = 40;
int tbl[4] = {1, 2, 3, 4};
byte flags[8];
int main(void) {
	counter += tbl[1];
	flags[3] = 9;
	return counter + flags[3] - 9;
}`, 42)
	expectExit(t, `
byte msg[] = "hello";
int main(void) { return strlen(msg); }`, 5)
	expectExit(t, `
const int scale = 6;
int main(void) { return scale * 7; }`, 42)
	expectExit(t, `
enum { A, B, C = 10, D };
int main(void) { return A + B + C + D; }`, 0+1+10+11)
}

func TestPointers(t *testing.T) {
	expectExit(t, `
int main(void) {
	int arr[5];
	int *p = arr;
	int i;
	for (i = 0; i < 5; i++) arr[i] = i * i;
	p += 2;
	return *p + p[1] + *(arr + 4);
}`, 4+9+16)
	expectExit(t, `
int main(void) {
	byte buf[10];
	byte *p = buf;
	*p++ = 65;
	*p++ = 66;
	return (buf[0] == 65 && buf[1] == 66) ? p - buf : -1;
}`, 2)
	expectExit(t, `
int main(void) {
	int a[3];
	a[0] = 1; a[1] = 2; a[2] = 3;
	int *end = a + 3;
	int *p = a;
	int s = 0;
	while (p < end) s += *p++;
	return s;
}`, 6)
}

func TestByteSemantics(t *testing.T) {
	// byte is unsigned and wraps at 8 bits.
	expectExit(t, `int main(void) { byte b = 250; b += 10; return b; }`, 4)
	expectExit(t, `int main(void) { byte b = 200; return b + 100; }`, 300) // promoted before add
	expectExit(t, `int main(void) { byte b = 0xFF; return b >> 4; }`, 15)
	expectExit(t, `int main(void) { return (byte)0x1FF; }`, 0xFF)
	expectExit(t, `
int main(void) {
	byte buf[4];
	buf[0] = 0x78; buf[1] = 0x56; buf[2] = 0x34; buf[3] = 0x12;
	return buf[0] | (buf[1] << 8) | (buf[2] << 16) | (buf[3] << 24);
}`, 0x12345678)
}

func TestIncDec(t *testing.T) {
	expectExit(t, `int main(void) { int i = 5; return i++ * 10 + i; }`, 56)
	expectExit(t, `int main(void) { int i = 5; return ++i * 10 + i; }`, 66)
	expectExit(t, `int main(void) { int i = 5; return i-- - --i; }`, 5-3)
	expectExit(t, `
int main(void) {
	int a[4];
	int i = 0;
	a[i++] = 10; a[i++] = 20;
	return a[0] + a[1] + i;
}`, 32)
}

func TestTernaryAndLogic(t *testing.T) {
	expectExit(t, `int main(void) { int x = 7; return x > 5 ? 1 : 2; }`, 1)
	expectExit(t, `
int calls = 0;
int bump() { calls++; return 1; }
int main(void) {
	// Short circuit: bump must not run.
	int a = 0 && bump();
	int b = 1 || bump();
	return calls * 10 + a + b;
}`, 1)
	expectExit(t, `
int main(void) {
	int x = 3;
	if (x > 1 && x < 5 || x == 99) return 1;
	return 0;
}`, 1)
}

func TestCompoundAssign(t *testing.T) {
	expectExit(t, `
int main(void) {
	int x = 100;
	x += 5; x -= 3; x *= 2; x /= 4; x %= 40;
	x <<= 2; x >>= 1; x &= 0xFF; x |= 0x100; x ^= 0x3;
	return x;
}`, func() int32 {
		x := int32(100)
		x += 5
		x -= 3
		x *= 2
		x /= 4
		x %= 40
		x <<= 2
		x >>= 1
		x &= 0xFF
		x |= 0x100
		x ^= 0x3
		return x
	}())
	// Compound assignment through a pointer evaluates the address once.
	expectExit(t, `
int idx = 0;
int arr[4];
int next() { return idx++; }
int main(void) {
	arr[next()] += 7;
	return arr[0] * 10 + idx;
}`, 71)
}

func TestSizeof(t *testing.T) {
	expectExit(t, `int main(void) { return sizeof(int) + sizeof(byte) + sizeof(int*) + sizeof(uint); }`, 4+1+4+4)
}

func TestRuntimeEcho(t *testing.T) {
	input := bytes.Repeat([]byte("abcdefgh"), 5000)
	code, out := runVXC(t, `
int main(void) {
	int c;
	while ((c = getb()) >= 0) putb(c);
	flushout();
	return 0;
}`, input)
	if code != 0 || !bytes.Equal(out, input) {
		t.Fatalf("echo: code=%d len=%d want %d", code, len(out), len(input))
	}
}

func TestRuntimeLE(t *testing.T) {
	code, out := runVXC(t, `
int main(void) {
	int v = get4le();
	int w = get2le();
	put4le(v + 1);
	put2le(w + 1);
	flushout();
	return 0;
}`, []byte{0x78, 0x56, 0x34, 0x12, 0xFE, 0xCA})
	if code != 0 {
		t.Fatal(code)
	}
	want := []byte{0x79, 0x56, 0x34, 0x12, 0xFF, 0xCA}
	if !bytes.Equal(out, want) {
		t.Fatalf("out = % x, want % x", out, want)
	}
}

func TestRuntimeAlloc(t *testing.T) {
	expectExit(t, `
int main(void) {
	byte *a = vxalloc(100000);
	byte *b = vxalloc(5000000);
	int i;
	for (i = 0; i < 100000; i++) a[i] = (byte)i;
	for (i = 0; i < 5000000; i += 4096) b[i] = 7;
	// The allocator must return disjoint regions...
	if (b - a < 100000) return 1;
	// ...that do not alias (writing b did not disturb a)...
	if (a[77] != 77 || a[256 + 99] != 99) return 2;
	// ...and fresh memory arrives zeroed.
	if (b[4095] != 0 || b[4097] != 0) return 3;
	return 0;
}`, 0)
}

func TestRuntimeMemOps(t *testing.T) {
	expectExit(t, `
byte src[16] = {1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16};
byte dst[16];
int main(void) {
	memcpy(dst, src, 16);
	int s = 0;
	int i;
	for (i = 0; i < 16; i++) s += dst[i];
	memset(dst, 0xAB, 16);
	return s + (dst[7] == 0xAB ? 1000 : 0);
}`, 136+1000)
}

func TestDieGoesToStderr(t *testing.T) {
	b, err := Compile(Options{}, Source{Name: "die.vxc", Text: `
int main(void) { die("boom"); return 0; }`})
	if err != nil {
		t.Fatal(err)
	}
	v, err := elf32.NewVM(b.ELF, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var diag bytes.Buffer
	v.Stderr = &diag
	st, err := v.Run()
	if err != nil || st != vm.StatusExit {
		t.Fatalf("st=%v err=%v", st, err)
	}
	if v.ExitCode() != 101 || !strings.Contains(diag.String(), "boom") {
		t.Fatalf("code=%d stderr=%q", v.ExitCode(), diag.String())
	}
}

// TestCRC32Differential compiles a bitwise CRC-32 in VXC and checks it
// against hash/crc32 over the same input — an end-to-end differential
// test of the compiler, the assembler, and the interpreter together.
func TestCRC32Differential(t *testing.T) {
	input := []byte("The VXA architecture ensures that archived data can always be decoded. 0123456789")
	code, out := runVXC(t, `
uint crctab[256];
void initcrc() {
	uint c;
	int n;
	int k;
	for (n = 0; n < 256; n++) {
		c = (uint)n;
		for (k = 0; k < 8; k++) {
			if (c & 1) c = 0xEDB88320u ^ (c >> 1);
			else c = c >> 1;
		}
		crctab[n] = c;
	}
}
int main(void) {
	initcrc();
	uint crc = 0xFFFFFFFFu;
	int ch;
	while ((ch = getb()) >= 0)
		crc = crctab[(crc ^ (uint)ch) & 0xFFu] ^ (crc >> 8);
	crc = crc ^ 0xFFFFFFFFu;
	put4le((int)crc);
	flushout();
	return 0;
}`, input)
	if code != 0 || len(out) != 4 {
		t.Fatalf("code=%d out=% x", code, out)
	}
	got := uint32(out[0]) | uint32(out[1])<<8 | uint32(out[2])<<16 | uint32(out[3])<<24
	want := crc32.ChecksumIEEE(input)
	if got != want {
		t.Fatalf("crc = %#x, want %#x", got, want)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []string{
		`int main(void) { return x; }`,                                             // undefined
		`int main(void) { int x; int x; return 0; }`,                               // duplicate local
		`int main(void) { break; }`,                                                // break outside loop
		`int f() { return 1; } int f() { return 2; } int main(void) { return 0; }`, // dup func
		`void main(void) { }`,                                                      // wrong main signature
		`int main(void) { return 1 }`,                                              // missing semicolon
		`int main(void) { int *p; return *p(); }`,                                  // call of non-function
		`int main(void) { int a[3]; a = 0; return 0; }`,                            // assign to array
		`int g = f(); int main(void) { return 0; }`,                                // non-constant global init
		`const int k; int main(void) { return 0; }`,                                // const without init
		`int main(void) { k = 1; return 0; }
		 const int k = 3;`, // assign to const
		`int main(void) { return sizeof(0); }`, // sizeof expr unsupported
	}
	for _, src := range cases {
		if _, err := Compile(Options{}, Source{Name: "err.vxc", Text: src}); err == nil {
			t.Errorf("compile succeeded, want error:\n%s", src)
		}
	}
}

// TestTable2Accounting checks the decoder/runtime text split used by the
// Table 2 harness. Only what a program calls is linked in, so the tiny
// decoder here uses the buffered I/O half of libvx.
func TestTable2Accounting(t *testing.T) {
	b, err := Compile(Options{}, Source{Name: "dec.vxc", Text: `
int work(int x) { int i; int s = 0; for (i = 0; i < x; i++) s += i * 3; return s; }
int main(void) {
	int c;
	while ((c = getb()) >= 0) putb(work(c));
	flushout();
	return 0;
}`})
	if err != nil {
		t.Fatal(err)
	}
	if b.UserTextBytes == 0 || b.RuntimeTextBytes == 0 {
		t.Fatalf("split = user %d / runtime %d", b.UserTextBytes, b.RuntimeTextBytes)
	}
	if b.RuntimeTextBytes < b.UserTextBytes {
		t.Fatalf("runtime (%d) should dominate this tiny decoder (%d)", b.RuntimeTextBytes, b.UserTextBytes)
	}
	var sawMain, sawGetb bool
	for _, f := range b.Funcs {
		if f.Name == "main" && !f.Runtime {
			sawMain = true
		}
		if f.Name == "getb" && f.Runtime {
			sawGetb = true
		}
	}
	if !sawMain || !sawGetb {
		t.Fatalf("function table incomplete: %+v", b.Funcs)
	}
	for _, f := range b.Funcs {
		if f.Name == "vxalloc" || f.Name == "get4le" {
			t.Fatalf("%s is linked in though nothing calls it", f.Name)
		}
	}
}

// TestUncalledFunctionsAreChecked: leaving a function out of the image
// does not let its errors through.
func TestUncalledFunctionsAreChecked(t *testing.T) {
	_, err := Compile(Options{}, Source{Name: "dead.vxc", Text: `
int unused(void) { return nosuch + 1; }
int main(void) { return 0; }`})
	if err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Fatalf("err = %v, want the undefined identifier in the uncalled function", err)
	}
}
