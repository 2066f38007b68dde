//go:build amd64 && linux

package tier2

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var updateTable = flag.Bool("update", false, "rewrite testdata/nasm_amd64.txt (disassembles every case with objdump to prove the bytes mean what the case says)")

const nasmTable = "testdata/nasm_amd64.txt"

// asmCase is one call of one encoder: what it emits, and the
// instructions a disassembler must read back, in objdump's Intel syntax.
type asmCase struct {
	emit func(a *nasm)
	want []string
}

var (
	names64 = [16]string{"rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi", "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15"}
	names32 = [16]string{"eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi", "r8d", "r9d", "r10d", "r11d", "r12d", "r13d", "r14d", "r15d"}
	names16 = [16]string{"ax", "cx", "dx", "bx", "sp", "bp", "si", "di", "r8w", "r9w", "r10w", "r11w", "r12w", "r13w", "r14w", "r15w"}
	names8  = [16]string{"al", "cl", "dl", "bl", "spl", "bpl", "sil", "dil", "r8b", "r9b", "r10b", "r11b", "r12b", "r13b", "r14b", "r15b"}
	ccNames = [16]string{"o", "no", "b", "ae", "e", "ne", "be", "a", "s", "ns", "p", "np", "l", "ge", "le", "g"}
)

var sizeNames = map[int]string{1: "BYTE", 2: "WORD", 4: "DWORD", 8: "QWORD"}

func regName(r, size int) string {
	switch size {
	case 1:
		return names8[r]
	case 2:
		return names16[r]
	case 4:
		return names32[r]
	}
	return names64[r]
}

func hexImm(v int64) string {
	if v < 0 {
		return fmt.Sprintf("-0x%x", -v)
	}
	return fmt.Sprintf("+0x%x", v)
}

// opText is the operand o as objdump prints it when it is size bytes
// wide (size 0: no size keyword, as for lea), given the encoding choices
// the assembler documents: no displacement byte for a zero displacement
// unless the base is RBP or R13, always one without a base.
func opText(o rm, size int) string {
	if o.direct {
		return regName(o.base, size)
	}
	ptr := ""
	if size != 0 {
		ptr = sizeNames[size] + " PTR "
	}
	if o.base < 0 && o.idx < 0 {
		return fmt.Sprintf("%sds:0x%x", ptr, uint32(o.disp))
	}
	var b strings.Builder
	b.WriteString(ptr + "[")
	if o.base >= 0 {
		b.WriteString(names64[o.base])
	}
	if o.idx >= 0 {
		if o.base >= 0 {
			b.WriteString("+")
		}
		fmt.Fprintf(&b, "%s*%d", names64[o.idx], o.scale)
	}
	if o.base < 0 || o.disp != 0 || o.base&7 == 5 {
		b.WriteString(hexImm(int64(o.disp)))
	}
	b.WriteString("]")
	return b.String()
}

func line(mnemonic string, operands ...string) string {
	if len(operands) == 0 {
		return mnemonic
	}
	return fmt.Sprintf("%-6s %s", mnemonic, strings.Join(operands, ","))
}

// immText is how objdump prints an immediate sign-extended to size bytes.
func immText(imm uint32, size int) string {
	if size == 8 {
		return fmt.Sprintf("0x%x", uint64(int64(int32(imm))))
	}
	return fmt.Sprintf("0x%x", imm)
}

// testOperands is the operand set the table runs every r/m-taking
// encoder over: every register as a base at each displacement width
// (which is where RSP/R12 need a SIB byte and RBP/R13 a displacement),
// every register that can be one as an index, the base-less and the
// absolute forms.
func testOperands() []rm {
	disps := []int32{0, 0x10, -0x10, 0x1234}
	var ms []rm
	for b := 0; b < 16; b++ {
		for _, d := range disps {
			ms = append(ms, at(b, d))
		}
	}
	bases := []int{hSI, hBP, hR12, hR13, hAX, hSP}
	scales := []uint8{1, 2, 4, 8}
	for i := 0; i < 16; i++ {
		if i == hSP {
			continue
		}
		for k, d := range []int32{0, 8, 0x1e30} {
			ms = append(ms, sib(bases[(i+k)%len(bases)], i, scales[(i+k)%4], d))
		}
		ms = append(ms, sib(-1, i, scales[i%4], 0x1e30), sib(-1, i, 1, 0))
	}
	return append(ms, sib(-1, -1, 0, 0x1234))
}

// fewOperands is a cross-section of testOperands for the encoders that
// share mov's ModRM path and differ only in opcode, prefix and width.
func fewOperands() []rm {
	return []rm{at(hDI, 0x58), at(hDI, 0x1234), at(hR12, 0), at(hR13, 0), at(hSP, 8), at(hAX, 0x28),
		sib(hSI, hBP, 1, -8), sib(hSI, hR12, 1, 0), sib(hSI, hR9, 4, 0x1e30), sib(hSI, hCX, 1, 0),
		sib(-1, hR15, 8, 0x40), sib(hR13, hR13, 2, 0), sib(-1, -1, 0, 0x1234)}
}

// asmCases enumerates the table: for every encoder, every register in
// every register position and memory operands as above.
func asmCases() []asmCase {
	var cs []asmCase
	add := func(emit func(a *nasm), want ...string) { cs = append(cs, asmCase{emit, want}) }
	other := func(r int) int { return (r*7 + 3) % 16 }
	all, few := testOperands(), fewOperands()

	// regRM runs an encoder taking (reg, r/m): every register in each
	// position against a register, then against memory.
	regRM := func(ms []rm, f func(reg int, o rm) (func(a *nasm), string)) {
		for r := 0; r < 16; r++ {
			for _, o := range []rm{rg(other(r)), ms[r%len(ms)]} {
				e, w := f(r, o)
				add(e, w)
			}
			e, w := f(other(r), rg(r))
			add(e, w)
		}
		for _, o := range ms {
			e, w := f(hR9, o)
			add(e, w)
		}
	}
	// onRM runs an encoder taking one r/m.
	onRM := func(ms []rm, f func(o rm) (func(a *nasm), string)) {
		for r := 0; r < 16; r++ {
			e, w := f(rg(r))
			add(e, w)
		}
		for _, o := range ms {
			e, w := f(o)
			add(e, w)
		}
	}
	// onReg runs an encoder taking one register.
	onReg := func(f func(r int) (func(a *nasm), string)) {
		for r := 0; r < 16; r++ {
			e, w := f(r)
			add(e, w)
		}
	}
	memOnly := func(f func(reg int, o rm) (func(a *nasm), string)) func(int, rm) (func(a *nasm), string) {
		return func(reg int, o rm) (func(a *nasm), string) {
			if o.direct {
				o = at(hDI, int32(8*o.base))
			}
			return f(reg, o)
		}
	}

	regRM(all, func(r int, o rm) (func(a *nasm), string) {
		return func(a *nasm) { a.mov(r, o) }, line("mov", names32[r], opText(o, 4))
	})
	regRM(few, memOnly(func(r int, o rm) (func(a *nasm), string) {
		return func(a *nasm) { a.mov64(r, o) }, line("mov", names64[r], opText(o, 8))
	}))
	regRM(few, memOnly(func(r int, o rm) (func(a *nasm), string) {
		return func(a *nasm) { a.movTo(o, r) }, line("mov", opText(o, 4), names32[r])
	}))
	regRM(few, memOnly(func(r int, o rm) (func(a *nasm), string) {
		return func(a *nasm) { a.movTo64(o, r) }, line("mov", opText(o, 8), names64[r])
	}))
	regRM(few, func(r int, o rm) (func(a *nasm), string) {
		return func(a *nasm) { a.mov8(r, o) }, line("mov", names8[r], opText(o, 1))
	})
	regRM(few, memOnly(func(r int, o rm) (func(a *nasm), string) {
		return func(a *nasm) { a.movTo8(o, r) }, line("mov", opText(o, 1), names8[r])
	}))
	onRM(few, func(o rm) (func(a *nasm), string) {
		return func(a *nasm) { a.movI(o, 0x11223344) }, line("mov", opText(o, 4), "0x11223344")
	})
	onRM(few, func(o rm) (func(a *nasm), string) {
		return func(a *nasm) { a.movI8(o, 0x7f) }, line("mov", opText(o, 1), "0x7f")
	})
	onReg(func(r int) (func(a *nasm), string) {
		return func(a *nasm) { a.movI64(r, 0x8000000000000000) }, line("movabs", names64[r], "0x8000000000000000")
	})
	for _, x := range []struct {
		op   byte
		name string
		size int
	}{{movzx8, "movzx", 1}, {movzx16, "movzx", 2}, {movsx8, "movsx", 1}, {movsx16, "movsx", 2}} {
		x := x
		regRM(few, func(r int, o rm) (func(a *nasm), string) {
			return func(a *nasm) { a.movx(x.op, r, o) }, line(x.name, names32[r], opText(o, x.size))
		})
	}
	regRM(few, func(r int, o rm) (func(a *nasm), string) {
		return func(a *nasm) { a.movsxd(r, o) }, line("movsxd", names64[r], opText(o, 4))
	})
	for r := 0; r < 16; r++ {
		x, y := r, other(r)
		add(func(a *nasm) { a.xchg(x, y) }, line("xchg", names32[y], names32[x]))
		add(func(a *nasm) { a.xchg(y, x) }, line("xchg", names32[x], names32[y]))
	}
	regRM(all, memOnly(func(r int, o rm) (func(a *nasm), string) {
		return func(a *nasm) { a.lea(r, o) }, line("lea", names32[r], opText(o, 0))
	}))
	regRM(few, memOnly(func(r int, o rm) (func(a *nasm), string) {
		return func(a *nasm) { a.lea64(r, o) }, line("lea", names64[r], opText(o, 0))
	}))
	onReg(func(r int) (func(a *nasm), string) { return func(a *nasm) { a.push(r) }, line("push", names64[r]) })
	onReg(func(r int) (func(a *nasm), string) { return func(a *nasm) { a.pop(r) }, line("pop", names64[r]) })

	for _, x := range []struct {
		rm, mr byte
		ext    int
		name   string
	}{{aluAddRM, aluAddMR, aluAddExt, "add"}, {aluOrRM, aluOrMR, aluOrExt, "or"}, {aluAndRM, aluAndMR, aluAndExt, "and"},
		{aluSubRM, aluSubMR, aluSubExt, "sub"}, {aluXorRM, aluXorMR, aluXorExt, "xor"}, {aluCmpRM, aluCmpMR, aluCmpExt, "cmp"}} {
		x := x
		regRM(few, func(r int, o rm) (func(a *nasm), string) {
			return func(a *nasm) { a.alu(x.rm, r, o) }, line(x.name, names32[r], opText(o, 4))
		})
		regRM(few, func(r int, o rm) (func(a *nasm), string) {
			return func(a *nasm) { a.alu64(x.rm, r, o) }, line(x.name, names64[r], opText(o, 8))
		})
		regRM(few, func(r int, o rm) (func(a *nasm), string) {
			return func(a *nasm) { a.aluTo(x.mr, o, r) }, line(x.name, opText(o, 4), names32[r])
		})
		// The immediate group: imm8 where it fits (either sign), else imm32.
		for _, imm := range []uint32{1, 0xFFFFFFF0, 0xFFFF00FF} {
			imm := imm
			onRM(few[:4], func(o rm) (func(a *nasm), string) {
				return func(a *nasm) { a.aluI(x.ext, o, imm) }, line(x.name, opText(o, 4), immText(imm, 4))
			})
			onRM(few[:4], func(o rm) (func(a *nasm), string) {
				return func(a *nasm) { a.aluI64(x.ext, o, imm) }, line(x.name, opText(o, 8), immText(imm, 8))
			})
		}
	}
	regRM(few, func(r int, o rm) (func(a *nasm), string) {
		return func(a *nasm) { a.alu(aluAdcRM, r, o) }, line("adc", names32[r], opText(o, 4))
	})
	regRM(few, func(r int, o rm) (func(a *nasm), string) {
		return func(a *nasm) { a.aluTo(aluTestMR, o, r) }, line("test", opText(o, 4), names32[r])
	})
	onRM(few, func(o rm) (func(a *nasm), string) {
		return func(a *nasm) { a.testI(o, 0x80000000) }, line("test", opText(o, 4), "0x80000000")
	})
	for _, x := range []struct {
		ext  int
		name string
	}{{shlExt, "shl"}, {shrExt, "shr"}, {sarExt, "sar"}} {
		x := x
		onReg(func(r int) (func(a *nasm), string) {
			return func(a *nasm) { a.shiftI(x.ext, r, 13) }, line(x.name, names32[r], "0xd")
		})
		onReg(func(r int) (func(a *nasm), string) {
			return func(a *nasm) { a.shiftI64(x.ext, r, 32) }, line(x.name, names64[r], "0x20")
		})
		onReg(func(r int) (func(a *nasm), string) {
			return func(a *nasm) { a.shiftCL(x.ext, r) }, line(x.name, names32[r], "cl")
		})
	}
	for _, x := range []struct {
		ext  int
		name string
	}{{notExt, "not"}, {negExt, "neg"}, {mulExt, "mul"}, {imulExt, "imul"}, {divExt, "div"}, {idivExt, "idiv"}} {
		x := x
		onRM(few, func(o rm) (func(a *nasm), string) {
			return func(a *nasm) { a.unary(x.ext, o) }, line(x.name, opText(o, 4))
		})
		onRM(few, func(o rm) (func(a *nasm), string) {
			return func(a *nasm) { a.unary64(x.ext, o) }, line(x.name, opText(o, 8))
		})
	}
	add(func(a *nasm) { a.cqo() }, "cqo")
	regRM(few, func(r int, o rm) (func(a *nasm), string) {
		return func(a *nasm) { a.imul(r, o) }, line("imul", names32[r], opText(o, 4))
	})
	regRM(few, func(r int, o rm) (func(a *nasm), string) {
		return func(a *nasm) { a.imulI(r, o, 0x12345) }, line("imul", names32[r], opText(o, 4), "0x12345")
	})
	for cc := 0; cc < 16; cc++ {
		cc := byte(cc)
		onRM(few[:3], func(o rm) (func(a *nasm), string) {
			return func(a *nasm) { a.setcc(cc, o) }, line("set"+ccNames[cc], opText(o, 1))
		})
	}
	onRM(few, memOnlyRM(func(o rm) (func(a *nasm), string) {
		return func(a *nasm) { a.jmpM(o) }, line("jmp", opText(o, 8))
	}))

	// The long forms, which the emitter writes over in place: a disp32 and
	// an imm32 whatever the value, so small ones here.
	long := func(f func(a *nasm)) func(a *nasm) {
		return func(a *nasm) { a.long = true; f(a); a.long = false }
	}
	for _, o := range []rm{at(hR12, -8), at(hBP, 0x10), at(hR13, 4), at(hBX, 1), sib(hBX, hR9, 4, 8), sib(-1, hR15, 8, 0x40)} {
		o := o
		add(long(func(a *nasm) { a.lea64(hAX, o) }), line("lea", "rax", opText(o, 0)))
		add(long(func(a *nasm) { a.lea(hDX, o) }), line("lea", "edx", opText(o, 0)))
	}
	for _, imm := range []uint32{1, 0xFFFFFFF0, 0x2000} {
		imm := imm
		add(long(func(a *nasm) { a.aluI64(aluCmpExt, rg(hAX), imm) }), line("cmp", "rax", immText(imm, 8)))
		add(long(func(a *nasm) { a.aluI64(aluSubExt, rg(hDX), imm) }), line("sub", "rdx", immText(imm, 8)))
		add(long(func(a *nasm) { a.aluI(aluCmpExt, at(hDI, 0x58), imm) }), line("cmp", opText(at(hDI, 0x58), 4), immText(imm, 4)))
	}
	return cs
}

func memOnlyRM(f func(o rm) (func(a *nasm), string)) func(rm) (func(a *nasm), string) {
	return func(o rm) (func(a *nasm), string) {
		if o.direct {
			o = at(o.base, 0x20)
		}
		return f(o)
	}
}

// assembleCases runs every case into one buffer and returns it with each
// case's byte range.
func assembleCases(t *testing.T, cs []asmCase) ([]byte, []int) {
	var a nasm
	ends := make([]int, len(cs))
	for i, c := range cs {
		n := a.n
		c.emit(&a)
		if a.n-n != len(c.want) {
			t.Fatalf("case %d (%s): the assembler counts %d instructions", i, c.want[0], a.n-n)
		}
		ends[i] = len(a.c)
	}
	return a.c, ends
}

// TestNasmTable holds every encoder to the committed table of bytes and
// their disassembly. With -update (which needs binutils' objdump) the
// bytes are disassembled and must read back as the instruction each case
// names before the table is rewritten: that is the round trip, made by a
// decoder that is not ours, and committed so that the test itself needs
// only the table.
func TestNasmTable(t *testing.T) {
	cs := asmCases()
	code, ends := assembleCases(t, cs)
	var got bytes.Buffer
	start := 0
	for i, c := range cs {
		fmt.Fprintf(&got, "%s\t%s\n", hex.EncodeToString(code[start:ends[i]]), strings.Join(c.want, "; "))
		start = ends[i]
	}
	if *updateTable {
		checkWithObjdump(t, code, cs, ends)
		if err := os.MkdirAll(filepath.Dir(nasmTable), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(nasmTable, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(nasmTable)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	gs, ws := bufio.NewScanner(&got), bufio.NewScanner(bytes.NewReader(want))
	for n := 1; ; n++ {
		g, w := gs.Scan(), ws.Scan()
		if !g && !w {
			break
		}
		if gs.Text() != ws.Text() {
			t.Fatalf("%s line %d:\n  assembler: %s\n  table:     %s", nasmTable, n, gs.Text(), ws.Text())
		}
	}
}

// checkWithObjdump disassembles code and requires of every case that its
// bytes decode to exactly its instructions.
func checkWithObjdump(t *testing.T, code []byte, cs []asmCase, ends []int) {
	bin := filepath.Join(t.TempDir(), "cases.bin")
	if err := os.WriteFile(bin, code, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command("objdump", "-D", "-w", "--no-show-raw-insn", "-b", "binary", "-mi386:x86-64", "-M", "intel", bin).Output()
	if err != nil {
		t.Fatalf("objdump: %v", err)
	}
	at := make(map[int]string) // code offset -> disassembly
	for _, l := range strings.Split(string(out), "\n") {
		var off int
		head, text, ok := strings.Cut(l, ":\t")
		if !ok {
			continue
		}
		if _, err := fmt.Sscanf(strings.TrimSpace(head), "%x", &off); err == nil {
			at[off] = strings.TrimSpace(text)
		}
	}
	start := 0
	for i, c := range cs {
		var got []string
		for off := start; off < ends[i]; off++ {
			if s, ok := at[off]; ok {
				got = append(got, s)
			}
		}
		if strings.Join(got, "; ") != strings.Join(c.want, "; ") {
			t.Errorf("case %d, bytes %x:\n  objdump: %s\n  want:    %s", i, code[start:ends[i]], strings.Join(got, "; "), strings.Join(c.want, "; "))
		}
		start = ends[i]
	}
}

// TestBranchFixups: jcc and patch resolve a rel32 field to the right
// target, and retStatus is the two instructions it says.
func TestBranchFixups(t *testing.T) {
	var a nasm
	f := a.jcc(2) // jb, over the first return
	a.retStatus(7)
	a.patch(f)
	a.retStatus(8)
	want, _ := hex.DecodeString("0f8206000000" + "b807000000" + "c3" + "b808000000" + "c3")
	if !bytes.Equal(a.c, want) || a.n != 5 {
		t.Fatalf("got % x (%d instructions), want % x (5)", a.c, a.n, want)
	}
}

// TestWriteLog: the assembler's register write log, which the emitter's
// check grouping stands on.
func TestWriteLog(t *testing.T) {
	var a nasm
	for r := range a.sym {
		a.def(r)
	}
	s := a.sym
	a.aluI(aluSubExt, rg(hR12), 4)     // sub r12d, 4
	a.lea(hR12, at(hR12, -8))          // lea r12d, [r12-8]
	a.mov(hBP, rg(hR12))               // mov ebp, r12d
	a.lea(hBX, at(hBP, 16))            // lea ebx, [rbp+16]
	a.aluI(aluCmpExt, rg(hR13), 1)     // cmp: no write
	a.aluTo(aluTestMR, rg(hR15), hR15) // test: no write
	a.aluI(aluAndExt, rg(hR9), 0xFF)   // and: a new value
	a.lea(hR10, sib(hR10, hR11, 4, 0)) // two registers: a new value
	a.xchg(hR13, hR15)                 // swaps
	a.movTo(at(hDI, 0), hR11)          // a store writes no register
	a.mov8(hR11, rg(hAX))              // a partial write is a write
	if a.sym[hR12] != s[hR12] || a.off[hR12] != -12 {
		t.Errorf("r12: symbol %d offset %d after sub 4, lea -8", a.sym[hR12], a.off[hR12])
	}
	if a.sym[hBP] != s[hR12] || a.off[hBP] != -12 || a.sym[hBX] != s[hR12] || a.off[hBX] != 4 {
		t.Errorf("copies of r12: ebp (%d,%d) ebx (%d,%d)", a.sym[hBP], a.off[hBP], a.sym[hBX], a.off[hBX])
	}
	if a.sym[hR13] != s[hR15] || a.sym[hR15] != s[hR13] {
		t.Errorf("xchg did not swap symbols")
	}
	for _, r := range []int{hR9, hR10, hR11} {
		if a.sym[r] == s[r] {
			t.Errorf("register %d keeps its symbol across a write", r)
		}
	}
}
