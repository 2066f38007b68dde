//go:build linux

package vm

import (
	"encoding/binary"
	"fmt"
	"syscall"
	"testing"

	"vxa/internal/vm/tier2"
	"vxa/internal/vm/uop"
	"vxa/internal/x86"
)

// The sandbox wall for compiled code. A native trace addresses guest
// memory straight off a host register and proves a run of accesses in
// bounds with one check, so what a wrong check costs is no longer a wrong
// trap but a host memory access: these tests put the guest's address
// space between two PROT_NONE pages — one byte out either way kills the
// test process with a host signal — and aim guests at every edge of the
// sandbox.

// sandboxVM is diffVM with the text page read-only, so that reads and
// writes have different floors, and with its guest memory re-homed
// between two inaccessible pages.
func sandboxVM(t *testing.T, level OptLevel) *VM {
	t.Helper()
	v, err := New(Config{MemSize: 4 << 20, OptLevel: level})
	if err != nil {
		t.Fatal(err)
	}
	size := len(v.mem)
	buf, err := syscall.Mmap(-1, 0, size+2*PageSize, syscall.PROT_NONE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Munmap(buf) })
	v.mem = buf[PageSize : PageSize+size : PageSize+size]
	if err := syscall.Mprotect(v.mem, syscall.PROT_READ|syscall.PROT_WRITE); err != nil {
		t.Fatal(err)
	}
	v.bindTier2()
	if err := v.MapSegment(diffCode, nil, PageSize, true); err != nil {
		t.Fatal(err)
	}
	if err := v.MapSegment(diffData, nil, PageSize, false); err != nil {
		t.Fatal(err)
	}
	return v
}

// sandboxEdges are where a guest's fan can be aimed: the register walks
// towards at-bias and every displacement of the fan has bias added, so
// the addresses cross at. With a bias, crossing the edge is also the
// moment the register itself wraps through zero while the sums stay
// small — the case a 64-bit host sum gets wrong if it is trusted.
var sandboxEdges = []struct{ at, bias uint32 }{
	{PageSize, 0},                 // the guard page, from above
	{2 * PageSize, 0},             // the write floor: end of the read-only text
	{3 * PageSize, 0},             // the heap end
	{4<<20 - DefaultStackSize, 0}, // the stack base, from above
	{4 << 20, 0},                  // the top of memory
	{PageSize, PageSize},          // the guard page, the register wrapping down through zero
	{3 * PageSize, 3 * PageSize},  // the heap end, the register wrapping up through zero
}

// sandboxInput reads a fuzz input byte by byte; an exhausted input reads
// as zeros.
type sandboxInput struct {
	data []byte
}

func (in *sandboxInput) next() int {
	if len(in.data) == 0 {
		return 0
	}
	b := in.data[0]
	in.data = in.data[1:]
	return int(b)
}

// sandboxGuest builds, from a fuzz input, a guest of the directed
// tests' shape (linkLoops: an inner loop that is a trace linked to
// itself, then the payload in a trace linked behind it, EBP outer
// passes) whose payload is a fan of 2–12 memory operands off one
// register — plus, as the input says, an index register, constant moves
// of the base inside the fan, pushes and pops when the base is ESP — and
// which steps the base towards one edge of the sandbox by a constant per
// pass, so that after some tens of passes, when everything is compiled
// and linked, the fan straddles the edge and one of its accesses is the
// first out of bounds. With the gate on, every pass first grows the heap
// through setperm by the same step, so that the edge the fan chases
// moves between the two linked traces.
func sandboxGuest(t *testing.T, data []byte) linkGuest {
	in := &sandboxInput{data: data}
	e := sandboxEdges[in.next()%len(sandboxEdges)]
	edge, bias := e.at-e.bias, int32(e.bias)
	bases := []x86.Reg{x86.ESI, x86.EDI, x86.EBX, x86.ESP}
	base := bases[in.next()%len(bases)]
	idx, scale := x86.NoReg, uint8(1)
	if base != x86.ESP && in.next()%3 == 0 {
		idx, scale = x86.EDX, []uint8{1, 2, 4, 8}[in.next()%4]
	}
	stride := int32(int8(in.next()))
	if stride == 0 {
		stride = 4
	}
	if base == x86.ESP {
		stride &^= 3
		if stride == 0 {
			stride = -4
		}
	}
	gate := in.next()%4 == 0
	passes := 24 + in.next()%24
	idxVal := uint32(in.next() % 64)
	start := edge - uint32(stride*int32(passes)) + uint32(int32(int8(in.next()))) - idxVal*uint32(scale)

	fan := 2 + in.next()%11
	// A reload re-reads the base from a table in the data page in the
	// middle of the fan: a write of the register that is no constant
	// move, after which nothing proved about the old value holds. Every
	// entry is the value the base has anyway, except the third pass from
	// the end's, which is far outside the sandbox.
	reload := 0
	if base != x86.ESP {
		if r := in.next(); r%3 == 0 {
			reload = 1 + r/3%(fan-1)
		}
	}
	const table = 64 // offset of the reload table in the data page
	payload := func(a *t2asm) {
		for k := 0; k < fan; k++ {
			if k == reload && reload != 0 {
				a.op2(x86.MOV, x86.R(base), x86.MSIB(x86.NoReg, x86.EBP, 4, diffData+table, 4))
			}
			disp := bias + int32(int16(in.next()|in.next()<<8))%2100
			m4 := x86.MSIB(base, idx, scale, disp, 4)
			m1 := x86.MSIB(base, idx, scale, disp, 1)
			switch kind := in.next() % 10; {
			case kind == 0:
				a.op2(x86.MOV, x86.R(x86.EAX), m4)
			case kind == 1:
				a.op2(x86.MOV, m4, x86.R(x86.EAX))
			case kind == 2:
				a.emit(x86.Inst{Op: x86.MOVZX, Dst: x86.R(x86.EAX), Src: m1})
			case kind == 3:
				a.op2(x86.MOV, m1, x86.R8(x86.EAX))
			case kind == 4:
				a.op2(x86.ADD, m4, x86.R(x86.EAX))
			case kind == 5:
				a.op2(x86.XOR, x86.R(x86.EAX), m4)
			case kind == 6:
				a.op2(x86.MOV, m4, x86.I(disp))
			case kind == 7 && base == x86.ESP:
				a.emit(x86.Inst{Op: x86.PUSH, Dst: x86.R(x86.EAX)})
				a.emit(x86.Inst{Op: x86.POP, Dst: x86.R(x86.EAX)})
			case kind == 8 && base != x86.ESP:
				// A constant move of the base in the middle of the fan,
				// taken back at once: the operand between addresses the
				// same span through a register that has moved. (By lea:
				// an add's flags would be dead here, the optimizer elides
				// dead flag records, and what the flags are after a fault
				// behind an elided record is the one thing the engines
				// need not agree with the reference on.)
				c := int32(int8(in.next()))
				a.op2(x86.LEA, x86.R(base), x86.MSIB(base, x86.NoReg, 1, c, 4))
				a.op2(x86.MOV, x86.R(x86.EAX), x86.MSIB(base, idx, scale, disp-c, 4))
				a.op2(x86.LEA, x86.R(base), x86.MSIB(base, x86.NoReg, 1, -c, 4))
			default:
				a.emit(x86.Inst{Op: x86.MOVZX, Dst: x86.R(x86.EAX), Src: x86.MSIB(base, idx, scale, disp, 2)})
			}
		}
		a.op2(x86.ADD, x86.R(base), x86.I(stride))
	}
	var code []byte
	if !gate {
		code = linkLoops(t, payload, ud2Tail)
	} else {
		// setperm(heap end, 4) before the inner loop, as in the directed
		// setperm case: EDI walks the heap end up a dword per pass.
		a := &t2asm{t: t, base: diffCode}
		outer := a.cur()
		a.op2(x86.MOV, x86.R(x86.EBX), x86.MSIB(x86.NoReg, x86.NoReg, 1, diffData, 4))
		a.op2(x86.MOV, x86.R(x86.ECX), x86.I(4))
		a.op2(x86.MOV, x86.R(x86.EAX), x86.I(SysSetPerm))
		a.emit(x86.Inst{Op: x86.INT, Dst: x86.I(0x80)})
		a.op2(x86.ADD, x86.MSIB(x86.NoReg, x86.NoReg, 1, diffData, 4), x86.I(4))
		a.op2(x86.MOV, x86.R(x86.ECX), x86.I(3))
		inner := a.cur()
		a.op2(x86.ADD, x86.R(x86.EAX), x86.I(1))
		a.op2(x86.SUB, x86.R(x86.ECX), x86.I(1))
		a.jcc(x86.CCNE, inner)
		if base == x86.EBX {
			// The gate's arguments went through EBX; the fan's base
			// lives in the data page across it.
			a.op2(x86.MOV, x86.R(x86.EBX), x86.MSIB(x86.NoReg, x86.NoReg, 1, diffData+4, 4))
		}
		payload(a)
		if base == x86.EBX {
			a.op2(x86.MOV, x86.MSIB(x86.NoReg, x86.NoReg, 1, diffData+4, 4), x86.R(x86.EBX))
		}
		a.op2(x86.SUB, x86.R(x86.EBP), x86.I(1))
		a.jcc(x86.CCNE, outer)
		a.emit(x86.Inst{Op: x86.UD2})
		code = a.code
	}
	if len(code) > PageSize {
		t.Skip("guest outgrew the code page")
	}
	g := linkGuest{code: code, fuel: 60000,
		regs: map[x86.Reg]uint32{x86.EBP: uint32(passes) + 8, base: start}}
	if idx != x86.NoReg {
		g.regs[idx] = idxVal
	}
	g.data = make([]byte, table+4*(passes+9))
	if gate {
		binary.LittleEndian.PutUint32(g.data, 3*PageSize)
		binary.LittleEndian.PutUint32(g.data[4:], start)
		g.gates = uint64(passes) + 8
	}
	for left := 1; left <= passes+8; left++ { // left is EBP: the passes still to run
		val := start + uint32(stride*int32(passes+8-left))
		if left == 3 {
			val += 0x40000000
		}
		binary.LittleEndian.PutUint32(g.data[table+4*left:], val)
	}
	return g
}

// runSandboxGuest runs g twice on one VM at the given level — the
// second time through whatever the first compiled
// and linked — against the reference interpreter, comparing everything
// runOnce compares plus the bottom stack page the fans can reach.
func runSandboxGuest(t *testing.T, g linkGuest, level OptLevel) {
	v1, v2 := sandboxVM(t, level), sandboxVM(t, OptDefault)
	var seed [8]uint32
	for r := range seed {
		seed[r] = 0x9E3779B9 * uint32(r+1)
	}
	for run := 0; run < 2; run++ {
		err := g.runOnce(t, v1, v2, seed)
		if run == 1 {
			t.Logf("%v, %d of %d instructions in compiled traces", err, v1.stats.Tier2Steps, v1.stats.Steps)
		}
		sameMem(t, v1, v2, v1.stackBase, v1.stackBase+PageSize)
	}
	if _, err := v1.CheckLinks(); err != nil {
		t.Fatal(err)
	}
}

// sandboxSeeds are the directed cases: for each edge a fan that walks
// across it, by base register, with and without an index, a moving base
// and the setperm gate. They seed the fuzzer and run as a plain test in
// every tier leg.
var sandboxSeeds = [][]byte{
	// The heap end: dword loads and stores off ESI, a page-wide fan off
	// EDI under a scaled index, EBX with the heap growing under setperm,
	// and a base that moves inside the fan.
	sandboxSeed(2, x86.ESI, 0, 4, false, 30, 0, 0, 0, op{-8, 0}, op{-4, 1}, op{0, 0}, op{4, 1}),
	sandboxSeed(2, x86.EDI, 4, 8, false, 28, 9, 1, 0, op{-2090, 2}, op{-1500, 4}, op{-700, 5}, op{-4, 3}, op{0, 9}),
	sandboxSeed(2, x86.EBX, 0, 16, true, 30, 0, 100, 0, op{0, 1}, op{4, 0}, op{8, 6}, op{-4, 4}),
	sandboxSeed(2, x86.ESI, 0, 12, false, 26, 0, 0, 0, op{-16, 0}, op{-12, 8, 24}, op{-8, 1}, op{-4, 8, -100}, op{0, 0}),
	// The stack base from above: ESP stepping down with pushes and pops,
	// and EDI reading below itself.
	sandboxSeed(3, x86.ESP, 0, -8, false, 32, 0, 0, 0, op{0, 0}, op{0, 7}, op{4, 1}, op{8, 0}, op{0, 7}),
	sandboxSeed(3, x86.EDI, 0, -4, false, 40, 0, 2, 0, op{12, 0}, op{8, 2}, op{4, 1}, op{0, 0}, op{-4, 0}),
	// The top of memory: a fan of every kind off ESI, ESP popping its way
	// out, a two-register address off EBX.
	sandboxSeed(4, x86.ESI, 0, 16, false, 36, 0, -3, 0, op{-64, 0}, op{-32, 1}, op{-16, 2}, op{-8, 3}, op{-4, 4}, op{-3, 5}, op{-2, 6}, op{-1, 9}, op{0, 0}),
	sandboxSeed(4, x86.ESP, 0, 4, false, 24, 0, -16, 0, op{0, 0}, op{4, 0}, op{8, 1}, op{12, 0}),
	sandboxSeed(4, x86.EBX, 1, 4, false, 30, 63, 0, 0, op{-8, 0}, op{-4, 1}, op{0, 4}),
	// The guard page and the write floor, walking down.
	sandboxSeed(0, x86.EBX, 0, -4, false, 34, 0, 0, 0, op{8, 0}, op{4, 2}, op{0, 5}, op{-4, 9}),
	sandboxSeed(1, x86.ESI, 0, -4, false, 30, 0, 1, 0, op{12, 0}, op{8, 1}, op{4, 4}, op{0, 6}, op{-4, 0}),
	sandboxSeed(1, x86.EDI, 2, -16, false, 25, 20, 0, 0, op{2090, 0}, op{1100, 1}, op{600, 3}, op{4, 0}, op{0, 1}),
	// The base is reloaded in the middle of the fan, and on one late pass
	// with an address far outside: the operands behind the reload are a
	// group of their own, or they run on a check made for another value.
	sandboxSeed(2, x86.ESI, 0, 4, false, 30, 0, -100, 2, op{0, 0}, op{4, 1}, op{8, 0}, op{12, 1}),
	sandboxSeed(4, x86.EBX, 4, 8, false, 26, 5, -120, 1, op{-8, 0}, op{0, 4}, op{8, 2}),
	// The register itself wraps through zero while the addresses stay
	// small: down into the guard page, up over the heap end.
	sandboxSeed(5, x86.ESI, 0, -4, false, 31, 0, 0, 0, op{8, 0}, op{4, 0}, op{0, 2}, op{-4, 0}),
	sandboxSeed(5, x86.EDI, 8, -8, false, 27, 3, 0, 0, op{16, 0}, op{8, 5}, op{0, 0}, op{-8, 9}),
	sandboxSeed(6, x86.EBX, 0, 4, false, 29, 0, -2, 0, op{-8, 0}, op{-4, 1}, op{0, 0}, op{4, 4}),
	sandboxSeed(6, x86.ESI, 0, 16, true, 33, 0, 100, 0, op{-8, 1}, op{0, 0}, op{8, 1}),
}

// op is one operand of a directed fan: its displacement before the
// edge's bias, its kind as sandboxGuest numbers them, and kind 8's
// constant.
type op []int

// sandboxSeed spells a directed case as the input bytes sandboxGuest
// reads: the edge's index, the base register, an index scale (0: none),
// the step per pass, the gate, the passes before the base reaches the
// edge, the index register's value, a jitter on the start, the operand
// before which the base is reloaded (0: never), the fan.
func sandboxSeed(edge int, base x86.Reg, scale int, stride int8, gate bool, passes, idxVal int, jitter int8, reload int, fan ...op) []byte {
	b := []byte{byte(edge), map[x86.Reg]byte{x86.ESI: 0, x86.EDI: 1, x86.EBX: 2, x86.ESP: 3}[base]}
	switch {
	case base == x86.ESP:
	case scale == 0:
		b = append(b, 1)
	default:
		b = append(b, 0, map[int]byte{1: 0, 2: 1, 4: 2, 8: 3}[scale])
	}
	g := byte(1)
	if gate {
		g = 0
	}
	b = append(b, byte(stride), g, byte(passes-24), byte(idxVal), byte(jitter), byte(len(fan)-2))
	if base != x86.ESP {
		if reload == 0 {
			b = append(b, 1)
		} else {
			b = append(b, byte(3*(reload-1)))
		}
	}
	for _, o := range fan {
		b = append(b, byte(o[0]), byte(uint16(o[0])>>8), byte(o[1]))
		if o[1] == 8 {
			b = append(b, byte(o[2]))
		}
	}
	return b
}

// TestTier2SandboxDirected runs the directed cases under every tier
// configuration.
func TestTier2SandboxDirected(t *testing.T) {
	forTier2Legs(t, func(t *testing.T, level OptLevel) {
		for i, data := range sandboxSeeds {
			i, data := i, data
			t.Run(fmt.Sprint(i), func(t *testing.T) { runSandboxGuest(t, sandboxGuest(t, data), level) })
		}
	})
}

// FuzzTier2Sandbox: whatever guest the input describes, every superblock
// compiled natively on first entry answers exactly as the reference
// interpreter does — trap kind, EIP and address, registers, flags, heap
// and stack contents, Steps and fuel left — and never touches a byte
// outside the guest's address space.
func FuzzTier2Sandbox(f *testing.F) {
	for _, s := range sandboxSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runSandboxGuest(t, sandboxGuest(t, data), OptEager)
	})
}

// resumeSite is one resume exit of a compiled trace: the micro-op whose
// group check it stands behind, and the trace's length.
type resumeSite struct {
	uop, n int
	kind   uop.Kind
}

// resumeSites lists the resume exits of every trace v holds.
func resumeSites(v *VM) []resumeSite {
	var sites []resumeSite
	for _, br := range v.blocks {
		sb := br.sb
		if sb == nil || sb.t2 == nil {
			continue
		}
		for _, x := range sb.t2.Exits {
			if x.Kind == tier2.ExitResume {
				sites = append(sites, resumeSite{x.Uop, len(sb.b.uops), sb.b.uops[x.Uop].Kind})
			}
		}
	}
	return sites
}

// TestTier2ResumeDirected: a check that covers a group of memory
// operands fails, the trace leaves with the micro-op it guards and
// everything behind it unexecuted and refunded, and tier 1 runs the rest
// of the superblock — to the fault the reference engine raises, at its
// EIP and address and with its registers, flags, memory, Steps and fuel,
// or to the end of the pass when the check was only stricter than the
// accesses, and on into the next trace. Every guest is linkLoops' shape,
// so the trace that resumes was entered through a link slot and
// Machine.Cur is all that says whose micro-ops to resume. The text page
// is read-only here, so reads and writes have different floors.
func TestTier2ResumeDirected(t *testing.T) {
	const P = PageSize
	// ESI walks up to the heap end a dword per outer pass: the last pass's
	// access is the first out of bounds.
	edge := uint32(3*P) - 4*(linkOuter-1)
	esi := x86.MSIB(x86.ESI, x86.NoReg, 1, 0, 4)
	anywhere := func(resumeSite) bool { return true }
	var callF func(uint32)
	cases := []struct {
		name string
		g    linkGuest
		// site is what every resume exit of the guest's traces satisfies.
		site func(resumeSite) bool
	}{
		{"first micro-op", linkGuest{
			code: linkLoops(t, func(a *t2asm) {
				a.op2(x86.MOV, x86.R(x86.EBX), esi)
				a.op2(x86.ADD, x86.R(x86.ESI), x86.I(4))
			}, ud2Tail),
			regs: map[x86.Reg]uint32{x86.EBP: linkOuter, x86.ESI: edge}, resumes: 1,
		}, func(s resumeSite) bool { return s.uop == 0 }},
		{"middle micro-op", linkGuest{
			// (By lea and mov: the flags of an add here would be dead, the
			// optimizer elides dead flag records on every tier, and what
			// the flags are after a fault behind an elided record is the
			// one thing no engine owes the reference.)
			code: linkLoops(t, func(a *t2asm) {
				a.op2(x86.LEA, x86.R(x86.EBX), x86.MSIB(x86.EBX, x86.EAX, 1, 3, 4))
				a.op2(x86.MOV, x86.R(x86.EDX), x86.R(x86.EBX))
				a.op2(x86.MOV, esi, x86.R(x86.EDX))
				a.op2(x86.ADD, x86.R(x86.ESI), x86.I(4))
			}, ud2Tail),
			regs: map[x86.Reg]uint32{x86.EBP: linkOuter, x86.ESI: edge}, resumes: 1,
		}, func(s resumeSite) bool { return s.uop > 0 && s.uop < s.n-1 }},
		{"last micro-op", func() linkGuest {
			// The payload ends its trace by jumping through a table in the
			// data page, every entry of which is the next instruction; the
			// last pass reads the entry behind the heap's end. (The direct
			// jump makes the path two blocks: one is not promoted.)
			var cont uint32
			code := linkLoops(t, func(a *t2asm) {
				a.op2(x86.MOV, x86.R(x86.EDX), x86.R(x86.ESI))
				a.jmp(a.cur() + 5)
				a.op2(x86.ADD, x86.R(x86.ESI), x86.I(4))
				a.emit(x86.Inst{Op: x86.JMPM, Dst: x86.MSIB(x86.EDX, x86.NoReg, 1, 0, 4)})
				cont = a.cur()
			}, ud2Tail)
			data := make([]byte, P)
			for off := 0; off < P; off += 4 {
				binary.LittleEndian.PutUint32(data[off:], cont)
			}
			return linkGuest{code: code, data: data,
				regs: map[x86.Reg]uint32{x86.EBP: linkOuter, x86.ESI: edge}, resumes: 1}
		}(), func(s resumeSite) bool { return s.uop == s.n-1 && s.kind == uop.KindJmpM }},
		{"fused load-op", linkGuest{
			code: linkLoops(t, func(a *t2asm) {
				a.op2(x86.MOV, x86.R(x86.EDX), esi)
				a.op2(x86.ADD, x86.R(x86.EBX), x86.R(x86.EDX))
				a.op2(x86.ADD, x86.R(x86.ESI), x86.I(4))
			}, ud2Tail),
			regs: map[x86.Reg]uint32{x86.EBP: linkOuter, x86.ESI: edge}, resumes: 1,
		}, func(s resumeSite) bool { return s.kind == uop.KindLoadAluRR || s.kind == uop.KindLoadAluRRNF }},
		{"push and call at the stack's base", linkGuest{
			// Every pass leaves a dword on the stack, and ESP comes down to
			// the stack's base: on the last pass the push has room and the
			// call's return address, under the same check, does not.
			code: linkLoops(t, func(a *t2asm) {
				a.emit(x86.Inst{Op: x86.PUSH, Dst: x86.R(x86.EAX)})
				callF = a.branch(x86.Inst{Op: x86.CALL})
			}, func(a *t2asm) {
				a.emit(x86.Inst{Op: x86.UD2})
				callF(a.cur())
				a.emit(x86.Inst{Op: x86.RET})
			}),
			regs: map[x86.Reg]uint32{x86.EBP: linkOuter + 8,
				x86.ESP: 4<<20 - DefaultStackSize + 4 + 4*(linkOuter-1)}, resumes: 1,
		}, anywhere},
		{"spurious: a read shares the write floor", linkGuest{
			// One check for the read of the text page's last dword and the
			// write of the data page's second: it asks for the write floor
			// under both, and fails on every pass; neither access does.
			code: linkLoops(t, func(a *t2asm) {
				a.op2(x86.MOV, x86.R(x86.EAX), x86.MSIB(x86.ESI, x86.NoReg, 1, -8, 4))
				a.op2(x86.MOV, x86.MSIB(x86.ESI, x86.NoReg, 1, 4, 4), x86.R(x86.EBX))
				a.op2(x86.ADD, x86.R(x86.EBX), x86.R(x86.EAX))
			}, ud2Tail),
			regs: map[x86.Reg]uint32{x86.EBP: linkOuter, x86.ESI: 2*P + 4}, resumes: linkOuter - 1,
		}, anywhere},
		{"spurious: the operand out of bounds is behind a guard", linkGuest{
			// Two loads off ESI half a page apart share a check. ESI walks
			// up; on the last eight passes the far load would be past the
			// heap's end, and on exactly those the branch between the two
			// skips it.
			code: linkLoops(t, func(a *t2asm) {
				a.op2(x86.MOV, x86.R(x86.EAX), esi)
				a.op2(x86.CMP, x86.R(x86.EBP), x86.I(8))
				over := a.branch(x86.Inst{Op: x86.JCC, CC: x86.CCBE})
				a.op2(x86.MOV, x86.R(x86.EBX), x86.MSIB(x86.ESI, x86.NoReg, 1, 0x800, 4))
				over(a.cur())
				a.op2(x86.ADD, x86.R(x86.ESI), x86.I(4))
			}, ud2Tail),
			regs: map[x86.Reg]uint32{x86.EBP: linkOuter, x86.ESI: 3*P - 0x804 - 4*(linkOuter-9)}, resumes: 8,
		}, anywhere},
		{"constant addresses either side of the write floor", linkGuest{
			// A read of the text page's last dword and a write of the data
			// page's third, both at constant addresses a page apart at
			// most: the read must not ride on the writer's check, which it
			// could never pass. Nothing fails, so nothing resumes.
			code: linkLoops(t, func(a *t2asm) {
				a.op2(x86.MOV, x86.R(x86.EAX), x86.MSIB(x86.NoReg, x86.NoReg, 1, 2*P-4, 4))
				a.op2(x86.MOV, x86.MSIB(x86.NoReg, x86.NoReg, 1, 2*P+8, 4), x86.R(x86.EBX))
				a.op2(x86.ADD, x86.R(x86.EBX), x86.R(x86.EAX))
			}, ud2Tail),
			regs: map[x86.Reg]uint32{x86.EBP: linkOuter}, noResume: true,
		}, anywhere},
	}
	for _, c := range cases {
		c := c
		c.g.fuel = 60000
		t.Run(c.name, func(t *testing.T) {
			c.g.runLinkedOn(t, func(t *testing.T, level OptLevel) *VM {
				v := sandboxVM(t, level)
				if level == OptEager && nativeTier2() {
					t.Cleanup(func() {
						sites := resumeSites(v)
						if len(sites) == 0 {
							t.Error("no trace of the guest has a resume exit")
						}
						for _, s := range sites {
							if !c.site(s) {
								t.Errorf("a resume exit at micro-op %d (%v) of %d", s.uop, s.kind, s.n)
							}
						}
					})
				}
				return v
			})
		})
	}
}

// TestTier2ResumeFuelSweep runs a guest whose every compiled pass fails
// its group check and is finished on tier 1 under each fuel budget of a
// window wider than its traces, so that the fuel runs out at every
// instruction before, at and behind the check: the fuel trap's EIP and
// everything else is the reference walk's. (A trace entry declines unless
// the budget covers the whole pass, and a resume refunds the part it
// hands over, so the tail itself never runs dry: the budgets that end
// inside it never enter the trace.)
func TestTier2ResumeFuelSweep(t *testing.T) {
	g := linkGuest{
		code: linkLoops(t, func(a *t2asm) {
			a.op2(x86.ADD, x86.R(x86.EBX), x86.R(x86.EAX))
			a.op2(x86.MOV, x86.R(x86.EAX), x86.MSIB(x86.ESI, x86.NoReg, 1, -8, 4))
			a.op2(x86.MOV, x86.MSIB(x86.ESI, x86.NoReg, 1, 4, 4), x86.R(x86.EBX))
			a.op2(x86.XOR, x86.R(x86.EDX), x86.R(x86.EAX))
		}, ud2Tail),
		regs: map[x86.Reg]uint32{x86.EBP: linkOuter, x86.ESI: 2*PageSize + 4},
	}
	forTier2Legs(t, func(t *testing.T, level OptLevel) {
		v1, v2 := sandboxVM(t, level), sandboxVM(t, OptDefault)
		var seed [8]uint32
		g.fuel = 60000
		for run := 0; run < linkRuns; run++ { // warm: everything compiled and linked
			g.runOnce(t, v1, v2, seed)
		}
		before := v1.Stats().Tier2Resumes
		for g.fuel = 5000; g.fuel < 5064; g.fuel++ {
			if tr := g.runOnce(t, v1, v2, seed).(*Trap); tr.Kind != TrapFuel {
				t.Fatalf("fuel %d: %v, want fuel exhaustion", g.fuel, tr)
			}
		}
		if level == OptEager && nativeTier2() && v1.Stats().Tier2Resumes-before < 64*100 {
			t.Fatalf("%d passes resumed over the sweep: the guest's check does not fail", v1.Stats().Tier2Resumes-before)
		}
	})
}
