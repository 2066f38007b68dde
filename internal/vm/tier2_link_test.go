package vm

// The wall for linked traces. Compiled traces reach one another through
// per-VM link slots without coming back to the dispatcher, so a run that
// stops — a fault, a divide error, ud2, fuel running out, a cancellation
// — usually stops in a trace the dispatcher never entered. Every case
// here drives a hand-assembled guest whose failure lands inside such a
// linked-into trace and requires the reference engine's answer to the
// last bit: trap kind, EIP and address, registers, the five flags, the
// data page, Steps and the fuel left.
//
// Each program is run many times over on ONE VM, rewinding the guest's
// state between runs and keeping the VM's translation state: blocks
// heat, superblocks form, traces compile and link as the runs go by, so
// the early runs cover the dispatcher's paths and the late ones run
// through links from the first instruction.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"vxa/internal/x86"
)

// branch emits a direct branch and returns the function that points it
// at its target, so forward references read in program order.
func (a *t2asm) branch(inst x86.Inst) func(target uint32) {
	a.emit(inst)
	end := a.cur()
	return func(target uint32) { a.patchRel32(end, target) }
}

func (a *t2asm) jcc(cc x86.CC, target uint32) { a.branch(x86.Inst{Op: x86.JCC, CC: cc})(target) }
func (a *t2asm) jmp(target uint32)            { a.branch(x86.Inst{Op: x86.JMP})(target) }

func (a *t2asm) op2(op x86.Op, dst, src x86.Arg) { a.emit(x86.Inst{Op: op, Dst: dst, Src: src}) }

// linkGuest is one directed program: its code, the registers it starts
// with (the rest are seeded identically on both engines) and the fuel
// each run gets.
type linkGuest struct {
	code []byte
	regs map[x86.Reg]uint32
	data []byte // initial contents of the data page
	fuel int64
	// gates is how many times per run the guest goes through the
	// syscall gate, which always returns to the dispatcher.
	gates uint64
	// resumes is how many trace passes of a run, at least, stop at a
	// failed group check and are finished on tier 1, once everything is
	// compiled; noResume says that none does.
	resumes  uint64
	noResume bool
}

// rewind puts v's guest state at the program start, keeping whatever the
// VM has translated, compiled and linked.
func (g *linkGuest) rewind(v *VM, seed [8]uint32) {
	copy(v.m.Regs[:8], seed[:])
	v.m.Regs[x86.ESP] = v.MemSize() - 16
	for r, val := range g.regs {
		v.m.Regs[r] = val
	}
	v.m.CF, v.m.ZF, v.m.SF, v.m.OF, v.m.PF = false, true, false, true, false
	v.m.Fl.Op = 0
	clear(v.mem[diffData : diffData+PageSize])
	copy(v.mem[diffData:], g.data)
	copy(v.mem[diffCode:], g.code)
	v.m.Brk = 3 * PageSize
	v.m.Fuel = g.fuel
	v.eip = diffCode
}

// runOnce runs the rewound guest on v1 (the engine under test) and v2
// (the reference interpreter) and compares everything a run leaves. It
// returns v1's error.
func (g *linkGuest) runOnce(t *testing.T, v1, v2 *VM, seed [8]uint32) error {
	t.Helper()
	g.rewind(v1, seed)
	g.rewind(v2, seed)
	steps0 := v1.stats.Steps
	br, err := v1.lookupBlock(diffCode)
	if err != nil {
		t.Fatal(err)
	}
	err1 := v1.execUops(br)
	v1.materializeFlags()
	steps := v1.stats.Steps - steps0

	refSteps, err2 := refRun(v2, int(g.fuel))
	tr1, ok := err1.(*Trap)
	if !ok {
		t.Fatalf("engine did not trap: %v", err1)
	}
	if tr2, ok := err2.(*Trap); ok {
		// The reference stopped at a trap of its own; the trapping
		// instruction was charged, which refRun does not count.
		if tr1.Kind != tr2.Kind || tr1.EIP != tr2.EIP || tr1.Addr != tr2.Addr {
			t.Fatalf("trap %v, reference %v", tr1, tr2)
		}
		if steps != uint64(refSteps)+1 {
			t.Fatalf("%d steps, reference %d+1", steps, refSteps)
		}
	} else {
		// The reference ran its whole budget: the engine must report fuel
		// exhaustion at the instruction the reference was about to run.
		if tr1.Kind != TrapFuel || tr1.EIP != v2.eip {
			t.Fatalf("trap %v, reference out of fuel at %#x", tr1, v2.eip)
		}
		if steps != uint64(g.fuel) {
			t.Fatalf("%d steps on %d fuel", steps, g.fuel)
		}
	}
	if want := g.fuel - int64(steps); v1.m.Fuel != want {
		t.Fatalf("fuel left %d, want %d", v1.m.Fuel, want)
	}
	for r := 0; r < 8; r++ {
		if v1.m.Regs[r] != v2.m.Regs[r] {
			t.Fatalf("%s = %#x, reference %#x", x86.Reg(r), v1.m.Regs[r], v2.m.Regs[r])
		}
	}
	f1 := [5]bool{v1.m.CF, v1.m.ZF, v1.m.SF, v1.m.OF, v1.m.PF}
	f2 := [5]bool{v2.m.CF, v2.m.ZF, v2.m.SF, v2.m.OF, v2.m.PF}
	if f1 != f2 {
		t.Fatalf("flags CF/ZF/SF/OF/PF %v, reference %v", f1, f2)
	}
	if v1.m.Brk != v2.m.Brk {
		t.Fatalf("brk %#x, reference %#x", v1.m.Brk, v2.m.Brk)
	}
	top := max(v1.m.Brk, 3*PageSize)
	sameMem(t, v1, v2, diffData, top)
	sameMem(t, v1, v2, v1.stackBase, v1.stackBase+PageSize)
	sameMem(t, v1, v2, v1.MemSize()-PageSize, v1.MemSize())
	return err1
}

// sameMem requires guest memory [from, to) of v1 to equal the reference's.
func sameMem(t *testing.T, v1, v2 *VM, from, to uint32) {
	t.Helper()
	if bytes.Equal(v1.mem[from:to], v2.mem[from:to]) {
		return
	}
	for a := from; a < to; a++ {
		if v1.mem[a] != v2.mem[a] {
			t.Fatalf("guest memory differs at %#x: %#x, reference %#x", a, v1.mem[a], v2.mem[a])
		}
	}
}

// linkRuns is how many times a directed guest runs on its one VM: enough
// for a block entered once per run to heat into a superblock.
const linkRuns = sbHotThreshold + 8

// runLinked runs g linkRuns times on one VM per tier leg, comparing
// every run with the reference, and requires of the eager leg that the
// last run really went from trace to trace: links exist, they satisfy the
// table's invariant, and compiled code came back to the dispatcher a
// small fraction of the times a trace pass started, the gate and the
// resumes the guest declares aside. No run spans a poll quantum, so every
// other return is an unlinked exit and, links being permanent, belongs
// to the early passes: the final pass, which holds the failure, was
// entered through a link.
func (g *linkGuest) runLinked(t *testing.T) { g.runLinkedOn(t, diffVMAt) }

// runLinkedOn is runLinked on the VMs newVM builds.
func (g *linkGuest) runLinkedOn(t *testing.T, newVM func(*testing.T, OptLevel) *VM) {
	if g.fuel >= cancelQuantum {
		t.Fatal("a directed guest must fit one poll quantum")
	}
	forTier2Legs(t, func(t *testing.T, level OptLevel) {
		v1, v2 := newVM(t, level), newVM(t, OptDefault)
		var seed [8]uint32
		for r := range seed {
			seed[r] = 0x9E3779B9 * uint32(r+1)
		}
		var before Stats
		for run := 0; run < linkRuns; run++ {
			before = v1.Stats()
			g.runOnce(t, v1, v2, seed)
		}
		if level != OptEager || !nativeTier2() {
			return
		}
		if _, err := v1.CheckLinks(); err != nil {
			t.Fatal(err)
		}
		st := v1.Stats()
		passes, exits := st.Tier2Executed-before.Tier2Executed, st.Tier2Exits-before.Tier2Exits
		resumed := st.Tier2Resumes - before.Tier2Resumes
		if st.Tier2Links == 0 || passes < 100 || (int64(exits)-int64(g.gates)-int64(resumed))*10 > int64(passes) {
			t.Fatalf("last run: %d trace passes, %d returns to the dispatcher, %d exits linked in all: the failure did not land in a linked-into trace",
				passes, exits, st.Tier2Links)
		}
		if resumed < g.resumes || g.noResume && resumed != 0 {
			t.Fatalf("last run: %d trace passes finished on tier 1 behind a failed group check, want at least %d (none: %v)", resumed, g.resumes, g.noResume)
		}
	})
}

// nativeTier2 reports whether tier 2 has an emitter for this platform.
func nativeTier2() bool { return runtime.GOOS == "linux" && runtime.GOARCH == "amd64" }

// Register roles of the directed guests. EBP counts outer passes down,
// ECX the inner loop; ESI and EDI steer the payload toward its failure
// on the last outer pass; EAX/EBX/EDX are the payload's to clobber.
const linkOuter = 600

// linkLoops assembles the shape every directed guest shares:
//
//	OUTER: mov ecx, 3
//	A:     add eax, 1 ; sub ecx, 1 ; jnz A      — a loop in one block
//	C:     <payload>
//	       sub ebp, 1 ; jnz OUTER
//	       <tail>
//
// A compiles to a trace linked to itself through its conditional back
// edge, C and what follows it to a trace entered from A's fall-through
// exit: the payload runs in a linked-into trace from the moment both
// exist.
func linkLoops(t *testing.T, payload, tail func(a *t2asm)) []byte {
	a := &t2asm{t: t, base: diffCode}
	outer := a.cur()
	a.op2(x86.MOV, x86.R(x86.ECX), x86.I(3))
	inner := a.cur()
	a.op2(x86.ADD, x86.R(x86.EAX), x86.I(1))
	a.op2(x86.SUB, x86.R(x86.ECX), x86.I(1))
	a.jcc(x86.CCNE, inner)
	payload(a)
	a.op2(x86.SUB, x86.R(x86.EBP), x86.I(1))
	a.jcc(x86.CCNE, outer)
	tail(a)
	if len(a.code) > PageSize {
		t.Fatal("directed guest outgrew the code page")
	}
	return a.code
}

func ud2Tail(a *t2asm) { a.emit(x86.Inst{Op: x86.UD2}) }

// TestDiffLinkedTraceTraps: the failure lands inside a trace that was
// entered through a link.
func TestDiffLinkedTraceTraps(t *testing.T) {
	const fuel = 60000
	// ESI walks up to the heap limit a dword per outer pass: the access on
	// the last pass is the first one out of bounds.
	edge := uint32(3*PageSize) - 4*(linkOuter-1)
	mem := x86.MSIB(x86.ESI, x86.NoReg, 1, 0, 4)
	cases := []struct {
		name string
		g    linkGuest
	}{
		{"read-fault", linkGuest{
			code: linkLoops(t, func(a *t2asm) {
				a.op2(x86.MOV, x86.R(x86.EBX), mem)
				a.op2(x86.ADD, x86.R(x86.ESI), x86.I(4))
			}, ud2Tail),
			regs:    map[x86.Reg]uint32{x86.EBP: linkOuter, x86.ESI: edge},
			resumes: 1,
		}},
		{"write-fault", linkGuest{
			code: linkLoops(t, func(a *t2asm) {
				a.op2(x86.MOV, mem, x86.R(x86.EAX))
				a.op2(x86.ADD, x86.R(x86.ESI), x86.I(4))
			}, ud2Tail),
			regs:    map[x86.Reg]uint32{x86.EBP: linkOuter, x86.ESI: edge},
			resumes: 1,
		}},
		{"divide", linkGuest{
			// EDI counts down to zero: the last pass divides by it.
			code: linkLoops(t, func(a *t2asm) {
				a.op2(x86.MOV, x86.R(x86.EAX), x86.I(1000))
				a.emit(x86.Inst{Op: x86.CDQ})
				a.emit(x86.Inst{Op: x86.DIV, Dst: x86.R(x86.EDI)})
				a.op2(x86.SUB, x86.R(x86.EDI), x86.I(1))
			}, ud2Tail),
			regs: map[x86.Reg]uint32{x86.EBP: linkOuter, x86.EDI: linkOuter - 1},
		}},
		{"divide-overflow", linkGuest{
			// EDX:EAX / EDI with EDX = EDI on the last pass: the quotient
			// does not fit.
			code: linkLoops(t, func(a *t2asm) {
				a.op2(x86.MOV, x86.R(x86.EAX), x86.I(7))
				a.op2(x86.MOV, x86.R(x86.EDX), x86.R(x86.EBX))
				a.emit(x86.Inst{Op: x86.DIV, Dst: x86.R(x86.EDI)})
				a.op2(x86.ADD, x86.R(x86.EBX), x86.I(1))
			}, ud2Tail),
			regs: map[x86.Reg]uint32{x86.EBP: linkOuter, x86.EDI: linkOuter - 1, x86.EBX: 0},
		}},
		{"ud2", linkGuest{
			// The loop's exit path is two blocks ending in ud2: entered
			// once per run it heats over the runs, compiles, and the
			// loop's exit guard is linked to it.
			code: linkLoops(t, func(a *t2asm) {
				a.op2(x86.XOR, x86.R(x86.EBX), x86.R(x86.EAX))
			}, func(a *t2asm) {
				a.op2(x86.ADD, x86.R(x86.EBX), x86.I(5))
				next := a.branch(x86.Inst{Op: x86.JMP})
				a.emit(x86.Inst{Op: x86.HLT}) // never reached
				next(a.cur())
				a.op2(x86.SUB, x86.R(x86.EBX), x86.I(3))
				a.emit(x86.Inst{Op: x86.UD2})
			}),
			regs: map[x86.Reg]uint32{x86.EBP: linkOuter},
		}},
		{"setperm", linkGuest{
			// Every pass but the last grows the heap by a dword through
			// the setperm gate, runs the inner loop — a linked trace —
			// and only then stores to the new dword, in the trace linked
			// behind it: that trace must see the heap limit the gate
			// moved. The last pass asks for nothing and its store's check
			// fails: tier 1 finishes the pass, on the fault.
			code: func() []byte {
				a := &t2asm{t: t, base: diffCode}
				outer := a.cur()
				a.op2(x86.XOR, x86.R(x86.ECX), x86.R(x86.ECX))
				a.op2(x86.CMP, x86.R(x86.EBP), x86.I(1))
				a.emit(x86.Inst{Op: x86.SETCC, CC: x86.CCNE, Dst: x86.R8(x86.ECX)})
				a.emit(x86.Inst{Op: x86.SHL, Dst: x86.R(x86.ECX), Src: x86.Arg{Kind: x86.KindImm, Imm: 2, Size: 1}})
				a.op2(x86.MOV, x86.R(x86.EBX), x86.R(x86.ESI))
				a.op2(x86.MOV, x86.R(x86.EAX), x86.I(SysSetPerm))
				a.emit(x86.Inst{Op: x86.INT, Dst: x86.I(0x80)})
				a.op2(x86.MOV, x86.R(x86.ECX), x86.I(3))
				inner := a.cur()
				a.op2(x86.ADD, x86.R(x86.EDX), x86.I(1))
				a.op2(x86.SUB, x86.R(x86.ECX), x86.I(1))
				a.jcc(x86.CCNE, inner)
				a.op2(x86.MOV, mem, x86.R(x86.EDX))
				a.op2(x86.ADD, x86.R(x86.ESI), x86.I(4))
				a.op2(x86.SUB, x86.R(x86.EBP), x86.I(1))
				a.jcc(x86.CCNE, outer)
				a.emit(x86.Inst{Op: x86.UD2})
				return a.code
			}(),
			regs:    map[x86.Reg]uint32{x86.EBP: linkOuter, x86.ESI: 3 * PageSize},
			gates:   linkOuter,
			resumes: 1,
		}},
	}
	for _, c := range cases {
		c := c
		c.g.fuel = fuel
		t.Run(c.name, func(t *testing.T) { c.g.runLinked(t) })
	}
}

// TestDiffLinkedRetGuardSecondTarget: a return guard's slot is a
// one-entry inline cache. The callee rewrites its own return address
// from a table that wanders between the call's fall-through and two
// other landing pads, so a guard inlined after the call misses to a
// first target, is linked to it, then sees a second one — and goes back
// and forth — with every transfer matching the reference.
func TestDiffLinkedRetGuardSecondTarget(t *testing.T) {
	a := &t2asm{t: t, base: diffCode}
	outer := a.cur()
	a.op2(x86.MOV, x86.R(x86.EDI), x86.R(x86.EBP))
	a.op2(x86.AND, x86.R(x86.EDI), x86.I(7))
	a.op2(x86.MOV, x86.R(x86.ESI), x86.MSIB(x86.NoReg, x86.EDI, 4, diffData, 4))
	a.jmp(a.cur() + 5) // closes the block, so the loop's back edge ends the trace
	callF := a.branch(x86.Inst{Op: x86.CALL})
	back := a.cur() // the call's own return address
	a.op2(x86.ADD, x86.R(x86.EAX), x86.I(1))
	a.op2(x86.SUB, x86.R(x86.EBP), x86.I(1))
	a.jcc(x86.CCNE, outer)
	a.emit(x86.Inst{Op: x86.UD2})
	pad1 := a.cur()
	a.op2(x86.ADD, x86.R(x86.EBX), x86.I(0x10))
	a.jmp(back)
	pad2 := a.cur()
	a.op2(x86.XOR, x86.R(x86.EBX), x86.I(0x55))
	a.jmp(back)
	callF(a.cur())
	a.op2(x86.ADD, x86.R(x86.EDX), x86.I(1))
	a.op2(x86.MOV, x86.MSIB(x86.ESP, x86.NoReg, 1, 0, 4), x86.R(x86.ESI))
	a.emit(x86.Inst{Op: x86.RET})

	// Each landing pad's trace inlines its own copy of the call and the
	// guard, so a guard only ever sees what follows its pad: the pattern
	// must send two different targets after the same one.
	table := make([]byte, 32)
	for i, target := range []uint32{back, pad1, pad2, pad2, pad1, back, pad2, pad1} {
		binary.LittleEndian.PutUint32(table[4*i:], target)
	}
	g := linkGuest{code: a.code, data: table, fuel: 60000,
		regs: map[x86.Reg]uint32{x86.EBP: 4 * linkOuter}}
	forTier2Legs(t, func(t *testing.T, level OptLevel) {
		v1, v2 := diffVMAt(t, level), diffVM(t)
		seed := [8]uint32{1, 2, 3, 4, 5, 6, 7, 8}
		for run := 0; run < linkRuns; run++ {
			g.runOnce(t, v1, v2, seed)
		}
		if level != OptEager || !nativeTier2() {
			return
		}
		if _, err := v1.CheckLinks(); err != nil {
			t.Fatal(err)
		}
		// The guard's cache is re-linked every time the target
		// changes: far more links than the handful of static edges.
		if st := v1.Stats(); st.Tier2Links < linkOuter {
			t.Fatalf("%d exits linked: the return guard's slot never saw a second target", st.Tier2Links)
		}
	})
}

// TestDiffLinkedFuelSweep runs one linked loop under every fuel budget
// in a window wider than its longest trace, so the budget runs out at
// every position of a pass: exactly at a linked entry (the entry
// declines and the reference walk traps on the trace's first
// instruction), one instruction after it, and at each one further in.
func TestDiffLinkedFuelSweep(t *testing.T) {
	g := linkGuest{
		code: linkLoops(t, func(a *t2asm) {
			a.op2(x86.ADD, x86.R(x86.EBX), x86.R(x86.EAX))
			a.op2(x86.MOV, x86.MSIB(x86.NoReg, x86.NoReg, 1, diffData+8, 4), x86.R(x86.EBX))
		}, ud2Tail),
		regs: map[x86.Reg]uint32{x86.EBP: linkOuter},
	}
	forTier2Legs(t, func(t *testing.T, level OptLevel) {
		v1, v2 := diffVMAt(t, level), diffVM(t)
		var seed [8]uint32
		g.fuel = 60000
		for run := 0; run < linkRuns; run++ { // warm: everything linked
			g.runOnce(t, v1, v2, seed)
		}
		for g.fuel = 5000; g.fuel < 5064; g.fuel++ {
			if tr := g.runOnce(t, v1, v2, seed).(*Trap); tr.Kind != TrapFuel {
				t.Fatalf("fuel %d: %v, want fuel exhaustion", g.fuel, tr)
			}
		}
		if level == OptEager && nativeTier2() && v1.Stats().Tier2Links == 0 {
			t.Fatal("nothing was linked")
		}
	})
}

// TestSingleBlockLoopCompiles pins engine rule (b): a counted loop that
// is one basic block closed by a conditional branch to its own start
// forms a one-block trace, compiles, and then spins in compiled code —
// where it used to stay on the interpreter however hot it ran.
func TestSingleBlockLoopCompiles(t *testing.T) {
	a := &t2asm{t: t, base: diffCode}
	top := a.cur()
	a.op2(x86.ADD, x86.R(x86.EAX), x86.R(x86.ECX))
	a.op2(x86.XOR, x86.R(x86.EBX), x86.R(x86.EAX))
	a.op2(x86.SUB, x86.R(x86.ECX), x86.I(1))
	a.jcc(x86.CCNE, top)
	a.emit(x86.Inst{Op: x86.UD2})
	g := linkGuest{code: a.code, fuel: 60000, regs: map[x86.Reg]uint32{x86.ECX: 10000}}

	v1, v2 := diffVMAt(t, OptEager), diffVM(t)
	g.runOnce(t, v1, v2, [8]uint32{})
	st := v1.Stats()
	if st.SuperblocksFormed != 1 {
		t.Fatalf("%d superblocks formed, want the loop's one", st.SuperblocksFormed)
	}
	if !nativeTier2() {
		t.Skip("no tier-2 emitter for this host")
	}
	if share := float64(st.Tier2Steps) / float64(st.Steps); share < 0.99 {
		t.Fatalf("%.4f of %d instructions ran in compiled traces, want >= 0.99", share, st.Steps)
	}

	// No other one-block shape is promoted: a fragment that ends where
	// no trace can grow stays a plain block however often it runs.
	b := &t2asm{t: t, base: diffCode}
	b.op2(x86.ADD, x86.R(x86.EAX), x86.R(x86.ECX))
	b.op2(x86.SUB, x86.R(x86.ECX), x86.I(1))
	b.emit(x86.Inst{Op: x86.UD2})
	v3 := diffVM(t)
	g2 := linkGuest{code: b.code, fuel: 1000, regs: map[x86.Reg]uint32{x86.ECX: 5}}
	for run := 0; run < linkRuns; run++ {
		g2.runOnce(t, v3, v2, [8]uint32{})
	}
	if n := v3.Stats().SuperblocksFormed; n != 0 {
		t.Fatalf("a one-block fragment that is no loop formed %d superblocks", n)
	}
}

// spinGuest is `top: add ebp, 0x01010101; jmp top` on v's code page: an
// endless loop that keeps the host's frame-pointer register, which is
// where compiled code holds EBP, full of values that are no frame.
func spinGuest(t *testing.T, v *VM) {
	a := &t2asm{t: t, base: diffCode}
	top := a.cur()
	a.op2(x86.ADD, x86.R(x86.EBP), x86.I(0x01010101))
	a.jmp(top)
	copy(v.mem[diffCode:], a.code)
	v.eip = diffCode
}

// TestLinkedChainCancel: a cancellation lands while the guest is deep in
// a chain of linked traces. The VM must notice within a poll quantum's
// worth of guest time, and what it leaves is a state the reference
// engine passes through: run the reference for exactly the Steps the
// canceled VM retired and the registers and flags are the same.
func TestLinkedChainCancel(t *testing.T) {
	forTier2Legs(t, func(t *testing.T, level OptLevel) {
		g := linkGuest{
			code: linkLoops(t, func(a *t2asm) {
				a.op2(x86.ADD, x86.R(x86.EBX), x86.R(x86.EAX))
				a.op2(x86.XOR, x86.R(x86.EDX), x86.R(x86.EBX))
			}, ud2Tail),
			regs: map[x86.Reg]uint32{x86.EBP: 0}, // 2^32 outer passes: never finishes
			fuel: 1 << 40,
		}
		v1, v2 := diffVMAt(t, level), diffVM(t)
		var seed [8]uint32
		g.rewind(v1, seed)
		g.rewind(v2, seed)
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(5*time.Millisecond, cancel)
		defer timer.Stop()
		_, err := v1.RunContext(ctx)
		if !IsCanceled(err) || !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want a cancellation", err)
		}
		v1.materializeFlags()
		st := v1.Stats()
		if got, want := uint64(g.fuel-v1.m.Fuel), st.Steps; got != want {
			t.Fatalf("%d fuel consumed for %d steps", got, want)
		}
		if st.Steps > 1<<28 {
			t.Skipf("%d steps before the cancel was seen: too slow a host to replay", st.Steps)
		}
		if n, _ := refRun(v2, int(st.Steps)); uint64(n) != st.Steps {
			t.Fatalf("reference stopped after %d of %d steps", n, st.Steps)
		}
		if v1.eip != v2.eip {
			t.Fatalf("stopped at %#x, reference is at %#x after as many steps", v1.eip, v2.eip)
		}
		for r := 0; r < 8; r++ {
			if v1.m.Regs[r] != v2.m.Regs[r] {
				t.Fatalf("%s = %#x, reference %#x", x86.Reg(r), v1.m.Regs[r], v2.m.Regs[r])
			}
		}
		f1 := [5]bool{v1.m.CF, v1.m.ZF, v1.m.SF, v1.m.OF, v1.m.PF}
		f2 := [5]bool{v2.m.CF, v2.m.ZF, v2.m.SF, v2.m.OF, v2.m.PF}
		if f1 != f2 {
			t.Fatalf("flags %v, reference %v", f1, f2)
		}
		if level == OptEager && nativeTier2() && st.Tier2Exits*100 > st.Tier2Executed {
			t.Fatalf("%d returns to the dispatcher for %d trace passes: the chain was not linked", st.Tier2Exits, st.Tier2Executed)
		}
	})
}

// TestSpinningGuestComesBackEveryQuantum is the residency bound. A guest
// `while (1) {}` with no context and no watchdog armed still returns
// from compiled code to the dispatcher once per poll quantum — the
// countdown is unconditional — so the goroutine reaches a safe point that
// often, and a collection started from another goroutine finishes in
// bounded time while the guest spins. The second half spins under the
// CPU profiler as well: compiled code owns RBP and seven more host
// registers that Go code never expects to change under it, and SIGPROF
// ticks and the collector's preemption signals land in it all the time —
// the runtime must find nothing to unwind there and the entry shim must
// hand every register back, or this crashes rather than fails.
func TestSpinningGuestComesBackEveryQuantum(t *testing.T) {
	const quanta = 64
	v := diffVMAt(t, OptEager)
	spinGuest(t, v)
	v.m.Fuel = quanta * cancelQuantum
	if _, err := v.Run(); err == nil || err.(*Trap).Kind != TrapFuel {
		t.Fatalf("err = %v, want fuel exhaustion", err)
	}
	st := v.Stats()
	if st.Steps != quanta*cancelQuantum {
		t.Fatalf("%d steps on %d fuel", st.Steps, quanta*cancelQuantum)
	}
	if nativeTier2() {
		if st.Tier2Steps*100 < st.Steps*99 {
			t.Fatalf("the spin loop ran %d of %d steps compiled", st.Tier2Steps, st.Steps)
		}
		// One return per quantum, give or take the warm-up's.
		if st.Tier2Exits < quanta-1 || st.Tier2Exits > quanta+sbHotThreshold+8 {
			t.Fatalf("%d returns to the dispatcher over %d poll quanta", st.Tier2Exits, quanta)
		}
	}

	// The same loop with fuel for minutes, and a collection meanwhile.
	// The collection is what ends the test; the watchdog only keeps a
	// broken engine from hanging it.
	w, err := New(Config{MemSize: 4 << 20, OptLevel: OptEager, WallBudget: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.MapSegment(PageSize, make([]byte, 2*PageSize), 2*PageSize, false); err != nil {
		t.Fatal(err)
	}
	spinGuest(t, w)
	if err := pprof.StartCPUProfile(io.Discard); err != nil {
		t.Logf("CPU profiler unavailable (%v): spinning without it", err)
	} else {
		defer pprof.StopCPUProfile()
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := w.RunStream(ctx, nil, nil, nil, DefaultFuel)
		done <- err
	}()
	for i := 0; i < 3; i++ {
		time.Sleep(25 * time.Millisecond) // a few profiler ticks inside the loop
		start := time.Now()
		runtime.GC()
		if d := time.Since(start); d > 5*time.Second {
			t.Errorf("a collection took %v with a guest spinning in compiled code", d)
		}
	}
	cancel()
	if err := <-done; !IsCanceled(err) {
		t.Fatalf("spinning stream ended with %v, want the cancellation", err)
	}
}
