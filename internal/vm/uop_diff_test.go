package vm

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"vxa/internal/vm/tier2"
	"vxa/internal/vm/uop"
	"vxa/internal/x86"
)

// These are the differential tests for the micro-op translation engine:
// every instruction shape the decoder accepts is executed on both engines
// — the uop engine with lazy flags, and the reference interpreter
// (refexec_test.go) with eager flags — from identical randomized
// register/flag/memory states, and the full architectural outcome
// (registers, all five flags materialized bit-for-bit, memory, traps)
// must agree. The randomized operand tables cover the AH/CH/DH/BH
// partial-register paths and the carry-consuming ADC/SBB/INC/DEC cases
// explicitly.

const (
	diffCode = PageSize            // where the instruction under test is placed
	diffData = PageSize + PageSize // scratch data page for memory operands
)

// diffVM builds a VM with the differential tests' two pages, the code
// page read-only and the data page writable, at the process's default
// level; diffVMAt builds it at a given one.
func diffVM(t *testing.T) *VM { return diffVMAt(t, OptDefault) }

func diffVMAt(t *testing.T, level OptLevel) *VM {
	t.Helper()
	v, err := New(Config{MemSize: 4 << 20, OptLevel: level})
	if err != nil {
		t.Fatal(err)
	}
	mapDiff(t, v)
	return v
}

// mapDiff maps diffVM's two pages into v.
func mapDiff(t testing.TB, v *VM) { mapGuest(t, v, diffCode, nil, PageSize, nil, PageSize) }

// seedState randomizes one architectural state and mirrors it onto both
// VMs: registers, eager flags, and the data page.
func seedState(t *testing.T, rng *rand.Rand, v1, v2 *VM) {
	t.Helper()
	for r := 0; r < 8; r++ {
		val := rng.Uint32()
		if x86.Reg(r) == x86.ESP {
			val = v1.MemSize() - 16 // keep the stack usable
		}
		v1.m.Regs[r] = val
		v2.m.Regs[r] = val
	}
	cf, zf, sf, of, pf := rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0
	v1.m.CF, v1.m.ZF, v1.m.SF, v1.m.OF, v1.m.PF = cf, zf, sf, of, pf
	v2.m.CF, v2.m.ZF, v2.m.SF, v2.m.OF, v2.m.PF = cf, zf, sf, of, pf
	v1.m.Fl.Op = 0 // FlagNone: the seeded bools are authoritative
	v2.m.Fl.Op = 0
	data := make([]byte, 64)
	rng.Read(data)
	copy(v1.mem[diffData:], data)
	copy(v2.mem[diffData:], data)
}

// diffRun executes inst, and the instructions that follow it, on both
// engines: v1 through lowering and the uop executor (followed by a UD2 so
// the block terminates), v2 on the reference interpreter. It returns the
// non-UD2 error from each engine.
func diffRun(t *testing.T, v1, v2 *VM, inst x86.Inst, follow ...x86.Inst) (err1, err2 error) {
	t.Helper()
	var enc []byte
	for _, in := range append([]x86.Inst{inst}, follow...) {
		e, err := x86.Encode(in)
		if err != nil {
			t.Fatalf("encode %v: %v", in, err)
		}
		enc = append(enc, e...)
	}
	code := append(append([]byte{}, enc...), 0x0F, 0x0B) // inst; follow...; ud2
	copy(v1.mem[diffCode:], code)
	copy(v2.mem[diffCode:], code)

	// The uop engine: translate the tiny block fresh (the code bytes
	// change between trials, so never reuse the cache) and run it.
	v1.blocks = make(map[uint32]*bref)
	v1.eip = diffCode
	br, err := v1.lookupBlock(diffCode)
	if err != nil {
		t.Fatalf("lookupBlock %v: %v", inst, err)
	}
	err1 = v1.execUops(br)
	if tr, ok := err1.(*Trap); ok && tr.Kind == TrapIllegal && tr.EIP == diffCode+uint32(len(enc)) {
		err1 = nil // the terminating UD2, as planned
	}
	v1.materializeFlags()

	// The reference engine, one instruction at a time up to the UD2.
	for off := 0; off < len(enc) && err2 == nil; {
		var decoded x86.Inst
		if err := x86.Decode(code[off:], &decoded); err != nil {
			t.Fatalf("decode %v: %v", inst, err)
		}
		err2 = v2.exec(&decoded, diffCode+uint32(off))
		off += int(decoded.Len)
	}
	return err1, err2
}

// diffFollower follows the instruction under test in alternate trials
// and in every diffLoops loop: a compare, which defines every flag the
// instruction records and reads none, so the optimizer downgrades the
// instruction to its NF twin.
var diffFollower = x86.Inst{Op: x86.CMP, Dst: x86.R(x86.EAX), Src: x86.R(x86.EDI)}

// diffLead runs ahead of the instruction under test in every third trial
// of diffTrials, so that it meets the flags as a lazy record, not as the
// seeded bools.
var diffLead = x86.Inst{Op: x86.SUB, Dst: x86.R(x86.EBP), Src: x86.R(x86.EDI)}

// followers is what diffRun runs after the instruction of the given
// trial: nothing in even trials, which leave its record for diffCompare
// to materialize, and diffFollower in odd ones.
func followers(trial int) []x86.Inst {
	if trial%2 == 0 {
		return nil
	}
	return []x86.Inst{diffFollower}
}

// diffLoops runs instructions in loops hot enough to form superblocks
// and, at OptTier2, compile them, on one VM per tier leg, each against a
// reference VM of its own (linkGuest.runOnce):
//
//	top: inst ; cmp eax, edi ; dec ebp ; jne top ; ud2
//
// The compare clobbers every flag inst records, so inst runs as its NF
// twin, on tier 1 and in the compiled trace; DEC carries the compare's
// CF into the next pass, where an ADC or SBB reads it.
type diffLoops struct {
	t      *testing.T
	legs   [][2]*VM
	native int               // loops that ran in a compiled trace
	kinds  map[uop.Kind]bool // what the instructions under test ran as
}

func newDiffLoops(t *testing.T) *diffLoops {
	d := &diffLoops{t: t, kinds: map[uop.Kind]bool{}}
	for _, level := range tier2Legs {
		d.legs = append(d.legs, [2]*VM{diffVMAt(t, level), diffVM(t)})
	}
	return d
}

// run runs inst's loop from a fresh translation on every leg, over a data
// page holding data, with ESI at its start, EDI 32 bytes in and ECX 3.
func (d *diffLoops) run(inst x86.Inst, data []byte) {
	t := d.t
	t.Helper()
	a := &t2asm{t: t, base: diffCode}
	a.emit(inst)
	a.emit(diffFollower)
	a.emit(x86.Inst{Op: x86.DEC, Dst: x86.R(x86.EBP)})
	a.jcc(x86.CCNE, diffCode)
	a.emit(x86.Inst{Op: x86.UD2})
	g := linkGuest{code: a.code, data: data, fuel: 1000,
		regs: map[x86.Reg]uint32{x86.EBP: sbHotThreshold + 24, x86.ESI: diffData, x86.EDI: diffData + 32, x86.ECX: 3}}
	seed := [8]uint32{0x1234567, 0x89ABCDEF, 0xDEADBEEF, 0x0BADF00D, 0, 0, 0x600DCAFE, 0xFEEDFACE}
	var level OptLevel
	defer func() {
		if t.Failed() { // runOnce's messages do not name the loop
			t.Logf("in the loop of %v at %v", inst, level)
		}
	}()
	for i, vs := range d.legs {
		v1, v2 := vs[0], vs[1]
		level = tier2Legs[i]
		v1.blocks = make(map[uint32]*bref) // new code: translate it afresh
		v1.dropLinks()
		before := v1.stats.Tier2Steps
		g.runOnce(t, v1, v2, seed)
		sb := v1.blocks[diffCode].sb
		if sb == nil {
			t.Fatalf("%v: the loop formed no superblock at %v", inst, level)
		}
		u := sb.b.uops[0]
		d.kinds[u.Kind] = true
		if uop.Kinds[u.Kind].Def != 0 && tier1Only[u.Kind] == "" {
			t.Fatalf("%v: runs as %v at %v: its dead record was kept", inst, u.Kind, level)
		}
		if v1.stats.Tier2Steps > before {
			d.native++
		} else if level == OptTier2 && nativeTier2() && tier1Only[u.Kind] == "" {
			t.Fatalf("%v: its loop never ran compiled", inst)
		}
	}
}

// done requires that some loop ran compiled, where there is an emitter.
func (d *diffLoops) done() {
	if nativeTier2() && d.native == 0 {
		d.t.Fatal("no loop ran in a compiled trace")
	}
}

// diffCompare asserts both engines produced the same architectural state,
// the flags included unless skipFlags.
func diffCompare(t *testing.T, v1, v2 *VM, inst x86.Inst, trial int, skipFlags bool) {
	t.Helper()
	for r := 0; r < 8; r++ {
		if v1.m.Regs[r] != v2.m.Regs[r] {
			t.Fatalf("trial %d %v at %v: %s = %#x (uop) vs %#x (ref)",
				trial, inst, v1.level, x86.Reg(r), v1.m.Regs[r], v2.m.Regs[r])
		}
	}
	if !skipFlags && (v1.m.CF != v2.m.CF || v1.m.ZF != v2.m.ZF || v1.m.SF != v2.m.SF || v1.m.OF != v2.m.OF || v1.m.PF != v2.m.PF) {
		t.Fatalf("trial %d %v at %v: flags cf=%v zf=%v sf=%v of=%v pf=%v (uop) vs cf=%v zf=%v sf=%v of=%v pf=%v (ref)",
			trial, inst, v1.level, v1.m.CF, v1.m.ZF, v1.m.SF, v1.m.OF, v1.m.PF, v2.m.CF, v2.m.ZF, v2.m.SF, v2.m.OF, v2.m.PF)
	}
	if !bytes.Equal(v1.mem[diffData:diffData+64], v2.mem[diffData:diffData+64]) {
		t.Fatalf("trial %d %v at %v: data page diverged", trial, inst, v1.level)
	}
}

// diffTrials runs n randomized trials of the instructions gen produces at
// every optimization level, each on a VM of its own against the reference
// interpreter: odd trials follow the instruction with diffFollower, every
// third runs it behind diffLead, and the trap, the state and the heap up
// to brk must agree. Given loops, every fourth trial the reference ran
// without a trap also runs the instruction in a hot loop on the tier
// legs.
func diffTrials(t *testing.T, seed int64, n int, loops *diffLoops, gen func(rng *rand.Rand, v1, v2 *VM) x86.Inst) {
	t.Helper()
	for _, level := range OptLevels() {
		rng := rand.New(rand.NewSource(seed))
		v1, v2 := diffVMAt(t, level), diffVM(t)
		for trial := 0; trial < n; trial++ {
			seedState(t, rng, v1, v2)
			inst := gen(rng, v1, v2)
			run := append([]x86.Inst{inst}, followers(trial)...)
			if trial%3 == 0 {
				run = append([]x86.Inst{diffLead}, run...)
			}
			err1, err2 := diffRun(t, v1, v2, run[0], run[1:]...)
			tr1, _ := err1.(*Trap)
			tr2, _ := err2.(*Trap)
			if (err1 == nil) != (err2 == nil) || tr1 != nil && (tr2 == nil || tr1.Kind != tr2.Kind || tr1.EIP != tr2.EIP || tr1.Addr != tr2.Addr) {
				t.Fatalf("trial %d %v at %v: uop err=%v, ref err=%v", trial, inst, level, err1, err2)
			}
			// A fault may come behind a flag record the optimizer dropped
			// as dead (uop/opt.go), which leaves the flags there the
			// engine's own: they are held to the reference at
			// OptReference, where nothing is dropped.
			diffCompare(t, v1, v2, inst, trial, err2 != nil && level > OptReference)
			sameMem(t, v1, v2, diffData, v1.m.Brk)
			if loops != nil && level == OptReference && trial%4 == 1 && err2 == nil {
				loops.run(inst, v1.mem[diffData:diffData+64])
			}
		}
	}
}

// setReg sets register r to val on both VMs.
func setReg(v1, v2 *VM, r x86.Reg, val uint32) { v1.m.Regs[r], v2.m.Regs[r] = val, val }

// diffRM returns a random operand of the given width for a one-operand
// read-modify-write: a register (AH..BH among the bytes) or memory.
func diffRM(rng *rand.Rand, v1, v2 *VM, size uint8) x86.Arg {
	switch {
	case rng.Intn(2) == 0:
		return memArg(rng, v1, v2, size)
	case size == 1:
		return x86.R8(x86.Reg(rng.Intn(8)))
	}
	return x86.R(x86.Reg(rng.Intn(4)))
}

// memArg returns a memory operand of the given width inside the data
// page, addressed through a register so the EA path is exercised.
func memArg(rng *rand.Rand, v1, v2 *VM, size uint8) x86.Arg {
	off := int32(rng.Intn(48))
	v1.m.Regs[x86.ESI] = diffData
	v2.m.Regs[x86.ESI] = diffData
	return x86.MSIB(x86.ESI, x86.NoReg, 1, off, size)
}

var diffALUOps = []x86.Op{
	x86.ADD, x86.ADC, x86.SUB, x86.SBB, x86.AND, x86.OR, x86.XOR, x86.CMP, x86.TEST,
}

func TestDiffALU32(t *testing.T) {
	diffTrials(t, 1, 4000, nil, func(rng *rand.Rand, _, _ *VM) x86.Inst {
		op := diffALUOps[rng.Intn(len(diffALUOps))]
		dst := x86.R(x86.Reg(rng.Intn(4))) // keep off ESP/ESI
		switch rng.Intn(3) {
		case 0:
			return x86.Inst{Op: op, Dst: dst, Src: x86.R(x86.Reg(rng.Intn(4)))}
		case 1:
			return x86.Inst{Op: op, Dst: dst, Src: x86.I(int32(rng.Uint32()))}
		default:
			// Interesting boundary immediates.
			picks := []int32{0, 1, -1, 0x7FFFFFFF, -0x80000000, 0x80}
			return x86.Inst{Op: op, Dst: dst, Src: x86.I(picks[rng.Intn(len(picks))])}
		}
	})
}

// TestDiffALU8 covers the byte forms, including the AH/CH/DH/BH
// partial-register slots on both operands.
func TestDiffALU8(t *testing.T) {
	diffTrials(t, 2, 4000, nil, func(rng *rand.Rand, _, _ *VM) x86.Inst {
		op := diffALUOps[rng.Intn(len(diffALUOps))]
		dst := x86.R8(x86.Reg(rng.Intn(8))) // AL..BL and AH..BH
		if rng.Intn(2) == 0 {
			return x86.Inst{Op: op, Dst: dst, Src: x86.R8(x86.Reg(rng.Intn(8)))}
		}
		return x86.Inst{Op: op, Dst: dst, Src: x86.I8(int8(rng.Intn(256)))}
	})
}

func TestDiffALUMem(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	v1 := diffVM(t)
	v2 := diffVM(t)
	loops := newDiffLoops(t)
	for trial := 0; trial < 3000; trial++ {
		seedState(t, rng, v1, v2)
		op := diffALUOps[rng.Intn(len(diffALUOps))]
		size := uint8(4)
		if rng.Intn(2) == 0 {
			size = 1
		}
		m := memArg(rng, v1, v2, size)
		var inst x86.Inst
		form := rng.Intn(3)
		if op == x86.TEST && form == 0 {
			form = 1 // TEST has no reg←mem encoding
		}
		switch form {
		case 0: // reg op= mem
			if size == 4 {
				inst = x86.Inst{Op: op, Dst: x86.R(x86.Reg(rng.Intn(4))), Src: m}
			} else {
				inst = x86.Inst{Op: op, Dst: x86.R8(x86.Reg(rng.Intn(8))), Src: m}
			}
		case 1: // mem op= reg
			if size == 4 {
				inst = x86.Inst{Op: op, Dst: m, Src: x86.R(x86.Reg(rng.Intn(4)))}
			} else {
				inst = x86.Inst{Op: op, Dst: m, Src: x86.R8(x86.Reg(rng.Intn(8)))}
			}
		default: // mem op= imm
			if size == 4 {
				inst = x86.Inst{Op: op, Dst: m, Src: x86.I(int32(rng.Uint32()))}
			} else {
				inst = x86.Inst{Op: op, Dst: m, Src: x86.Arg{Kind: x86.KindImm, Imm: int32(rng.Intn(256)), Size: 1}}
			}
		}
		err1, err2 := diffRun(t, v1, v2, inst, followers(trial)...)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("trial %d %v: uop err=%v, ref err=%v", trial, inst, err1, err2)
		}
		diffCompare(t, v1, v2, inst, trial, false)
		if trial%4 == 1 {
			loops.run(inst, v1.mem[diffData:diffData+64])
		}
	}
	loops.done()
}

// TestDiffShifts covers SHL/SHR/SAR/ROL/ROR of dword and byte registers
// and of bytes and dwords of memory, by immediate (including zero
// counts, which must leave every flag untouched) and by CL, whose counts
// of 0, 8 and 31 are drawn as often as a random one.
func TestDiffShifts(t *testing.T) {
	ops := []x86.Op{x86.SHL, x86.SHR, x86.SAR, x86.ROL, x86.ROR}
	loops := newDiffLoops(t)
	diffTrials(t, 4, 5000, loops, func(rng *rand.Rand, v1, v2 *VM) x86.Inst {
		op := ops[rng.Intn(len(ops))]
		dst := diffRM(rng, v1, v2, uint8(1+3*rng.Intn(2)))
		if rng.Intn(2) == 0 {
			count := int32(rng.Intn(40)) & 31 // the decoder masks to 5 bits
			return x86.Inst{Op: op, Dst: dst, Src: x86.Arg{Kind: x86.KindImm, Imm: count, Size: 1}}
		}
		setReg(v1, v2, x86.ECX, []uint32{0, 8, 31, rng.Uint32()}[rng.Intn(4)])
		return x86.Inst{Op: op, Dst: dst, Src: x86.R8(x86.ECX)}
	})
	loops.done()
}

// TestDiffUnary covers NEG/NOT/INC/DEC of dword and byte registers and of
// dwords and bytes of memory.
func TestDiffUnary(t *testing.T) {
	ops := []x86.Op{x86.NEG, x86.NOT, x86.INC, x86.DEC}
	loops := newDiffLoops(t)
	diffTrials(t, 5, 3000, loops, func(rng *rand.Rand, v1, v2 *VM) x86.Inst {
		return x86.Inst{Op: ops[rng.Intn(len(ops))], Dst: diffRM(rng, v1, v2, uint8(1+3*rng.Intn(2)))}
	})
	loops.done()
}

// TestDiffByteMulDiv covers MUL/IMUL/DIV/IDIV of a byte register or of a
// byte of memory, through AX: half the trials keep AH below the divisor's
// reach, so that a divide can fit its quotient, and one in eight divides
// by zero.
func TestDiffByteMulDiv(t *testing.T) {
	ops := []x86.Op{x86.MUL1, x86.IMUL1, x86.DIV, x86.IDIV}
	diffTrials(t, 9, 4000, nil, func(rng *rand.Rand, v1, v2 *VM) x86.Inst {
		src := diffRM(rng, v1, v2, 1)
		if rng.Intn(2) == 0 {
			setReg(v1, v2, x86.EAX, v1.m.Regs[x86.EAX]&^0xFF00|uint32(rng.Intn(4))<<8)
		}
		if rng.Intn(8) == 0 {
			if src.Kind == x86.KindMem {
				v1.mem[diffData+uint32(src.Disp)], v2.mem[diffData+uint32(src.Disp)] = 0, 0
			} else {
				v1.wr8(uint8(src.Reg&3), uint8(src.Reg>>2)*8, 0)
				v2.wr8(uint8(src.Reg&3), uint8(src.Reg>>2)*8, 0)
			}
		}
		return x86.Inst{Op: ops[rng.Intn(len(ops))], Dst: src}
	})
}

// TestDiffXchgString covers XCHG of memory with a register and the string
// moves with and without REP: counts of zero, overlapping copies either
// way, strings that run into the end of the heap from either pointer,
// and a dword count whose length overflows 32 bits.
func TestDiffXchgString(t *testing.T) {
	ops := []x86.Op{x86.MOVSB, x86.MOVSD, x86.STOSB, x86.STOSD}
	diffTrials(t, 10, 4000, nil, func(rng *rand.Rand, v1, v2 *VM) x86.Inst {
		if rng.Intn(5) == 0 {
			return x86.Inst{Op: x86.XCHG, Dst: memArg(rng, v1, v2, 4), Src: x86.R(x86.Reg(rng.Intn(8)))}
		}
		brk := v1.m.Brk
		setReg(v1, v2, x86.ESI, diffData+uint32(rng.Intn(32)))
		setReg(v1, v2, x86.EDI, diffData+uint32(rng.Intn(32)))
		setReg(v1, v2, x86.ECX, uint32(rng.Intn(6)))
		switch rng.Intn(8) {
		case 0:
			setReg(v1, v2, x86.EDI, brk-uint32(rng.Intn(24)))
		case 1:
			setReg(v1, v2, x86.ESI, brk-uint32(rng.Intn(24)))
		case 2:
			setReg(v1, v2, x86.ECX, 0x40000000+uint32(rng.Intn(2)))
		}
		return x86.Inst{Op: ops[rng.Intn(len(ops))], Rep: rng.Intn(2) == 0}
	})
}

// TestDiffTier1OnlyLoops runs every tier-1-only kind in a loop hot enough
// to form a superblock, and at OptTier2 to be offered to the emitter,
// which refuses it: the superblock then runs on the tier-1 loop, and the
// whole run must be the reference's.
func TestDiffTier1OnlyLoops(t *testing.T) {
	m := func(disp int32, size uint8) x86.Arg { return x86.MSIB(x86.ESI, x86.NoReg, 1, disp, size) }
	cl := x86.R8(x86.ECX)
	imm := func(n int32) x86.Arg { return x86.Arg{Kind: x86.KindImm, Imm: n, Size: 1} }
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(0x80 + 3*i) // every divisor above AH, so no unsigned divide overflows
	}
	loops := newDiffLoops(t)
	for _, inst := range []x86.Inst{
		{Op: x86.INC, Dst: x86.R8(x86.EDI)}, {Op: x86.DEC, Dst: m(3, 1)}, {Op: x86.INC, Dst: m(8, 4)},
		{Op: x86.NEG, Dst: x86.R8(x86.EDX)}, {Op: x86.NEG, Dst: m(5, 1)}, {Op: x86.NEG, Dst: m(12, 4)},
		{Op: x86.NOT, Dst: x86.R8(x86.ESP)}, {Op: x86.NOT, Dst: m(1, 1)}, {Op: x86.NOT, Dst: m(16, 4)},
		{Op: x86.SHL, Dst: m(2, 1), Src: cl}, {Op: x86.SAR, Dst: x86.R8(x86.EBX), Src: imm(3)},
		{Op: x86.SHR, Dst: m(20, 4), Src: imm(0)}, {Op: x86.SAR, Dst: m(24, 4), Src: cl},
		{Op: x86.ROL, Dst: x86.R(x86.EAX), Src: cl}, {Op: x86.ROR, Dst: x86.R(x86.EDX), Src: imm(7)},
		{Op: x86.ROL, Dst: x86.R8(x86.EBP), Src: imm(9)}, {Op: x86.ROR, Dst: m(4, 1), Src: cl},
		{Op: x86.ROL, Dst: m(28, 4), Src: imm(1)},
		{Op: x86.MUL1, Dst: x86.R8(x86.EBX)}, {Op: x86.IMUL1, Dst: m(6, 1)},
		{Op: x86.DIV, Dst: x86.R8(x86.ESI)}, {Op: x86.DIV, Dst: m(7, 1)},
		{Op: x86.XCHG, Dst: m(32, 4), Src: x86.R(x86.EDX)},
		{Op: x86.MOVSB}, {Op: x86.MOVSD, Rep: true}, {Op: x86.STOSB, Rep: true}, {Op: x86.STOSD},
	} {
		loops.run(inst, data)
	}
	for k := range tier1Only {
		if !loops.kinds[k] {
			t.Errorf("no loop ran %v", k)
		}
	}
}

// TestDiffMulWide covers the IMUL forms and the widening MUL/IMUL, with
// register and memory sources.
func TestDiffMulWide(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	v1 := diffVM(t)
	v2 := diffVM(t)
	loops := newDiffLoops(t)
	for trial := 0; trial < 3000; trial++ {
		seedState(t, rng, v1, v2)
		dst := x86.R(x86.Reg(rng.Intn(4)))
		src := x86.R(x86.Reg(rng.Intn(4)))
		if rng.Intn(3) == 0 {
			src = memArg(rng, v1, v2, 4)
		}
		var inst x86.Inst
		switch rng.Intn(4) {
		case 0:
			inst = x86.Inst{Op: x86.IMUL, Dst: dst, Src: src}
		case 1:
			inst = x86.Inst{Op: x86.IMUL, Dst: dst, Src: src, Aux: x86.I(int32(rng.Uint32()))}
		case 2:
			inst = x86.Inst{Op: x86.MUL1, Dst: src}
		default:
			inst = x86.Inst{Op: x86.IMUL1, Dst: src}
		}
		err1, err2 := diffRun(t, v1, v2, inst, followers(trial)...)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("trial %d %v: uop err=%v, ref err=%v", trial, inst, err1, err2)
		}
		diffCompare(t, v1, v2, inst, trial, false)
		if trial%4 == 1 {
			loops.run(inst, v1.mem[diffData:diffData+64])
		}
	}
	loops.done()
}

// TestDiffQuietRMWFault: a read-modify-write of memory whose flag record
// is dead — the add to ESI after it clobbers the flags — runs in a
// compiled trace as one host instruction behind its read and write
// checks. ESI walks up to the heap limit a dword per outer pass of
// linkLoops, so the access of the last pass is the first out of bounds,
// and the trap must be the reference's: kind, EIP and address. Most
// operands share a group check, whose failure resumes the pass on tier
// 1; one whose displacement is too large to group is checked in place,
// and the compiled code raises the fault itself.
func TestDiffQuietRMWFault(t *testing.T) {
	edge := uint32(3*PageSize) - 4*(linkOuter-1)
	const far = 0x30000000 // past what a group check may span from its register
	mem := func(disp int32, size uint8) x86.Arg { return x86.MSIB(x86.ESI, x86.NoReg, 1, disp, size) }
	for _, c := range []struct {
		name string
		inst x86.Inst
		kind uop.Kind
		esi  uint32
	}{
		{"add-mi", x86.Inst{Op: x86.ADD, Dst: mem(0, 4), Src: x86.I(5)}, uop.KindAluMINF, edge},
		{"sub-mr", x86.Inst{Op: x86.SUB, Dst: mem(0, 4), Src: x86.R(x86.EAX)}, uop.KindAluMRNF, edge},
		{"xor-mi8", x86.Inst{Op: x86.XOR, Dst: mem(3, 1), Src: x86.I8(0x5A)}, uop.KindAlu8MINF, edge - 3},
		{"add-mi-in-place", x86.Inst{Op: x86.ADD, Dst: mem(far, 4), Src: x86.I(5)}, uop.KindAluMINF, edge - far},
	} {
		g := linkGuest{
			code: linkLoops(t, func(a *t2asm) {
				a.emit(c.inst)
				a.op2(x86.ADD, x86.R(x86.ESI), x86.I(4))
			}, ud2Tail),
			regs: map[x86.Reg]uint32{x86.EBP: linkOuter, x86.ESI: c.esi},
			fuel: 60000,
		}
		if c.esi == edge-far {
			g.noResume = true
		} else {
			g.resumes = 1
		}
		t.Run(c.name, func(t *testing.T) {
			var compiled *VM
			g.runLinkedOn(t, func(t *testing.T, level OptLevel) *VM {
				v := diffVMAt(t, level)
				if level == OptTier2 {
					compiled = v
				}
				return v
			})
			if !nativeTier2() {
				return
			}
			for _, br := range compiled.blocks {
				if sb := br.sb; sb != nil && sb.t2 != nil && slices.ContainsFunc(sb.b.uops, func(u uop.Uop) bool { return u.Kind == c.kind }) {
					return
				}
			}
			t.Fatalf("no compiled trace holds a %v", c.kind)
		})
	}
}

// TestDiffQuietRMWWriteFault: TestDiffQuietRMWFault's in-place case with
// a read-only word behind it. ESI walks down a dword per outer pass, and
// the last pass's quiet add reads the read-only text page's last dword
// and faults on the write: the compiled code raises TrapWrite from its
// own ExitWriteFault exit. The reference records the add's flags before
// its write fails and tier 1 drops the dead record, so the run is held
// to a VM at OptSuperblocks beside it (runOnceBeside): the flags the
// compiled write-fault exit leaves are under test.
func TestDiffQuietRMWWriteFault(t *testing.T) {
	const far = 0x30000000 // past what a group check may span from its register
	esi := uint32(diffData + 4*(linkOuter-2))
	g := linkGuest{
		code: linkLoops(t, func(a *t2asm) {
			a.emit(x86.Inst{Op: x86.ADD, Dst: x86.MSIB(x86.ESI, x86.NoReg, 1, far, 4), Src: x86.I(5)})
			a.op2(x86.SUB, x86.R(x86.ESI), x86.I(4))
		}, ud2Tail),
		regs:     map[x86.Reg]uint32{x86.EBP: linkOuter, x86.ESI: esi - far},
		fuel:     60000,
		noResume: true,
		beside:   true,
	}
	var compiled *VM
	g.runLinkedOn(t, func(t *testing.T, level OptLevel) *VM {
		v := diffVMAt(t, level)
		if level == OptTier2 {
			compiled = v
		}
		return v
	})
	if !nativeTier2() {
		return
	}
	for _, br := range compiled.blocks {
		if sb := br.sb; sb != nil && sb.t2 != nil && slices.ContainsFunc(sb.t2.Exits, func(x tier2.Exit) bool {
			return x.Kind == tier2.ExitWriteFault && sb.b.uops[x.Uop].Kind == uop.KindAluMINF
		}) {
			return
		}
	}
	t.Fatal("no compiled trace has a write-fault exit on its quiet add")
}

// TestDiffMovExtSetcc covers the move/widening/setcc handlers, whose
// results depend on the partial-register slots and lazily evaluated
// conditions.
func TestDiffMovExtSetcc(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	v1 := diffVM(t)
	v2 := diffVM(t)
	for trial := 0; trial < 4000; trial++ {
		seedState(t, rng, v1, v2)
		var inst x86.Inst
		switch rng.Intn(8) {
		case 0:
			inst = x86.Inst{Op: x86.MOV, Dst: x86.R8(x86.Reg(rng.Intn(8))), Src: x86.R8(x86.Reg(rng.Intn(8)))}
		case 1:
			inst = x86.Inst{Op: x86.MOV, Dst: x86.R8(x86.Reg(rng.Intn(8))), Src: memArg(rng, v1, v2, 1)}
		case 2:
			inst = x86.Inst{Op: x86.MOV, Dst: memArg(rng, v1, v2, 1), Src: x86.R8(x86.Reg(rng.Intn(8)))}
		case 3:
			inst = x86.Inst{Op: x86.MOVZX, Dst: x86.R(x86.Reg(rng.Intn(4))), Src: x86.R8(x86.Reg(rng.Intn(8)))}
		case 4:
			inst = x86.Inst{Op: x86.MOVSX, Dst: x86.R(x86.Reg(rng.Intn(4))), Src: x86.R8(x86.Reg(rng.Intn(8)))}
		case 5:
			inst = x86.Inst{Op: x86.MOVZX, Dst: x86.R(x86.Reg(rng.Intn(4))), Src: memArg(rng, v1, v2, 2)}
		case 6:
			inst = x86.Inst{Op: x86.MOVSX, Dst: x86.R(x86.Reg(rng.Intn(4))), Src: memArg(rng, v1, v2, 2)}
		default:
			inst = x86.Inst{Op: x86.SETCC, CC: x86.CC(rng.Intn(16)), Dst: x86.R8(x86.Reg(rng.Intn(8)))}
		}
		err1, err2 := diffRun(t, v1, v2, inst)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("trial %d %v: uop err=%v, ref err=%v", trial, inst, err1, err2)
		}
		diffCompare(t, v1, v2, inst, trial, false)
	}
}

// TestDiffCondAfterLazyOp pins the lazy condition evaluator: after a
// random flag-writing instruction runs on the uop engine (leaving a lazy
// record) and on the reference engine (eager flags), every one of the 16
// condition codes must evaluate identically — without materializing the
// record.
func TestDiffCondAfterLazyOp(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	v1 := diffVM(t)
	v2 := diffVM(t)
	flagOps := []x86.Op{x86.ADD, x86.ADC, x86.SUB, x86.SBB, x86.AND, x86.XOR,
		x86.CMP, x86.TEST, x86.SHL, x86.SHR, x86.SAR, x86.INC, x86.DEC, x86.NEG}
	for trial := 0; trial < 3000; trial++ {
		seedState(t, rng, v1, v2)
		op := flagOps[rng.Intn(len(flagOps))]
		var inst x86.Inst
		switch op {
		case x86.INC, x86.DEC, x86.NEG:
			inst = x86.Inst{Op: op, Dst: x86.R(x86.Reg(rng.Intn(4)))}
		case x86.SHL, x86.SHR, x86.SAR:
			inst = x86.Inst{Op: op, Dst: x86.R(x86.Reg(rng.Intn(4))),
				Src: x86.Arg{Kind: x86.KindImm, Imm: int32(rng.Intn(32)), Size: 1}}
		default:
			if rng.Intn(2) == 0 {
				inst = x86.Inst{Op: op, Dst: x86.R8(x86.Reg(rng.Intn(8))), Src: x86.R8(x86.Reg(rng.Intn(8)))}
			} else {
				inst = x86.Inst{Op: op, Dst: x86.R(x86.Reg(rng.Intn(4))), Src: x86.R(x86.Reg(rng.Intn(4)))}
			}
		}
		enc, err := x86.Encode(inst)
		if err != nil {
			t.Fatalf("encode %v: %v", inst, err)
		}
		code := append(append([]byte{}, enc...), 0x0F, 0x0B)
		copy(v1.mem[diffCode:], code)
		copy(v2.mem[diffCode:], code)
		v1.blocks = make(map[uint32]*bref)
		br, err := v1.lookupBlock(diffCode)
		if err != nil {
			t.Fatal(err)
		}
		_ = v1.execUops(br) // ends at the ud2; the lazy record survives
		var decoded x86.Inst
		if err := x86.Decode(code, &decoded); err != nil {
			t.Fatal(err)
		}
		if err := v2.exec(&decoded, diffCode); err != nil {
			t.Fatal(err)
		}
		for cc := x86.CC(0); cc < 16; cc++ {
			if got, want := v1.ucond(cc), v2.cond(cc); got != want {
				t.Fatalf("trial %d %v: cond %v = %v (lazy) vs %v (eager)", trial, inst, cc, got, want)
			}
		}
	}
}

// TestDiffFusedPairTraps runs short guests in the shape vxcc 2 emitted —
// a stack machine's push/pop/mov shuffles — at every optimization level
// against the reference interpreter: trap kind, EIP and address,
// registers, flags, heap and stack, Steps and fuel (linkGuest.runOnce).
// The pair cases fault in their second instruction: the first must be
// architecturally committed, the trap must report the second's EIP and
// the fuel charge must match the reference's charge-before-execute
// discipline. The engine once fused each of these pairs into one
// micro-op; push;call and pop;ret still are, the rest now run as the two
// micro-ops they lower to, and nothing a guest can observe may tell.
// The loop cases are iterated until they are hot at every level that
// promotes anything: a whole loop in the vxcc-2 shape, and one of the
// fusions that remain.
func TestDiffFusedPairTraps(t *testing.T) {
	esi := x86.MSIB(x86.ESI, x86.NoReg, 1, 0, 4)
	ecx := x86.MSIB(x86.ECX, x86.NoReg, 1, 0, 4)
	badMem := map[x86.Reg]uint32{x86.ECX: 0x10, x86.ESI: diffData}
	badStack := map[x86.Reg]uint32{x86.ESP: 0x10, x86.ESI: diffData} // below the first page
	cases := []struct {
		name  string
		insts []x86.Inst
		regs  map[x86.Reg]uint32
	}{
		{"push-load", []x86.Inst{
			{Op: x86.PUSH, Dst: x86.R(x86.EAX)},
			{Op: x86.MOV, Dst: x86.R(x86.EDX), Src: ecx},
		}, badMem},
		{"mov-load", []x86.Inst{
			{Op: x86.MOV, Dst: x86.R(x86.EBX), Src: x86.R(x86.EAX)},
			{Op: x86.MOV, Dst: x86.R(x86.EDX), Src: ecx},
		}, badMem},
		{"load-push", []x86.Inst{
			{Op: x86.MOV, Dst: x86.R(x86.EDX), Src: esi},
			{Op: x86.PUSH, Dst: x86.R(x86.EDX)},
		}, badStack},
		{"mov-pop", []x86.Inst{
			{Op: x86.MOV, Dst: x86.R(x86.ECX), Src: x86.R(x86.EAX)},
			{Op: x86.POP, Dst: x86.R(x86.EDX)},
		}, badStack},
		{"mov-pop-alu", []x86.Inst{
			{Op: x86.MOV, Dst: x86.R(x86.ECX), Src: x86.R(x86.EAX)},
			{Op: x86.POP, Dst: x86.R(x86.EAX)},
			{Op: x86.ADD, Dst: x86.R(x86.EAX), Src: x86.R(x86.ECX)},
		}, badStack},
		{"pop-store", []x86.Inst{
			{Op: x86.POP, Dst: x86.R(x86.EDX)},
			{Op: x86.MOV, Dst: ecx, Src: x86.R(x86.EAX)},
		}, badMem},
		{"movi-push", []x86.Inst{
			{Op: x86.MOV, Dst: x86.R(x86.EAX), Src: x86.I(42)},
			{Op: x86.PUSH, Dst: x86.R(x86.EBX)},
		}, badStack},
		{"pop-ret", []x86.Inst{
			{Op: x86.POP, Dst: x86.R(x86.EDX)},
			{Op: x86.RET},
		}, map[x86.Reg]uint32{x86.ESP: 4<<20 - 4}}, // pop ok, ret beyond the top
		{"push-call", []x86.Inst{
			{Op: x86.PUSH, Dst: x86.R(x86.EAX)},
			{Op: x86.CALL, Rel: 16},
		}, map[x86.Reg]uint32{x86.ESP: 4<<20 - DefaultStackSize + 4}}, // arg push ok, return push in the guard gap
		{"vxcc2-loop", vxcc2Loop, map[x86.Reg]uint32{x86.EBP: diffData + 32, x86.EDI: 300}},
		// The shapes that stay fused, in a loop hot enough to compile:
		// a load feeding an ALU op whose operand order matters, and a
		// cmp;jcc that ends the trace.
		{"load-alu-cmp-jcc-loop", []x86.Inst{
			{Op: x86.ADD, Dst: x86.R(x86.EAX), Src: x86.I(3)},
			{Op: x86.MOV, Dst: x86.MSIB(x86.EBP, x86.NoReg, 1, -4, 4), Src: x86.R(x86.EAX)},
			{Op: x86.MOV, Dst: x86.R(x86.ECX), Src: x86.MSIB(x86.EBP, x86.NoReg, 1, -4, 4)},
			{Op: x86.SUB, Dst: x86.R(x86.EDX), Src: x86.R(x86.ECX)},
			{Op: x86.CMP, Dst: x86.R(x86.EAX), Src: x86.R(x86.EDI)},
			{Op: x86.JCC, CC: x86.CCL},
		}, map[x86.Reg]uint32{x86.EAX: 0, x86.EBP: diffData + 32, x86.EDI: 900}},
	}
	for _, tc := range cases {
		a := &t2asm{t: t, base: diffCode}
		for _, inst := range tc.insts {
			if inst.Op == x86.JCC {
				a.jcc(inst.CC, diffCode) // the loop's back edge
				continue
			}
			a.emit(inst)
		}
		a.emit(x86.Inst{Op: x86.UD2})
		g := linkGuest{code: a.code, regs: tc.regs, fuel: 20000}
		leg := func(name string, level OptLevel) {
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				v1, v2 := diffVMAt(t, level), diffVM(t)
				seed := [8]uint32{0x1234567, 0x89ABCDEF, 0xDEADBEEF, 0x0BADF00D, 0, 0, 0x600DCAFE, 0xFEEDFACE}
				for run := 0; run < 2; run++ { // the second on what the first translated
					g.runOnce(t, v1, v2, seed)
				}
				if strings.HasSuffix(tc.name, "-loop") && level >= OptTier2 && nativeTier2() && v1.Stats().Tier2Steps == 0 {
					t.Fatal("the loop never ran compiled")
				}
			})
		}
		for _, level := range OptLevels() {
			leg(level.String(), level)
		}
		leg(eagerLeg, OptTier2)
	}
}

// vxcc2Loop is `for (i = 0; i < n; i++) acc += 12 + (3 - i)` the way
// vxcc 2 wrote it: every operand through the stack, EAX the accumulator,
// ECX the right-hand side, i at [ebp-4] and acc at [ebp-8] (zeroed data
// page), n in EDI. Between them its lines are all nine adjacent pairs (and the
// one triple) the optimizer used to fuse, named in the margin; the JCC
// closes the loop to the guest's first instruction.
var vxcc2Loop = func() []x86.Inst {
	eax, ecx, edx := x86.R(x86.EAX), x86.R(x86.ECX), x86.R(x86.EDX)
	i, acc := x86.MSIB(x86.EBP, x86.NoReg, 1, -4, 4), x86.MSIB(x86.EBP, x86.NoReg, 1, -8, 4)
	mov := func(dst, src x86.Arg) x86.Inst { return x86.Inst{Op: x86.MOV, Dst: dst, Src: src} }
	push := x86.Inst{Op: x86.PUSH, Dst: eax}
	pop := func(dst x86.Arg) x86.Inst { return x86.Inst{Op: x86.POP, Dst: dst} }
	return []x86.Inst{
		mov(eax, acc), push, // load ; push
		mov(eax, x86.I(7)), push, // mov imm ; push
		mov(eax, x86.I(5)), mov(ecx, eax), // mov imm ; mov
		pop(eax), {Op: x86.ADD, Dst: eax, Src: ecx}, // 12
		mov(ecx, eax), pop(eax), {Op: x86.ADD, Dst: eax, Src: ecx}, // mov ; pop ; alu, flags dead: acc + 12
		push, mov(eax, i), // push ; load
		push, mov(eax, x86.I(3)), // push ; mov imm
		mov(ecx, eax), pop(edx), // mov ; pop
		{Op: x86.SUB, Dst: ecx, Src: edx},                          // 3 - i
		mov(eax, ecx), pop(ecx), {Op: x86.ADD, Dst: eax, Src: ecx}, // acc + 12 + (3 - i)
		push, mov(ecx, eax), mov(eax, i), // mov ; load
		{Op: x86.ADD, Dst: eax, Src: x86.I(1)}, mov(i, eax), // i++
		pop(eax), mov(acc, eax), // pop ; store
		mov(eax, i), push, mov(eax, x86.R(x86.EDI)),
		mov(ecx, eax), pop(eax), {Op: x86.SUB, Dst: eax, Src: ecx}, // mov ; pop ; alu, flags live: i - n
		{Op: x86.JCC, CC: x86.CCL},
	}
}()

// ---------------------------------------------------------------------------
// Long-horizon differential soak: whole random programs, not single
// instructions. Each program is a web of basic blocks — conditional
// branches, direct jumps, table-driven indirect jumps, call/return pairs,
// partial-register writes, memory traffic — that runs for >10k guest
// instructions on both engines. Every block opens with a checkpoint
// prologue that the *guest itself* executes: it stores the scratch
// register file and the five SETcc-materialized arithmetic flags into a
// trace region and advances the trace pointer. Comparing the two
// engines' trace regions byte-for-byte therefore compares the full
// observable state at every basic-block boundary, including the lazy
// flag records the uop engine must materialize exactly where the eager
// reference engine already has them.

// Soak program geometry. Registers are role-split: EAX/ECX/EDX are
// random scratch, EBX pins the jump table, ESI is terminator/memory
// scratch, EDI walks the trace, EBP counts down to termination.
const (
	soakSlot      = 192                            // bytes reserved per block
	soakBlocks    = 16                             // block count (power of two: indirect index mask)
	soakFuncs     = 3                              // trailing blocks reachable only via CALL, ending in RET
	soakCode      = PageSize                       // block i sits at soakCode + i*soakSlot
	soakExit      = soakCode + soakBlocks*soakSlot // exit block: a single UD2
	soakTable     = PageSize + 0x2000              // jump table: soakBlocks dwords
	soakData      = soakTable + 0x100              // scratch page for memory operands
	soakTrace     = PageSize + 0x3000              // checkpoint trace region
	soakCkptBytes = 24                             // bytes one checkpoint writes
	soakCountdown = 1200                           // block executions before the guest exits
	soakSpan      = 0x10000                        // mapped guest region: code+table+data+trace
)

// soakEmit appends one encoded instruction at the current address.
type soakEmit struct {
	t   *testing.T
	mem []byte // the whole program image, offset soakCode
	cur uint32
}

func (e *soakEmit) emit(inst x86.Inst) {
	enc, err := x86.Encode(inst)
	if err != nil {
		e.t.Fatalf("soak encode %v: %v", inst, err)
	}
	copy(e.mem[e.cur-soakCode:], enc)
	e.cur += uint32(len(enc))
}

// branch emits a CALL/JMP/JCC with the rel32 displacement resolved
// against the fixed instruction lengths (5, 5 and 6 bytes).
func (e *soakEmit) branch(op x86.Op, cc x86.CC, target uint32) {
	ilen := uint32(5)
	if op == x86.JCC {
		ilen = 6
	}
	e.emit(x86.Inst{Op: op, CC: cc, Rel: int32(target - (e.cur + ilen))})
}

// soakCheckpoint emits the block prologue: dump EAX/ECX/EDX/EBP and the
// five flags (via SETcc, exercising the lazy materializer) to the trace
// cursor, advance it, and count down toward the exit.
func (e *soakEmit) soakCheckpoint() {
	regs := []x86.Reg{x86.EAX, x86.ECX, x86.EDX, x86.EBP}
	for i, r := range regs {
		e.emit(x86.Inst{Op: x86.MOV, Dst: x86.MSIB(x86.EDI, x86.NoReg, 1, int32(4*i), 4), Src: x86.R(r)})
	}
	ccs := []x86.CC{x86.CCB, x86.CCE, x86.CCS, x86.CCO, x86.CCP}
	for i, cc := range ccs {
		e.emit(x86.Inst{Op: x86.SETCC, CC: cc, Dst: x86.MSIB(x86.EDI, x86.NoReg, 1, int32(16+i), 1)})
	}
	e.emit(x86.Inst{Op: x86.ADD, Dst: x86.R(x86.EDI), Src: x86.I(soakCkptBytes)})
	e.emit(x86.Inst{Op: x86.DEC, Dst: x86.R(x86.EBP)})
	e.branch(x86.JCC, x86.CCE, soakExit)
}

// soakScratch32 picks a scratch 32-bit register.
func soakScratch32(rng *rand.Rand) x86.Arg {
	return x86.R([]x86.Reg{x86.EAX, x86.ECX, x86.EDX}[rng.Intn(3)])
}

// soakScratch8 picks a scratch byte register, including the high slots.
func soakScratch8(rng *rand.Rand) x86.Arg {
	// AL, CL, DL, AH, CH, DH (EBX is pinned, so BL/BH are off limits).
	return x86.R8([]x86.Reg{0, 1, 2, 4, 5, 6}[rng.Intn(6)])
}

// soakBody emits 2-6 random computation instructions. Memory operands
// go through ESI, re-pointed at the scratch page first.
func (e *soakEmit) soakBody(rng *rand.Rand) {
	aluOps := []x86.Op{x86.ADD, x86.ADC, x86.SUB, x86.SBB, x86.AND, x86.OR, x86.XOR, x86.CMP, x86.TEST}
	for n := 2 + rng.Intn(5); n > 0; n-- {
		switch rng.Intn(12) {
		case 0:
			e.emit(x86.Inst{Op: aluOps[rng.Intn(len(aluOps))], Dst: soakScratch32(rng), Src: soakScratch32(rng)})
		case 1:
			e.emit(x86.Inst{Op: aluOps[rng.Intn(len(aluOps))], Dst: soakScratch32(rng), Src: x86.I(int32(rng.Uint32()))})
		case 2: // partial-register traffic
			if rng.Intn(2) == 0 {
				e.emit(x86.Inst{Op: aluOps[rng.Intn(len(aluOps))], Dst: soakScratch8(rng), Src: soakScratch8(rng)})
			} else {
				e.emit(x86.Inst{Op: x86.MOV, Dst: soakScratch8(rng), Src: x86.I8(int8(rng.Intn(256)))})
			}
		case 3:
			ops := []x86.Op{x86.SHL, x86.SHR, x86.SAR, x86.ROL, x86.ROR}
			if rng.Intn(2) == 0 {
				e.emit(x86.Inst{Op: ops[rng.Intn(len(ops))], Dst: soakScratch32(rng),
					Src: x86.Arg{Kind: x86.KindImm, Imm: int32(rng.Intn(32)), Size: 1}})
			} else {
				e.emit(x86.Inst{Op: ops[rng.Intn(len(ops))], Dst: soakScratch32(rng), Src: x86.R8(x86.ECX)})
			}
		case 4:
			ops := []x86.Op{x86.INC, x86.DEC, x86.NEG, x86.NOT}
			e.emit(x86.Inst{Op: ops[rng.Intn(len(ops))], Dst: soakScratch32(rng)})
		case 5:
			op := x86.MOVZX
			if rng.Intn(2) == 0 {
				op = x86.MOVSX
			}
			e.emit(x86.Inst{Op: op, Dst: soakScratch32(rng), Src: soakScratch8(rng)})
		case 6:
			e.emit(x86.Inst{Op: x86.IMUL, Dst: soakScratch32(rng), Src: soakScratch32(rng)})
		case 7: // widening multiply / sign extend pair
			if rng.Intn(2) == 0 {
				e.emit(x86.Inst{Op: x86.MUL1, Dst: soakScratch32(rng)})
			} else {
				e.emit(x86.Inst{Op: x86.CDQ})
			}
		case 8: // memory round trip through the scratch page
			off := int32(rng.Intn(32))
			e.emit(x86.Inst{Op: x86.MOV, Dst: x86.R(x86.ESI), Src: x86.I(int32(soakData))})
			if rng.Intn(2) == 0 {
				e.emit(x86.Inst{Op: x86.MOV, Dst: x86.MSIB(x86.ESI, x86.NoReg, 1, off, 4), Src: soakScratch32(rng)})
			} else {
				// TEST has no reg<-mem encoding; the others all do.
				memOps := []x86.Op{x86.ADD, x86.ADC, x86.SUB, x86.SBB, x86.AND, x86.OR, x86.XOR, x86.CMP}
				e.emit(x86.Inst{Op: memOps[rng.Intn(len(memOps))], Dst: soakScratch32(rng),
					Src: x86.MSIB(x86.ESI, x86.NoReg, 1, off, 4)})
			}
		case 9: // balanced stack round trip: the movement-pair fusions
			// (push/load, mov-imm/push, mov;pop and the mov;pop;op
			// binary-operation tail — exactly the compiler's idiom).
			e.emit(x86.Inst{Op: x86.PUSH, Dst: soakScratch32(rng)})
			switch rng.Intn(5) {
			case 0: // mov ; pop ; op — the MovPopAlu shape
				e.emit(x86.Inst{Op: x86.MOV, Dst: x86.R(x86.ECX), Src: soakScratch32(rng)})
				e.emit(x86.Inst{Op: x86.POP, Dst: x86.R(x86.EAX)})
				ops := []x86.Op{x86.ADD, x86.SUB, x86.AND, x86.OR, x86.XOR}
				e.emit(x86.Inst{Op: ops[rng.Intn(len(ops))], Dst: x86.R(x86.EAX), Src: x86.R(x86.ECX)})
			case 4: // register-aliased tail: mov rB,rA ; pop rB ; op rB,rB —
				// the pop overwrites the moved value, so any fusion that
				// forwards the pre-pop register here miscomputes
				r := soakScratch32(rng)
				e.emit(x86.Inst{Op: x86.MOV, Dst: r, Src: soakScratch32(rng)})
				e.emit(x86.Inst{Op: x86.POP, Dst: r})
				ops := []x86.Op{x86.ADD, x86.SUB, x86.AND, x86.OR, x86.XOR}
				e.emit(x86.Inst{Op: ops[rng.Intn(len(ops))], Dst: r, Src: r})
			case 1: // push ; mov imm ; pop
				e.emit(x86.Inst{Op: x86.MOV, Dst: soakScratch32(rng), Src: x86.I(int32(rng.Uint32()))})
				e.emit(x86.Inst{Op: x86.POP, Dst: soakScratch32(rng)})
			case 2: // push ; load ; pop ; store
				e.emit(x86.Inst{Op: x86.MOV, Dst: x86.R(x86.ESI), Src: x86.I(int32(soakData))})
				e.emit(x86.Inst{Op: x86.MOV, Dst: x86.R(x86.EDX), Src: x86.MSIB(x86.ESI, x86.NoReg, 1, int32(rng.Intn(32)), 4)})
				e.emit(x86.Inst{Op: x86.POP, Dst: x86.R(x86.EAX)})
				e.emit(x86.Inst{Op: x86.MOV, Dst: x86.MSIB(x86.ESI, x86.NoReg, 1, int32(rng.Intn(32)), 4), Src: soakScratch32(rng)})
			default: // plain push ; pop pair
				e.emit(x86.Inst{Op: x86.POP, Dst: soakScratch32(rng)})
			}
		case 10: // load ; push (the LoadPush shape)
			e.emit(x86.Inst{Op: x86.MOV, Dst: x86.R(x86.ESI), Src: x86.I(int32(soakData))})
			e.emit(x86.Inst{Op: x86.MOV, Dst: x86.R(x86.EAX), Src: x86.MSIB(x86.ESI, x86.NoReg, 1, int32(rng.Intn(32)), 4)})
			e.emit(x86.Inst{Op: x86.PUSH, Dst: x86.R(x86.EAX)})
			e.emit(x86.Inst{Op: x86.POP, Dst: soakScratch32(rng)})
		case 11: // cmp/test ; setcc ; movzx — the boolean idiom
			if rng.Intn(2) == 0 {
				e.emit(x86.Inst{Op: x86.CMP, Dst: x86.R(x86.EAX), Src: x86.R(x86.ECX)})
			} else {
				e.emit(x86.Inst{Op: x86.TEST, Dst: x86.R(x86.EAX), Src: x86.R(x86.EAX)})
			}
			e.emit(x86.Inst{Op: x86.SETCC, CC: x86.CC(rng.Intn(16)), Dst: x86.R8(x86.EAX)})
			e.emit(x86.Inst{Op: x86.MOVZX, Dst: x86.R(x86.EAX), Src: x86.R8(x86.EAX)})
		default:
			e.emit(x86.Inst{Op: x86.MOV, Dst: soakScratch32(rng), Src: x86.I(int32(rng.Uint32()))})
		}
	}
}

// soakBlockAddr returns block i's entry address.
func soakBlockAddr(i int) uint32 { return soakCode + uint32(i)*soakSlot }

// soakNormal picks a random non-func block (funcs are only entered via
// CALL; jumping into one would RET through an unbalanced stack).
func soakNormal(rng *rand.Rand) int { return rng.Intn(soakBlocks - soakFuncs) }

// soakBuildProgram assembles one randomized program into mem (a slice
// covering the guest image starting at soakCode) and returns it.
func soakBuildProgram(t *testing.T, rng *rand.Rand, mem []byte) {
	for i := 0; i < soakBlocks; i++ {
		e := &soakEmit{t: t, mem: mem, cur: soakBlockAddr(i)}
		e.soakCheckpoint()
		e.soakBody(rng)
		isFunc := i >= soakBlocks-soakFuncs
		if isFunc {
			e.emit(x86.Inst{Op: x86.RET})
		} else {
			switch rng.Intn(5) {
			case 0: // direct jump
				e.branch(x86.JMP, 0, soakBlockAddr(soakNormal(rng)))
			case 1: // conditional branch with a jump on the fall side
				e.branch(x86.JCC, x86.CC(rng.Intn(16)), soakBlockAddr(soakNormal(rng)))
				e.branch(x86.JMP, 0, soakBlockAddr(soakNormal(rng)))
			case 4: // compare/branch chain: the cmp+jcc fusion and, once
				// hot, the superblock's fused compare guards
				if rng.Intn(2) == 0 {
					e.emit(x86.Inst{Op: x86.CMP, Dst: soakScratch32(rng), Src: soakScratch32(rng)})
				} else {
					e.emit(x86.Inst{Op: x86.TEST, Dst: x86.R(x86.EAX), Src: x86.R(x86.EAX)})
				}
				e.branch(x86.JCC, x86.CC(rng.Intn(16)), soakBlockAddr(soakNormal(rng)))
				e.branch(x86.JMP, 0, soakBlockAddr(soakNormal(rng)))
			case 2: // table-driven indirect jump, index data-dependent
				e.emit(x86.Inst{Op: x86.MOV, Dst: x86.R(x86.ESI), Src: soakScratch32(rng)})
				e.emit(x86.Inst{Op: x86.AND, Dst: x86.R(x86.ESI), Src: x86.I(soakBlocks - 1)})
				e.emit(x86.Inst{Op: x86.MOV, Dst: x86.R(x86.ESI), Src: x86.MSIB(x86.EBX, x86.ESI, 4, 0, 4)})
				e.emit(x86.Inst{Op: x86.JMPM, Dst: x86.R(x86.ESI)})
			default: // call a func block, then jump on
				e.branch(x86.CALL, 0, soakBlockAddr(soakBlocks-soakFuncs+rng.Intn(soakFuncs)))
				e.branch(x86.JMP, 0, soakBlockAddr(soakNormal(rng)))
			}
		}
		if e.cur > soakBlockAddr(i)+soakSlot {
			t.Fatalf("soak block %d overflows its %d-byte slot (%d bytes)", i, soakSlot, e.cur-soakBlockAddr(i))
		}
	}
	// The exit block: one UD2, trapping both engines at a known EIP.
	e := &soakEmit{t: t, mem: mem, cur: soakExit}
	e.emit(x86.Inst{Op: x86.UD2})

	// The jump table: every index resolves to a normal block.
	for i := 0; i < soakBlocks; i++ {
		addr := soakBlockAddr(soakNormal(rng))
		off := soakTable - soakCode + uint32(4*i)
		mem[off] = byte(addr)
		mem[off+1] = byte(addr >> 8)
		mem[off+2] = byte(addr >> 16)
		mem[off+3] = byte(addr >> 24)
	}
}

// soakVM builds a VM with the program image mapped, at the process's
// default level; soakVMAt builds it at a given one.
func soakVM(t *testing.T, image []byte) *VM { return soakVMAt(t, image, OptDefault) }

func soakVMAt(t *testing.T, image []byte, level OptLevel) *VM {
	t.Helper()
	v, err := New(Config{MemSize: 4 << 20, OptLevel: level})
	if err != nil {
		t.Fatal(err)
	}
	mapSoak(t, v, image)
	return v
}

// mapSoak maps a soak program image into v: the blocks read-only, the
// jump table, scratch page and checkpoint trace above them writable.
func mapSoak(t testing.TB, v *VM, image []byte) {
	const code = soakTable - soakCode
	mapGuest(t, v, soakCode, image[:code], code, image[code:], soakSpan-code)
}

// soakSeedRegs puts both VMs in the same randomized start state with
// the role registers pinned.
func soakSeedRegs(rng *rand.Rand, vms ...*VM) {
	vals := [8]uint32{}
	for r := range vals {
		vals[r] = rng.Uint32()
	}
	vals[x86.EBX] = soakTable
	vals[x86.EDI] = soakTrace
	vals[x86.EBP] = soakCountdown
	cf, zf, sf, of, pf := rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0
	for _, v := range vms {
		copy(v.m.Regs[:8], vals[:])
		v.m.Regs[x86.ESP] = v.MemSize() - 16
		v.m.CF, v.m.ZF, v.m.SF, v.m.OF, v.m.PF = cf, zf, sf, of, pf
		v.m.Fl.Op = 0
	}
}

// refRun drives the reference interpreter instruction-by-instruction
// until the program traps (the soak exit) or maxSteps elapse. A REP
// string move counts one step per element, as the engine charges it.
func refRun(v *VM, maxSteps int) (int, error) {
	for steps := 0; steps < maxSteps; steps++ {
		cur := v.eip
		inst, err := v.refFetch(cur)
		if err != nil {
			return steps, err
		}
		rep := v.stats.Steps
		if err := v.exec(&inst, cur); err != nil {
			return steps, err
		}
		steps += int(v.stats.Steps - rep)
	}
	return maxSteps, fmt.Errorf("no termination after %d steps", maxSteps)
}

// soakRunUop builds a soak VM for image with cfg, runs it from block 0
// to the exit trap, and returns the VM and its trap.
func soakRunUop(t *testing.T, image []byte, cfg Config, seed func(*VM)) (*VM, *Trap) {
	t.Helper()
	v, err := New(Config{MemSize: 4 << 20, Fuel: cfg.Fuel, OptLevel: cfg.OptLevel})
	if err != nil {
		t.Fatal(err)
	}
	mapSoak(t, v, image)
	seed(v)
	v.eip = soakBlockAddr(0)
	br, err := v.lookupBlock(v.eip)
	if err != nil {
		t.Fatal(err)
	}
	err1 := v.execUops(br)
	v.materializeFlags()
	tr, ok := err1.(*Trap)
	if !ok {
		t.Fatalf("soak run did not trap: %v", err1)
	}
	return v, tr
}

// TestOptLadder runs identical soak programs at every optimization
// level — from one instruction per fragment up to every superblock
// compiled on first entry — and requires the complete architectural
// outcome (trap site, registers, flags, the whole guest image including
// the per-block checkpoint trace, Steps) to be identical. A level may
// only buy speed, never observable behavior. A second round repeats the
// comparison under a tight fuel budget, pinning the fuel-trap EIP and
// accounting through fused micro-ops, superblock promotion and compiled
// traces.
func TestOptLadder(t *testing.T) {
	levels := OptLevels()
	for _, seed := range []int64{11, 22} {
		rng := rand.New(rand.NewSource(seed))
		image := make([]byte, soakSpan)
		soakBuildProgram(t, rng, image)
		var regSeed [8]uint32
		for r := range regSeed {
			regSeed[r] = rng.Uint32()
		}
		seedVM := func(v *VM) {
			copy(v.m.Regs[:8], regSeed[:])
			v.m.Regs[x86.EBX] = soakTable
			v.m.Regs[x86.EDI] = soakTrace
			v.m.Regs[x86.EBP] = soakCountdown
			v.m.Regs[x86.ESP] = v.MemSize() - 16
			v.m.Fl.Op = 0
		}

		for _, fuel := range []int64{0 /* unlimited */, 20011} {
			base, baseTrap := soakRunUop(t, image, Config{Fuel: fuel, OptLevel: levels[0]}, seedVM)
			for _, level := range levels[1:] {
				v, tr := soakRunUop(t, image, Config{Fuel: fuel, OptLevel: level}, seedVM)
				if tr.Kind != baseTrap.Kind || tr.EIP != baseTrap.EIP {
					t.Fatalf("seed %d fuel %d level %v: trap %v, want %v", seed, fuel, level, tr, baseTrap)
				}
				for r := 0; r < 8; r++ {
					if v.m.Regs[r] != base.m.Regs[r] {
						t.Fatalf("seed %d fuel %d level %v: %s = %#x, want %#x",
							seed, fuel, level, x86.Reg(r), v.m.Regs[r], base.m.Regs[r])
					}
				}
				if v.m.CF != base.m.CF || v.m.ZF != base.m.ZF || v.m.SF != base.m.SF || v.m.OF != base.m.OF || v.m.PF != base.m.PF {
					t.Fatalf("seed %d fuel %d level %v: flags diverged", seed, fuel, level)
				}
				if !bytes.Equal(v.mem[soakCode:soakCode+soakSpan], base.mem[soakCode:soakCode+soakSpan]) {
					t.Fatalf("seed %d fuel %d level %v: guest image diverged", seed, fuel, level)
				}
				if v.Stats().Steps != base.Stats().Steps {
					t.Fatalf("seed %d fuel %d level %v: steps %d, want %d",
						seed, fuel, level, v.Stats().Steps, base.Stats().Steps)
				}
			}
		}
	}
}

// TestSuperblockSnapshotReset pins the superblock/snapshot interplay:
// superblocks are per-VM profile state, so a Reset must drop them (the
// bref wrappers are replaced) while the shared base-block cache
// survives — and the rewound VM must re-profile, re-form and produce
// the identical outcome.
func TestSuperblockSnapshotReset(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	image := make([]byte, soakSpan)
	soakBuildProgram(t, rng, image)
	v := soakVM(t, image)
	snap := v.Snapshot() // pristine, pre-run

	soakSeedRegs(rand.New(rand.NewSource(34)), v)
	v.eip = soakBlockAddr(0)
	br, err := v.lookupBlock(v.eip)
	if err != nil {
		t.Fatal(err)
	}
	_ = v.execUops(br)
	formed := v.Stats().SuperblocksFormed
	if formed == 0 {
		t.Fatal("soak run formed no superblocks; the hot threshold is not being reached")
	}
	trace1 := append([]byte(nil), v.mem[soakTrace:soakTrace+soakCountdown*soakCkptBytes]...)

	// Reset rewinds to the pristine image and drops every bref — and
	// with them the formed superblocks. The re-run must re-form them
	// (stats accumulate across resets) and reproduce the trace exactly.
	if err := v.Reset(snap); err != nil {
		t.Fatal(err)
	}
	soakSeedRegs(rand.New(rand.NewSource(34)), v)
	v.eip = soakBlockAddr(0)
	br, err = v.lookupBlock(v.eip)
	if err != nil {
		t.Fatal(err)
	}
	_ = v.execUops(br)
	if again := v.Stats().SuperblocksFormed; again <= formed {
		t.Fatalf("no superblocks re-formed after Reset: %d then %d", formed, again)
	}
	trace2 := v.mem[soakTrace : soakTrace+soakCountdown*soakCkptBytes]
	if !bytes.Equal(trace1, trace2) {
		t.Fatal("checkpoint trace diverged across Reset")
	}
}

// TestDiffSoakMultiBlock is the long-horizon differential soak. Each
// seed builds a fresh random program and runs it to completion on the
// uop engine (blocks, chaining, inline caches, lazy flags) and on the
// reference interpreter (instruction at a time, eager flags). The trap
// site, the final architectural state, the memory image — including
// the per-block-boundary checkpoint trace — must agree exactly, over
// 10k+ steps per seed.
func TestDiffSoakMultiBlock(t *testing.T) { runDiffSoakMultiBlock(t, OptDefault) }

// TestDiffSoakTier2Forced reruns the multi-block soak with the tier-2
// engine pinned to both extremes: every superblock compiled on its first
// entry and the tier disabled outright. The soak's exactness assertions
// — trap EIP, steps==fuel accounting, registers, flags, memory image —
// must hold identically in both, which is the wall that keeps compiled
// traces architecturally indistinguishable from the dispatch loop. Every
// program runs twice on its one VM: the second pass starts on the traces
// the first one compiled and linked, so it goes from trace to trace
// where the first came back to the dispatcher.
func TestDiffSoakTier2Forced(t *testing.T) { forTier2Legs(t, runDiffSoakMultiBlock) }

func runDiffSoakMultiBlock(t *testing.T, level OptLevel) {
	seeds := []int64{101, 202, 303, 404, 505, 606}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			image := make([]byte, soakSpan)
			soakBuildProgram(t, rng, image)
			v1 := soakVMAt(t, image, level) // uop engine
			regSeed := rng.Int63()
			for pass := 1; pass <= 2; pass++ {
				soakDiffPass(t, v1, image, regSeed)
				if t.Failed() {
					t.Fatalf("pass %d on this VM", pass)
				}
			}
			if _, err := v1.CheckLinks(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// soakDiffPass runs the soak program in image once on v1 — rewound to
// the program's start state, its translation state kept — and once on a
// fresh reference VM, and compares what they leave.
func soakDiffPass(t *testing.T, v1 *VM, image []byte, regSeed int64) {
	t.Helper()
	copy(v1.mem[soakCode:], image)
	v2 := soakVM(t, image) // reference engine
	soakSeedRegs(rand.New(rand.NewSource(regSeed)), v1, v2)
	steps0, executed0 := v1.stats.Steps, v1.stats.Tier2Executed

	v1.eip, v2.eip = soakBlockAddr(0), soakBlockAddr(0)
	br, err := v1.lookupBlock(v1.eip)
	if err != nil {
		t.Fatal(err)
	}
	err1 := v1.execUops(br)
	v1.materializeFlags()
	refSteps, err2 := refRun(v2, 1<<20)

	tr1, ok1 := err1.(*Trap)
	tr2, ok2 := err2.(*Trap)
	if !ok1 || !ok2 {
		t.Fatalf("termination differs: uop err=%v, ref err=%v", err1, err2)
	}
	if tr1.Kind != tr2.Kind || tr1.EIP != tr2.EIP {
		t.Fatalf("trap diverged: uop %v, ref %v", tr1, tr2)
	}
	if tr1.EIP != soakExit {
		t.Fatalf("program trapped at %#x, not the exit block %#x: %v", tr1.EIP, soakExit, tr1)
	}
	steps := v1.stats.Steps - steps0
	if steps < 10000 {
		t.Fatalf("soak too short: %d uop-engine steps (ref: %d), want >= 10000", steps, refSteps)
	}
	// Fuel/steps accounting must stay exact through fusion (one
	// micro-op charging several instructions), superblock guard
	// exits (tail refunds) and trap refunds. The uop engine
	// charges the trapping UD2 itself; refRun's count excludes
	// it, hence the +1.
	if steps != uint64(refSteps)+1 {
		t.Errorf("steps accounting diverged: %d (uop) vs %d+1 (ref)", steps, refSteps)
	}
	// When the tier-2 wall is running, the comparison above
	// must actually have covered compiled traces — a soak that
	// silently stayed on tier-1 would prove nothing. The one
	// legitimate excuse: a seed whose every superblock holds a
	// tier-1-only micro-op (tier1Only), which tier 2 never compiles.
	if v1.level == OptTier2 && nativeTier2() && v1.stats.Tier2Executed == executed0 {
		for _, br := range v1.blocks {
			if br.sb == nil {
				continue
			}
			us := br.sb.b.uops
			if i := slices.IndexFunc(us, func(u uop.Uop) bool { return tier1Only[u.Kind] != "" }); i < 0 {
				t.Errorf("tier 2 on but no compiled trace ran (%d compiled), "+
					"yet superblock %#x holds no tier-1-only micro-op",
					v1.Stats().Tier2Compiled, us[0].EIP)
			} else {
				t.Logf("superblock %#x stays on tier-1 by design: uop %d is %v", us[0].EIP, i, us[i].Kind)
			}
		}
	}

	for r := 0; r < 8; r++ {
		if v1.m.Regs[r] != v2.m.Regs[r] {
			t.Errorf("%s = %#x (uop) vs %#x (ref)", x86.Reg(r), v1.m.Regs[r], v2.m.Regs[r])
		}
	}
	if v1.m.CF != v2.m.CF || v1.m.ZF != v2.m.ZF || v1.m.SF != v2.m.SF || v1.m.OF != v2.m.OF || v1.m.PF != v2.m.PF {
		t.Errorf("final flags diverged: cf=%v zf=%v sf=%v of=%v pf=%v (uop) vs cf=%v zf=%v sf=%v of=%v pf=%v (ref)",
			v1.m.CF, v1.m.ZF, v1.m.SF, v1.m.OF, v1.m.PF, v2.m.CF, v2.m.ZF, v2.m.SF, v2.m.OF, v2.m.PF)
	}
	// The checkpoint trace is the per-block-boundary comparison:
	// find the first diverging checkpoint for a usable failure.
	traceEnd := v1.m.Regs[x86.EDI]
	if v2.m.Regs[x86.EDI] == traceEnd {
		for ck := uint32(soakTrace); ck < traceEnd; ck += soakCkptBytes {
			if !bytes.Equal(v1.mem[ck:ck+soakCkptBytes], v2.mem[ck:ck+soakCkptBytes]) {
				t.Errorf("checkpoint %d diverged: uop %x, ref %x",
					(ck-soakTrace)/soakCkptBytes, v1.mem[ck:ck+soakCkptBytes], v2.mem[ck:ck+soakCkptBytes])
				break
			}
		}
	}
	if !bytes.Equal(v1.mem[soakCode:soakCode+soakSpan], v2.mem[soakCode:soakCode+soakSpan]) {
		t.Error("guest memory image diverged")
	}
}
