//go:build amd64 && linux

package vm

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"vxa/internal/vm/tier2"
	"vxa/internal/vm/uop"
)

// This file reads emitted trace code back. decodeHost is a decoder for
// exactly the encodings tier2's assembler (nasm_amd64.go) produces, and
// scanTrace an abstract interpreter over them that shares nothing with
// the emitter: it tracks what each host register holds as a symbolic
// value, learns a fact from every bounds check it recognizes, and
// requires of every instruction that it touch memory only where the
// convention and those facts allow.

// Host register numbers.
const (
	rAX, rCX, rDX, rBX, rSP, rBP, rSI, rDI = 0, 1, 2, 3, 4, 5, 6, 7
	rR8, rR12, rR14                        = 8, 12, 14
)

// pinnedReg reports whether host register r carries a guest register.
func pinnedReg(r int) bool {
	switch r {
	case rBX, rBP, 9, 10, 11, 12, 13, 15:
		return true
	}
	return false
}

// hostInst is one decoded instruction of emitted trace code.
type hostInst struct {
	n   int
	w   bool // REX.W
	op  int  // opcode; 0x0F00|second byte for the two-byte ones
	reg int  // ModRM.reg with REX.R: a register or the /ext
	// The r/m operand: a register (direct), or memory at
	// [base+idx*scale+disp] with base and idx -1 when absent.
	modrm  bool
	direct bool
	base   int
	idx    int
	scale  int
	disp   int32
	imm    int64 // immediate, sign-extended; for a branch the target offset
}

// mem reports whether the instruction has a memory operand.
func (in *hostInst) mem() bool { return in.modrm && !in.direct }

// decodeHost decodes the instruction at code[at:]. It fails on anything
// the assembler does not produce, so scanning a trace with it also
// proves the trace is nothing but instructions the assembler meant to
// emit — in particular no far return, no call, no branch through a
// register.
func decodeHost(code []byte, at int) (in hostInst, err error) {
	defer func() {
		if recover() != nil {
			err = fmt.Errorf("instruction runs off the end of the code")
		}
	}()
	i := at
	var rex byte
	if code[i]&0xF0 == 0x40 {
		rex = code[i]
		i++
	}
	in.w = rex&8 != 0
	in.base, in.idx = -1, -1
	in.op = int(code[i])
	i++
	immLen := 0
	switch op := in.op; {
	case op == 0x0F:
		in.op = 0x0F00 | int(code[i])
		i++
		switch op2 := in.op & 0xFF; {
		case op2&0xF0 == 0x80: // jcc rel32
			immLen = 4
		case op2&0xF0 == 0x90, op2 == 0xB6, op2 == 0xB7, op2 == 0xBE, op2 == 0xBF, op2 == 0xAF:
			in.modrm = true
		default:
			return in, fmt.Errorf("unknown opcode 0F %02X", op2)
		}
	case op == 0x01, op == 0x03, op == 0x09, op == 0x0B, op == 0x13,
		op == 0x21, op == 0x23, op == 0x29, op == 0x2B, op == 0x31, op == 0x33,
		op == 0x39, op == 0x3B, op == 0x63, op == 0x85, op == 0x87, op == 0x88, op == 0x89,
		op == 0x8A, op == 0x8B, op == 0x8D, op == 0xD3, op == 0xFF:
		in.modrm = true
	case op == 0x81, op == 0xC7, op == 0x69:
		in.modrm, immLen = true, 4
	case op == 0x83, op == 0xC1, op == 0xC6:
		in.modrm, immLen = true, 1
	case op == 0xF7:
		in.modrm = true
		if code[i]>>3&7 == 0 { // test r/m32, imm32
			immLen = 4
		}
	case op&0xF8 == 0xB8: // mov reg, imm32 / movabs reg, imm64
		in.reg = op&7 | int(rex&1)<<3
		immLen = 4
		if in.w {
			immLen = 8
		}
	case op&0xF0 == 0x50: // push/pop reg
		in.reg = op&7 | int(rex&1)<<3
	case op == 0x99, op == 0xC3: // cqo, ret
	default:
		return in, fmt.Errorf("unknown opcode %02X", op)
	}
	if in.modrm {
		m := code[i]
		i++
		mod, rm := m>>6, int(m&7)
		in.reg = int(m>>3&7) | int(rex&4)<<1
		switch {
		case mod == 3:
			in.direct, in.base = true, rm|int(rex&1)<<3
		case rm == 4:
			sib := code[i]
			i++
			in.scale = 1 << (sib >> 6)
			if x := int(sib>>3&7) | int(rex&2)<<2; x != rSP {
				in.idx = x
			}
			if b := int(sib & 7); b == 5 && mod == 0 {
				mod = 2 // no base: disp32 follows
			} else {
				in.base = b | int(rex&1)<<3
			}
		case rm == 5 && mod == 0:
			return in, fmt.Errorf("rip-relative operand")
		default:
			in.base = rm | int(rex&1)<<3
		}
		switch mod {
		case 1:
			in.disp = int32(int8(code[i]))
			i++
		case 2:
			in.disp = int32(le32(code, uint32(i)))
			i += 4
		}
	}
	switch immLen {
	case 1:
		in.imm = int64(int8(code[i]))
	case 4:
		in.imm = int64(int32(le32(code, uint32(i))))
	case 8:
		in.imm = int64(uint64(le32(code, uint32(i))) | uint64(le32(code, uint32(i+4)))<<32)
	}
	in.n = i + immLen - at
	if in.op&0xFFF0 == 0x0F80 {
		in.imm += int64(at + in.n)
	}
	if at+in.n > len(code) {
		return in, fmt.Errorf("instruction runs off the end of the code")
	}
	return in, nil
}

// hval is what the scan knows a host register to hold. A symbol stands
// for one unknown 32-bit value — a guest register's content at some
// point; symbol 0 is the number zero.
//
//	lin32: the zero-extended 32-bit value symB + symI*scale + c mod 2^32
//	       (symI is 0 for a plain register: its symbol plus the constant
//	       it has moved by)
//	wide:  the exact 64-bit sum zext32(symB + off)*scale + c, which a
//	       64-bit lea forms from one plain register (symB 0: the
//	       constant c)
//	cur:   Machine.Cur; slot: Machine.Links + Machine.Cur, a pointer to
//	       the running trace's link slots
//	top:   anything else
type hval struct {
	kind       int
	symB, symI int
	scale      int64
	off, c     int64
}

const (
	top = iota
	lin32
	wide
	cur
	slot
)

// fact is one recognized bounds check: [v, v+span) lies inside the heap
// window above floor or inside the stack window. With atLeast it is
// instead "Brk >= v.c".
type fact struct {
	v           hval
	floor, span int64
	atLeast     bool
}

// scanState is the abstract machine state at one code offset.
type scanState struct {
	reg   [16]hval
	facts []fact
	stack []hval // what the code has pushed on the host stack
	live  bool
}

func (s *scanState) clone() *scanState {
	c := *s
	c.facts = append([]fact(nil), s.facts...)
	c.stack = append([]hval(nil), s.stack...)
	return &c
}

// traceScan scans one native trace.
type traceScan struct {
	t       *testing.T
	tr      *tier2.Trace
	code    []byte
	g       tier2.Geometry
	nsym    int
	pending map[int]*scanState // states flowing into forward branch targets
	slots   map[int32]bool
	rets    int
	off     int // offset of the instruction being scanned
	checks  int // bounds checks recognized
	covered int // guest memory operands found covered
	insts   int // instructions decoded
}

func (sc *traceScan) failf(format string, args ...any) {
	sc.t.Helper()
	sc.t.Fatalf("trace %#x, code offset %#x: %s", sc.tr.Entry, sc.off, fmt.Sprintf(format, args...))
}

func (sc *traceScan) fresh() hval {
	sc.nsym++
	return hval{kind: lin32, symB: sc.nsym}
}

// flow merges state s into the states waiting at branch target to.
func (sc *traceScan) flow(s *scanState, to int) {
	if to <= sc.off || to >= len(sc.code) {
		sc.failf("branch to %#x is not forward inside the code", to)
	}
	if p := sc.pending[to]; p != nil {
		sc.meet(p, s)
	} else {
		sc.pending[to] = s.clone()
	}
}

// meet narrows p to what holds in both p and s. A register that holds a
// zero-extended 32-bit value either way holds one afterwards: a new
// symbol.
func (sc *traceScan) meet(p, s *scanState) {
	for r := range p.reg {
		switch {
		case p.reg[r] == s.reg[r]:
		case p.reg[r].kind == lin32 && s.reg[r].kind == lin32:
			p.reg[r] = sc.fresh()
		default:
			p.reg[r] = hval{}
		}
	}
	kept := p.facts[:0]
	for _, f := range p.facts {
		for _, g := range s.facts {
			if f == g {
				kept = append(kept, f)
				break
			}
		}
	}
	p.facts = kept
	if len(p.stack) != len(s.stack) {
		sc.failf("paths meet with different stack depths")
	}
	for i := range p.stack {
		if p.stack[i] != s.stack[i] {
			p.stack[i] = hval{}
		}
	}
}

// scanTrace walks the whole code of a native trace — the mainline, then
// the exit paths behind it — in one forward pass (every branch the emitter
// produces is forward; loops go through link slots) and checks:
//
//   - it decodes end to end with decodeHost, and every byte is reached;
//   - the only indirect control transfers are ret and one "jmp [slot]"
//     per link slot, through a pointer built from Machine.Cur and
//     Machine.Links, at that slot's displacement;
//   - RSI, RDI, RSP and R14 are never written, and a pinned register only
//     by 32- and 8-bit operations, which keep its upper half zero;
//   - memory is touched only at Machine fields off RDI (never Regs: the
//     shim alone moves registers), at link slots (reads), on the host
//     stack by push/pop, and at guest memory off RSI — and every RSI
//     operand lies, for its whole size, inside a span that a bounds check
//     dominating it proved in bounds for the very values its registers
//     hold there: same symbols, any constant moves of the registers since
//     the check accounted for and shown not to have wrapped, a write only
//     under a check with the write floor;
//   - the exit paths touch no guest memory, and the code is as many
//     instructions as the trace's ledger says were emitted: nothing of a
//     micro-op is there a second time.
//
// It returns the bounds checks and the covered guest operands it found in
// the mainline.
func scanTrace(t *testing.T, tr *tier2.Trace) (checks, covered int) {
	t.Helper()
	sc := &traceScan{t: t, tr: tr, code: tr.Code(), g: tr.Geom,
		pending: make(map[int]*scanState), slots: make(map[int32]bool)}
	hotEnd, hotInsts := tr.HotEnd(), 0
	st := &scanState{live: true}
	for r := range st.reg {
		if pinnedReg(r) {
			st.reg[r] = sc.fresh()
		}
	}
	for sc.off = 0; sc.off < len(sc.code); {
		if sc.off == hotEnd {
			checks, covered, hotInsts = sc.checks, sc.covered, sc.insts
		}
		if p := sc.pending[sc.off]; p != nil {
			if st.live {
				sc.meet(p, st)
			}
			st = p
			delete(sc.pending, sc.off)
		}
		if !st.live {
			sc.failf("unreachable code")
		}
		if n := sc.check(st); n > 0 {
			for end := sc.off + n; sc.off < end; sc.insts++ {
				in, _ := decodeHost(sc.code, sc.off)
				sc.off += in.n
			}
			continue
		}
		in, err := decodeHost(sc.code, sc.off)
		if err != nil {
			sc.failf("%v", err)
		}
		sc.step(st, &in)
		sc.off += in.n
		sc.insts++
	}
	if st.live {
		t.Fatalf("trace %#x: control runs off the end of the code", tr.Entry)
	}
	if len(sc.slots) != tr.Slots {
		t.Fatalf("trace %#x: %d slot jumps for %d link slots", tr.Entry, len(sc.slots), tr.Slots)
	}
	for k := 0; k < tr.Slots; k++ {
		if !sc.slots[int32(k)*int32(tier2.LinkSize)] {
			t.Fatalf("trace %#x: no jump through slot %d", tr.Entry, k)
		}
	}
	if sc.rets == 0 {
		t.Fatalf("trace %#x never returns", tr.Entry)
	}
	if sc.covered != covered {
		t.Fatalf("trace %#x: %d guest memory operands in the exit paths", tr.Entry, sc.covered-covered)
	}
	if l := tr.Ledger; int64(hotInsts) != l.Hot || int64(sc.insts-hotInsts) != l.Stub {
		t.Fatalf("trace %#x: %d instructions in the mainline and %d behind it, the ledger says %d and %d",
			tr.Entry, hotInsts, sc.insts-hotInsts, l.Hot, l.Stub)
	}
	return checks, covered
}

// Machine field offsets the scan needs to recognize.
var (
	scanMachine tier2.Machine
	scanOffBrk  = int32(unsafe.Offsetof(scanMachine.Brk))
	scanOffCur  = int32(unsafe.Offsetof(scanMachine.Cur))
	scanOffLnk  = int32(unsafe.Offsetof(scanMachine.Links))
	scanOffRegs = int32(unsafe.Offsetof(scanMachine.Regs))
	scanOffMem  = int32(unsafe.Offsetof(scanMachine.Mem))
)

func isImmGroup(in *hostInst, ext int, w bool) bool {
	return (in.op == 0x81 || in.op == 0x83) && in.reg == ext && in.w == w
}

func isField(in *hostInst, off int32) bool {
	return in.mem() && in.base == rDI && in.idx < 0 && in.disp == off
}

// want decodes the instruction at *at and advances past it if ok accepts
// it.
func (sc *traceScan) want(at *int, ok func(in *hostInst) bool) bool {
	in, err := decodeHost(sc.code, *at)
	if err != nil || !ok(&in) {
		return false
	}
	*at += in.n
	return true
}

// check recognizes a bounds check starting at sc.off — the two orders of
// the emitter's rangeCheck, or the constant-span "cmp [Brk], hi; jb" —
// validates every constant in it against the trace's geometry, records
// the fact on the passing path, flows the pre-check state to the failure
// targets, and returns the check's length (0 if none starts here).
func (sc *traceScan) check(st *scanState) int {
	at := sc.off
	mlen, sbase := int64(sc.g.MemLen), int64(sc.g.StackBase)

	// cmp dword [rdi+Brk], hi ; jb fail
	var hi int64
	if sc.want(&at, func(in *hostInst) bool {
		hi = in.imm
		return isImmGroup(in, 7, false) && isField(in, scanOffBrk)
	}) {
		var fail int
		if !sc.want(&at, func(in *hostInst) bool { fail = int(in.imm); return in.op == 0x0F82 }) {
			return 0
		}
		sc.flow(st, fail)
		st.facts = append(st.facts, fact{v: hval{kind: wide, c: hi}, atLeast: true})
		sc.checks++
		return at - sc.off
	}

	// The address is RCX's content as it stands (the in-place checks), or
	// a sum a lea forms in RAX — with the stack window first, formed less
	// StackBase in RDX and only behind that window's test in RAX.
	var floor, span, k int64
	var fails []int
	x := rCX
	v := st.reg[rCX]
	lea := func(dst int, out *hostInst) func(in *hostInst) bool {
		return func(in *hostInst) bool { *out = *in; return in.op == 0x8D && in.reg == dst && in.mem() }
	}
	cmpImm := func(r int, out *int64) func(in *hostInst) bool {
		return func(in *hostInst) bool {
			*out = in.imm
			return isImmGroup(in, 7, true) && in.direct && in.base == r
		}
	}
	jcc := func(cc int, out *int) func(in *hostInst) bool {
		return func(in *hostInst) bool { *out = int(in.imm); return in.op == 0x0F80|cc }
	}
	heap := func() bool { // mov edx,[rdi+Brk]; sub rdx,span; cmp x,rdx
		return sc.want(&at, func(in *hostInst) bool {
			return in.op == 0x8B && !in.w && in.reg == rDX && isField(in, scanOffBrk)
		}) && sc.want(&at, func(in *hostInst) bool {
			span = in.imm
			return isImmGroup(in, 5, true) && in.direct && in.base == rDX
		}) && sc.want(&at, func(in *hostInst) bool {
			return in.op == 0x3B && in.w && in.reg == x && in.direct && in.base == rDX
		})
	}
	var l, l2 hostInst
	var ok, t1, t2 int
	if sc.want(&at, lea(rDX, &l)) {
		// lea rdx,[A-sbase]; cmp rdx,k; jbe ok; [lea rax,[A];]
		// cmp x,floor; jb fail; <heap>; ja fail; ok:
		if !sc.want(&at, cmpImm(rDX, &k)) || !sc.want(&at, jcc(6, &ok)) {
			return 0
		}
		l.disp += int32(sbase)
		if sc.want(&at, lea(rAX, &l2)) {
			if l2.w != l.w || l2.base != l.base || l2.idx != l.idx || l2.scale != l.scale || l2.disp != l.disp {
				sc.failf("a check tests two different addresses")
			}
			x, v = rAX, sc.sum(st, &l)
		} else if !l.w || l.base != rCX || l.idx >= 0 || l.disp != 0 {
			return 0
		}
		if !sc.want(&at, cmpImm(x, &floor)) || !sc.want(&at, jcc(2, &t1)) || !heap() || !sc.want(&at, jcc(7, &t2)) {
			return 0
		}
		fails = []int{t1, t2}
	} else {
		// [lea rax,[A] | mov eax,imm;] cmp x,floor; jb stack; <heap>;
		// jbe ok; stack: lea rdx,[x-sbase]; cmp rdx,k; ja fail; ok:
		if sc.want(&at, lea(rAX, &l)) {
			x, v = rAX, sc.sum(st, &l)
		} else if sc.want(&at, func(in *hostInst) bool { l = *in; return in.op == 0xB8 && !in.w }) {
			x, v = rAX, hval{kind: wide, c: int64(uint32(l.imm))}
		}
		var stack int
		if !sc.want(&at, cmpImm(x, &floor)) || !sc.want(&at, jcc(2, &stack)) || !heap() || !sc.want(&at, jcc(6, &ok)) {
			return 0
		}
		if at != stack || !sc.want(&at, lea(rDX, &l2)) || !l2.w || l2.base != x || l2.idx >= 0 || int64(l2.disp) != -sbase ||
			!sc.want(&at, cmpImm(rDX, &k)) || !sc.want(&at, jcc(7, &t1)) {
			sc.failf("malformed stack-window test")
		}
		fails = []int{t1}
	}
	if at != ok {
		sc.failf("a check's passing branch does not land behind it")
	}
	if v.kind != wide && v.kind != lin32 {
		sc.failf("a bounds check on an address the scan cannot name")
	}
	if span <= 0 || span > PageSize || k != mlen-span-sbase {
		sc.failf("check with span %d and stack limit %d: not this geometry's", span, k)
	}
	if floor != PageSize && floor != int64(sc.g.ROLimit) {
		sc.failf("check with floor %#x", floor)
	}
	for _, f := range fails {
		sc.flow(st, f)
	}
	st.reg[rDX] = hval{}
	if x == rAX {
		st.reg[rAX] = hval{}
	}
	st.facts = append(st.facts, fact{v: v, floor: floor, span: span})
	sc.checks++
	return at - sc.off
}

// sum is the value a lea computes from the registers' present values.
func (sc *traceScan) sum(st *scanState, l *hostInst) hval {
	val := func(r int) hval {
		if r < 0 {
			return hval{kind: lin32}
		}
		return st.reg[r]
	}
	b, x := val(l.base), val(l.idx)
	if b.kind != lin32 || x.kind != lin32 || b.symI != 0 || x.symI != 0 {
		return hval{}
	}
	s := int64(l.scale)
	if l.w {
		// Exact only over one zero-extended register.
		switch {
		case l.idx < 0:
			x, s = b, 1
		case l.base >= 0:
			return hval{}
		}
		if x.symB == 0 { // a register holding a constant
			return hval{kind: wide, c: int64(uint32(x.c))*s + int64(l.disp)}
		}
		return hval{kind: wide, symB: x.symB, off: x.c, scale: s, c: int64(l.disp)}
	}
	if l.idx < 0 {
		b.c += int64(l.disp)
		return b
	}
	return hval{kind: lin32, symB: b.symB, symI: x.symB, scale: s, c: b.c + x.c*s + int64(l.disp)}
}

// guest requires the RSI-based operand of in, size bytes, to be covered
// by a fact.
func (sc *traceScan) guest(st *scanState, in *hostInst, size int64, write bool) {
	if in.base != rSI {
		sc.failf("guest operand with RSI as index")
	}
	need := int64(PageSize)
	if write {
		need = int64(sc.g.ROLimit)
	}
	d := int64(in.disp)
	r := hval{kind: lin32} // no register: the number zero
	s := int64(1)
	if in.idx >= 0 {
		r, s = st.reg[in.idx], int64(in.scale)
	}
	if r.kind != lin32 {
		sc.failf("guest operand indexed by a value the scan cannot name")
	}
	mlen := int64(sc.g.MemLen)
	// A constant address: no register, or one holding a constant.
	isConst, addr := r.symB == 0 && r.symI == 0, d+int64(uint32(r.c))*s
	for _, f := range st.facts {
		v := f.v
		var delta int64 // the operand's address minus v
		switch {
		case f.atLeast:
			// Constant address under "Brk >= v.c".
			if isConst && addr >= need && addr+size <= v.c {
				sc.covered++
				return
			}
			continue
		case f.floor < need:
			continue
		case v.kind == wide && v.symB == 0:
			if !isConst {
				continue
			}
			delta = addr - v.c
		case v.kind == wide:
			if r.symI != 0 || r.symB != v.symB || s != v.scale {
				continue
			}
			// The register has moved by k since the check; zext32 of it
			// moved by k too only if that did not wrap, which the check's
			// own bounds on the register decide.
			k := r.c - v.off
			if k != 0 && (f.floor-v.c+s*k < 0 || mlen-f.span-v.c+s*k >= s<<32) {
				continue
			}
			delta = s*k + d - v.c
		default: // lin32: all mod 2^32, and the operand must be [rsi+reg]
			if s != 1 || r.symB != v.symB || r.symI != v.symI || r.scale != v.scale {
				continue
			}
			delta = int64(uint32(r.c-v.c)) + d
		}
		if delta >= 0 && delta+size <= f.span {
			sc.covered++
			return
		}
	}
	sc.failf("guest memory operand (%d bytes, write=%v) is covered by no bounds check", size, write)
}

// memop validates the memory operand of in.
func (sc *traceScan) memop(st *scanState, in *hostInst, size int64, write bool) {
	switch {
	case in.base == rSI || in.idx == rSI:
		sc.guest(st, in, size, write)
	case in.base == rDI && in.idx < 0:
		d := int64(in.disp)
		if d < 0 || d+size > int64(unsafe.Sizeof(scanMachine)) {
			sc.failf("operand outside the Machine")
		}
		lo, hi := int64(scanOffRegs), int64(scanOffRegs)+int64(unsafe.Sizeof(scanMachine.Regs))
		if d < hi && d+size > lo {
			sc.failf("emitted code touches Machine.Regs")
		}
		if d < int64(scanOffMem)+24 && d+size > int64(scanOffMem) {
			sc.failf("emitted code touches Machine.Mem")
		}
	case in.base >= 0 && in.idx < 0 && st.reg[in.base].kind == slot && !write:
		if in.disp < 0 || int64(in.disp)+size > int64(sc.tr.Slots)*int64(tier2.LinkSize) {
			sc.failf("link-table read outside the trace's slots")
		}
	default:
		sc.failf("memory operand [%d+%d*%d%+d] is not guest memory, a Machine field or a link slot", in.base, in.idx, in.scale, in.disp)
	}
}

// set binds register r to v, enforcing the write rules.
func (sc *traceScan) set(st *scanState, r int, v hval, w bool) {
	switch {
	case r == rSI || r == rDI || r == rSP || r == rR14:
		sc.failf("write to reserved register %d", r)
	case pinnedReg(r) && w:
		sc.failf("64-bit write to pinned register %d", r)
	}
	st.reg[r] = v
}

// step interprets one instruction that is not part of a bounds check.
func (sc *traceScan) step(st *scanState, in *hostInst) {
	size := int64(4)
	if in.w {
		size = 8
	}
	// dst32 is the value a 32-bit operation leaves in a register the scan
	// has nothing better for: some new zero-extended 32-bit value.
	dst32 := func() hval {
		if in.w {
			return hval{}
		}
		return sc.fresh()
	}
	switch op := in.op; {
	case op == 0x8B: // mov r, r/m
		switch {
		case in.direct && (in.w || st.reg[in.base].kind == lin32):
			sc.set(st, in.reg, st.reg[in.base], in.w)
		case in.direct:
			sc.set(st, in.reg, dst32(), in.w)
		default:
			sc.memop(st, in, size, false)
			v := dst32()
			if in.w && isField(in, scanOffCur) {
				v = hval{kind: cur}
			}
			sc.set(st, in.reg, v, in.w)
		}
	case op == 0x89: // mov r/m, r
		if in.direct {
			sc.failf("register move in store form")
		}
		sc.memop(st, in, size, true)
	case op == 0x8A: // mov r8, r/m8
		if !in.direct {
			sc.memop(st, in, 1, false)
		}
		sc.set(st, in.reg, sc.fresh(), false)
	case op == 0x88: // mov m8, r8
		if in.direct {
			sc.failf("byte register move in store form")
		}
		sc.memop(st, in, 1, true)
	case op == 0xC7, op == 0xC6: // mov r/m, imm
		if in.reg != 0 {
			sc.failf("C7/C6 /%d", in.reg)
		}
		if in.direct {
			sc.set(st, in.base, sc.fresh(), false)
		} else if op == 0xC6 {
			sc.memop(st, in, 1, true)
		} else {
			sc.memop(st, in, size, true)
		}
	case op&0xF8 == 0xB8: // mov reg, imm
		v := hval{}
		if !in.w {
			v = hval{kind: lin32, c: int64(uint32(in.imm))}
		}
		sc.set(st, in.reg, v, in.w)
	case op == 0x0FB6, op == 0x0FBE, op == 0x0FB7, op == 0x0FBF: // movzx/movsx
		if !in.direct {
			sc.memop(st, in, 1+int64(op&1), false)
		}
		sc.set(st, in.reg, dst32(), in.w)
	case op == 0x63: // movsxd r64, r/m32
		if !in.direct {
			sc.memop(st, in, 4, false)
		}
		sc.set(st, in.reg, hval{}, true)
	case op == 0x87: // xchg
		if !in.direct || in.w {
			sc.failf("xchg with memory")
		}
		x, y := st.reg[in.reg], st.reg[in.base]
		sc.set(st, in.reg, y, false)
		sc.set(st, in.base, x, false)
	case op == 0x8D: // lea
		if in.direct {
			sc.failf("lea of a register")
		}
		v := sc.sum(st, in)
		if !in.w && (v.kind == top || v.symI != 0 && pinnedReg(in.reg)) {
			// A guest value of its own: later sums are formed over it.
			v = sc.fresh()
		}
		sc.set(st, in.reg, v, in.w)
	case op&0xF8 == 0x50: // push
		st.stack = append(st.stack, st.reg[in.reg])
	case op&0xF8 == 0x58: // pop
		if len(st.stack) == 0 {
			sc.failf("pop of what the code did not push")
		}
		sc.set(st, in.reg, st.stack[len(st.stack)-1], true)
		st.stack = st.stack[:len(st.stack)-1]
	case op == 0x03, op == 0x0B, op == 0x13, op == 0x23, op == 0x2B, op == 0x33, op == 0x0FAF, op == 0x69:
		// reg = reg op r/m
		v := dst32()
		if !in.direct {
			sc.memop(st, in, size, false)
			if op == 0x03 && in.w && st.reg[in.reg].kind == cur && isField(in, scanOffLnk) {
				v = hval{kind: slot}
			}
		}
		sc.set(st, in.reg, v, in.w)
	case op == 0x3B: // cmp reg, r/m
		if !in.direct {
			sc.memop(st, in, size, false)
		}
	case op == 0x01, op == 0x09, op == 0x21, op == 0x29, op == 0x31: // r/m = r/m op reg
		if in.direct {
			sc.set(st, in.base, dst32(), in.w)
		} else {
			sc.memop(st, in, size, true)
		}
	case op == 0x39, op == 0x85: // cmp/test r/m, reg
		if !in.direct {
			sc.memop(st, in, size, false)
		}
	case op == 0x81, op == 0x83: // op r/m, imm
		switch {
		case !in.direct:
			sc.memop(st, in, size, in.reg != 7)
		case in.reg == 7:
		case (in.reg == 0 || in.reg == 5) && !in.w && st.reg[in.base].kind == lin32:
			v := st.reg[in.base]
			if in.reg == 0 {
				v.c += in.imm
			} else {
				v.c -= in.imm
			}
			sc.set(st, in.base, v, false)
		default:
			sc.set(st, in.base, dst32(), in.w)
		}
	case op == 0xF7:
		switch {
		case in.reg == 0:
			if !in.direct {
				sc.memop(st, in, size, false)
			}
		case in.reg == 1:
			sc.failf("F7 /1")
		case in.reg < 4: // not, neg
			if !in.direct {
				sc.failf("not/neg on memory")
			}
			sc.set(st, in.base, dst32(), in.w)
		default: // mul, imul, div, idiv
			if !in.direct {
				sc.memop(st, in, size, false)
			}
			st.reg[rAX], st.reg[rDX] = hval{}, hval{}
		}
	case op == 0xC1, op == 0xD3: // shifts
		if !in.direct {
			sc.failf("shift on memory")
		}
		sc.set(st, in.base, dst32(), in.w)
	case op == 0x99: // cqo
		st.reg[rDX] = hval{}
	case op&0xFFF0 == 0x0F90: // setcc r/m8
		if in.direct {
			sc.set(st, in.base, sc.fresh(), false)
		} else {
			sc.memop(st, in, 1, true)
		}
	case op&0xFFF0 == 0x0F80: // jcc
		sc.flow(st, int(in.imm))
	case op == 0xFF:
		if in.reg != 4 || in.direct || in.idx >= 0 || in.base < 0 || st.reg[in.base].kind != slot {
			sc.failf("indirect branch FF /%d is no slot jump", in.reg)
		}
		if in.disp%int32(tier2.LinkSize) != 0 || sc.slots[in.disp] {
			sc.failf("slot jump at displacement %d", in.disp)
		}
		sc.slots[in.disp] = true
		// What follows is the slot's own return stub — where the jump
		// lands until the VM links the slot, with this very state.
		if k := int(in.disp) / int(tier2.LinkSize); k >= sc.tr.Slots ||
			sc.tr.Unlinked()[k].Entry != sc.tr.EntryAddr()+uintptr(sc.off+in.n) {
			sc.failf("slot %d's return stub is not behind its jump", k)
		}
	case op == 0xC3:
		if len(st.stack) != 0 {
			sc.failf("ret with %d registers still pushed", len(st.stack))
		}
		sc.rets++
		st.live = false
	default:
		sc.failf("opcode %#x has no scan rule", op)
	}
}

// oneCopy requires of a trace's exit table and link slots that they are
// what one emission of its micro-ops us needs: no exit site is there
// twice, every slot belongs to one exit, and the slots are the ones the
// guards and the terminator of us ask for.
func oneCopy(t *testing.T, us []uop.Uop, tr *tier2.Trace) {
	t.Helper()
	type site struct {
		uop, started int
		kind         tier2.ExitKind
	}
	seen := make(map[site]bool)
	owned := make(map[int]bool)
	lazy := false
	for _, x := range tr.Exits {
		s := site{x.Uop, x.Started, x.Kind}
		if seen[s] {
			t.Fatalf("trace %#x: two exits of kind %d from micro-op %d", tr.Entry, x.Kind, x.Uop)
		}
		seen[s] = true
		if x.Slot >= 0 {
			if owned[x.Slot] || x.Slot >= tr.Slots {
				t.Fatalf("trace %#x: slot %d of %d has two exits, or none of the trace's", tr.Entry, x.Slot, tr.Slots)
			}
			owned[x.Slot] = true
		}
		lazy = lazy || x.Kind == tier2.ExitJccLazy
	}
	want := 0
	for i := range us {
		switch k := us[i].Kind; {
		case sbGuardKind(k), k == uop.KindRetGuard:
			want++
		case i < len(us)-1:
		case k == uop.KindJcc && lazy, k == uop.KindInt, k == uop.KindHlt, k == uop.KindUd2:
		case k == uop.KindJcc, k == uop.KindCmpJccRR, k == uop.KindCmpJccRI, k == uop.KindTestJccRR, k == uop.KindTestJccRI:
			want += 2
		default: // a jump, a call or a return, direct or not
			want++
		}
	}
	if tr.Slots != want || len(owned) != want {
		t.Fatalf("trace %#x: %d link slots, %d of them owned by an exit; its %d micro-ops need %d", tr.Entry, tr.Slots, len(owned), len(us), want)
	}
}

// vmTraceUops returns the micro-ops each compiled trace v holds was
// compiled from.
func vmTraceUops(v *VM) map[*tier2.Trace][]uop.Uop {
	m := make(map[*tier2.Trace][]uop.Uop)
	for _, br := range v.blocks {
		if sb := br.sb; sb != nil && sb.t2 != nil {
			m[sb.t2] = sb.b.uops
		}
	}
	return m
}

// soakTraces runs the hundred soak programs forced hot and hands every
// trace they compile, with its micro-ops, to f.
func soakTraces(t *testing.T, f func(us []uop.Uop, tr *tier2.Trace)) {
	traces := 0
	for seed := int64(1); seed <= 100; seed++ {
		image := make([]byte, soakSpan)
		rng := rand.New(rand.NewSource(seed))
		soakBuildProgram(t, rng, image)
		v := soakVMAt(t, image, OptEager)
		soakSeedRegs(rng, v)
		v.eip = soakBlockAddr(0)
		if _, err := v.Run(); err == nil {
			t.Fatal("soak program did not trap")
		}
		for tr, us := range vmTraceUops(v) {
			f(us, tr)
			traces++
		}
	}
	if traces < 50 {
		t.Fatalf("only %d traces scanned", traces)
	}
}

// TestEveryGuestAccessIsChecked: scanTrace's proof obligations, and
// oneCopy's, hold over every trace the soak programs compile. (The six
// decoders take the same scan in decoders_test.go.)
func TestEveryGuestAccessIsChecked(t *testing.T) {
	checks, covered := 0, 0
	soakTraces(t, func(us []uop.Uop, tr *tier2.Trace) {
		oneCopy(t, us, tr)
		c, m := scanTrace(t, tr)
		// The ledger counts a read-modify-write operand once, the scan
		// each instruction that uses it.
		if l := tr.Ledger; int64(c) != l.Checks || int64(m) < l.Accesses {
			t.Fatalf("trace %#x: the scan finds %d checks over %d guest operand uses in the hot body, the ledger says %d over %d operands",
				tr.Entry, c, m, l.Checks, l.Accesses)
		}
		checks, covered = checks+c, covered+m
	})
	t.Logf("%d guest memory operands in hot bodies ride on %d bounds checks", covered, checks)
}

// ScanTraces runs scanTrace and oneCopy over every compiled trace v holds
// and returns how many there were. It is exported (from a test file) for
// the external test that drives the built-in decoders, which this
// package cannot import.
func ScanTraces(t *testing.T, v *VM) int {
	t.Helper()
	ts := vmTraceUops(v)
	for tr, us := range ts {
		oneCopy(t, us, tr)
		scanTrace(t, tr)
	}
	return len(ts)
}
