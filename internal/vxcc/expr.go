package vxcc

import (
	"fmt"

	"vxa/internal/x86"
	"vxa/internal/x86/asm"
)

// This file is the instruction selector for expressions. Its one
// invariant: genTo(e, dst) leaves e's value in dst (zero-extended when e
// is byte-typed), may clobber any scratch register that is not in
// g.live, and preserves everything that is. A caller that keeps a value
// in a scratch register across the evaluation of a sibling holds it
// (g.hold) for that long.

// regSet is a set of the eight general registers.
type regSet uint8

func bit(r x86.Reg) regSet {
	if r > 7 {
		return 0
	}
	return 1 << r
}

const scratchRegs = regSet(1<<x86.EAX | 1<<x86.ECX | 1<<x86.EDX)

// scratchOrder is the order temporaries are handed out in: ECX last,
// because variable shift counts need it.
var scratchOrder = [...]x86.Reg{x86.EAX, x86.EDX, x86.ECX}

func isScratch(r x86.Reg) bool { return bit(r)&scratchRegs != 0 }

// byteReg reports whether r has an 8-bit form (AL, CL, DL, BL).
func byteReg(r x86.Reg) bool { return r <= x86.EBX }

func (g *codegen) hold(r x86.Reg)   { g.live |= bit(r) & scratchRegs }
func (g *codegen) unhold(r x86.Reg) { g.live &^= bit(r) }

// temp is a scratch register claimed for a while. If it held a pending
// value when claimed, that value waits on the stack until release.
type temp struct {
	reg     x86.Reg
	spilled bool
}

// take claims the specific scratch register r.
func (g *codegen) take(r x86.Reg) temp {
	if g.live&bit(r) == 0 {
		return temp{reg: r}
	}
	g.u.Op1(x86.PUSH, x86.R(r))
	g.unhold(r)
	return temp{reg: r, spilled: true}
}

// alloc claims a scratch register outside avoid: a free one if there is
// one, otherwise one whose pending value is pushed out of the way. avoid
// names the registers the caller will use together with the new one, so
// it never covers all three.
func (g *codegen) alloc(avoid regSet) temp {
	for _, r := range scratchOrder {
		if (g.live|avoid)&bit(r) == 0 {
			return temp{reg: r}
		}
	}
	for _, r := range scratchOrder {
		if avoid&bit(r) == 0 {
			return g.take(r)
		}
	}
	panic("vxcc: internal error: no scratch register to allocate")
}

// release gives a temp back; claims and releases nest.
func (g *codegen) release(t temp) {
	g.unhold(t.reg)
	if t.spilled {
		g.u.Op1(x86.POP, x86.R(t.reg))
		g.hold(t.reg)
	}
}

// temps is the (at most two) registers behind a memory or source operand.
type temps struct {
	n int
	t [2]temp
}

func (ts *temps) add(t temp) { ts.t[ts.n] = t; ts.n++ }

func (ts *temps) regs() regSet {
	var s regSet
	for i := 0; i < ts.n; i++ {
		s |= bit(ts.t[i].reg)
	}
	return s
}

func (g *codegen) releaseAll(ts temps) {
	for i := ts.n - 1; i >= 0; i-- {
		g.release(ts.t[i])
	}
}

// ---- small emitters -------------------------------------------------------

func (g *codegen) op2(op x86.Op, dst, src x86.Arg) { g.u.Op2(op, dst, src) }

// mov copies src into register dst, eliding the self-move. Zero is
// xor dst,dst: three bytes shorter, and no caller keeps flags alive
// across a move (cmp/test are always emitted last before jcc or setcc).
func (g *codegen) mov(dst x86.Reg, src x86.Arg) {
	switch {
	case src.Kind == x86.KindReg && src.Reg == dst:
	case src.Kind == x86.KindImm && src.Imm == 0 && src.Sym == "":
		g.op2(x86.XOR, x86.R(dst), x86.R(dst))
	default:
		g.op2(x86.MOV, x86.R(dst), src)
	}
}

// loadMem loads the object of type t at m into dst, zero-extending a byte.
func (g *codegen) loadMem(dst x86.Reg, m x86.Arg, t *Type) {
	if t.Size() == 1 {
		m.Size = 1
		g.op2(x86.MOVZX, x86.R(dst), m)
		return
	}
	m.Size = 4
	g.op2(x86.MOV, x86.R(dst), m)
}

// zext8 truncates r to its low byte.
func (g *codegen) zext8(r x86.Reg) {
	if byteReg(r) {
		g.op2(x86.MOVZX, x86.R(r), x86.R8(r))
	} else {
		g.op2(x86.AND, x86.R(r), x86.I(0xFF))
	}
}

func shiftImm(n uint32) x86.Arg { return x86.Arg{Kind: x86.KindImm, Imm: int32(n & 31), Size: 1} }

// log2 returns k when n == 1<<k (k in 0..31).
func log2(n uint32) (uint32, bool) {
	if n == 0 || n&(n-1) != 0 {
		return 0, false
	}
	k := uint32(0)
	for n > 1 {
		n >>= 1
		k++
	}
	return k, true
}

// scaleReg multiplies r by an element size.
func (g *codegen) scaleReg(r x86.Reg, size int) {
	if k, ok := log2(uint32(size)); ok {
		if k > 0 {
			g.op2(x86.SHL, x86.R(r), shiftImm(k))
		}
		return
	}
	g.u.Emit(x86.Inst{Op: x86.IMUL, Dst: x86.R(r), Src: x86.R(r), Aux: x86.I(int32(size))})
}

// internString places a string literal in rodata (NUL-terminated) once
// and returns its symbol.
func (g *codegen) internString(x *StrLit) string {
	if sym, ok := g.strs[x]; ok {
		return sym
	}
	g.strSeq++
	sym := fmt.Sprintf(".str.%d", g.strSeq)
	g.u.DefData(sym, asm.ROData, append(append([]byte{}, x.Val...), 0))
	g.strs[x] = sym
	return sym
}

// ---- expression properties ------------------------------------------------

// pure reports that evaluating e changes nothing: no assignment, no
// ++/--, no call.
func pure(e Expr) bool {
	ok := true
	walk(e, func(n any) bool {
		switch n.(type) {
		case *Assign, *IncDec, *Call:
			ok = false
		}
		return ok
	})
	return ok
}

// writesRegs reports whether evaluating e can assign a variable living
// in one of regs. Only an assignment or ++/-- naming the variable can: a
// register variable's address is never taken, and an inlined body sees
// none of its caller's locals.
func (g *codegen) writesRegs(e Expr, regs regSet) bool {
	if regs&^scratchRegs&^bit(x86.EBP) == 0 {
		return false
	}
	target := func(l Expr) bool {
		id, ok := l.(*Ident)
		if !ok {
			return false
		}
		v := g.bind[id]
		return v != nil && regs&bit(v.reg) != 0
	}
	found := false
	walk(e, func(n any) bool {
		switch x := n.(type) {
		case *Assign:
			found = found || target(x.LHS)
		case *IncDec:
			found = found || target(x.X)
		}
		return !found
	})
	return found
}

// mentions reports whether e refers to variable v at all.
func (g *codegen) mentions(e Expr, v *localVar) bool {
	found := false
	walk(e, func(n any) bool {
		if id, ok := n.(*Ident); ok && g.bind[id] == v {
			found = true
		}
		return !found
	})
	return found
}

// regVar returns the variable e names when it lives in a register.
func (g *codegen) regVar(e Expr) *localVar {
	if id, ok := e.(*Ident); ok {
		if v := g.bind[id]; v != nil && v.reg != x86.NoReg {
			return v
		}
	}
	return nil
}

// argRegs is the set of registers a memory or register operand reads.
func argRegs(a x86.Arg) regSet {
	switch a.Kind {
	case x86.KindReg:
		return bit(a.Reg)
	case x86.KindMem:
		return bit(a.Base) | bit(a.Index)
	}
	return 0
}

// ---- operands used in place -----------------------------------------------

// leaf returns e as a 32-bit source operand when that takes no code: a
// constant, the address of a global array or string, a register
// variable, a 4-byte scalar in the frame or in a global, or any of those
// under a cast that changes no bits.
func (g *codegen) leaf(e Expr) (x86.Arg, bool) {
	if v, ok := g.fold(e); ok {
		return x86.I(int32(v)), true
	}
	switch x := e.(type) {
	case *StrLit:
		return x86.ISym(g.internString(x)), true
	case *Ident:
		if v := g.bind[x]; v != nil {
			switch {
			case v.subst != nil:
				return g.leaf(v.subst)
			case v.reg != x86.NoReg:
				return x86.R(v.reg), true
			case v.typ.Size() == 4 && v.typ.IsScalar():
				return x86.M(x86.EBP, v.off), true
			}
			return x86.Arg{}, false
		}
		if gl, ok := g.globs[x.Name]; ok {
			switch {
			case gl.typ.Kind == TArray:
				return x86.ISym(gl.sym), true
			case gl.typ.Size() == 4:
				return x86.MAbs(gl.sym, 0, 4), true
			}
		}
	case *Cast:
		if x.Type.Kind != TByte || g.ty(x.X).Kind == TByte {
			return g.leaf(x.X)
		}
	}
	return x86.Arg{}, false
}

// src returns e as the 32-bit source operand of an instruction: in place
// when it is a leaf or a 4-byte object in memory, otherwise evaluated
// into a temporary. avoid is what the caller uses alongside it. The
// returned temps stay held until released.
func (g *codegen) src(e Expr, avoid regSet) (x86.Arg, temps, error) {
	if a, ok := g.leaf(e); ok {
		return a, temps{}, nil
	}
	if isLvalue(e) && g.ty(e).Size() == 4 {
		return g.genMem(e, avoid)
	}
	var ts temps
	t := g.alloc(avoid)
	if err := g.genTo(e, t.reg); err != nil {
		return x86.Arg{}, ts, err
	}
	g.hold(t.reg)
	ts.add(t)
	return x86.R(t.reg), ts, nil
}

// isLvalue reports the expression forms that designate memory through a
// computed address.
func isLvalue(e Expr) bool {
	switch x := e.(type) {
	case *Index:
		return true
	case *Unary:
		return x.Op == tStar
	}
	return false
}

// ---- memory operands ------------------------------------------------------

// genMem returns the memory operand for lvalue e — an identifier with a
// memory home, *p or x[i] — sized for the object's type. Base and index
// are register variables used in place or temporaries (outside avoid)
// that stay held until the caller releases them.
func (g *codegen) genMem(e Expr, avoid regSet) (x86.Arg, temps, error) {
	switch x := e.(type) {
	case *Ident:
		t, err := g.lvalType(x)
		if err != nil {
			return x86.Arg{}, temps{}, err
		}
		size := uint8(4)
		if t.Size() == 1 {
			size = 1
		}
		if v := g.bind[x]; v != nil {
			if v.reg != x86.NoReg || v.subst != nil {
				panic("vxcc: internal error: memory operand for a register variable")
			}
			m := x86.M(x86.EBP, v.off)
			m.Size = size
			return m, temps{}, nil
		}
		return x86.MAbs(g.globs[x.Name].sym, 0, size), temps{}, nil
	case *Unary:
		if x.Op == tStar {
			return g.address(x.X, nil, g.ty(x), avoid)
		}
	case *Index:
		return g.address(x.X, x.I, g.ty(x), avoid)
	}
	return x86.Arg{}, temps{}, cErrf(e.exprPos(), "not an lvalue")
}

// splitConst splits an integer expression into a non-constant part (nil
// when there is none) and a constant addend.
func (g *codegen) splitConst(e Expr) (Expr, uint32) {
	if v, ok := g.fold(e); ok {
		return nil, v
	}
	if b, ok := e.(*Binary); ok && (b.Op == tPlus || b.Op == tMinus) &&
		g.ty(b.X).IsInteger() && g.ty(b.Y).IsInteger() {
		if v, ok := g.fold(b.Y); ok {
			if b.Op == tMinus {
				v = -v
			}
			rest, c := g.splitConst(b.X)
			return rest, c + v
		}
		if v, ok := g.fold(b.X); ok && b.Op == tPlus {
			rest, c := g.splitConst(b.Y)
			return rest, c + v
		}
	}
	return e, 0
}

// address builds [ptr + idx*size] for an object of type elem; idx may be
// nil. ptr is evaluated before idx.
func (g *codegen) address(ptr, idx Expr, elem *Type, avoid regSet) (x86.Arg, temps, error) {
	size := elem.Size()
	m := x86.Arg{Kind: x86.KindMem, Base: x86.NoReg, Index: x86.NoReg, Size: 4}
	if size == 1 {
		m.Size = 1
	}
	var ts temps
	fail := func(err error) (x86.Arg, temps, error) {
		g.releaseAll(ts)
		return x86.Arg{}, temps{}, err
	}

	// p + c and p - c fold into the displacement.
	if b, ok := ptr.(*Binary); ok && (b.Op == tPlus || b.Op == tMinus) && g.ty(b.X).Kind == TPtr {
		if c, ok := g.fold(b.Y); ok {
			if b.Op == tMinus {
				c = -c
			}
			m.Disp += int32(c * uint32(size))
			ptr = b.X
		}
	}
	var rest Expr
	if idx != nil {
		var c uint32
		rest, c = g.splitConst(idx)
		m.Disp += int32(c * uint32(size))
	}

	id, _ := ptr.(*Ident)
	switch a, isLeaf := g.leaf(ptr); {
	case id != nil && g.bind[id] != nil && g.bind[id].typ.Kind == TArray:
		m.Base = x86.EBP
		m.Disp += g.bind[id].off
	case isLeaf && a.Kind == x86.KindImm:
		m.Sym = a.Sym
		m.Disp += a.Imm
	case isLeaf && a.Kind == x86.KindReg && (rest == nil || !g.writesRegs(rest, bit(a.Reg))):
		m.Base = a.Reg
	default:
		t := g.alloc(avoid)
		if err := g.genTo(ptr, t.reg); err != nil {
			return fail(err)
		}
		g.hold(t.reg)
		ts.add(t)
		m.Base = t.reg
	}

	if rest == nil {
		return m, ts, nil
	}
	_, scalable := log2(uint32(size))
	scalable = scalable && size <= 8
	if a, ok := g.leaf(rest); ok && a.Kind == x86.KindReg && scalable {
		m.Index, m.Scale = a.Reg, uint8(size)
		return m, ts, nil
	}
	t := g.alloc(avoid | ts.regs())
	if err := g.genTo(rest, t.reg); err != nil {
		return fail(err)
	}
	g.hold(t.reg)
	ts.add(t)
	m.Index, m.Scale = t.reg, uint8(size)
	if !scalable {
		g.scaleReg(t.reg, size)
		m.Scale = 1
	}
	return m, ts, nil
}

// pin makes a memory operand immune to what evaluating e may do: if e
// assigns a register variable the address is built from, the address is
// computed into a temporary now. With collapse it also reduces an
// operand holding two temporaries to one, for a caller about to need the
// other scratch registers.
func (g *codegen) pin(m x86.Arg, ts temps, e Expr, avoid regSet, collapse bool) (x86.Arg, temps) {
	if !(collapse && ts.n == 2) && (e == nil || !g.writesRegs(e, argRegs(m))) {
		return m, ts
	}
	t := ts.t[0] // reuse the operand's own first temporary if it has one
	if ts.n == 0 {
		t = g.alloc(avoid)
	}
	size := m.Size
	m.Size = 4
	g.op2(x86.LEA, x86.R(t.reg), m)
	if ts.n == 2 {
		g.release(ts.t[1])
	}
	g.hold(t.reg)
	var out temps
	out.add(t)
	pm := x86.M(t.reg, 0)
	pm.Size = size
	return pm, out
}

// ---- values ---------------------------------------------------------------

// genTo generates code leaving e's value in dst.
func (g *codegen) genTo(e Expr, dst x86.Reg) error {
	if a, ok := g.leaf(e); ok {
		g.mov(dst, a)
		return nil
	}
	switch x := e.(type) {
	case *Ident:
		if v := g.bind[x]; v != nil && v.subst != nil {
			return g.genTo(v.subst, dst)
		}
		// What leaf declined: a byte in memory, or a local array's address.
		t, _ := g.identType(x)
		var m x86.Arg
		if v := g.bind[x]; v != nil {
			m = x86.M(x86.EBP, v.off)
		} else {
			m = x86.MAbs(g.globs[x.Name].sym, 0, 4)
		}
		if t.Kind == TArray {
			g.op2(x86.LEA, x86.R(dst), m)
		} else {
			g.loadMem(dst, m, t)
		}
		return nil

	case *Unary:
		switch x.Op {
		case tMinus, tTilde:
			if err := g.genTo(x.X, dst); err != nil {
				return err
			}
			op := x86.NEG
			if x.Op == tTilde {
				op = x86.NOT
			}
			g.u.Op1(op, x86.R(dst))
			return nil
		case tBang:
			return g.boolTo(x, dst)
		case tStar:
			return g.loadTo(x, dst)
		case tAmp:
			if v := g.regVar(x.X); v != nil {
				panic("vxcc: internal error: address of a register variable")
			}
			m, ts, err := g.genMem(x.X, 0)
			if err != nil {
				return err
			}
			g.leaTo(dst, m)
			g.releaseAll(ts)
			return nil
		}

	case *Binary:
		switch x.Op {
		case tAndAnd, tOrOr, tEq, tNe, tLt, tLe, tGt, tGe:
			return g.boolTo(x, dst)
		}
		return g.binaryTo(x, dst)

	case *Assign:
		return g.assignTo(x, dst)

	case *IncDec:
		return g.incDecTo(x, dst)

	case *Cond:
		return g.condTo(x, dst)

	case *Call:
		return g.callTo(x, dst)

	case *Index:
		return g.loadTo(x, dst)

	case *Cast:
		if err := g.genTo(x.X, dst); err != nil {
			return err
		}
		if x.Type.Kind == TByte && g.ty(x.X).Kind != TByte {
			g.zext8(dst)
		}
		return nil
	}
	return cErrf(e.exprPos(), "unhandled expression")
}

// leaTo loads the address m denotes into dst.
func (g *codegen) leaTo(dst x86.Reg, m x86.Arg) {
	m.Size = 4
	switch {
	case m.Base == x86.NoReg && m.Index == x86.NoReg:
		g.op2(x86.MOV, x86.R(dst), x86.Arg{Kind: x86.KindImm, Imm: m.Disp, Size: 4, Sym: m.Sym})
	case m.Index == x86.NoReg && m.Disp == 0 && m.Sym == "":
		g.mov(dst, x86.R(m.Base))
	default:
		g.op2(x86.LEA, x86.R(dst), m)
	}
}

// loadTo loads the object lvalue e designates into dst.
func (g *codegen) loadTo(e Expr, dst x86.Reg) error {
	m, ts, err := g.genMem(e, 0)
	if err != nil {
		return err
	}
	g.loadMem(dst, m, g.ty(e))
	g.releaseAll(ts)
	return nil
}

// gen is genTo, or genVoid when dst is NoReg.
func (g *codegen) gen(e Expr, dst x86.Reg) error {
	if dst == x86.NoReg {
		return g.genVoid(e)
	}
	return g.genTo(e, dst)
}

// condTo evaluates c ? t : f into dst (NoReg: for effect).
func (g *codegen) condTo(x *Cond, dst x86.Reg) error {
	elseL, endL := g.newLabel("condf"), g.newLabel("condend")
	if err := g.genCondJump(x.C, elseL, false); err != nil {
		return err
	}
	if err := g.gen(x.T, dst); err != nil {
		return err
	}
	g.u.Jmp(endL)
	g.u.Label(elseL)
	if err := g.gen(x.F, dst); err != nil {
		return err
	}
	g.u.Label(endL)
	return nil
}

// genVoid evaluates e for its side effects only.
func (g *codegen) genVoid(e Expr) error {
	switch x := e.(type) {
	case *Assign:
		return g.assignTo(x, x86.NoReg)
	case *IncDec:
		return g.incDecTo(x, x86.NoReg)
	case *Call:
		return g.callTo(x, x86.NoReg)
	case *Cast:
		return g.genVoid(x.X)
	case *Cond:
		return g.condTo(x, x86.NoReg)
	}
	if pure(e) {
		return nil
	}
	t := g.alloc(0)
	err := g.genTo(e, t.reg)
	g.release(t)
	return err
}

// ---- arithmetic -----------------------------------------------------------

var aluOps = map[tokKind]x86.Op{
	tPlus: x86.ADD, tMinus: x86.SUB, tAmp: x86.AND, tPipe: x86.OR, tCaret: x86.XOR,
}

func commutative(op tokKind) bool {
	switch op {
	case tPlus, tStar, tAmp, tPipe, tCaret:
		return true
	}
	return false
}

// binaryTo evaluates an arithmetic x.X op x.Y into dst.
func (g *codegen) binaryTo(x *Binary, dst x86.Reg) error {
	lt, rt := g.ty(x.X), g.ty(x.Y)
	X, Y := x.X, x.Y
	// int + ptr is ptr + int with the operands read in the other order;
	// any leaf left operand of a commutative operator can go second when
	// running the right one first cannot be observed.
	if commutative(x.Op) {
		_, constX := g.fold(X)
		_, leafX := g.leaf(X)
		_, leafY := g.leaf(Y)
		if constX || leafX && !leafY && pure(Y) || rt.Kind == TPtr && pure(X) && pure(Y) {
			X, Y, lt, rt = Y, X, rt, lt
		}
	}
	if lt.Kind != TPtr && rt.Kind == TPtr { // impure int + ptr: scale the left value in place
		return g.intPlusPtr(X, Y, dst)
	}

	// a*k + b with a (and b) in registers and k in {2,4,8}: one lea.
	if x.Op == tPlus && lt.Kind != TPtr && rt.Kind != TPtr {
		if done, err := g.scaledAddTo(X, Y, dst); done || err != nil {
			return err
		}
	}

	// a + b and a + c with a in a register: one lea instead of mov + add.
	if x.Op == tPlus || x.Op == tMinus {
		if a, ok := g.leaf(X); ok && a.Kind == x86.KindReg && a.Reg != dst {
			scale := 1
			if lt.Kind == TPtr && rt.Kind != TPtr {
				scale = lt.Elem.Size()
			}
			b, okb := g.leaf(Y)
			switch {
			case okb && b.Kind == x86.KindImm && b.Sym == "" && !(lt.Kind == TPtr && rt.Kind == TPtr):
				d := b.Imm * int32(scale)
				if x.Op == tMinus {
					d = -d
				}
				g.op2(x86.LEA, x86.R(dst), x86.M(a.Reg, d))
				return nil
			case okb && b.Kind == x86.KindReg && x.Op == tPlus && (scale == 1 || scale == 2 || scale == 4 || scale == 8):
				g.op2(x86.LEA, x86.R(dst), x86.MSIB(a.Reg, b.Reg, uint8(scale), 0, 4))
				return nil
			}
		}
	}

	if err := g.genTo(X, dst); err != nil {
		return err
	}
	g.hold(dst)
	defer g.unhold(dst)
	return g.applyOp(x.Op, dst, Y, lt, rt)
}

// scaledReg matches r*k and r<<n for a register variable r and a scale k
// of 2, 4 or 8: what an address mode multiplies for free.
func (g *codegen) scaledReg(e Expr) (x86.Reg, uint8, bool) {
	b, ok := e.(*Binary)
	if !ok || b.Op != tStar && b.Op != tShl || g.ty(b.X).Kind == TPtr || g.ty(b.Y).Kind == TPtr {
		return 0, 0, false
	}
	X, Y := b.X, b.Y
	if _, ok := g.fold(X); ok && b.Op == tStar {
		X, Y = Y, X
	}
	k, ok := g.fold(Y)
	if b.Op == tShl {
		k = 1 << (k & 31)
	}
	a, isLeaf := g.leaf(X)
	if !ok || !isLeaf || a.Kind != x86.KindReg || k != 2 && k != 4 && k != 8 {
		return 0, 0, false
	}
	return a.Reg, uint8(k), true
}

// scaledAddTo emits X + Y as lea when one side is a scaled register
// variable: with a register or constant on the other side the whole sum
// is one instruction, otherwise the scaled term is folded into the add.
func (g *codegen) scaledAddTo(X, Y Expr, dst x86.Reg) (bool, error) {
	r, k, ok := g.scaledReg(X)
	other := Y
	if !ok {
		if r, k, ok = g.scaledReg(Y); !ok {
			return false, nil
		}
		other = X
	}
	m := x86.MSIB(x86.NoReg, r, k, 0, 4)
	switch a, isLeaf := g.leaf(other); {
	case isLeaf && a.Kind == x86.KindImm && a.Sym == "":
		m.Disp = a.Imm
	case isLeaf && a.Kind == x86.KindReg:
		m.Base = a.Reg
	case other == X && !g.writesRegs(X, bit(r)):
		// X is arbitrary and runs first; r is read after it.
		if err := g.genTo(X, dst); err != nil {
			return true, err
		}
		m.Base = dst
	default:
		return false, nil
	}
	g.op2(x86.LEA, x86.R(dst), m)
	return true, nil
}

// intPlusPtr handles i + p when neither side may be reordered.
func (g *codegen) intPlusPtr(i, p Expr, dst x86.Reg) error {
	if err := g.genTo(i, dst); err != nil {
		return err
	}
	g.scaleReg(dst, g.ty(p).Elem.Size())
	g.hold(dst)
	defer g.unhold(dst)
	s, ts, err := g.src(p, bit(dst))
	if err != nil {
		return err
	}
	g.op2(x86.ADD, x86.R(dst), s)
	g.releaseAll(ts)
	return nil
}

// applyOp emits dst = dst op Y for an arithmetic operator, where dst
// already holds the left value (of type lt) and is held or a variable's
// register. It is the shared tail of x op y and x op= y.
func (g *codegen) applyOp(op tokKind, dst x86.Reg, Y Expr, lt, rt *Type) error {
	c, isConst := g.fold(Y)

	// Pointer arithmetic scales the integer side.
	if lt.Kind == TPtr && rt.Kind != TPtr {
		size := lt.Elem.Size()
		if isConst {
			g.op2(aluOps[op], x86.R(dst), x86.I(int32(c*uint32(size))))
			return nil
		}
		_, pow2 := log2(uint32(size))
		if a, ok := g.leaf(Y); ok && a.Kind == x86.KindReg && op == tPlus && pow2 && size <= 8 {
			g.op2(x86.LEA, x86.R(dst), x86.MSIB(dst, a.Reg, uint8(size), 0, 4))
			return nil
		}
		if size != 1 {
			t := g.alloc(bit(dst))
			if err := g.genTo(Y, t.reg); err != nil {
				return err
			}
			g.scaleReg(t.reg, size)
			g.op2(aluOps[op], x86.R(dst), x86.R(t.reg))
			g.release(t)
			return nil
		}
	}

	switch op {
	case tPlus, tMinus, tAmp, tPipe, tCaret:
		s, ts, err := g.src(Y, bit(dst))
		if err != nil {
			return err
		}
		g.op2(aluOps[op], x86.R(dst), s)
		g.releaseAll(ts)
		if op == tMinus && lt.Kind == TPtr && rt.Kind == TPtr {
			if size := lt.Elem.Size(); size > 1 {
				if k, ok := log2(uint32(size)); ok {
					g.op2(x86.SAR, x86.R(dst), shiftImm(k))
				} else {
					return g.divide(dst, &IntLit{Val: int64(size)}, false, false)
				}
			}
		}
		return nil

	case tStar:
		if k, ok := log2(c); isConst && ok {
			if k > 0 {
				g.op2(x86.SHL, x86.R(dst), shiftImm(k))
			}
			return nil
		}
		if isConst {
			g.u.Emit(x86.Inst{Op: x86.IMUL, Dst: x86.R(dst), Src: x86.R(dst), Aux: x86.I(int32(c))})
			return nil
		}
		s, ts, err := g.src(Y, bit(dst))
		if err != nil {
			return err
		}
		g.op2(x86.IMUL, x86.R(dst), s)
		g.releaseAll(ts)
		return nil

	case tSlash, tPercent:
		unsigned := opUnsigned(op, lt, rt)
		if k, ok := log2(c); isConst && ok && unsigned {
			switch {
			case op == tPercent:
				g.op2(x86.AND, x86.R(dst), x86.I(int32(c-1)))
			case k > 0:
				g.op2(x86.SHR, x86.R(dst), shiftImm(k))
			}
			return nil
		}
		return g.divide(dst, Y, unsigned, op == tPercent)

	case tShl, tShr:
		sh := x86.SHL
		if op == tShr {
			sh = x86.SAR
			if opUnsigned(op, lt, rt) {
				sh = x86.SHR
			}
		}
		if isConst {
			if c&31 != 0 {
				g.op2(sh, x86.R(dst), shiftImm(c))
			}
			return nil
		}
		return g.shiftByCL(sh, x86.R(dst), dst, Y)
	}
	return cErrf(Y.exprPos(), "unhandled binary operator")
}

// shiftByCL shifts operand what (a register or memory) by the run-time
// count Y, which x86 wants in CL. keep is the register (if any) whose
// value must survive getting it there.
func (g *codegen) shiftByCL(sh x86.Op, what x86.Arg, keep x86.Reg, Y Expr) error {
	if keep == x86.ECX {
		// The value to shift sits where the count must go: work in
		// another register and move the result back.
		t := g.alloc(bit(x86.ECX))
		g.mov(t.reg, x86.R(x86.ECX))
		g.unhold(x86.ECX)
		g.hold(t.reg)
		err := g.shiftByCL(sh, x86.R(t.reg), t.reg, Y)
		g.mov(x86.ECX, x86.R(t.reg))
		g.hold(x86.ECX)
		g.release(t)
		return err
	}
	cl := g.take(x86.ECX)
	if err := g.genTo(Y, x86.ECX); err != nil {
		return err
	}
	g.op2(sh, what, x86.R8(x86.ECX))
	g.release(cl)
	return nil
}

// divide emits dst = dst / Y (or % Y when rem). dst is held or a
// variable's register.
func (g *codegen) divide(dst x86.Reg, Y Expr, unsigned, rem bool) error {
	// The divisor goes somewhere DIV can read it that is not EAX/EDX; it
	// is evaluated first, while the dividend still sits safely in dst.
	var divisor x86.Arg
	var ts temps
	if a, ok := g.leaf(Y); ok && a.Kind != x86.KindImm && argRegs(a)&(scratchRegs|bit(dst)) == 0 {
		divisor = a
	} else {
		avoid := bit(x86.EAX) | bit(x86.EDX) | bit(dst)
		if dst == x86.ECX {
			// Only ECX could take the divisor and the dividend is in it:
			// move the dividend to EAX early.
			a := g.take(x86.EAX)
			g.mov(x86.EAX, x86.R(x86.ECX))
			g.unhold(x86.ECX)
			g.hold(x86.EAX)
			err := g.divide(x86.EAX, Y, unsigned, rem)
			g.mov(x86.ECX, x86.R(x86.EAX))
			g.unhold(x86.EAX)
			g.hold(x86.ECX)
			g.release(a)
			return err
		}
		t := g.alloc(avoid)
		if err := g.genTo(Y, t.reg); err != nil {
			return err
		}
		g.hold(t.reg)
		ts.add(t)
		divisor = x86.R(t.reg)
	}
	var a, d temp
	if dst != x86.EAX {
		a = g.take(x86.EAX)
		g.mov(x86.EAX, x86.R(dst))
	}
	if dst != x86.EDX {
		d = g.take(x86.EDX)
	}
	if unsigned {
		g.mov(x86.EDX, x86.I(0))
		g.u.Op1(x86.DIV, divisor)
	} else {
		g.u.Op0(x86.CDQ)
		g.u.Op1(x86.IDIV, divisor)
	}
	res := x86.EAX
	if rem {
		res = x86.EDX
	}
	g.mov(dst, x86.R(res))
	if dst != x86.EDX {
		g.release(d)
	}
	if dst != x86.EAX {
		g.release(a)
	}
	g.releaseAll(ts)
	return nil
}

// ---- conditions -----------------------------------------------------------

// compareCC maps a comparison operator to the condition code that holds
// when it is true.
func compareCC(op tokKind, unsigned bool) x86.CC {
	switch op {
	case tEq:
		return x86.CCE
	case tNe:
		return x86.CCNE
	case tLt:
		if unsigned {
			return x86.CCB
		}
		return x86.CCL
	case tLe:
		if unsigned {
			return x86.CCBE
		}
		return x86.CCLE
	case tGt:
		if unsigned {
			return x86.CCA
		}
		return x86.CCG
	}
	if unsigned {
		return x86.CCAE
	}
	return x86.CCGE
}

// mirror is the operator that holds for (b, a) when op holds for (a, b).
func mirror(op tokKind) tokKind {
	switch op {
	case tLt:
		return tGt
	case tLe:
		return tGe
	case tGt:
		return tLt
	case tGe:
		return tLe
	}
	return op
}

func isCompare(op tokKind) bool {
	switch op {
	case tEq, tNe, tLt, tLe, tGt, tGe:
		return true
	}
	return false
}

// regOperand returns e's value in a register for a compare: a register
// variable in place (unless evaluating next would assign it), otherwise
// a temporary that stays held.
func (g *codegen) regOperand(e Expr, next Expr, avoid regSet) (x86.Reg, temps, error) {
	var ts temps
	if a, ok := g.leaf(e); ok && a.Kind == x86.KindReg && (next == nil || !g.writesRegs(next, bit(a.Reg))) {
		return a.Reg, ts, nil
	}
	t := g.alloc(avoid)
	if err := g.genTo(e, t.reg); err != nil {
		return 0, ts, err
	}
	g.hold(t.reg)
	ts.add(t)
	return t.reg, ts, nil
}

// flags emits the instruction that sets the flags for condition e and
// returns the condition code under which e is true. Both operands are
// brought into registers (or an immediate on the right): cmp/test on
// registers followed by jcc or setcc is what the engine fuses, a memory
// operand there is not.
func (g *codegen) flags(e Expr) (x86.CC, error) {
	if x, ok := e.(*Binary); ok && isCompare(x.Op) {
		X, Y, op := x.X, x.Y, x.Op
		lt, rt := g.ty(X), g.ty(Y)
		unsigned := lt.Kind == TPtr || rt.Kind == TPtr || arith2(lt, rt).Kind == TUint
		if _, ok := g.fold(X); ok {
			X, Y, op = Y, X, mirror(op)
		}
		if c, ok := g.fold(Y); ok && c == 0 && (op == tEq || op == tNe) {
			cc, err := g.flags(X) // x != 0 is x; x == 0 is !x
			if op == tEq {
				cc ^= 1
			}
			return cc, err
		}
		l, lts, err := g.regOperand(X, Y, 0)
		if err != nil {
			return 0, err
		}
		var r x86.Arg
		var rts temps
		if a, ok := g.leaf(Y); ok && a.Kind == x86.KindImm {
			r = a
		} else {
			var rr x86.Reg
			rr, rts, err = g.regOperand(Y, nil, bit(l))
			if err != nil {
				return 0, err
			}
			r = x86.R(rr)
		}
		if r.Kind == x86.KindImm && r.Imm == 0 && r.Sym == "" {
			g.op2(x86.TEST, x86.R(l), x86.R(l)) // same flags as cmp l,0, a byte shorter
		} else {
			g.op2(x86.CMP, x86.R(l), r)
		}
		g.releaseAll(rts)
		g.releaseAll(lts)
		return compareCC(op, unsigned), nil
	}
	if x, ok := e.(*Unary); ok && x.Op == tBang {
		cc, err := g.flags(x.X)
		return cc ^ 1, err
	}
	// e != 0. A mask test needs no result register.
	if x, ok := e.(*Binary); ok && x.Op == tAmp {
		X, Y := x.X, x.Y
		if _, ok := g.fold(X); ok {
			X, Y = Y, X
		}
		if a, ok := g.leaf(Y); ok && a.Kind != x86.KindMem {
			l, lts, err := g.regOperand(X, nil, 0)
			if err != nil {
				return 0, err
			}
			g.op2(x86.TEST, x86.R(l), a)
			g.releaseAll(lts)
			return x86.CCNE, nil
		}
	}
	l, lts, err := g.regOperand(e, nil, 0)
	if err != nil {
		return 0, err
	}
	g.op2(x86.TEST, x86.R(l), x86.R(l))
	g.releaseAll(lts)
	return x86.CCNE, nil
}

// genCondJump evaluates condition c and jumps to target when its truth
// equals jumpIfTrue, falling through otherwise.
func (g *codegen) genCondJump(c Expr, target string, jumpIfTrue bool) error {
	if v, ok := g.fold(c); ok {
		if (v != 0) == jumpIfTrue {
			g.u.Jmp(target)
		}
		return nil
	}
	switch x := c.(type) {
	case *Unary:
		if x.Op == tBang {
			return g.genCondJump(x.X, target, !jumpIfTrue)
		}
	case *Binary:
		if x.Op == tAndAnd || x.Op == tOrOr {
			// For && a false operand decides, for || a true one. When the
			// deciding value is the one we jump on, both operands jump to
			// target; otherwise the first skips over the second.
			decides := x.Op == tOrOr
			if decides == jumpIfTrue {
				if err := g.genCondJump(x.X, target, jumpIfTrue); err != nil {
					return err
				}
				return g.genCondJump(x.Y, target, jumpIfTrue)
			}
			skip := g.newLabel("skip")
			if err := g.genCondJump(x.X, skip, decides); err != nil {
				return err
			}
			if err := g.genCondJump(x.Y, target, jumpIfTrue); err != nil {
				return err
			}
			g.u.Label(skip)
			return nil
		}
	}
	cc, err := g.flags(c)
	if err != nil {
		return err
	}
	if !jumpIfTrue {
		cc ^= 1
	}
	g.u.Jcc(cc, target)
	return nil
}

// boolTo materializes a comparison, !x, && or || as 0 or 1 in dst.
func (g *codegen) boolTo(e Expr, dst x86.Reg) error {
	if x, ok := e.(*Binary); ok && (x.Op == tAndAnd || x.Op == tOrOr) {
		falseL, endL := g.newLabel("false"), g.newLabel("bool")
		if err := g.genCondJump(e, falseL, false); err != nil {
			return err
		}
		g.op2(x86.MOV, x86.R(dst), x86.I(1))
		g.u.Jmp(endL)
		g.u.Label(falseL)
		g.mov(dst, x86.I(0))
		g.u.Label(endL)
		return nil
	}
	cc, err := g.flags(e)
	if err != nil {
		return err
	}
	// setcc needs a register with a byte form; neither it nor movzx (nor
	// the pop that may bring a spilled temp back) disturbs the flags.
	b := temp{reg: dst}
	if !byteReg(dst) {
		b = g.alloc(0)
	}
	g.u.Emit(x86.Inst{Op: x86.SETCC, CC: cc, Dst: x86.R8(b.reg)})
	g.op2(x86.MOVZX, x86.R(dst), x86.R8(b.reg))
	if b.reg != dst {
		g.release(b)
	}
	return nil
}

// ---- assignment -----------------------------------------------------------

// assignVar stores rhs into variable v (a declaration's initializer or an
// inlined call's argument).
func (g *codegen) assignVar(v *localVar, rhs Expr) error {
	id := &Ident{Pos: rhs.exprPos(), Name: v.name}
	g.bind[id] = v
	return g.assign(id, v.typ, tAssign, rhs, x86.NoReg)
}

func (g *codegen) assignTo(x *Assign, dst x86.Reg) error {
	return g.assign(x.LHS, g.ty(x), x.Op, x.RHS, dst)
}

// assign emits lhs op rhs for an object of type lt and, when dst is a
// register, leaves the stored value (truncated to the object's width)
// there.
func (g *codegen) assign(lhs Expr, lt *Type, op tokKind, rhs Expr, dst x86.Reg) error {
	rt := g.ty(rhs)
	if c, ok := rhs.(*Cast); ok && lt.Kind == TByte && c.Type.Kind == TByte && op == tAssign {
		rhs, rt = c.X, g.ty(c.X) // the store truncates; (byte) adds nothing
	}
	narrow := lt.Kind == TByte && (rt.Kind != TByte || op != tAssign)
	base := assignBaseOp(op)

	if v := g.regVar(lhs); v != nil {
		var err error
		switch b, isBin := rhs.(*Binary); {
		case op != tAssign:
			err = g.applyOp(base, v.reg, rhs, lt, rt)
		case !g.mentions(rhs, v):
			err = g.genTo(rhs, v.reg)
		case isBin && g.regVar(b.X) == v && aluOrShift(b.Op) && !g.mentions(b.Y, v) && g.ty(b.Y).Kind != TPtr:
			// v = v op y is v op= y.
			narrow = lt.Kind == TByte
			err = g.applyOp(b.Op, v.reg, b.Y, lt, g.ty(b.Y))
		default:
			t := g.alloc(0)
			err = g.genTo(rhs, t.reg)
			g.mov(v.reg, x86.R(t.reg))
			g.release(t)
		}
		if err != nil {
			return err
		}
		if narrow {
			g.zext8(v.reg)
		}
		if dst != x86.NoReg {
			g.mov(dst, x86.R(v.reg))
		}
		return nil
	}

	m, ts, err := g.genMem(lhs, bit(dst))
	if err != nil {
		return err
	}
	m, ts = g.pin(m, ts, rhs, bit(dst), false)
	defer func() { g.releaseAll(ts) }()
	c, isConst := g.fold(rhs)
	if lt.Kind == TPtr && op != tAssign {
		c *= uint32(lt.Elem.Size())
	}

	// Forms that need no register for the value.
	switch {
	case op == tAssign && isConst:
		g.op2(x86.MOV, m, immFor(m, c))
		if dst != x86.NoReg {
			if lt.Kind == TByte {
				c &= 0xFF
			}
			g.op2(x86.MOV, x86.R(dst), x86.I(int32(c)))
		}
		return nil
	case dst == x86.NoReg && aluOps[base] != 0 && isConst:
		g.op2(aluOps[base], m, immFor(m, c))
		return nil
	case dst == x86.NoReg && aluOps[base] != 0 && (lt.Kind != TPtr || lt.Elem.Size() == 1):
		r, rts, err := g.regOperand(rhs, nil, argRegs(m))
		if err != nil {
			return err
		}
		if m.Size == 1 && !byteReg(r) {
			t := g.alloc(argRegs(m))
			g.mov(t.reg, x86.R(r))
			rts.add(t)
			r = t.reg
		}
		g.op2(aluOps[base], m, regFor(m, r))
		g.releaseAll(rts)
		return nil
	}

	if op == tAssign {
		var vr x86.Reg
		var vt temps
		a, isLeaf := g.leaf(rhs)
		switch {
		case isScratch(dst):
			vr = dst
		case isLeaf && a.Kind == x86.KindReg && (m.Size == 4 || byteReg(a.Reg)):
			vr = a.Reg
		default:
			t := g.alloc(argRegs(m))
			vt.add(t)
			vr = t.reg
		}
		if err := g.genTo(rhs, vr); err != nil {
			return err
		}
		g.op2(x86.MOV, m, regFor(m, vr))
		if dst != x86.NoReg {
			g.mov(dst, x86.R(vr))
			if narrow {
				g.zext8(dst)
			}
		}
		g.releaseAll(vt)
		return nil
	}

	// Read-modify-write through a register.
	m, ts = g.pin(m, ts, nil, bit(dst), true)
	var vt temps
	vr := dst
	if !isScratch(dst) {
		t := g.alloc(argRegs(m))
		vt.add(t)
		vr = t.reg
	}
	g.loadMem(vr, m, lt)
	g.hold(vr)
	err = g.applyOp(base, vr, rhs, lt, rt)
	g.unhold(vr)
	if err != nil {
		return err
	}
	g.op2(x86.MOV, m, regFor(m, vr))
	if dst != x86.NoReg {
		g.mov(dst, x86.R(vr))
		if narrow {
			g.zext8(dst)
		}
	}
	g.releaseAll(vt)
	return nil
}

func aluOrShift(op tokKind) bool {
	switch op {
	case tPlus, tMinus, tStar, tSlash, tPercent, tAmp, tPipe, tCaret, tShl, tShr:
		return true
	}
	return false
}

// immFor and regFor size an immediate or register operand to match the
// memory operand it is stored or combined into.
func immFor(m x86.Arg, c uint32) x86.Arg {
	if m.Size == 1 {
		return x86.Arg{Kind: x86.KindImm, Imm: int32(c & 0xFF), Size: 1}
	}
	return x86.I(int32(c))
}

func regFor(m x86.Arg, r x86.Reg) x86.Arg {
	if m.Size == 1 {
		return x86.R8(r)
	}
	return x86.R(r)
}

func (g *codegen) incDecTo(x *IncDec, dst x86.Reg) error {
	lt := g.ty(x)
	delta := uint32(1)
	if lt.Kind == TPtr {
		delta = uint32(lt.Elem.Size())
	}
	op := x86.ADD
	if x.Op == tDec {
		op = x86.SUB
	}
	// ADD/SUB rather than INC/DEC: the engine's flag tracking handles the
	// former without reading the carry the latter must preserve.
	if v := g.regVar(x.X); v != nil {
		if x.Post && dst != x86.NoReg {
			g.mov(dst, x86.R(v.reg))
		}
		g.op2(op, x86.R(v.reg), x86.I(int32(delta)))
		if lt.Kind == TByte {
			g.zext8(v.reg)
		}
		if !x.Post && dst != x86.NoReg {
			g.mov(dst, x86.R(v.reg))
		}
		return nil
	}
	m, ts, err := g.genMem(x.X, bit(dst))
	if err != nil {
		return err
	}
	if x.Post && dst != x86.NoReg {
		g.loadMem(dst, m, lt)
	}
	g.op2(op, m, immFor(m, delta))
	if !x.Post && dst != x86.NoReg {
		g.loadMem(dst, m, lt)
	}
	g.releaseAll(ts)
	return nil
}

// ---- calls ----------------------------------------------------------------

// saveLive pushes every pending scratch value out of a call's way.
func (g *codegen) saveLive() []x86.Reg {
	var saved []x86.Reg
	for _, r := range scratchOrder {
		if g.live&bit(r) != 0 {
			g.u.Op1(x86.PUSH, x86.R(r))
			saved = append(saved, r)
		}
	}
	g.live = 0
	return saved
}

func (g *codegen) restoreLive(saved []x86.Reg) {
	for i := len(saved) - 1; i >= 0; i-- {
		g.u.Op1(x86.POP, x86.R(saved[i]))
		g.hold(saved[i])
	}
}

// pushArgs pushes a call's arguments right to left, straight from where
// they live when they are leaves.
func (g *codegen) pushArgs(args []Expr) error {
	for i := len(args) - 1; i >= 0; i-- {
		if a, ok := g.leaf(args[i]); ok {
			g.u.Op1(x86.PUSH, a)
			continue
		}
		if err := g.genTo(args[i], x86.EAX); err != nil {
			return err
		}
		g.u.Op1(x86.PUSH, x86.R(x86.EAX))
	}
	return nil
}

// callTo calls x and leaves its result in dst (NoReg: discard it).
func (g *codegen) callTo(x *Call, dst x86.Reg) error {
	if isBuiltin(x.Name) {
		return g.builtinTo(x, dst)
	}
	if in := g.inl[x]; in != nil {
		return g.inlineTo(x, in, dst)
	}
	saved := g.saveLive()
	if err := g.pushArgs(x.Args); err != nil {
		return err
	}
	g.u.Call(x.Name)
	if n := len(x.Args); n > 0 {
		g.op2(x86.ADD, x86.R(x86.ESP), x86.I(int32(n*4)))
	}
	if dst != x86.NoReg {
		g.mov(dst, x86.R(x86.EAX))
	}
	g.restoreLive(saved)
	return nil
}

// inlineTo generates the body of an expanded call in place.
func (g *codegen) inlineTo(x *Call, in *inlined, dst x86.Reg) error {
	for i := len(x.Args) - 1; i >= 0; i-- {
		if in.params[i].subst != nil {
			continue // a constant: nothing to evaluate, nothing to store
		}
		if err := g.assignVar(in.params[i], x.Args[i]); err != nil {
			return err
		}
	}
	fr := &inlineFrame{fn: in.fn, dst: dst, end: g.newLabel("ret"), loops: g.loops}
	if n := len(in.body.Stmts); n > 0 {
		fr.tail = in.body.Stmts[n-1]
	}
	g.loops = nil
	g.inlines = append(g.inlines, fr)
	err := g.genBlock(in.body)
	g.inlines = g.inlines[:len(g.inlines)-1]
	g.loops = fr.loops
	if fr.endUsed {
		g.u.Label(fr.end)
	}
	return err
}

// builtinTo expands a compiler intrinsic. Each loads fixed registers, so
// the arguments go through the stack, and the callee-saved registers an
// intrinsic overwrites are saved around it here rather than in the
// prologue: they may hold this function's variables.
func (g *codegen) builtinTo(x *Call, dst x86.Reg) error {
	if x.Name == "__vxa_end" {
		if dst != x86.NoReg {
			g.op2(x86.MOV, x86.R(dst), x86.ISym("__end"))
		}
		return nil
	}
	var clobbers, loads []x86.Reg
	var inst x86.Inst
	switch x.Name {
	case "__vxa_syscall":
		clobbers = []x86.Reg{x86.EBX}
		loads = []x86.Reg{x86.EAX, x86.EBX, x86.ECX, x86.EDX}
		inst = x86.Inst{Op: x86.INT, Dst: x86.Arg{Kind: x86.KindImm, Imm: 0x80, Size: 1}}
	case "__builtin_memcpy":
		clobbers = []x86.Reg{x86.ESI, x86.EDI}
		loads = []x86.Reg{x86.EDI, x86.ESI, x86.ECX}
		inst = x86.Inst{Op: x86.MOVSB, Rep: true}
	case "__builtin_memset":
		clobbers = []x86.Reg{x86.EDI}
		loads = []x86.Reg{x86.EDI, x86.EAX, x86.ECX}
		inst = x86.Inst{Op: x86.STOSB, Rep: true}
	}
	saved := g.saveLive()
	for _, r := range clobbers {
		g.u.Op1(x86.PUSH, x86.R(r))
	}
	if err := g.pushArgs(x.Args); err != nil {
		return err
	}
	for _, r := range loads {
		g.u.Op1(x86.POP, x86.R(r))
	}
	g.u.Emit(inst)
	for i := len(clobbers) - 1; i >= 0; i-- {
		g.u.Op1(x86.POP, x86.R(clobbers[i]))
	}
	if dst != x86.NoReg && x.Name == "__vxa_syscall" {
		g.mov(dst, x86.R(x86.EAX))
	}
	g.restoreLive(saved)
	return nil
}
