package vxcc

import (
	"fmt"
)

// This file is the compiler's reference: a direct interpreter for parsed
// VXC, independent of the code generator. It shares the generator's
// arithmetic (evalBinary, promote, arith2 — one definition of what an
// operator means) and nothing else: no registers, no instruction
// selection, no inlining. It fixes the evaluation order the ABI comment
// in codegen.go promises: binary operands and x[i] left to right, call
// arguments right to left, an assignment's address before its right
// side. The fuzz tests compile a random program, run it on the VM, and
// compare main's result with the one computed here.

// Memory is a set of objects (one per variable or array); an address is
// the object's number in the high bits and a byte offset in the low
// ones, so pointer arithmetic inside an object is plain addition and a
// stray pointer is caught rather than silently aliased.
const objShift = 20

type cell struct {
	addr uint32
	typ  *Type
}

type oracle struct {
	funcs  map[string]*FuncDecl
	enums  map[string]int64
	objs   [][]byte
	global map[string]cell
	scopes []map[string]cell // innermost last; reset per call
	steps  int
}

type oracleAbort struct{ msg string }

type control int

const (
	ctlNone control = iota
	ctlBreak
	ctlContinue
	ctlReturn
)

const oracleMaxSteps = 2_000_000

func (o *oracle) failf(format string, args ...any) {
	panic(oracleAbort{fmt.Sprintf(format, args...)})
}

// runOracle interprets the program and returns main's result.
func runOracle(files ...*File) (ret int32, err error) {
	o := &oracle{funcs: map[string]*FuncDecl{}, enums: map[string]int64{}, global: map[string]cell{}}
	defer func() {
		if r := recover(); r != nil {
			a, ok := r.(oracleAbort)
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("oracle: %s", a.msg)
		}
	}()
	for _, f := range files {
		for _, e := range f.Enums {
			for i, n := range e.Names {
				o.enums[n] = e.Vals[i]
			}
		}
		for _, fn := range f.Funcs {
			o.funcs[fn.Name] = fn
		}
	}
	for _, f := range files {
		for _, gd := range f.Globals {
			c := o.alloc(gd.Type)
			o.global[gd.Name] = c
			switch {
			case gd.Init != nil:
				o.store(c.addr, gd.Type, o.eval(gd.Init).v)
			case gd.Inits != nil:
				for i, e := range gd.Inits {
					o.store(c.addr+uint32(i*gd.Type.Elem.Size()), gd.Type.Elem, o.eval(e).v)
				}
			}
		}
	}
	if o.funcs["main"] == nil {
		o.failf("no main")
	}
	return int32(o.call(o.funcs["main"], nil).v), nil
}

func (o *oracle) alloc(t *Type) cell {
	o.objs = append(o.objs, make([]byte, t.Size()))
	return cell{addr: uint32(len(o.objs)) << objShift, typ: t}
}

func (o *oracle) bytes(addr uint32, size int) []byte {
	id, off := int(addr>>objShift)-1, int(addr&(1<<objShift-1))
	if id < 0 || id >= len(o.objs) || off+size > len(o.objs[id]) {
		o.failf("access outside any object: address %#x size %d", addr, size)
	}
	return o.objs[id][off : off+size]
}

func (o *oracle) load(addr uint32, t *Type) uint32 {
	if t.Size() == 1 {
		return uint32(o.bytes(addr, 1)[0])
	}
	b := o.bytes(addr, 4)
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func (o *oracle) store(addr uint32, t *Type, v uint32) {
	if t.Size() == 1 {
		o.bytes(addr, 1)[0] = byte(v)
		return
	}
	b := o.bytes(addr, 4)
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

type value struct {
	v uint32
	t *Type
}

func (o *oracle) lookup(name string) (cell, bool) {
	for i := len(o.scopes) - 1; i >= 0; i-- {
		if c, ok := o.scopes[i][name]; ok {
			return c, true
		}
	}
	c, ok := o.global[name]
	return c, ok
}

func (o *oracle) call(fn *FuncDecl, args []value) value {
	if len(args) != len(fn.Params) {
		o.failf("%s: wrong number of arguments", fn.Name)
	}
	saved := o.scopes
	o.scopes = []map[string]cell{{}}
	for i, p := range fn.Params {
		c := o.alloc(p.Type)
		o.store(c.addr, p.Type, args[i].v) // a byte parameter truncates
		o.scopes[0][p.Name] = c
	}
	_, ret := o.exec(fn.Body)
	o.scopes = saved
	if fn.Ret.Kind == TByte {
		ret.v &= 0xFF
	}
	ret.t = fn.Ret
	return ret
}

func (o *oracle) exec(s Stmt) (control, value) {
	if o.steps++; o.steps > oracleMaxSteps {
		o.failf("step limit: the generated program does not terminate")
	}
	switch x := s.(type) {
	case *Block:
		defer func(outer []map[string]cell) { o.scopes = outer }(o.scopes)
		o.scopes = append(o.scopes, map[string]cell{})
		for _, st := range x.Stmts {
			if c, v := o.exec(st); c != ctlNone {
				return c, v
			}
		}
	case *ExprStmt:
		o.eval(x.X)
	case *DeclStmt:
		c := o.alloc(x.Type)
		o.scopes[len(o.scopes)-1][x.Name] = c
		if x.Init != nil {
			o.store(c.addr, x.Type, o.eval(x.Init).v)
		}
	case *If:
		if o.eval(x.C).v != 0 {
			return o.exec(x.Then)
		} else if x.Else != nil {
			return o.exec(x.Else)
		}
	case *While:
		for o.eval(x.C).v != 0 {
			if c, v := o.exec(x.Body); c == ctlBreak {
				break
			} else if c == ctlReturn {
				return c, v
			}
		}
	case *DoWhile:
		for {
			if c, v := o.exec(x.Body); c == ctlBreak {
				break
			} else if c == ctlReturn {
				return c, v
			}
			if o.eval(x.C).v == 0 {
				break
			}
		}
	case *For:
		defer func(outer []map[string]cell) { o.scopes = outer }(o.scopes)
		o.scopes = append(o.scopes, map[string]cell{})
		if x.Init != nil {
			o.exec(x.Init)
		}
		for x.C == nil || o.eval(x.C).v != 0 {
			if c, v := o.exec(x.Body); c == ctlBreak {
				break
			} else if c == ctlReturn {
				return c, v
			}
			if x.Post != nil {
				o.eval(x.Post)
			}
		}
	case *Return:
		if x.X == nil {
			return ctlReturn, value{}
		}
		return ctlReturn, o.eval(x.X)
	case *Break:
		return ctlBreak, value{}
	case *Continue:
		return ctlContinue, value{}
	}
	return ctlNone, value{}
}

// lval returns the address and type of the object e designates.
func (o *oracle) lval(e Expr) cell {
	switch x := e.(type) {
	case *Ident:
		if c, ok := o.lookup(x.Name); ok {
			return c
		}
	case *Unary:
		if x.Op == tStar {
			p := o.eval(x.X)
			return cell{addr: p.v, typ: p.t.Elem}
		}
	case *Index:
		p := o.eval(x.X)
		i := o.eval(x.I)
		return cell{addr: p.v + i.v*uint32(p.t.Elem.Size()), typ: p.t.Elem}
	}
	o.failf("not an lvalue: %T at %v", e, e.exprPos())
	return cell{}
}

func (o *oracle) eval(e Expr) value {
	if o.steps++; o.steps > oracleMaxSteps {
		o.failf("step limit: the generated program does not terminate")
	}
	switch x := e.(type) {
	case *IntLit:
		if x.Unsigned {
			return value{uint32(x.Val), typeUint}
		}
		return value{uint32(x.Val), typeInt}
	case *SizeofType:
		return value{uint32(x.Type.Size()), typeInt}
	case *Ident:
		if c, ok := o.lookup(x.Name); ok {
			if c.typ.Kind == TArray {
				return value{c.addr, decay(c.typ)}
			}
			return value{o.load(c.addr, c.typ), c.typ}
		}
		if v, ok := o.enums[x.Name]; ok {
			return value{uint32(v), typeInt}
		}
		o.failf("undefined %q", x.Name)
	case *Unary:
		switch x.Op {
		case tAmp:
			c := o.lval(x.X)
			return value{c.addr, &Type{Kind: TPtr, Elem: c.typ}}
		case tStar:
			c := o.lval(x)
			return value{o.load(c.addr, c.typ), c.typ}
		}
		a := o.eval(x.X)
		switch x.Op {
		case tMinus:
			return value{-a.v, promote(a.t)}
		case tTilde:
			return value{^a.v, promote(a.t)}
		case tBang:
			return value{b2u(a.v == 0), typeInt}
		}
	case *Binary:
		a := o.eval(x.X)
		switch x.Op {
		case tAndAnd:
			if a.v == 0 {
				return value{0, typeInt}
			}
			return value{b2u(o.eval(x.Y).v != 0), typeInt}
		case tOrOr:
			if a.v != 0 {
				return value{1, typeInt}
			}
			return value{b2u(o.eval(x.Y).v != 0), typeInt}
		}
		return o.binary(x.Op, a, o.eval(x.Y))
	case *Assign:
		c := o.lval(x.LHS)
		r := o.eval(x.RHS)
		if x.Op != tAssign {
			r = o.binary(assignBaseOp(x.Op), value{o.load(c.addr, c.typ), c.typ}, r)
		}
		o.store(c.addr, c.typ, r.v)
		return value{o.load(c.addr, c.typ), c.typ}
	case *IncDec:
		c := o.lval(x.X)
		old := o.load(c.addr, c.typ)
		delta := uint32(1)
		if c.typ.Kind == TPtr {
			delta = uint32(c.typ.Elem.Size())
		}
		if x.Op == tDec {
			delta = -delta
		}
		o.store(c.addr, c.typ, old+delta)
		if x.Post {
			return value{old, c.typ}
		}
		return value{o.load(c.addr, c.typ), c.typ}
	case *Cond:
		// The result type comes from both arms; only one runs.
		var r value
		if o.eval(x.C).v != 0 {
			r = o.eval(x.T)
		} else {
			r = o.eval(x.F)
		}
		r.t = o.typeOf(x)
		return r
	case *Call:
		fn, ok := o.funcs[x.Name]
		if !ok {
			o.failf("undefined function %q", x.Name)
		}
		args := make([]value, len(x.Args))
		for i := len(x.Args) - 1; i >= 0; i-- {
			args[i] = o.eval(x.Args[i])
		}
		return o.call(fn, args)
	case *Index:
		c := o.lval(x)
		return value{o.load(c.addr, c.typ), c.typ}
	case *Cast:
		a := o.eval(x.X)
		if x.Type.Kind == TByte {
			a.v &= 0xFF
		}
		return value{a.v, x.Type}
	}
	o.failf("unhandled expression %T", e)
	return value{}
}

// typeOf is the static type of e, for the one place a value's type does
// not come from the operands that were evaluated: c ? t : f takes its
// type from both arms and runs one.
func (o *oracle) typeOf(e Expr) *Type {
	switch x := e.(type) {
	case *IntLit:
		if x.Unsigned {
			return typeUint
		}
	case *Ident:
		if c, ok := o.lookup(x.Name); ok {
			return decay(c.typ)
		}
	case *Unary:
		switch t := o.typeOf(x.X); x.Op {
		case tAmp:
			return &Type{Kind: TPtr, Elem: t}
		case tStar:
			return t.Elem
		case tMinus, tTilde:
			return promote(t)
		}
	case *Binary:
		if x.Op != tAndAnd && x.Op != tOrOr {
			if t, err := binaryType(x.Pos, x.Op, o.typeOf(x.X), o.typeOf(x.Y)); err == nil {
				return t
			}
		}
	case *Assign:
		return o.typeOf(x.LHS)
	case *IncDec:
		return o.typeOf(x.X)
	case *Cond:
		if t, f := o.typeOf(x.T), o.typeOf(x.F); t.Kind == TPtr {
			return t
		} else {
			return arith2(t, f)
		}
	case *Call:
		return o.funcs[x.Name].Ret
	case *Index:
		return o.typeOf(x.X).Elem
	case *Cast:
		return x.Type
	}
	return typeInt
}

// binary applies an arithmetic or comparison operator to two values.
func (o *oracle) binary(op tokKind, a, b value) value {
	lp, rp := a.t.Kind == TPtr, b.t.Kind == TPtr
	switch {
	case lp && rp && op == tMinus:
		return value{uint32(int32(a.v-b.v) / int32(a.t.Elem.Size())), typeInt}
	case lp && rp:
		v, _ := evalBinary(op, a.v, b.v, true)
		return value{v, typeInt}
	case lp && op == tPlus:
		return value{a.v + b.v*uint32(a.t.Elem.Size()), a.t}
	case lp && op == tMinus:
		return value{a.v - b.v*uint32(a.t.Elem.Size()), a.t}
	case rp && op == tPlus:
		return value{b.v + a.v*uint32(b.t.Elem.Size()), b.t}
	case lp || rp:
		o.failf("invalid pointer operation")
	}
	v, ok := evalBinary(op, a.v, b.v, opUnsigned(op, a.t, b.t))
	if !ok {
		o.failf("operator traps: %v on %#x, %#x", op, a.v, b.v)
	}
	t, err := binaryType(Pos{}, op, a.t, b.t)
	if err != nil {
		o.failf("%v", err)
	}
	return value{v, t}
}
