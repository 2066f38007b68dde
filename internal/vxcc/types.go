package vxcc

// This file is VXC's type checker. checkFunc runs over every function
// after analyze has bound its identifiers and before any code is
// generated, so the instruction selector can ask for a subexpression's
// type at any point (ty), never sees an ill-formed tree, and a function
// that is left out of the image is held to the same rules as one that is
// emitted.

// checkFunc checks fd's statements and, through typeOf, every expression
// in them.
func (g *codegen) checkFunc(fd *FuncDecl) error {
	return g.checkStmt(fd.Body, fd.Ret, false)
}

// checkStmt checks s, a statement of a function returning ret.
func (g *codegen) checkStmt(s Stmt, ret *Type, inLoop bool) error {
	switch x := s.(type) {
	case nil:
		return nil
	case *Block:
		for _, st := range x.Stmts {
			if err := g.checkStmt(st, ret, inLoop); err != nil {
				return err
			}
		}
		return nil
	case *ExprStmt:
		_, err := g.typeOf(x.X)
		return err
	case *DeclStmt:
		if x.Init == nil {
			return nil
		}
		if !x.Type.IsScalar() {
			return cErrf(x.Pos, "array locals cannot be initialized")
		}
		t, err := g.typeOf(x.Init)
		if err != nil {
			return err
		}
		return g.checkAssignable(x.Pos, x.Type, t)
	case *If:
		if err := g.checkCond(x.C); err != nil {
			return err
		}
		if err := g.checkStmt(x.Then, ret, inLoop); err != nil {
			return err
		}
		return g.checkStmt(x.Else, ret, inLoop)
	case *While:
		if err := g.checkCond(x.C); err != nil {
			return err
		}
		return g.checkStmt(x.Body, ret, true)
	case *DoWhile:
		if err := g.checkCond(x.C); err != nil {
			return err
		}
		return g.checkStmt(x.Body, ret, true)
	case *For:
		if err := g.checkStmt(x.Init, ret, inLoop); err != nil {
			return err
		}
		if x.C != nil {
			if err := g.checkCond(x.C); err != nil {
				return err
			}
		}
		if x.Post != nil {
			if _, err := g.typeOf(x.Post); err != nil {
				return err
			}
		}
		return g.checkStmt(x.Body, ret, true)
	case *Return:
		if x.X == nil {
			if ret.Kind != TVoid {
				return cErrf(x.Pos, "missing return value")
			}
			return nil
		}
		if ret.Kind == TVoid {
			return cErrf(x.Pos, "void function returns a value")
		}
		t, err := g.typeOf(x.X)
		if err != nil {
			return err
		}
		return g.checkAssignable(x.Pos, ret, t)
	case *Break:
		if !inLoop {
			return cErrf(x.Pos, "break outside a loop")
		}
		return nil
	case *Continue:
		if !inLoop {
			return cErrf(x.Pos, "continue outside a loop")
		}
		return nil
	}
	return cErrf(s.stmtPos(), "unhandled statement")
}

func (g *codegen) checkCond(c Expr) error {
	t, err := g.typeOf(c)
	if err != nil {
		return err
	}
	if !t.IsScalar() {
		return cErrf(c.exprPos(), "condition is not scalar")
	}
	return nil
}

var bytePtr = &Type{Kind: TPtr, Elem: typeByte}

// builtinTypes gives each compiler intrinsic's arity and result.
var builtinTypes = map[string]struct {
	args int
	ret  *Type
}{
	"__vxa_syscall":    {4, typeInt},
	"__builtin_memcpy": {3, typeVoid},
	"__builtin_memset": {3, typeVoid},
	"__vxa_end":        {0, bytePtr},
}

func isBuiltin(name string) bool {
	_, ok := builtinTypes[name]
	return ok
}

// promote applies the integer promotion: byte becomes int.
func promote(t *Type) *Type {
	if t.Kind == TByte {
		return typeInt
	}
	return t
}

// arith2 is the usual arithmetic conversion for two integer operands.
func arith2(a, b *Type) *Type {
	a, b = promote(a), promote(b)
	if a.Kind == TUint || b.Kind == TUint {
		return typeUint
	}
	return typeInt
}

// decay turns an array type into a pointer to its first element, as
// happens to an array named in an expression.
func decay(t *Type) *Type {
	if t.Kind == TArray {
		return &Type{Kind: TPtr, Elem: t.Elem}
	}
	return t
}

// ty is typeOf for an expression already known to check: one checkFunc
// has seen, or its copy in an expansion.
func (g *codegen) ty(e Expr) *Type {
	t, err := g.typeOf(e)
	if err != nil {
		panic("vxcc: internal error: untyped expression reached the selector: " + err.Error())
	}
	return t
}

// typeOf checks e and returns the type of its value.
func (g *codegen) typeOf(e Expr) (*Type, error) {
	if t, ok := g.types[e]; ok {
		return t, nil
	}
	t, err := g.check(e)
	if err == nil && g.types != nil {
		g.types[e] = t
	}
	return t, err
}

func (g *codegen) check(e Expr) (*Type, error) {
	switch x := e.(type) {
	case *IntLit:
		if x.Unsigned {
			return typeUint, nil
		}
		return typeInt, nil

	case *StrLit:
		return bytePtr, nil

	case *SizeofType:
		return typeInt, nil

	case *Ident:
		t, err := g.identType(x)
		if err != nil {
			return nil, err
		}
		return decay(t), nil

	case *Unary:
		if x.Op == tAmp {
			t, err := g.lvalType(x.X)
			if err != nil {
				return nil, err
			}
			return &Type{Kind: TPtr, Elem: t}, nil
		}
		t, err := g.typeOf(x.X)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case tMinus:
			if !t.IsInteger() {
				return nil, cErrf(x.Pos, "unary minus on %s", t)
			}
			return promote(t), nil
		case tTilde:
			if !t.IsInteger() {
				return nil, cErrf(x.Pos, "bitwise not on %s", t)
			}
			return promote(t), nil
		case tBang:
			if !t.IsScalar() {
				return nil, cErrf(x.Pos, "logical not on %s", t)
			}
			return typeInt, nil
		case tStar:
			if t.Kind != TPtr {
				return nil, cErrf(x.Pos, "dereference of non-pointer %s", t)
			}
			return t.Elem, nil
		}
		return nil, cErrf(x.Pos, "unhandled unary operator")

	case *Binary:
		lt, err := g.typeOf(x.X)
		if err != nil {
			return nil, err
		}
		rt, err := g.typeOf(x.Y)
		if err != nil {
			return nil, err
		}
		if x.Op == tAndAnd || x.Op == tOrOr {
			for i, t := range []*Type{lt, rt} {
				if !t.IsScalar() {
					return nil, cErrf([]Expr{x.X, x.Y}[i].exprPos(), "condition is not scalar")
				}
			}
			return typeInt, nil
		}
		return binaryType(x.Pos, x.Op, lt, rt)

	case *Assign:
		lt, err := g.lvalType(x.LHS)
		if err != nil {
			return nil, err
		}
		if !lt.IsScalar() {
			return nil, cErrf(x.Pos, "cannot assign to %s", lt)
		}
		rt, err := g.typeOf(x.RHS)
		if err != nil {
			return nil, err
		}
		if x.Op == tAssign {
			err = g.checkAssignable(x.Pos, lt, rt)
		} else {
			_, err = binaryType(x.Pos, assignBaseOp(x.Op), lt, rt)
		}
		return lt, err

	case *IncDec:
		lt, err := g.lvalType(x.X)
		if err != nil {
			return nil, err
		}
		if !lt.IsScalar() {
			return nil, cErrf(x.Pos, "++/-- on %s", lt)
		}
		return lt, nil

	case *Cond:
		ct, err := g.typeOf(x.C)
		if err != nil {
			return nil, err
		}
		if !ct.IsScalar() {
			return nil, cErrf(x.C.exprPos(), "condition is not scalar")
		}
		tt, err := g.typeOf(x.T)
		if err != nil {
			return nil, err
		}
		tf, err := g.typeOf(x.F)
		if err != nil {
			return nil, err
		}
		if !tt.IsScalar() || !tf.IsScalar() {
			return nil, cErrf(x.Pos, "ternary arms must be scalar")
		}
		if tt.Kind == TPtr {
			return tt, nil
		}
		return arith2(tt, tf), nil

	case *Call:
		return g.callType(x)

	case *Index:
		base, err := g.typeOf(x.X) // arrays decay to pointers
		if err != nil {
			return nil, err
		}
		if base.Kind != TPtr {
			return nil, cErrf(x.Pos, "indexing non-pointer %s", base)
		}
		it, err := g.typeOf(x.I)
		if err != nil {
			return nil, err
		}
		if !it.IsInteger() {
			return nil, cErrf(x.Pos, "index is not an integer")
		}
		return base.Elem, nil

	case *Cast:
		t, err := g.typeOf(x.X)
		if err != nil {
			return nil, err
		}
		if !t.IsScalar() || !(x.Type.IsScalar() || x.Type.Kind == TVoid) {
			return nil, cErrf(x.Pos, "invalid cast from %s to %s", t, x.Type)
		}
		return x.Type, nil
	}
	return nil, cErrf(e.exprPos(), "unhandled expression")
}

// identType resolves a name to the declared type of what it denotes:
// a local (innermost scope first), then an enum constant, then a global.
func (g *codegen) identType(x *Ident) (*Type, error) {
	if v := g.bind[x]; v != nil {
		return v.typ, nil
	}
	if _, ok := g.enums[x.Name]; ok {
		return typeInt, nil
	}
	if gl, ok := g.globs[x.Name]; ok {
		return gl.typ, nil
	}
	return nil, cErrf(x.Pos, "undefined identifier %q", x.Name)
}

// lvalType checks that e designates an object and returns the object's
// type (an array stays an array here).
func (g *codegen) lvalType(e Expr) (*Type, error) {
	switch x := e.(type) {
	case *Ident:
		if v := g.bind[x]; v != nil {
			return v.typ, nil
		}
		if _, ok := g.enums[x.Name]; ok {
			return nil, cErrf(x.Pos, "enum constant %q is not an lvalue", x.Name)
		}
		if gl, ok := g.globs[x.Name]; ok {
			if gl.decl.Const {
				return nil, cErrf(x.Pos, "cannot assign to const %q", x.Name)
			}
			return gl.typ, nil
		}
		return nil, cErrf(x.Pos, "undefined identifier %q", x.Name)
	case *Unary:
		if x.Op == tStar {
			return g.typeOf(x)
		}
	case *Index:
		return g.typeOf(x)
	}
	return nil, cErrf(e.exprPos(), "not an lvalue")
}

// binaryType types lt op rt for every operator but && and ||.
func binaryType(pos Pos, op tokKind, lt, rt *Type) (*Type, error) {
	if lt.Kind == TPtr || rt.Kind == TPtr {
		switch op {
		case tPlus:
			if lt.Kind == TPtr && rt.IsInteger() {
				return lt, nil
			}
			if rt.Kind == TPtr && lt.IsInteger() {
				return rt, nil
			}
			return nil, cErrf(pos, "invalid pointer addition")
		case tMinus:
			if lt.Kind == TPtr && rt.IsInteger() {
				return lt, nil
			}
			if lt.Kind == TPtr && rt.Kind == TPtr {
				if !lt.Elem.Equal(rt.Elem) {
					return nil, cErrf(pos, "subtracting incompatible pointers")
				}
				return typeInt, nil
			}
			return nil, cErrf(pos, "invalid pointer subtraction")
		case tEq, tNe, tLt, tLe, tGt, tGe:
			return typeInt, nil
		}
		return nil, cErrf(pos, "invalid pointer operation")
	}
	if !lt.IsInteger() || !rt.IsInteger() {
		return nil, cErrf(pos, "operator requires integer operands (%s, %s)", lt, rt)
	}
	switch op {
	case tPlus, tMinus, tStar, tSlash, tPercent, tAmp, tPipe, tCaret:
		return arith2(lt, rt), nil
	case tShl, tShr:
		return promote(lt), nil
	case tEq, tNe, tLt, tLe, tGt, tGe:
		return typeInt, nil
	}
	return nil, cErrf(pos, "unhandled binary operator")
}

func (g *codegen) callType(x *Call) (*Type, error) {
	if b, ok := builtinTypes[x.Name]; ok {
		if len(x.Args) != b.args {
			return nil, cErrf(x.Pos, "%s takes %d arguments", x.Name, b.args)
		}
		for i, arg := range x.Args {
			t, err := g.typeOf(arg)
			if err != nil {
				return nil, err
			}
			if !t.IsScalar() {
				return nil, cErrf(arg.exprPos(), "argument %d is not scalar", i+1)
			}
		}
		return b.ret, nil
	}
	fn, ok := g.funcs[x.Name]
	if !ok {
		return nil, cErrf(x.Pos, "undefined function %q", x.Name)
	}
	if len(x.Args) != len(fn.params) {
		return nil, cErrf(x.Pos, "%s takes %d arguments, got %d", x.Name, len(fn.params), len(x.Args))
	}
	for i, arg := range x.Args {
		t, err := g.typeOf(arg)
		if err != nil {
			return nil, err
		}
		if err := g.checkAssignable(arg.exprPos(), fn.params[i].Type, t); err != nil {
			return nil, err
		}
	}
	return fn.ret, nil
}

func assignBaseOp(k tokKind) tokKind {
	switch k {
	case tPlusEq:
		return tPlus
	case tMinusEq:
		return tMinus
	case tStarEq:
		return tStar
	case tSlashEq:
		return tSlash
	case tPercentEq:
		return tPercent
	case tAmpEq:
		return tAmp
	case tPipeEq:
		return tPipe
	case tCaretEq:
		return tCaret
	case tShlEq:
		return tShl
	case tShrEq:
		return tShr
	}
	return tAssign
}
