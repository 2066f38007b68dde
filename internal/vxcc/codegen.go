package vxcc

import (
	"fmt"

	"vxa/internal/x86"
	"vxa/internal/x86/asm"
)

// The VXC calling convention ("vxcc ABI"):
//
//   - arguments are pushed right to left, 4 bytes each (byte arguments
//     are promoted), caller pops; the return value is in EAX, zero-
//     extended when the function returns byte;
//   - EAX, ECX and EDX are scratch: a call may clobber them, and the
//     caller saves whichever of them hold a pending temporary;
//   - EBX, ESI, EDI and EBP are preserved by the callee. A function
//     pushes exactly those of EBX/ESI/EDI it assigns to its own
//     variables (after the frame is set up) and pops them at every
//     return; EBP is the frame pointer, ESP the stack pointer.
//
// Register assignment. Scalar locals and parameters whose address is
// never taken compete for EBX/ESI/EDI by loop-depth-weighted use count
// (analyze.go); two variables share a register when their scopes are
// disjoint. A register parameter is loaded from its argument slot in
// the prologue. Everything else — arrays, address-taken variables, and
// scalars that lost the competition or are used too rarely to pay for
// the save/restore — has a stack home at [ebp-n] (parameters stay in
// their argument slot at [ebp+8+4i]). A byte variable in a register is
// kept zero-extended, so reading it costs nothing and writing it
// truncates.
//
// Expressions are compiled destination-first (expr.go): the selector
// is told which register the value belongs in and uses constants,
// register variables and [ebp+off] / [sym] / [base+index*scale+disp]
// memory operands in place. Temporaries live in whichever of
// EAX/ECX/EDX is free; only when all three are busy is one of them
// pushed and popped around the subexpression. Conditions compile to
// cmp/test + jcc with both operands in registers, the shape the
// engine fuses.
//
// Evaluation order is fixed, not "unspecified" as in C: binary
// operands and x[i] left to right (the left value is captured before
// the right operand runs), call arguments right to left, and for an
// assignment the lvalue's address, then the right side, then — for
// op= — the read-modify-write.
//
// Inlining. A call inside a loop to a function of at most inlineLimit
// nodes is expanded in place (analyze.go; at most inlineDepth levels,
// never recursively, never a function that cannot return): arguments
// become locals of the caller, constant arguments to parameters the
// callee never writes are substituted, and return becomes a jump to
// the end of the expansion. Calls outside loops stay calls.
//
// Linking. Every function is analyzed and type-checked; code is
// emitted for main and for what main reaches through the calls that
// are still calls (Compile), so a helper whose every call site was
// expanded has no out-of-line copy.

type global struct {
	sym  string
	typ  *Type
	decl *GlobalDecl
}

type function struct {
	name    string
	ret     *Type
	params  []Param
	file    string
	defined bool
	decl    *FuncDecl
	cost    int  // estimated size of the body (see cost); -1 until asked for
	fatal   bool // cannot return (see neverReturns): never expanded in place
	an      *analysis
}

// localVar is one parameter or local variable of the function being
// compiled, including those of calls inlined into it.
type localVar struct {
	name  string
	typ   *Type
	param int // argument index for the function's own parameters, else -1

	weight    int  // loop-depth-weighted number of references
	addrTaken bool // &v appears: v needs a stack home
	// decl is where the variable was declared and [first, last] the span
	// it is live over, in analysis order: from its declaration (a
	// parameter of an expanded call: from before the arguments) to its
	// last mention, stretched over every loop that mentions it and began
	// after it was declared, and over any call expanded later in the
	// expression that mentions it (analyzer.fullExpr).
	decl, first, last int

	reg x86.Reg // x86.NoReg when the variable lives on the stack
	off int32   // ebp-relative offset of the stack home

	// subst, when set, makes the variable a name for an expression
	// instead of storage: a parameter of an inlined call that the callee
	// only reads, bound to a constant argument or (alias) to the caller's
	// own variable.
	subst Expr
	alias *localVar
}

// inlined is one call expanded in place: a private copy of the callee's
// body and the variables standing in for its parameters.
type inlined struct {
	fn     *function
	params []*localVar
	body   *Block
}

// inlineFrame is the code generator's state for the expansion it is
// currently inside.
type inlineFrame struct {
	fn      *function
	dst     x86.Reg // where return leaves the value; NoReg when unwanted
	end     string
	endUsed bool
	tail    Stmt   // the body's final statement: a return there needs no jump
	loops   []loop // the caller's loop stack, restored afterwards
}

type loop struct{ brk, cont string }

type codegen struct {
	u     *asm.Unit
	funcs map[string]*function
	globs map[string]*global
	// globOrder is globs in declaration order, the order they are laid
	// out in: the emitted ELF must not depend on map iteration.
	globOrder []*global
	enums     map[string]int64
	strs      map[*StrLit]string // literals already placed in rodata
	strSeq    int
	labelSeq  int

	// Per-function state: what analyze worked out about the function, and
	// where emitFunc is in it.
	fn *function
	*analysis
	loops   []loop
	inlines []*inlineFrame
	live    regSet // scratch registers holding a pending value
	// retLabel is the function's epilogue; tail its body's final statement
	// (a return there falls into the epilogue instead of jumping to it).
	retLabel string
	tail     Stmt
}

// analysis is what analyze works out about one function before any code
// is emitted for it.
type analysis struct {
	vars  []*localVar
	bind  map[*Ident]*localVar
	decls map[*DeclStmt]*localVar
	inl   map[*Call]*inlined
	types map[Expr]*Type
	calls []*function // callees of the calls left out of line, expansions included
	saved []x86.Reg   // callee-saved registers in use, in push order
	frame int32
}

func newCodegen() *codegen {
	return &codegen{
		u:        asm.New(),
		funcs:    make(map[string]*function),
		globs:    make(map[string]*global),
		enums:    make(map[string]int64),
		strs:     make(map[*StrLit]string),
		analysis: &analysis{}, // global initializers are folded with no function in sight
	}
}

type compileError struct {
	pos Pos
	msg string
}

func (e *compileError) Error() string { return fmt.Sprintf("%s: %s", e.pos, e.msg) }

func cErrf(pos Pos, format string, args ...any) error {
	return &compileError{pos: pos, msg: fmt.Sprintf(format, args...)}
}

func (g *codegen) newLabel(hint string) string {
	g.labelSeq++
	return fmt.Sprintf(".L%s.%s.%d", g.fn.name, hint, g.labelSeq)
}

// declare registers all top-level symbols of a file (pass 1).
func (g *codegen) declare(f *File) error {
	for _, e := range f.Enums {
		for i, n := range e.Names {
			if _, dup := g.enums[n]; dup {
				return cErrf(e.Pos, "duplicate enum constant %q", n)
			}
			g.enums[n] = e.Vals[i]
		}
	}
	for _, gd := range f.Globals {
		if _, dup := g.globs[gd.Name]; dup {
			return cErrf(gd.Pos, "duplicate global %q", gd.Name)
		}
		if _, dup := g.enums[gd.Name]; dup {
			return cErrf(gd.Pos, "%q already an enum constant", gd.Name)
		}
		gl := &global{sym: gd.Name, typ: gd.Type, decl: gd}
		g.globs[gd.Name] = gl
		g.globOrder = append(g.globOrder, gl)
	}
	for _, fn := range f.Funcs {
		if prev, dup := g.funcs[fn.Name]; dup && prev.defined {
			return cErrf(fn.Pos, "duplicate function %q", fn.Name)
		}
		g.funcs[fn.Name] = &function{
			name: fn.Name, ret: fn.Ret, params: fn.Params,
			file: f.Name, defined: true, decl: fn, cost: -1,
		}
	}
	return nil
}

// emitGlobals lays out all global variables (pass 2a).
func (g *codegen) emitGlobals() error {
	for _, gl := range g.globOrder {
		gd := gl.decl
		t := gd.Type
		// Infer the length of byte name[] = "..." style declarations.
		if t.Kind == TArray && t.Len < 0 {
			switch {
			case gd.Str != nil:
				t.Len = len(gd.Str) + 1 // NUL-terminated
			case gd.Inits != nil:
				t.Len = len(gd.Inits)
			default:
				return cErrf(gd.Pos, "array %q needs a length or initializer", gd.Name)
			}
		}
		section := asm.Data
		if gd.Const {
			section = asm.ROData
		}
		switch {
		case gd.Str != nil:
			if t.Kind == TPtr {
				return cErrf(gd.Pos, "initialized pointer globals are not supported; use a byte array")
			}
			if t.Kind != TArray || t.Elem.Kind != TByte {
				return cErrf(gd.Pos, "string initializer requires a byte array")
			}
			if len(gd.Str)+1 > t.Size() {
				return cErrf(gd.Pos, "string longer than array %q", gd.Name)
			}
			buf := make([]byte, t.Size())
			copy(buf, gd.Str)
			g.u.DefData(gl.sym, section, buf)
		case gd.Inits != nil:
			if t.Kind != TArray {
				return cErrf(gd.Pos, "brace initializer requires an array")
			}
			if len(gd.Inits) > t.Len {
				return cErrf(gd.Pos, "too many initializers for %q", gd.Name)
			}
			esz := t.Elem.Size()
			buf := make([]byte, t.Size())
			for i, e := range gd.Inits {
				v, err := g.constVal(e)
				if err != nil {
					return err
				}
				switch esz {
				case 1:
					buf[i] = byte(v)
				case 4:
					off := i * 4
					buf[off] = byte(v)
					buf[off+1] = byte(v >> 8)
					buf[off+2] = byte(v >> 16)
					buf[off+3] = byte(v >> 24)
				}
			}
			g.u.DefData(gl.sym, section, buf)
		case gd.Init != nil:
			v, err := g.constVal(gd.Init)
			if err != nil {
				return err
			}
			if !t.IsScalar() {
				return cErrf(gd.Pos, "scalar initializer on non-scalar %q", gd.Name)
			}
			var buf []byte
			if t.Size() == 1 {
				buf = []byte{byte(v)}
			} else {
				buf = []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
			}
			g.u.DefData(gl.sym, section, buf)
		default:
			if gd.Const {
				return cErrf(gd.Pos, "const global %q needs an initializer", gd.Name)
			}
			g.u.DefBSS(gl.sym, uint32(t.Size()), 4)
		}
	}
	return nil
}

// constVal folds a constant initializer, with enum constants visible.
func (g *codegen) constVal(e Expr) (uint32, error) {
	if _, err := g.typeOf(e); err != nil {
		return 0, err
	}
	v, ok := g.fold(e)
	if !ok {
		return 0, cErrf(e.exprPos(), "not a constant expression")
	}
	return v, nil
}

// fold evaluates e at compile time with exactly the semantics the
// generated code would have at run time; ok is false when e is not a
// constant (or would trap). Global initializers, the instruction
// selector and the compiler's fuzz oracle share it through evalBinary.
func (g *codegen) fold(e Expr) (uint32, bool) {
	switch x := e.(type) {
	case *IntLit:
		return uint32(x.Val), true
	case *SizeofType:
		return uint32(x.Type.Size()), true
	case *Ident:
		if v := g.bind[x]; v != nil {
			if v.subst != nil {
				return g.fold(v.subst)
			}
			return 0, false
		}
		if v, ok := g.enums[x.Name]; ok {
			return uint32(v), true
		}
	case *Unary:
		v, ok := g.fold(x.X)
		if !ok {
			return 0, false
		}
		switch x.Op {
		case tMinus:
			return -v, true
		case tTilde:
			return ^v, true
		case tBang:
			return b2u(v == 0), true
		}
	case *Binary:
		a, ok := g.fold(x.X)
		if !ok {
			return 0, false
		}
		b, ok := g.fold(x.Y)
		if !ok {
			return 0, false
		}
		lt, err1 := g.typeOf(x.X)
		rt, err2 := g.typeOf(x.Y)
		if err1 != nil || err2 != nil || lt.Kind == TPtr || rt.Kind == TPtr {
			return 0, false
		}
		return evalBinary(x.Op, a, b, opUnsigned(x.Op, lt, rt))
	case *Cast:
		v, ok := g.fold(x.X)
		if ok && x.Type.Kind == TByte {
			v &= 0xFF
		}
		return v, ok
	}
	return 0, false
}

// opUnsigned reports whether a binary operator on integer operands of
// the given types uses the unsigned form: the shifts look only at the
// (promoted) left operand, everything else at the usual arithmetic
// conversion of both.
func opUnsigned(op tokKind, lt, rt *Type) bool {
	if op == tShl || op == tShr {
		return promote(lt).Kind == TUint
	}
	return arith2(lt, rt).Kind == TUint
}

// evalBinary computes a op b on 32-bit operands as the generated code
// does: two's-complement wraparound, shift counts masked to five bits,
// division truncating toward zero. ok is false where the machine would
// trap (division by zero, INT_MIN / -1) and for non-arithmetic
// operators.
func evalBinary(op tokKind, a, b uint32, unsigned bool) (v uint32, ok bool) {
	sa, sb := int32(a), int32(b)
	switch op {
	case tPlus:
		return a + b, true
	case tMinus:
		return a - b, true
	case tStar:
		return a * b, true
	case tSlash, tPercent:
		if b == 0 || !unsigned && sa == -1<<31 && sb == -1 {
			return 0, false
		}
		switch {
		case unsigned && op == tSlash:
			return a / b, true
		case unsigned:
			return a % b, true
		case op == tSlash:
			return uint32(sa / sb), true
		}
		return uint32(sa % sb), true
	case tShl:
		return a << (b & 31), true
	case tShr:
		if unsigned {
			return a >> (b & 31), true
		}
		return uint32(sa >> (b & 31)), true
	case tAmp:
		return a & b, true
	case tPipe:
		return a | b, true
	case tCaret:
		return a ^ b, true
	case tEq:
		return b2u(a == b), true
	case tNe:
		return b2u(a != b), true
	case tLt:
		return b2u(unsigned && a < b || !unsigned && sa < sb), true
	case tLe:
		return b2u(unsigned && a <= b || !unsigned && sa <= sb), true
	case tGt:
		return b2u(unsigned && a > b || !unsigned && sa > sb), true
	case tGe:
		return b2u(unsigned && a >= b || !unsigned && sa >= sb), true
	case tAndAnd:
		return b2u(a != 0 && b != 0), true
	case tOrOr:
		return b2u(a != 0 || b != 0), true
	}
	return 0, false
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// emitFunc generates one analyzed and checked function (pass 3).
func (g *codegen) emitFunc(fd *FuncDecl) error {
	g.fn = g.funcs[fd.Name]
	g.analysis = g.fn.an
	g.loops, g.inlines, g.live = nil, nil, 0

	u := g.u
	u.Label(fd.Name)
	u.Op1(x86.PUSH, x86.R(x86.EBP))
	u.Op2(x86.MOV, x86.R(x86.EBP), x86.R(x86.ESP))
	if g.frame > 0 {
		u.Op2(x86.SUB, x86.R(x86.ESP), x86.I(g.frame))
	}
	for _, r := range g.saved {
		u.Op1(x86.PUSH, x86.R(r))
	}
	for _, v := range g.vars {
		if v.param >= 0 && v.reg != x86.NoReg {
			g.loadMem(v.reg, x86.M(x86.EBP, v.off), v.typ)
		}
	}

	g.retLabel = ".Lret." + fd.Name
	g.tail = nil
	if n := len(fd.Body.Stmts); n > 0 {
		g.tail = fd.Body.Stmts[n-1]
	}
	if err := g.genBlock(fd.Body); err != nil {
		return err
	}

	// The one epilogue: every return but a final one jumps here. (An
	// early return that carried its own copy would be a basic block
	// ending in RET, and the engine compiles only traces of two blocks
	// or more: the exit path of a hot function — huff_decode's — would
	// stay on the interpreter.) Falling off the end returns an undefined
	// value, as in old C.
	g.u.Label(g.retLabel)
	for i := len(g.saved) - 1; i >= 0; i-- {
		u.Op1(x86.POP, x86.R(g.saved[i]))
	}
	if g.frame > 0 {
		u.Op2(x86.MOV, x86.R(x86.ESP), x86.R(x86.EBP))
	}
	u.Op1(x86.POP, x86.R(x86.EBP))
	u.Op0(x86.RET)
	return nil
}

func (g *codegen) genBlock(b *Block) error {
	for _, s := range b.Stmts {
		if err := g.genStmt(s); err != nil {
			return err
		}
	}
	return nil
}

// genLoop emits a loop in the one shape the engine runs well:
//
//	    jmp top
//	top:  if (!c) goto end      (absent on a do-while)
//	      body
//	next: post
//	      if (!c) goto end      (do-while only)
//	      jmp top
//	end:
//
// The tier-2 backend stays inside compiled code only across an
// unconditional back edge (a conditional one returns to the dispatcher
// on every iteration), hence the jump at the bottom. The jump at the
// entry costs one instruction per loop and buys the rest: it makes top
// the start of a basic block on the first pass as well, so that block —
// not the body behind it — is the first to run hot, the trace grows
// from it, and the back edge closes the trace on its own entry. Without
// it the profiler roots the trace in the body and every iteration
// leaves compiled code at the loop test. post may be nil.
func (g *codegen) genLoop(c Expr, post Expr, body Stmt, testFirst bool) error {
	top, cont, end := g.newLabel("loop"), g.newLabel("next"), g.newLabel("end")
	g.u.Jmp(top)
	g.u.Label(top)
	if c != nil && testFirst {
		if err := g.genCondJump(c, end, false); err != nil {
			return err
		}
	}
	g.loops = append(g.loops, loop{brk: end, cont: cont})
	err := g.genStmt(body)
	g.loops = g.loops[:len(g.loops)-1]
	if err != nil {
		return err
	}
	g.u.Label(cont)
	if post != nil {
		if err := g.genVoid(post); err != nil {
			return err
		}
	}
	if c != nil && !testFirst {
		if err := g.genCondJump(c, end, false); err != nil {
			return err
		}
	}
	g.u.Jmp(top)
	g.u.Label(end)
	return nil
}

func (g *codegen) genStmt(s Stmt) error {
	switch x := s.(type) {
	case *Block:
		return g.genBlock(x)

	case *ExprStmt:
		return g.genVoid(x.X)

	case *DeclStmt:
		if x.Init == nil {
			return nil
		}
		return g.assignVar(g.decls[x], x.Init)

	case *If:
		elseL := g.newLabel("else")
		if err := g.genCondJump(x.C, elseL, false); err != nil {
			return err
		}
		if err := g.genStmt(x.Then); err != nil {
			return err
		}
		if x.Else == nil {
			g.u.Label(elseL)
			return nil
		}
		endL := g.newLabel("endif")
		g.u.Jmp(endL)
		g.u.Label(elseL)
		if err := g.genStmt(x.Else); err != nil {
			return err
		}
		g.u.Label(endL)
		return nil

	case *While:
		return g.genLoop(x.C, nil, x.Body, true)

	case *DoWhile:
		return g.genLoop(x.C, nil, x.Body, false)

	case *For:
		if x.Init != nil {
			if err := g.genStmt(x.Init); err != nil {
				return err
			}
		}
		return g.genLoop(x.C, x.Post, x.Body, true)

	case *Return:
		ret := g.fn.ret
		var in *inlineFrame
		if n := len(g.inlines); n > 0 {
			in = g.inlines[n-1]
			ret = in.fn.ret
		}
		dst := x86.EAX
		if in != nil {
			dst = in.dst
		}
		if x.X != nil {
			if err := g.gen(x.X, dst); err != nil {
				return err
			}
			if dst != x86.NoReg && ret.Kind == TByte && g.ty(x.X).Kind != TByte {
				g.zext8(dst)
			}
		}
		switch {
		case in == nil && s != g.tail:
			g.u.Jmp(g.retLabel)
		case in != nil && s != in.tail:
			in.endUsed = true
			g.u.Jmp(in.end)
		}
		return nil

	case *Break:
		g.u.Jmp(g.loops[len(g.loops)-1].brk)
		return nil

	case *Continue:
		g.u.Jmp(g.loops[len(g.loops)-1].cont)
		return nil
	}
	return cErrf(s.stmtPos(), "unhandled statement")
}

// checkAssignable enforces VXC's (permissive, old-C flavored) assignment
// compatibility: scalars interconvert; pointers convert to/from any
// pointer and integer explicitly, but implicit cross-pointer assignment
// of unrelated element types is allowed only via void*-less casts —
// since VXC has no void*, we allow byte* <-> T* implicitly, matching how
// the decoder sources use byte buffers.
func (g *codegen) checkAssignable(pos Pos, dst, src *Type) error {
	if dst.IsScalar() && src.IsScalar() {
		if dst.Kind == TPtr && src.Kind == TPtr {
			if dst.Elem.Equal(src.Elem) || dst.Elem.Kind == TByte || src.Elem.Kind == TByte {
				return nil
			}
			return cErrf(pos, "incompatible pointer assignment (%s = %s); cast explicitly", dst, src)
		}
		return nil
	}
	return cErrf(pos, "cannot assign %s to %s", src, dst)
}
