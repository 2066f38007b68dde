package vxcc

import (
	"sort"

	"vxa/internal/x86"
)

// This file is the per-function analysis that runs before any code is
// emitted: it binds every identifier to its variable, expands small
// calls in place, weighs each variable by how often and how deep in
// loops it is referenced, and from that decides which variables live in
// EBX/ESI/EDI and where the rest sit in the frame.

const (
	// inlineLimit bounds the callee (its cost, see codegen.cost) that is
	// expanded at a call site inside a loop; calls outside loops stay
	// calls. getbit, getb, putb, huff_decode and the decoders' pixel and
	// sample helpers (predict, coeff_next, coeff_byte, clamp255) fit;
	// inf_codes and everything else with a real body of its own does not. EXPERIMENTS.md ("vxcc 3's heuristics") has the
	// sweep this came from, and what each of the other rules in this file
	// is worth.
	inlineLimit = 80
	inlineDepth = 3 // expansions nested inside one another

	// regMinWeight is the reference weight below which a variable is not
	// worth the push/pop of a callee-saved register (a parameter also
	// pays for its load, hence one more).
	regMinWeight = 3
)

// varRegs are the registers variables compete for, in preference order.
var varRegs = [...]x86.Reg{x86.EBX, x86.ESI, x86.EDI}

type analyzer struct {
	g      *codegen
	scopes []map[string]*localVar
	depth  int      // loop nesting at the current point
	cond   int      // if/?:/&&/|| nesting since the enclosing loop or expansion began
	pos    int      // advances with every expression node visited
	stack  []string // functions being expanded, outermost first
	roots  []Stmt   // their bodies (the copies being analyzed)
	loops  []loopRefs
	// used lists the variables mentioned by the full expressions being
	// walked (one inside another's expansions, innermost last); expanded
	// is where the last expansion in the innermost one ended, 0 for none.
	used     []*localVar
	expanded int
}

// loopRefs records, for a loop being walked, where it began and which
// variables its body mentions.
type loopRefs struct {
	start int
	vars  map[*localVar]bool
}

// analyze works out fd's analysis and leaves it current in g.
func (g *codegen) analyze(fd *FuncDecl) error {
	g.fn = g.funcs[fd.Name]
	g.analysis = &analysis{
		bind:  make(map[*Ident]*localVar),
		decls: make(map[*DeclStmt]*localVar),
		inl:   make(map[*Call]*inlined),
		types: make(map[Expr]*Type),
	}
	g.fn.an = g.analysis

	a := &analyzer{g: g, stack: []string{fd.Name}, roots: []Stmt{fd.Body}, depth: outerDepth(fd.Name)}
	a.push()
	for i, p := range fd.Params {
		v, err := a.declare(fd.Pos, p.Name, p.Type, "parameter")
		if err != nil {
			return err
		}
		v.param, v.off = i, int32(8+4*i)
	}
	if err := a.stmt(fd.Body); err != nil {
		return err
	}
	a.pop()
	g.assignHomes()
	return nil
}

func (a *analyzer) push() { a.scopes = append(a.scopes, map[string]*localVar{}) }

func (a *analyzer) pop() { a.scopes = a.scopes[:len(a.scopes)-1] }

func (a *analyzer) declare(pos Pos, name string, typ *Type, what string) (*localVar, error) {
	scope := a.scopes[len(a.scopes)-1]
	if _, dup := scope[name]; dup {
		return nil, cErrf(pos, "duplicate %s %q", what, name)
	}
	v := &localVar{name: name, typ: typ, param: -1, decl: a.pos, first: a.pos, last: a.pos, reg: x86.NoReg}
	scope[name] = v
	a.g.vars = append(a.g.vars, v)
	return v, nil
}

func (a *analyzer) lookup(name string) *localVar {
	for i := len(a.scopes) - 1; i >= 0; i-- {
		if v, ok := a.scopes[i][name]; ok {
			return v
		}
	}
	return nil
}

// outerDepth is the loop depth a function's body starts at. The entry
// point runs once, and its outermost loop is the per-stream loop of the
// decoder protocol (one pass per archived stream), so that loop does not
// count as one: what main calls once per stream — header parsing, table
// set-up — is not hot. Counting it costs no instructions at run time and
// doubles four of the six decoders (EXPERIMENTS.md).
func outerDepth(name string) int {
	if name == "main" {
		return -1
	}
	return 0
}

// weight is what one reference at the current loop depth counts for.
func (a *analyzer) weight() int {
	w := 1
	for d := 0; d < a.depth && d < 4; d++ {
		w *= 10
	}
	return w
}

func (a *analyzer) stmt(s Stmt) error {
	switch x := s.(type) {
	case nil:
		return nil
	case *Block:
		a.push()
		defer a.pop()
		for _, st := range x.Stmts {
			if err := a.stmt(st); err != nil {
				return err
			}
		}
	case *ExprStmt:
		return a.fullExpr(x.X)
	case *DeclStmt:
		v, err := a.declare(x.Pos, x.Name, x.Type, "local")
		if err != nil {
			return err
		}
		a.g.decls[x] = v
		if x.Init != nil {
			a.touch(v)
			return a.fullExpr(x.Init)
		}
	case *If:
		if err := a.fullExpr(x.C); err != nil {
			return err
		}
		a.cond++
		defer func() { a.cond-- }()
		if err := a.stmt(x.Then); err != nil {
			return err
		}
		if x.Else != nil {
			return a.stmt(x.Else)
		}
	case *While:
		return a.loop(x.C, nil, x.Body)
	case *DoWhile:
		return a.loop(x.C, nil, x.Body)
	case *For:
		a.push() // the init declaration scopes to the loop
		defer a.pop()
		if x.Init != nil {
			if err := a.stmt(x.Init); err != nil {
				return err
			}
		}
		return a.loop(x.C, x.Post, x.Body)
	case *Return:
		if x.X != nil {
			return a.fullExpr(x.X)
		}
	}
	return nil
}

// fullExpr walks an expression a statement evaluates. Operands are used
// in place, so the instruction that reads a variable mentioned early in
// an expression may come after everything else in it has run — p in
// p[f()], t in g(t + 1, f()) — including the body of a call expanded
// there, which is the only place inside an expression where other
// variables begin: every variable the expression mentions is live to the
// end of the last expansion in it. (A statement of an expanded body is a
// full expression of its own.)
func (a *analyzer) fullExpr(e Expr) error {
	mark, outer := len(a.used), a.expanded
	a.expanded = 0
	err := a.expr(e)
	for _, v := range a.used[mark:] {
		if a.expanded > v.last {
			v.last = a.expanded
		}
	}
	a.used, a.expanded = a.used[:mark], outer
	return err
}

// use notes that the full expression being walked mentions v.
func (a *analyzer) use(v *localVar) {
	a.touch(v)
	a.used = append(a.used, v)
}

// touch notes a reference to v at the current position: it weighs v and
// stretches v's extent to here.
func (a *analyzer) touch(v *localVar) {
	v.weight += a.weight()
	if a.pos > v.last {
		v.last = a.pos
	}
	if n := len(a.loops); n > 0 {
		a.loops[n-1].vars[v] = true
	}
}

func (a *analyzer) loop(c, post Expr, body Stmt) error {
	a.depth++
	cond := a.cond
	a.cond = 0
	a.loops = append(a.loops, loopRefs{start: a.pos, vars: map[*localVar]bool{}})
	defer func() {
		a.depth--
		a.cond = cond
		// A variable that outlives one pass — it was declared before the
		// loop began — is live around the back edge: its extent covers the
		// whole loop, not just the span between its first and last mention.
		l := a.loops[len(a.loops)-1]
		a.loops = a.loops[:len(a.loops)-1]
		for v := range l.vars {
			if v.decl <= l.start {
				if l.start < v.first {
					v.first = l.start
				}
				if a.pos > v.last {
					v.last = a.pos
				}
			}
			if n := len(a.loops); n > 0 {
				a.loops[n-1].vars[v] = true
			}
		}
	}()
	for _, e := range []Expr{c, post} {
		if e != nil {
			if err := a.fullExpr(e); err != nil {
				return err
			}
		}
	}
	return a.stmt(body)
}

func (a *analyzer) expr(e Expr) error {
	a.pos++
	switch x := e.(type) {
	case *Ident:
		if v := a.lookup(x.Name); v != nil {
			a.g.bind[x] = v
			if v.alias != nil {
				v = v.alias
			}
			a.use(v)
		}
	case *Unary:
		if err := a.expr(x.X); err != nil {
			return err
		}
		if id, ok := x.X.(*Ident); ok && x.Op == tAmp {
			if v := a.g.bind[id]; v != nil {
				v.addrTaken = true
			}
		}
	case *Binary:
		if err := a.expr(x.X); err != nil {
			return err
		}
		if x.Op == tAndAnd || x.Op == tOrOr {
			a.cond++
			defer func() { a.cond-- }()
		}
		return a.expr(x.Y)
	case *Assign:
		if err := a.expr(x.LHS); err != nil {
			return err
		}
		return a.expr(x.RHS)
	case *IncDec:
		return a.expr(x.X)
	case *Cond:
		if err := a.expr(x.C); err != nil {
			return err
		}
		a.cond++
		defer func() { a.cond-- }()
		if err := a.expr(x.T); err != nil {
			return err
		}
		return a.expr(x.F)
	case *Call:
		start := a.pos
		for _, arg := range x.Args {
			if err := a.expr(arg); err != nil {
				return err
			}
		}
		if err := a.inline(x, start); err != nil {
			return err
		}
		if fn := a.g.funcs[x.Name]; fn != nil && a.g.inl[x] == nil && !isBuiltin(x.Name) {
			a.g.calls = append(a.g.calls, fn)
		}
	case *Index:
		if err := a.expr(x.X); err != nil {
			return err
		}
		return a.expr(x.I)
	case *Cast:
		return a.expr(x.X)
	}
	return nil
}

// inline expands the call x in place when the callee is small enough
// for where the call sits (see the constants above). start is the
// position before the arguments: a parameter's variable is written while
// the arguments to its left are still being evaluated, so its extent
// must cover them.
func (a *analyzer) inline(x *Call, start int) error {
	g := a.g
	fn := g.funcs[x.Name]
	if isBuiltin(x.Name) || fn == nil || fn.fatal || len(x.Args) != len(fn.params) || len(a.stack) > inlineDepth {
		return nil
	}
	// Only a call inside a loop is expanded, and inside an expansion only
	// one on its unconditional path: a conditional call there is the
	// callee's slow path — getbit's refill, putb's flush — and copying that
	// to every site is what bloats.
	if a.depth <= 0 || len(a.stack) > 1 && a.cond > 0 || g.cost(fn) > inlineLimit {
		return nil
	}
	for _, name := range a.stack {
		if name == fn.name {
			return nil // recursion
		}
	}

	in := &inlined{fn: fn, body: cloneStmt(fn.decl.Body).(*Block)}
	scopes := a.scopes
	a.scopes = nil // the callee sees none of the caller's locals
	a.push()
	for i, p := range fn.params {
		v, err := a.declare(fn.decl.Pos, p.Name, p.Type, "parameter")
		if err != nil {
			return err
		}
		v.first = start
		alias := a.aliasFor(x, i, p.Type)
		if !writesVar(fn.decl.Body, p.Name, false) && (alias != nil || g.constArg(x.Args[i])) {
			v.subst, v.alias = &Cast{Pos: x.Pos, Type: p.Type, X: x.Args[i]}, alias
		} else {
			a.touch(v) // the store of the argument: done when it is done
		}
		in.params = append(in.params, v)
	}
	a.stack = append(a.stack, fn.name)
	a.roots = append(a.roots, in.body)
	cond := a.cond
	a.cond = 0
	err := a.stmt(in.body)
	a.cond = cond
	a.stack = a.stack[:len(a.stack)-1]
	a.roots = a.roots[:len(a.roots)-1]
	a.pop()
	a.scopes = scopes
	a.expanded = a.pos
	g.inl[x] = in
	return err
}

// aliasFor returns the caller's variable that parameter i of the call x —
// if the callee only reads it — can stand for instead of holding a copy,
// or nil: the argument must be a plain local of the same width whose
// address nobody takes (the callee cannot name it, so it cannot change
// under the expansion) and which no other argument of the call assigns.
func (a *analyzer) aliasFor(x *Call, i int, pt *Type) *localVar {
	id, ok := x.Args[i].(*Ident)
	if !ok {
		return nil
	}
	v := a.g.bind[id]
	if v == nil || !v.typ.IsScalar() || pt.Kind == TByte && v.typ.Kind != TByte {
		return nil
	}
	switch {
	case v.alias != nil:
		v = v.alias // an alias of an alias names the variable itself
	case v.subst != nil:
		return nil // a constant: constArg's business
	}
	if writesVar(a.roots[len(a.roots)-1], v.name, true) {
		return nil // &v somewhere in the enclosing body
	}
	for j, arg := range x.Args {
		if j != i && writesVar(&ExprStmt{X: arg}, v.name, false) {
			return nil
		}
	}
	return v
}

// constArg reports whether an argument is the same value wherever it is
// evaluated: a compile-time constant or the address of a global array or
// string literal.
func (g *codegen) constArg(e Expr) bool {
	if _, ok := g.fold(e); ok {
		return true
	}
	switch x := e.(type) {
	case *StrLit:
		return true
	case *Ident:
		gl := g.globs[x.Name]
		return g.bind[x] == nil && gl != nil && gl.typ.Kind == TArray
	}
	return false
}

// cost estimates the code fn's body expands to: one per AST node, three
// more for each call's argument traffic.
func (g *codegen) cost(fn *function) int {
	if fn.cost < 0 {
		fn.cost = 0
		walk(fn.decl.Body, func(n any) bool {
			fn.cost++
			if _, ok := n.(*Call); ok {
				fn.cost += 3
			}
			return true
		})
	}
	return fn.cost
}

// markFatal sets function.fatal on the functions that cannot return.
func (g *codegen) markFatal(files []*File) {
	for changed := true; changed; {
		changed = false
		for _, f := range files {
			for _, fd := range f.Funcs {
				if fn := g.funcs[fd.Name]; !fn.fatal && g.neverReturns(fd.Body) {
					fn.fatal, changed = true, true
				}
			}
		}
	}
}

// neverReturns reports whether a function with this body provably cannot
// return: it has no return statement, and its last statement — which the
// end of the body can only be reached through — is "while (nonzero
// constant) { }" or a call to a function that cannot return. (libvx's
// exit and die; "if (c) return; exit(1);" is not one.) It is a hint that
// keeps error paths from being copied into loops — the generated code
// never relies on it.
func (g *codegen) neverReturns(body *Block) bool {
	returns := false
	walk(body, func(n any) bool {
		_, isReturn := n.(*Return)
		returns = returns || isReturn
		return !returns
	})
	if returns || len(body.Stmts) == 0 {
		return false
	}
	switch x := body.Stmts[len(body.Stmts)-1].(type) {
	case *While:
		v, ok := g.fold(x.C)
		b, isBlock := x.Body.(*Block)
		return ok && v != 0 && isBlock && len(b.Stmts) == 0
	case *ExprStmt:
		if c, ok := x.X.(*Call); ok {
			fn := g.funcs[c.Name]
			return fn != nil && fn.fatal
		}
	}
	return false
}

// writesVar reports whether body assigns to, steps, or takes the address
// of a variable called name (addrOnly: just the last). Going by name is
// conservative: a shadowing local that is written counts too.
func writesVar(body Stmt, name string, addrOnly bool) bool {
	named := func(e Expr) bool {
		id, ok := e.(*Ident)
		return ok && id.Name == name
	}
	found := false
	walk(body, func(n any) bool {
		switch x := n.(type) {
		case *Assign:
			found = found || !addrOnly && named(x.LHS)
		case *IncDec:
			found = found || !addrOnly && named(x.X)
		case *Unary:
			found = found || x.Op == tAmp && named(x.X)
		}
		return !found
	})
	return found
}

// assignHomes gives every variable a register or a frame slot.
func (g *codegen) assignHomes() {
	var cands []*localVar
	for _, v := range g.vars {
		min := regMinWeight
		if v.param >= 0 {
			min++
		}
		if v.typ.IsScalar() && !v.addrTaken && v.subst == nil && v.weight >= min {
			cands = append(cands, v)
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].weight > cands[j].weight })
	var used [8]bool
	for _, v := range cands {
		for _, r := range varRegs {
			free := true
			for _, u := range cands {
				if u.reg == r && u.first <= v.last && v.first <= u.last {
					free = false
					break
				}
			}
			if free {
				v.reg, used[r] = r, true
				break
			}
		}
	}
	g.saved = g.saved[:0]
	for _, r := range varRegs {
		if used[r] {
			g.saved = append(g.saved, r)
		}
	}
	g.frame = 0
	for _, v := range g.vars {
		if v.reg == x86.NoReg && v.param < 0 && v.subst == nil {
			g.frame += int32((v.typ.Size() + 3) &^ 3)
			v.off = -g.frame
		}
	}
}

// walk visits n (a Stmt or an Expr) and everything below it in source
// order, descending into a node only when f returns true for it. Absent
// optional children (If.Else, For.C, Return.X) arrive as nil.
func walk(n any, f func(n any) bool) {
	if n == nil || !f(n) {
		return
	}
	switch x := n.(type) {
	case *Block:
		for _, s := range x.Stmts {
			walk(s, f)
		}
	case *ExprStmt:
		walk(x.X, f)
	case *DeclStmt:
		walk(x.Init, f)
	case *If:
		walk(x.C, f)
		walk(x.Then, f)
		walk(x.Else, f)
	case *While:
		walk(x.C, f)
		walk(x.Body, f)
	case *DoWhile:
		walk(x.Body, f)
		walk(x.C, f)
	case *For:
		walk(x.Init, f)
		walk(x.C, f)
		walk(x.Post, f)
		walk(x.Body, f)
	case *Return:
		walk(x.X, f)
	case *Unary:
		walk(x.X, f)
	case *Binary:
		walk(x.X, f)
		walk(x.Y, f)
	case *Assign:
		walk(x.LHS, f)
		walk(x.RHS, f)
	case *IncDec:
		walk(x.X, f)
	case *Cond:
		walk(x.C, f)
		walk(x.T, f)
		walk(x.F, f)
	case *Call:
		for _, arg := range x.Args {
			walk(arg, f)
		}
	case *Index:
		walk(x.X, f)
		walk(x.I, f)
	case *Cast:
		walk(x.X, f)
	}
}

// cloneStmt and cloneExpr copy a subtree so that an inlined body can be
// bound to variables of its own.
func cloneStmt(s Stmt) Stmt {
	switch x := s.(type) {
	case *Block:
		c := &Block{Pos: x.Pos, Stmts: make([]Stmt, len(x.Stmts))}
		for i, st := range x.Stmts {
			c.Stmts[i] = cloneStmt(st)
		}
		return c
	case *ExprStmt:
		return &ExprStmt{Pos: x.Pos, X: cloneExpr(x.X)}
	case *DeclStmt:
		return &DeclStmt{Pos: x.Pos, Name: x.Name, Type: x.Type, Init: cloneExpr(x.Init)}
	case *If:
		return &If{Pos: x.Pos, C: cloneExpr(x.C), Then: cloneStmt(x.Then), Else: cloneStmt(x.Else)}
	case *While:
		return &While{Pos: x.Pos, C: cloneExpr(x.C), Body: cloneStmt(x.Body)}
	case *DoWhile:
		return &DoWhile{Pos: x.Pos, C: cloneExpr(x.C), Body: cloneStmt(x.Body)}
	case *For:
		return &For{Pos: x.Pos, Init: cloneStmt(x.Init), C: cloneExpr(x.C), Post: cloneExpr(x.Post), Body: cloneStmt(x.Body)}
	case *Return:
		return &Return{Pos: x.Pos, X: cloneExpr(x.X)}
	}
	return s // nil, Break, Continue: no children, no identity that matters
}

func cloneExpr(e Expr) Expr {
	switch x := e.(type) {
	case *Ident:
		c := *x
		return &c
	case *Unary:
		return &Unary{Pos: x.Pos, Op: x.Op, X: cloneExpr(x.X)}
	case *Binary:
		return &Binary{Pos: x.Pos, Op: x.Op, X: cloneExpr(x.X), Y: cloneExpr(x.Y)}
	case *Assign:
		return &Assign{Pos: x.Pos, Op: x.Op, LHS: cloneExpr(x.LHS), RHS: cloneExpr(x.RHS)}
	case *IncDec:
		return &IncDec{Pos: x.Pos, Op: x.Op, X: cloneExpr(x.X), Post: x.Post}
	case *Cond:
		return &Cond{Pos: x.Pos, C: cloneExpr(x.C), T: cloneExpr(x.T), F: cloneExpr(x.F)}
	case *Call:
		c := &Call{Pos: x.Pos, Name: x.Name, Args: make([]Expr, len(x.Args))}
		for i, arg := range x.Args {
			c.Args[i] = cloneExpr(arg)
		}
		return c
	case *Index:
		return &Index{Pos: x.Pos, X: cloneExpr(x.X), I: cloneExpr(x.I)}
	case *Cast:
		return &Cast{Pos: x.Pos, Type: x.Type, X: cloneExpr(x.X)}
	}
	return e // nil and the literals: immutable, and nothing is keyed on them
}
