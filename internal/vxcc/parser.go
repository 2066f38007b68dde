package vxcc

import "fmt"

type parser struct {
	lx     *lexer
	tok    token // the current token
	ahead  token // the token after it
	lexErr error // the lexer's first error; every token from it on is EOF
	file   string
	enums  map[string]int64 // constants seen so far, for array bounds etc.
}

// Parse parses one VXC source file. The parser reads one token ahead of
// the current one, so it takes its tokens from the lexer as it goes and
// keeps no slice of them. A lexical error anywhere in the file is the
// error reported, ahead of any syntax error, as if the file had been
// lexed whole before parsing.
func Parse(name, src string) (*File, error) {
	p := &parser{lx: newLexer(name, src), file: name, enums: map[string]int64{}}
	p.tok = p.lex()
	p.ahead = p.lex()
	f, err := p.parseFile()
	for p.lexErr == nil && p.ahead.kind != tEOF {
		p.ahead = p.lex()
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	return f, err
}

// lex returns the lexer's next token, or EOF once the lexer has failed.
func (p *parser) lex() token {
	if p.lexErr == nil {
		t, err := p.lx.next()
		if err == nil {
			return t
		}
		p.lexErr = err
	}
	return token{kind: tEOF, pos: Pos{File: p.file, Line: p.lx.line}}
}

func (p *parser) cur() token  { return p.tok }
func (p *parser) peek() token { return p.ahead } // token after cur; EOF at EOF

// advance returns the current token and moves to the next; at EOF it
// stays there.
func (p *parser) advance() token {
	t := p.tok
	if t.kind != tEOF {
		p.tok, p.ahead = p.ahead, p.lex()
	}
	return t
}

func (p *parser) errf(pos Pos, format string, args ...any) error {
	return fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...))
}

func (p *parser) expect(k tokKind) (token, error) {
	t := p.cur()
	if t.kind != k {
		return t, p.errf(t.pos, "expected %v, found %v", k, t.kind)
	}
	return p.advance(), nil
}

func (p *parser) accept(k tokKind) bool {
	if p.cur().kind == k {
		p.advance()
		return true
	}
	return false
}

func isTypeKeyword(k tokKind) bool {
	return k == kwInt || k == kwUint || k == kwByte || k == kwVoid
}

// parseType parses a base type plus pointer stars.
func (p *parser) parseType() (*Type, error) {
	var base *Type
	switch p.cur().kind {
	case kwInt:
		base = typeInt
	case kwUint:
		base = typeUint
	case kwByte:
		base = typeByte
	case kwVoid:
		base = typeVoid
	default:
		return nil, p.errf(p.cur().pos, "expected a type, found %v", p.cur().kind)
	}
	p.advance()
	for p.accept(tStar) {
		base = &Type{Kind: TPtr, Elem: base}
	}
	return base, nil
}

func (p *parser) parseFile() (*File, error) {
	f := &File{Name: p.file}
	for p.cur().kind != tEOF {
		switch {
		case p.cur().kind == kwEnum:
			e, err := p.parseEnum()
			if err != nil {
				return nil, err
			}
			f.Enums = append(f.Enums, e)
		default:
			isConst := p.accept(kwConst)
			if !isTypeKeyword(p.cur().kind) {
				return nil, p.errf(p.cur().pos, "expected a declaration, found %v", p.cur().kind)
			}
			typ, err := p.parseType()
			if err != nil {
				return nil, err
			}
			nameTok, err := p.expect(tIdent)
			if err != nil {
				return nil, err
			}
			if p.cur().kind == tLParen {
				if isConst {
					return nil, p.errf(nameTok.pos, "const functions are not a thing in VXC")
				}
				fn, err := p.parseFuncRest(typ, nameTok)
				if err != nil {
					return nil, err
				}
				if fn != nil { // nil for a forward declaration
					f.Funcs = append(f.Funcs, fn)
				}
			} else {
				g, err := p.parseGlobalRest(typ, nameTok, isConst)
				if err != nil {
					return nil, err
				}
				f.Globals = append(f.Globals, g)
			}
		}
	}
	return f, nil
}

func (p *parser) parseEnum() (*EnumDecl, error) {
	pos := p.advance().pos // enum
	if _, err := p.expect(tLBrace); err != nil {
		return nil, err
	}
	e := &EnumDecl{Pos: pos}
	next := int64(0)
	for {
		nameTok, err := p.expect(tIdent)
		if err != nil {
			return nil, err
		}
		val := next
		if p.accept(tAssign) {
			expr, err := p.parseTernary()
			if err != nil {
				return nil, err
			}
			v, err := p.evalConst(expr)
			if err != nil {
				return nil, err
			}
			val = v
		}
		e.Names = append(e.Names, nameTok.text)
		e.Vals = append(e.Vals, val)
		p.enums[nameTok.text] = val
		next = val + 1
		if !p.accept(tComma) {
			break
		}
		if p.cur().kind == tRBrace { // trailing comma
			break
		}
	}
	if _, err := p.expect(tRBrace); err != nil {
		return nil, err
	}
	if _, err := p.expect(tSemi); err != nil {
		return nil, err
	}
	return e, nil
}

// evalConst folds constant expressions appearing in enum values and
// array bounds. Enum constants declared earlier in the file are visible.
func (p *parser) evalConst(e Expr) (int64, error) {
	switch x := e.(type) {
	case *IntLit:
		return x.Val, nil
	case *SizeofType:
		return int64(x.Type.Size()), nil
	case *Ident:
		if v, ok := p.enums[x.Name]; ok {
			return v, nil
		}
		return 0, fmt.Errorf("%s: %q is not a constant here", x.Pos, x.Name)
	case *Unary:
		v, err := p.evalConst(x.X)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case tMinus:
			return int64(int32(-v)), nil
		case tTilde:
			return int64(^uint32(v)), nil
		case tBang:
			if v == 0 {
				return 1, nil
			}
			return 0, nil
		}
		return 0, fmt.Errorf("%s: not a constant expression", x.Pos)
	case *Binary:
		a, err := p.evalConst(x.X)
		if err != nil {
			return 0, err
		}
		b, err := p.evalConst(x.Y)
		if err != nil {
			return 0, err
		}
		au, bu := uint32(a), uint32(b)
		switch x.Op {
		case tPlus:
			return int64(au + bu), nil
		case tMinus:
			return int64(int32(au - bu)), nil
		case tStar:
			return int64(int32(au * bu)), nil
		case tSlash:
			if b == 0 {
				return 0, fmt.Errorf("%s: constant division by zero", x.Pos)
			}
			return int64(int32(a) / int32(b)), nil
		case tPercent:
			if b == 0 {
				return 0, fmt.Errorf("%s: constant division by zero", x.Pos)
			}
			return int64(int32(a) % int32(b)), nil
		case tShl:
			return int64(au << (bu & 31)), nil
		case tShr:
			return int64(au >> (bu & 31)), nil
		case tAmp:
			return int64(au & bu), nil
		case tPipe:
			return int64(au | bu), nil
		case tCaret:
			return int64(au ^ bu), nil
		}
		return 0, fmt.Errorf("%s: not a constant expression", x.Pos)
	}
	return 0, fmt.Errorf("%s: not a constant expression", e.exprPos())
}

func (p *parser) parseFuncRest(ret *Type, nameTok token) (*FuncDecl, error) {
	p.advance() // (
	fn := &FuncDecl{Pos: nameTok.pos, Name: nameTok.text, Ret: ret}
	if p.cur().kind == kwVoid && p.peek().kind == tRParen {
		p.advance() // void parameter list
	}
	if p.cur().kind != tRParen {
		for {
			typ, err := p.parseType()
			if err != nil {
				return nil, err
			}
			if typ.Kind == TVoid {
				return nil, p.errf(p.cur().pos, "void parameter")
			}
			pn, err := p.expect(tIdent)
			if err != nil {
				return nil, err
			}
			// Array parameters decay to pointers, as in C.
			if p.accept(tLBracket) {
				if _, err := p.expect(tRBracket); err != nil {
					return nil, err
				}
				typ = &Type{Kind: TPtr, Elem: typ}
			}
			fn.Params = append(fn.Params, Param{Name: pn.text, Type: typ})
			if !p.accept(tComma) {
				break
			}
		}
	}
	if _, err := p.expect(tRParen); err != nil {
		return nil, err
	}
	if p.accept(tSemi) {
		return nil, nil // forward declaration; definitions are two-pass anyway
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	return fn, nil
}

func (p *parser) parseGlobalRest(typ *Type, nameTok token, isConst bool) (*GlobalDecl, error) {
	g := &GlobalDecl{Pos: nameTok.pos, Name: nameTok.text, Type: typ, Const: isConst}
	if p.accept(tLBracket) {
		if p.accept(tRBracket) {
			// byte name[] = "..." / int name[] = {...}: the length is
			// inferred from the initializer during code generation.
			g.Type = &Type{Kind: TArray, Elem: typ, Len: -1}
		} else {
			lenExpr, err := p.parseTernary()
			if err != nil {
				return nil, err
			}
			n, err := p.evalConst(lenExpr)
			if err != nil {
				return nil, err
			}
			if n <= 0 || n > 64<<20 {
				return nil, p.errf(nameTok.pos, "bad array length %d", n)
			}
			if _, err := p.expect(tRBracket); err != nil {
				return nil, err
			}
			g.Type = &Type{Kind: TArray, Elem: typ, Len: int(n)}
		}
	}
	if p.accept(tAssign) {
		switch {
		case p.cur().kind == tStr && g.Type.Kind == TArray:
			g.Str = p.advance().str
		case p.cur().kind == tStr && g.Type.Kind == TPtr && g.Type.Elem.Kind == TByte:
			g.Str = p.advance().str
		case p.accept(tLBrace):
			for {
				e, err := p.parseTernary()
				if err != nil {
					return nil, err
				}
				g.Inits = append(g.Inits, e)
				if !p.accept(tComma) {
					break
				}
				if p.cur().kind == tRBrace {
					break
				}
			}
			if _, err := p.expect(tRBrace); err != nil {
				return nil, err
			}
		default:
			e, err := p.parseTernary()
			if err != nil {
				return nil, err
			}
			g.Init = e
		}
	}
	if _, err := p.expect(tSemi); err != nil {
		return nil, err
	}
	return g, nil
}

func (p *parser) parseBlock() (*Block, error) {
	lb, err := p.expect(tLBrace)
	if err != nil {
		return nil, err
	}
	b := &Block{Pos: lb.pos}
	for p.cur().kind != tRBrace {
		if p.cur().kind == tEOF {
			return nil, p.errf(lb.pos, "unterminated block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.advance() // }
	return b, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	t := p.cur()
	switch t.kind {
	case tLBrace:
		return p.parseBlock()
	case tSemi:
		p.advance()
		return &Block{Pos: t.pos}, nil
	case kwInt, kwUint, kwByte:
		return p.parseLocalDecl()
	case kwIf:
		p.advance()
		if _, err := p.expect(tLParen); err != nil {
			return nil, err
		}
		c, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRParen); err != nil {
			return nil, err
		}
		then, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		var els Stmt
		if p.accept(kwElse) {
			els, err = p.parseStmt()
			if err != nil {
				return nil, err
			}
		}
		return &If{Pos: t.pos, C: c, Then: then, Else: els}, nil
	case kwWhile:
		p.advance()
		if _, err := p.expect(tLParen); err != nil {
			return nil, err
		}
		c, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRParen); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &While{Pos: t.pos, C: c, Body: body}, nil
	case kwDo:
		p.advance()
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(kwWhile); err != nil {
			return nil, err
		}
		if _, err := p.expect(tLParen); err != nil {
			return nil, err
		}
		c, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRParen); err != nil {
			return nil, err
		}
		if _, err := p.expect(tSemi); err != nil {
			return nil, err
		}
		return &DoWhile{Pos: t.pos, C: c, Body: body}, nil
	case kwFor:
		p.advance()
		if _, err := p.expect(tLParen); err != nil {
			return nil, err
		}
		var init Stmt
		if p.cur().kind != tSemi {
			if isTypeKeyword(p.cur().kind) {
				d, err := p.parseLocalDecl() // consumes the ';'
				if err != nil {
					return nil, err
				}
				init = d
			} else {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				init = &ExprStmt{Pos: e.exprPos(), X: e}
				if _, err := p.expect(tSemi); err != nil {
					return nil, err
				}
			}
		} else {
			p.advance()
		}
		var cond Expr
		if p.cur().kind != tSemi {
			c, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			cond = c
		}
		if _, err := p.expect(tSemi); err != nil {
			return nil, err
		}
		var post Expr
		if p.cur().kind != tRParen {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			post = e
		}
		if _, err := p.expect(tRParen); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &For{Pos: t.pos, Init: init, C: cond, Post: post, Body: body}, nil
	case kwReturn:
		p.advance()
		if p.accept(tSemi) {
			return &Return{Pos: t.pos}, nil
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tSemi); err != nil {
			return nil, err
		}
		return &Return{Pos: t.pos, X: x}, nil
	case kwBreak:
		p.advance()
		if _, err := p.expect(tSemi); err != nil {
			return nil, err
		}
		return &Break{Pos: t.pos}, nil
	case kwContinue:
		p.advance()
		if _, err := p.expect(tSemi); err != nil {
			return nil, err
		}
		return &Continue{Pos: t.pos}, nil
	}
	// Expression statement.
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tSemi); err != nil {
		return nil, err
	}
	return &ExprStmt{Pos: t.pos, X: x}, nil
}

func (p *parser) parseLocalDecl() (Stmt, error) {
	pos := p.cur().pos
	typ, err := p.parseType()
	if err != nil {
		return nil, err
	}
	if typ.Kind == TVoid {
		return nil, p.errf(pos, "void variable")
	}
	nameTok, err := p.expect(tIdent)
	if err != nil {
		return nil, err
	}
	if p.accept(tLBracket) {
		lenExpr, err := p.parseTernary()
		if err != nil {
			return nil, err
		}
		n, err := p.evalConst(lenExpr)
		if err != nil {
			return nil, err
		}
		if n <= 0 || n > 1<<20 {
			return nil, p.errf(pos, "bad local array length %d", n)
		}
		if _, err := p.expect(tRBracket); err != nil {
			return nil, err
		}
		typ = &Type{Kind: TArray, Elem: typ, Len: int(n)}
	}
	var init Expr
	if p.accept(tAssign) {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		init = e
	}
	if _, err := p.expect(tSemi); err != nil {
		return nil, err
	}
	return &DeclStmt{Pos: pos, Name: nameTok.text, Type: typ, Init: init}, nil
}

// Expression parsing. parseExpr handles assignment (right-associative,
// lowest precedence); parseTernary and below handle the rest.

func isAssignOp(k tokKind) bool {
	switch k {
	case tAssign, tPlusEq, tMinusEq, tStarEq, tSlashEq, tPercentEq,
		tAmpEq, tPipeEq, tCaretEq, tShlEq, tShrEq:
		return true
	}
	return false
}

func (p *parser) parseExpr() (Expr, error) {
	lhs, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	if isAssignOp(p.cur().kind) {
		op := p.advance()
		rhs, err := p.parseExpr() // right associative
		if err != nil {
			return nil, err
		}
		return &Assign{Pos: op.pos, Op: op.kind, LHS: lhs, RHS: rhs}, nil
	}
	return lhs, nil
}

func (p *parser) parseTernary() (Expr, error) {
	c, err := p.parseBinary(0)
	if err != nil {
		return nil, err
	}
	if !p.accept(tQuestion) {
		return c, nil
	}
	t, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tColon); err != nil {
		return nil, err
	}
	f, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	return &Cond{Pos: c.exprPos(), C: c, T: t, F: f}, nil
}

// binPrec returns the precedence of a binary operator, or -1.
func binPrec(k tokKind) int {
	switch k {
	case tOrOr:
		return 1
	case tAndAnd:
		return 2
	case tPipe:
		return 3
	case tCaret:
		return 4
	case tAmp:
		return 5
	case tEq, tNe:
		return 6
	case tLt, tLe, tGt, tGe:
		return 7
	case tShl, tShr:
		return 8
	case tPlus, tMinus:
		return 9
	case tStar, tSlash, tPercent:
		return 10
	}
	return -1
}

func (p *parser) parseBinary(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		prec := binPrec(p.cur().kind)
		if prec < 0 || prec < minPrec {
			return lhs, nil
		}
		op := p.advance()
		rhs, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &Binary{Pos: op.pos, Op: op.kind, X: lhs, Y: rhs}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tMinus, tBang, tTilde, tStar, tAmp:
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Pos: t.pos, Op: t.kind, X: x}, nil
	case tInc, tDec:
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &IncDec{Pos: t.pos, Op: t.kind, X: x}, nil
	case kwSizeof:
		p.advance()
		if _, err := p.expect(tLParen); err != nil {
			return nil, err
		}
		typ, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRParen); err != nil {
			return nil, err
		}
		return &SizeofType{Pos: t.pos, Type: typ}, nil
	case tLParen:
		if isTypeKeyword(p.peek().kind) {
			p.advance() // (
			typ, err := p.parseType()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tRParen); err != nil {
				return nil, err
			}
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &Cast{Pos: t.pos, Type: typ, X: x}, nil
		}
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		switch t.kind {
		case tLBracket:
			p.advance()
			i, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tRBracket); err != nil {
				return nil, err
			}
			x = &Index{Pos: t.pos, X: x, I: i}
		case tLParen:
			id, ok := x.(*Ident)
			if !ok {
				return nil, p.errf(t.pos, "VXC calls must name a function directly")
			}
			p.advance()
			call := &Call{Pos: t.pos, Name: id.Name}
			if p.cur().kind != tRParen {
				for {
					a, err := p.parseTernary()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, a)
					if !p.accept(tComma) {
						break
					}
				}
			}
			if _, err := p.expect(tRParen); err != nil {
				return nil, err
			}
			x = call
		case tInc, tDec:
			p.advance()
			x = &IncDec{Pos: t.pos, Op: t.kind, X: x, Post: true}
		default:
			return x, nil
		}
	}
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tInt:
		p.advance()
		return &IntLit{Pos: t.pos, Val: t.val, Unsigned: t.val > 0x7FFFFFFF}, nil
	case tChar:
		p.advance()
		return &IntLit{Pos: t.pos, Val: t.val}, nil
	case tStr:
		p.advance()
		return &StrLit{Pos: t.pos, Val: t.str}, nil
	case tIdent:
		p.advance()
		return &Ident{Pos: t.pos, Name: t.text}, nil
	case tLParen:
		p.advance()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRParen); err != nil {
			return nil, err
		}
		return x, nil
	}
	return nil, p.errf(t.pos, "expected an expression, found %v", t.kind)
}
