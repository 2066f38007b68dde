package vxcc

import (
	"fmt"
	"strconv"
)

type lexer struct {
	src  string
	file string
	pos  int
	line int
}

func newLexer(file, src string) *lexer {
	return &lexer{src: src, file: file, line: 1}
}

func (l *lexer) errf(format string, args ...any) error {
	return fmt.Errorf("%s:%d: %s", l.file, l.line, fmt.Sprintf(format, args...))
}

func (l *lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) at(off int) byte {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdent(c byte) bool { return isIdentStart(c) || c >= '0' && c <= '9' }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// skipSpace consumes whitespace and comments.
func (l *lexer) skipSpace() error {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '/' && l.at(1) == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.at(1) == '*':
			l.pos += 2
			for {
				if l.pos >= len(l.src) {
					return l.errf("unterminated block comment")
				}
				if l.src[l.pos] == '\n' {
					l.line++
				}
				if l.src[l.pos] == '*' && l.at(1) == '/' {
					l.pos += 2
					break
				}
				l.pos++
			}
		default:
			return nil
		}
	}
	return nil
}

// escape decodes one escape sequence after a backslash.
func (l *lexer) escape() (byte, error) {
	c := l.peekByte()
	l.pos++
	switch c {
	case 'n':
		return '\n', nil
	case 't':
		return '\t', nil
	case 'r':
		return '\r', nil
	case '0':
		return 0, nil
	case '\\', '\'', '"':
		return c, nil
	case 'x':
		hi, lo := l.peekByte(), l.at(1)
		v, err := strconv.ParseUint(string([]byte{hi, lo}), 16, 8)
		if err != nil {
			return 0, l.errf("bad hex escape")
		}
		l.pos += 2
		return byte(v), nil
	}
	return 0, l.errf("bad escape \\%c", c)
}

// next returns the next token.
func (l *lexer) next() (token, error) {
	if err := l.skipSpace(); err != nil {
		return token{}, err
	}
	tok := token{pos: Pos{File: l.file, Line: l.line}}
	if l.pos >= len(l.src) {
		tok.kind = tEOF
		return tok, nil
	}
	c := l.src[l.pos]

	switch {
	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && isIdent(l.src[l.pos]) {
			l.pos++
		}
		tok.text = l.src[start:l.pos]
		if k, ok := keywords[tok.text]; ok {
			tok.kind = k
		} else {
			tok.kind = tIdent
		}
		return tok, nil

	case isDigit(c):
		start := l.pos
		base := 10
		if c == '0' && (l.at(1) == 'x' || l.at(1) == 'X') {
			base = 16
			l.pos += 2
			start = l.pos
			for l.pos < len(l.src) && (isDigit(l.src[l.pos]) ||
				l.src[l.pos] >= 'a' && l.src[l.pos] <= 'f' ||
				l.src[l.pos] >= 'A' && l.src[l.pos] <= 'F') {
				l.pos++
			}
		} else {
			for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
				l.pos++
			}
		}
		if l.pos < len(l.src) && isIdentStart(l.src[l.pos]) {
			// Reject suffixes like 5u or 0xFFz; VXC literals are bare.
			if l.src[l.pos] == 'u' || l.src[l.pos] == 'U' {
				l.pos++ // tolerate a lone unsigned suffix for C compatibility
			} else {
				return tok, l.errf("bad numeric literal")
			}
		}
		digits := l.src[start:l.pos]
		if base == 16 && len(digits) > 0 && (digits[len(digits)-1] == 'u' || digits[len(digits)-1] == 'U') {
			digits = digits[:len(digits)-1]
		}
		if base == 10 && len(digits) > 0 && (digits[len(digits)-1] == 'u' || digits[len(digits)-1] == 'U') {
			digits = digits[:len(digits)-1]
		}
		v, err := strconv.ParseUint(digits, base, 64)
		if err != nil || v > 0xFFFFFFFF {
			return tok, l.errf("integer literal out of 32-bit range")
		}
		tok.kind = tInt
		tok.val = int64(v)
		return tok, nil

	case c == '\'':
		l.pos++
		var v byte
		if l.peekByte() == '\\' {
			l.pos++
			b, err := l.escape()
			if err != nil {
				return tok, err
			}
			v = b
		} else {
			v = l.peekByte()
			l.pos++
		}
		if l.peekByte() != '\'' {
			return tok, l.errf("unterminated character literal")
		}
		l.pos++
		tok.kind = tChar
		tok.val = int64(v)
		return tok, nil

	case c == '"':
		l.pos++
		var buf []byte
		for {
			if l.pos >= len(l.src) {
				return tok, l.errf("unterminated string literal")
			}
			ch := l.src[l.pos]
			if ch == '"' {
				l.pos++
				break
			}
			if ch == '\n' {
				return tok, l.errf("newline in string literal")
			}
			if ch == '\\' {
				l.pos++
				b, err := l.escape()
				if err != nil {
					return tok, err
				}
				buf = append(buf, b)
				continue
			}
			buf = append(buf, ch)
			l.pos++
		}
		tok.kind = tStr
		tok.str = buf
		return tok, nil
	}

	// Operators, longest match first.
	if l.pos+3 <= len(l.src) {
		if k, ok := threeCharOps[l.src[l.pos:l.pos+3]]; ok {
			tok.kind = k
			l.pos += 3
			return tok, nil
		}
	}
	if l.pos+2 <= len(l.src) {
		if k, ok := twoCharOps[l.src[l.pos:l.pos+2]]; ok {
			tok.kind = k
			l.pos += 2
			return tok, nil
		}
	}
	if k := oneCharOps[c]; k != tEOF {
		tok.kind = k
		l.pos++
		return tok, nil
	}
	return tok, l.errf("unexpected character %q", c)
}

// The operator tables, by length. next tries them longest first, so
// "<<=" lexes as one token, not "<<" then "=". They are package-level so
// that an operator token costs a lookup, not the building of a table:
// every Compile lexes libvx and each decoder source afresh.
var (
	threeCharOps = map[string]tokKind{"<<=": tShlEq, ">>=": tShrEq}
	twoCharOps   = map[string]tokKind{
		"<=": tLe, ">=": tGe, "==": tEq, "!=": tNe, "<<": tShl, ">>": tShr,
		"&&": tAndAnd, "||": tOrOr, "+=": tPlusEq, "-=": tMinusEq,
		"*=": tStarEq, "/=": tSlashEq, "%=": tPercentEq, "&=": tAmpEq,
		"|=": tPipeEq, "^=": tCaretEq, "++": tInc, "--": tDec,
	}
	// oneCharOps is indexed by byte; tEOF marks a byte that is no operator.
	oneCharOps = [256]tokKind{
		'(': tLParen, ')': tRParen, '{': tLBrace, '}': tRBrace,
		'[': tLBracket, ']': tRBracket, ',': tComma, ';': tSemi,
		':': tColon, '?': tQuestion, '=': tAssign, '+': tPlus, '-': tMinus,
		'*': tStar, '/': tSlash, '%': tPercent, '&': tAmp, '|': tPipe,
		'^': tCaret, '~': tTilde, '!': tBang, '<': tLt, '>': tGt,
	}
)
