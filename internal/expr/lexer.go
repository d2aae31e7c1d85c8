package expr

import (
	"fmt"
	"strconv"
)

// tokKind enumerates lexical token kinds.
type tokKind int

const (
	tokEOF tokKind = iota
	tokInt
	tokString
	tokIdent
	tokLParen
	tokRParen
	tokComma
	tokDot
	tokOp // operator; the op field carries which
)

type token struct {
	kind tokKind
	op   Op
	text string
	u    uint64
	pos  int // byte offset, 0-based
}

// SyntaxError reports a lexing or parsing failure with its byte offset.
type SyntaxError struct {
	Offset int
	Msg    string
}

// Error implements error.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("syntax error at offset %d: %s", e.Offset, e.Msg)
}

type lexer struct {
	src string
	pos int
}

func (l *lexer) errf(pos int, format string, args ...any) error {
	return &SyntaxError{Offset: pos, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) && isSpace(l.src[l.pos]) {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case isDigit(c):
		return l.lexNumber(start)
	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		return token{kind: tokIdent, text: l.src[start:l.pos], pos: start}, nil
	case c == '"':
		return l.lexString(start)
	}
	// Operators and punctuation.
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "||":
		l.pos += 2
		return token{kind: tokOp, op: OpOr, pos: start}, nil
	case "&&":
		l.pos += 2
		return token{kind: tokOp, op: OpAnd, pos: start}, nil
	case "==":
		l.pos += 2
		return token{kind: tokOp, op: OpEq, pos: start}, nil
	case "!=":
		l.pos += 2
		return token{kind: tokOp, op: OpNe, pos: start}, nil
	case "<=":
		l.pos += 2
		return token{kind: tokOp, op: OpLe, pos: start}, nil
	case ">=":
		l.pos += 2
		return token{kind: tokOp, op: OpGe, pos: start}, nil
	case "<<":
		l.pos += 2
		return token{kind: tokOp, op: OpShl, pos: start}, nil
	case ">>":
		l.pos += 2
		return token{kind: tokOp, op: OpShr, pos: start}, nil
	}
	l.pos++
	switch c {
	case '(':
		return token{kind: tokLParen, pos: start}, nil
	case ')':
		return token{kind: tokRParen, pos: start}, nil
	case ',':
		return token{kind: tokComma, pos: start}, nil
	case '.':
		return token{kind: tokDot, pos: start}, nil
	case '<':
		return token{kind: tokOp, op: OpLt, pos: start}, nil
	case '>':
		return token{kind: tokOp, op: OpGt, pos: start}, nil
	case '+':
		return token{kind: tokOp, op: OpAdd, pos: start}, nil
	case '-':
		return token{kind: tokOp, op: OpSub, pos: start}, nil
	case '*':
		return token{kind: tokOp, op: OpMul, pos: start}, nil
	case '/':
		return token{kind: tokOp, op: OpDiv, pos: start}, nil
	case '%':
		return token{kind: tokOp, op: OpMod, pos: start}, nil
	case '&':
		return token{kind: tokOp, op: OpBitAnd, pos: start}, nil
	case '|':
		return token{kind: tokOp, op: OpBitOr, pos: start}, nil
	case '^':
		return token{kind: tokOp, op: OpBitXor, pos: start}, nil
	case '!':
		return token{kind: tokOp, op: OpNot, pos: start}, nil
	}
	return token{}, l.errf(start, "unexpected character %q", string(c))
}

func (l *lexer) lexNumber(start int) (token, error) {
	base := 10
	digits := isDigit
	if l.src[l.pos] == '0' && l.pos+1 < len(l.src) {
		switch l.src[l.pos+1] {
		case 'x', 'X':
			base, digits = 16, isHexDigit
			l.pos += 2
		case 'b', 'B':
			base, digits = 2, isBinDigit
			l.pos += 2
		}
	}
	numStart := l.pos
	for l.pos < len(l.src) && (digits(l.src[l.pos]) || l.src[l.pos] == '_') {
		l.pos++
	}
	text := l.src[numStart:l.pos]
	if text == "" {
		return token{}, l.errf(start, "malformed numeric literal")
	}
	clean := make([]byte, 0, len(text))
	for i := 0; i < len(text); i++ {
		if text[i] != '_' {
			clean = append(clean, text[i])
		}
	}
	u, err := strconv.ParseUint(string(clean), base, 64)
	if err != nil {
		return token{}, l.errf(start, "numeric literal %q out of range", l.src[start:l.pos])
	}
	return token{kind: tokInt, u: u, pos: start}, nil
}

func (l *lexer) lexString(start int) (token, error) {
	l.pos++ // consume opening quote
	var out []byte
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '"' {
			l.pos++
			return token{kind: tokString, text: string(out), pos: start}, nil
		}
		if c == '\\' {
			if l.pos+1 >= len(l.src) {
				break
			}
			l.pos++
			switch l.src[l.pos] {
			case 'n':
				out = append(out, '\n')
			case 't':
				out = append(out, '\t')
			case '\\':
				out = append(out, '\\')
			case '"':
				out = append(out, '"')
			default:
				return token{}, l.errf(l.pos, "unknown escape \\%s", string(l.src[l.pos]))
			}
			l.pos++
			continue
		}
		out = append(out, c)
		l.pos++
	}
	return token{}, l.errf(start, "unterminated string literal")
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

func isBinDigit(c byte) bool { return c == '0' || c == '1' }

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) }
