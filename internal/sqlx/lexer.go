// Package sqlx implements a lexer and recursive-descent parser for the SPJ
// SQL subset used throughout the workbench:
//
//	SELECT COUNT(*) FROM t1 a, t2 b
//	WHERE a.id = b.fk AND a.x > 5 AND b.y BETWEEN 3 AND 9 AND b.s = 'abc';
//
// Parsed statements bind against a data.Catalog, which resolves string
// literals to dictionary codes and validates table/column references.
package sqlx

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokComma
	tokDot
	tokLParen
	tokRParen
	tokStar
	tokSemi
	tokOp    // = <> != < <= > >=
	tokParam // ? prepared-statement placeholder
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "<eof>"
	}
	return fmt.Sprintf("%q", t.text)
}

// lexer yields the tokens of src one at a time. The first lex error
// stops it: err records it and every later token is EOF.
type lexer struct {
	src string
	pos int
	err error
}

// next returns the token at or after pos.
func (l *lexer) next() token {
	for l.err == nil && l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == ',':
			return l.emit(tokComma, ",")
		case c == '.':
			return l.emit(tokDot, ".")
		case c == '(':
			return l.emit(tokLParen, "(")
		case c == ')':
			return l.emit(tokRParen, ")")
		case c == '*':
			return l.emit(tokStar, "*")
		case c == ';':
			return l.emit(tokSemi, ";")
		case c == '?':
			return l.emit(tokParam, "?")
		case c == '=':
			return l.emit(tokOp, "=")
		case c == '<':
			if l.peek(1) == '=' {
				return l.emit(tokOp, "<=")
			} else if l.peek(1) == '>' {
				return l.emit(tokOp, "<>")
			}
			return l.emit(tokOp, "<")
		case c == '>':
			if l.peek(1) == '=' {
				return l.emit(tokOp, ">=")
			}
			return l.emit(tokOp, ">")
		case c == '!':
			if l.peek(1) == '=' {
				return l.emit(tokOp, "<>")
			}
			l.err = fmt.Errorf("sqlx: unexpected '!' at %d", l.pos)
		case c == '\'':
			return l.lexString()
		case c == '-' || (c >= '0' && c <= '9'):
			return l.lexNumber()
		case unicode.IsLetter(rune(c)) || c == '_':
			return l.lexIdent()
		default:
			l.err = fmt.Errorf("sqlx: unexpected character %q at %d", c, l.pos)
		}
	}
	return token{kind: tokEOF, pos: l.pos}
}

func (l *lexer) peek(ahead int) byte {
	if l.pos+ahead < len(l.src) {
		return l.src[l.pos+ahead]
	}
	return 0
}

// emit returns a token of len(s) bytes at pos, spelled s ("!=" is
// spelled "<>"), and moves past it.
func (l *lexer) emit(k tokenKind, s string) token {
	t := token{kind: k, text: s, pos: l.pos}
	l.pos += len(s)
	return t
}

// lexString returns a quoted literal. Its text is a slice of src unless
// a doubled quote in it must be unescaped.
func (l *lexer) lexString() token {
	start := l.pos
	for l.pos++; l.pos < len(l.src); l.pos++ {
		if l.src[l.pos] != '\'' {
			continue
		}
		if l.peek(1) != '\'' {
			l.pos++
			return token{kind: tokString, text: strings.ReplaceAll(l.src[start+1:l.pos-1], "''", "'"), pos: start}
		}
		l.pos++ // an escaped quote
	}
	l.err = fmt.Errorf("sqlx: unterminated string starting at %d", start)
	return token{kind: tokEOF, pos: l.pos}
}

func (l *lexer) lexNumber() token {
	start := l.pos
	if l.src[l.pos] == '-' {
		l.pos++
	}
	digits := 0
	for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
		l.pos++
		digits++
	}
	if l.pos < len(l.src) && l.src[l.pos] == '.' && l.peek(1) >= '0' && l.peek(1) <= '9' {
		l.pos++
		for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
			l.pos++
		}
	}
	// Scientific notation ("1e+06", the shortest strconv form of large
	// floats, so rendered queries re-parse). Consumed only when at least
	// one exponent digit follows: "1e" stays number-then-identifier.
	if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
		q := l.pos + 1
		if q < len(l.src) && (l.src[q] == '+' || l.src[q] == '-') {
			q++
		}
		r := q
		for r < len(l.src) && l.src[r] >= '0' && l.src[r] <= '9' {
			r++
		}
		if r > q {
			l.pos = r
		}
	}
	if digits == 0 {
		l.err = fmt.Errorf("sqlx: malformed number at %d", start)
		return token{kind: tokEOF, pos: l.pos}
	}
	return token{kind: tokNumber, text: l.src[start:l.pos], pos: start}
}

func (l *lexer) lexIdent() token {
	start := l.pos
	for l.pos < len(l.src) {
		c := rune(l.src[l.pos])
		if unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_' {
			l.pos++
			continue
		}
		break
	}
	return token{kind: tokIdent, text: l.src[start:l.pos], pos: start}
}
