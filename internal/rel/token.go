package rel

import (
	"fmt"
	"unicode/utf8"
)

// tokenKind enumerates lexical token types.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokString
	tokInt
	tokSemi
	tokComma
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokString:
		return "string"
	case tokInt:
		return "integer"
	case tokSemi:
		return "';'"
	case tokComma:
		return "','"
	}
	return "unknown token"
}

// token is a lexical token with its source position (1-based line/col).
type token struct {
	kind tokenKind
	text string
	line int
	col  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// SyntaxError reports a lexing or parsing failure with position.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("rel: %d:%d: %s", e.Line, e.Col, e.Msg)
}

// lexer splits source text into tokens.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1, col: 1} }

func (l *lexer) errf(format string, args ...interface{}) error {
	return &SyntaxError{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9' || c == '-'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

// next returns the next token.
func (l *lexer) next() (token, error) {
	// Skip whitespace and # comments.
	for l.pos < len(l.src) {
		c := l.peek()
		if isSpace(c) {
			l.advance()
			continue
		}
		if c == '#' {
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
			continue
		}
		break
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, line: l.line, col: l.col}, nil
	}
	startLine, startCol := l.line, l.col
	c := l.peek()
	switch {
	case c == ';':
		l.advance()
		return token{kind: tokSemi, text: ";", line: startLine, col: startCol}, nil
	case c == ',':
		l.advance()
		return token{kind: tokComma, text: ",", line: startLine, col: startCol}, nil
	case c == '"':
		l.advance()
		var buf []byte
		for {
			if l.pos >= len(l.src) {
				return token{}, &SyntaxError{Line: startLine, Col: startCol, Msg: "unterminated string"}
			}
			ch := l.advance()
			if ch == '"' {
				break
			}
			if ch == '\\' {
				if l.pos >= len(l.src) {
					return token{}, &SyntaxError{Line: startLine, Col: startCol, Msg: "unterminated escape"}
				}
				esc := l.advance()
				switch esc {
				case '"', '\\':
					buf = append(buf, esc)
				default:
					return token{}, &SyntaxError{Line: startLine, Col: startCol, Msg: fmt.Sprintf("unknown escape \\%c", esc)}
				}
				continue
			}
			if ch < 0x20 || ch == 0x7f {
				return token{}, &SyntaxError{Line: startLine, Col: startCol, Msg: fmt.Sprintf("control byte %#04x in string", ch)}
			}
			buf = append(buf, ch)
		}
		if !utf8.Valid(buf) {
			return token{}, &SyntaxError{Line: startLine, Col: startCol, Msg: "invalid UTF-8 in string"}
		}
		return token{kind: tokString, text: string(buf), line: startLine, col: startCol}, nil
	case isDigit(c):
		var buf []byte
		for l.pos < len(l.src) && isDigit(l.peek()) {
			buf = append(buf, l.advance())
		}
		if l.pos < len(l.src) && isIdentStart(l.peek()) {
			return token{}, l.errf("malformed number")
		}
		return token{kind: tokInt, text: string(buf), line: startLine, col: startCol}, nil
	case isIdentStart(c):
		var buf []byte
		for l.pos < len(l.src) && isIdentPart(l.peek()) {
			buf = append(buf, l.advance())
		}
		return token{kind: tokIdent, text: string(buf), line: startLine, col: startCol}, nil
	}
	return token{}, l.errf("unexpected character %q", c)
}

// lexAll tokenizes the whole input (including the trailing EOF token).
func lexAll(src string) ([]token, error) {
	l := newLexer(src)
	var out []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == tokEOF {
			return out, nil
		}
	}
}
