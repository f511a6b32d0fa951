package rules

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// tokKind enumerates token classes of the rule language.
type tokKind int

const (
	tokEOF    tokKind = iota
	tokIdent          // rule, when, then, end, salience, identifiers, dotted paths
	tokVar            // $name
	tokNumber         // 42, 3.14
	tokString         // "quoted"
	tokLParen         // (
	tokRParen         // )
	tokColon          // :
	tokSemi           // ;
	tokComma          // ,
	tokDot            // .
	tokOp             // < <= > >= == != && || ! + - * /
)

func (k tokKind) String() string {
	switch k {
	case tokEOF:
		return "EOF"
	case tokIdent:
		return "identifier"
	case tokVar:
		return "variable"
	case tokNumber:
		return "number"
	case tokString:
		return "string"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokColon:
		return "':'"
	case tokSemi:
		return "';'"
	case tokComma:
		return "','"
	case tokDot:
		return "'.'"
	case tokOp:
		return "operator"
	default:
		return "?"
	}
}

// token is one lexical unit with its source line for error messages.
type token struct {
	kind tokKind
	text string
	line int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// lexer turns rule source text into tokens. It supports //-comments and
// /* */ comments like the JBoss DRL syntax of Fig. 5.
type lexer struct {
	src  []rune
	pos  int
	line int
}

func newLexer(src string) *lexer {
	return &lexer{src: []rune(src), line: 1}
}

// SyntaxError reports a lexical or parse failure with its line number.
type SyntaxError struct {
	Line int
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("rules: line %d: %s", e.Line, e.Msg)
}

func (l *lexer) errf(format string, args ...any) error {
	return &SyntaxError{Line: l.line, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) peek() rune {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) at(off int) rune {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

func (l *lexer) advance() rune {
	r := l.src[l.pos]
	l.pos++
	if r == '\n' {
		l.line++
	}
	return r
}

func (l *lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		r := l.peek()
		switch {
		case unicode.IsSpace(r):
			l.advance()
		case r == '/' && l.at(1) == '/':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case r == '/' && l.at(1) == '*':
			start := l.line
			l.advance()
			l.advance()
			for {
				if l.pos >= len(l.src) {
					return &SyntaxError{Line: start, Msg: "unterminated block comment"}
				}
				if l.peek() == '*' && l.at(1) == '/' {
					l.advance()
					l.advance()
					break
				}
				l.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

// next returns the next token.
func (l *lexer) next() (token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return token{}, err
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, line: l.line}, nil
	}
	line := l.line
	r := l.peek()
	switch {
	case r == '$':
		l.advance()
		var b strings.Builder
		for l.pos < len(l.src) && isIdentRune(l.peek()) {
			b.WriteRune(l.advance())
		}
		if b.Len() == 0 {
			return token{}, l.errf("'$' must introduce a variable name")
		}
		return token{kind: tokVar, text: b.String(), line: line}, nil
	case unicode.IsLetter(r) || r == '_':
		var b strings.Builder
		for l.pos < len(l.src) && isIdentRune(l.peek()) {
			b.WriteRune(l.advance())
		}
		return token{kind: tokIdent, text: b.String(), line: line}, nil
	case unicode.IsDigit(r):
		var b strings.Builder
		seenDot := false
		for l.pos < len(l.src) {
			c := l.peek()
			if unicode.IsDigit(c) {
				b.WriteRune(l.advance())
				continue
			}
			// A dot is part of the number only when followed by a digit,
			// so that "2.value" stays an error rather than lexing oddly.
			if c == '.' && !seenDot && unicode.IsDigit(l.at(1)) {
				seenDot = true
				b.WriteRune(l.advance())
				continue
			}
			break
		}
		return token{kind: tokNumber, text: b.String(), line: line}, nil
	case r == '"':
		l.advance()
		var b strings.Builder
		for {
			if l.pos >= len(l.src) {
				return token{}, &SyntaxError{Line: line, Msg: "unterminated string literal"}
			}
			c := l.advance()
			if c == '"' {
				break
			}
			if c == '\\' && l.pos < len(l.src) {
				// Escapes are Go's, so every literal the printer writes
				// with %q reads back unchanged. The longest escape,
				// \U0010FFFF, spans 10 runes.
				start := l.pos - 1
				rest := string(l.src[start:min(start+10, len(l.src))])
				v, multibyte, tail, err := strconv.UnquoteChar(rest, '"')
				if err != nil {
					return token{}, &SyntaxError{Line: line, Msg: "bad escape in string literal"}
				}
				// A valid escape is ASCII: bytes consumed = runes consumed.
				l.pos = start + len(rest) - len(tail)
				if multibyte {
					b.WriteRune(v)
				} else {
					b.WriteByte(byte(v))
				}
				continue
			}
			b.WriteRune(c)
		}
		return token{kind: tokString, text: b.String(), line: line}, nil
	}
	// punctuation and operators
	two := string(r) + string(l.at(1))
	switch two {
	case "<=", ">=", "==", "!=", "&&", "||":
		l.advance()
		l.advance()
		return token{kind: tokOp, text: two, line: line}, nil
	}
	l.advance()
	switch r {
	case '(':
		return token{kind: tokLParen, text: "(", line: line}, nil
	case ')':
		return token{kind: tokRParen, text: ")", line: line}, nil
	case ':':
		return token{kind: tokColon, text: ":", line: line}, nil
	case ';':
		return token{kind: tokSemi, text: ";", line: line}, nil
	case ',':
		return token{kind: tokComma, text: ",", line: line}, nil
	case '.':
		return token{kind: tokDot, text: ".", line: line}, nil
	case '<', '>', '!', '+', '-', '*', '/':
		return token{kind: tokOp, text: string(r), line: line}, nil
	}
	return token{}, l.errf("unexpected character %q", string(r))
}

// lexAll tokenizes the whole input (EOF token excluded).
func lexAll(src string) ([]token, error) {
	l := newLexer(src)
	var toks []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		if t.kind == tokEOF {
			return toks, nil
		}
		toks = append(toks, t)
	}
}

func isIdentRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}
