// Package source implements the frontend for Phloem's C-subset input
// language: lexer, parser, abstract syntax tree, and type checker.
//
// The language is the subset of C that the paper's benchmarks use: a single
// kernel function over restrict-qualified int/float arrays, with loops,
// conditionals, integer and floating-point arithmetic, and the Phloem pragma
// annotations of Table II (#pragma phloem / decouple / replicate /
// distribute). A swap(a, b) builtin exchanges two array pointers (the
// idiomatic double-buffer flip in BFS-style code).
package source

import "fmt"

// TokKind enumerates token kinds.
type TokKind int

const (
	TokEOF TokKind = iota
	TokIdent
	TokIntLit
	TokFloatLit
	TokPunct   // operators and punctuation
	TokKeyword // reserved words
	TokPragma  // a whole #pragma line (text in Lit)
)

// Token is one lexical token.
type Token struct {
	Kind TokKind
	Lit  string
	Line int
	Col  int
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "end of file"
	case TokPragma:
		return fmt.Sprintf("#pragma %s", t.Lit)
	default:
		return fmt.Sprintf("%q", t.Lit)
	}
}

var keywords = map[string]bool{
	"void": true, "int": true, "float": true, "long": true, "double": true,
	"if": true, "else": true, "while": true, "for": true, "return": true,
	"restrict": true, "const": true, "swap": true, "barrier": true, "break": true,
	"continue": true,
}

// Lexer turns source text into tokens.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
}

// newLexer creates a lexer over src.
func newLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (l *Lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) peekByte2() byte {
	if l.pos+1 >= len(l.src) {
		return 0
	}
	return l.src[l.pos+1]
}

func (l *Lexer) adv() byte {
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

func isDigit(c byte) bool  { return c >= '0' && c <= '9' }
func isIdent0(c byte) bool { return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }
func isIdentC(c byte) bool { return isIdent0(c) || isDigit(c) }

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	for {
		// skip whitespace
		for l.pos < len(l.src) {
			c := l.peekByte()
			if c == ' ' || c == '\t' || c == '\r' || c == '\n' {
				l.adv()
				continue
			}
			break
		}
		if l.pos >= len(l.src) {
			return Token{Kind: TokEOF, Line: l.line, Col: l.col}, nil
		}
		// comments
		if l.peekByte() == '/' && l.peekByte2() == '/' {
			for l.pos < len(l.src) && l.peekByte() != '\n' {
				l.adv()
			}
			continue
		}
		if l.peekByte() == '/' && l.peekByte2() == '*' {
			l.adv()
			l.adv()
			for l.pos < len(l.src) && !(l.peekByte() == '*' && l.peekByte2() == '/') {
				l.adv()
			}
			if l.pos >= len(l.src) {
				return Token{}, errf(l.line, "unterminated block comment")
			}
			l.adv()
			l.adv()
			continue
		}
		break
	}

	line, col := l.line, l.col
	c := l.peekByte()

	// #pragma line
	if c == '#' {
		start := l.pos
		for l.pos < len(l.src) && l.peekByte() != '\n' {
			l.adv()
		}
		text := l.src[start:l.pos]
		const prefix = "#pragma"
		if len(text) < len(prefix) || text[:len(prefix)] != prefix {
			return Token{}, errf(line, "unsupported preprocessor directive %q", text)
		}
		body := text[len(prefix):]
		for len(body) > 0 && (body[0] == ' ' || body[0] == '\t') {
			body = body[1:]
		}
		return Token{Kind: TokPragma, Lit: body, Line: line, Col: col}, nil
	}

	if isIdent0(c) {
		start := l.pos
		for l.pos < len(l.src) && isIdentC(l.peekByte()) {
			l.adv()
		}
		word := l.src[start:l.pos]
		k := TokIdent
		if keywords[word] {
			k = TokKeyword
		}
		return Token{Kind: k, Lit: word, Line: line, Col: col}, nil
	}

	if isDigit(c) || (c == '.' && isDigit(l.peekByte2())) {
		start := l.pos
		isFloat := false
		for l.pos < len(l.src) {
			c := l.peekByte()
			if isDigit(c) {
				l.adv()
			} else if c == '.' && !isFloat {
				isFloat = true
				l.adv()
			} else if (c == 'e' || c == 'E') && l.pos > start {
				isFloat = true
				l.adv()
				if l.peekByte() == '+' || l.peekByte() == '-' {
					l.adv()
				}
			} else {
				break
			}
		}
		lit := l.src[start:l.pos]
		k := TokIntLit
		if isFloat {
			k = TokFloatLit
		}
		return Token{Kind: k, Lit: lit, Line: line, Col: col}, nil
	}

	// multi-char operators, longest first
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "<=", ">=", "==", "!=", "&&", "||", "<<", ">>", "+=", "-=", "*=", "/=":
		l.adv()
		l.adv()
		return Token{Kind: TokPunct, Lit: two, Line: line, Col: col}, nil
	}
	switch c {
	case '+', '-', '*', '/', '%', '<', '>', '=', '!', '&', '|', '^', '~',
		'(', ')', '{', '}', '[', ']', ';', ',':
		l.adv()
		return Token{Kind: TokPunct, Lit: string(c), Line: line, Col: col}, nil
	}
	return Token{}, errf(line, "column %d: unexpected character %q", col, string(c))
}

// LexAll tokenizes the whole input (testing convenience).
func LexAll(src string) ([]Token, error) {
	l := newLexer(src)
	var out []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == TokEOF {
			return out, nil
		}
	}
}
