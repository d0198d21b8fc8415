package source

import (
	"strconv"
	"strings"
)

// Parser is a recursive-descent parser for the C subset. It pulls tokens
// from the lexer as it goes: the grammar needs two tokens of lookahead and
// never backtracks, so the token stream is never materialised.
type Parser struct {
	lex Lexer
	// look holds the next two tokens (peek, peek2). At the end of input,
	// and after a lexical error, every further token is EOF.
	look [2]Token
	// lexErr is the first lexical error; it wins over any parse error,
	// wherever in the file either occurs.
	lexErr error
}

// Parse parses a translation unit containing exactly one function.
func Parse(src string) (*Function, error) {
	p := &Parser{lex: *newLexer(src)}
	p.look[0] = p.lexNext()
	p.look[1] = p.lexNext()
	fn, err := p.parseFunction()
	if err == nil {
		if t := p.peek(); t.Kind != TokEOF {
			err = errf(t.Line, "unexpected %s after function body (one function per unit)", t)
		}
	}
	if err != nil {
		// A lexical error later in the file outranks this parse error.
		for p.lexErr == nil && p.look[1].Kind != TokEOF {
			p.look[1] = p.lexNext()
		}
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	if err != nil {
		return nil, err
	}
	return fn, nil
}

// lexNext pulls the next token from the lexer. After a lexical error it
// lexes no further and returns EOF.
func (p *Parser) lexNext() Token {
	if p.lexErr == nil {
		t, err := p.lex.Next()
		if err == nil {
			return t
		}
		p.lexErr = err
	}
	return Token{Kind: TokEOF, Line: p.lex.line, Col: p.lex.col}
}

func (p *Parser) peek() Token  { return p.look[0] }
func (p *Parser) peek2() Token { return p.look[1] }
func (p *Parser) next() Token {
	t := p.look[0]
	if t.Kind != TokEOF {
		p.look[0] = p.look[1]
		p.look[1] = p.lexNext()
	}
	return t
}

func (p *Parser) expectPunct(s string) (Token, error) {
	t := p.next()
	if t.Kind != TokPunct || t.Lit != s {
		return t, errf(t.Line, "expected %q, found %s", s, t)
	}
	return t, nil
}

func (p *Parser) expectKeyword(s string) (Token, error) {
	t := p.next()
	if t.Kind != TokKeyword || t.Lit != s {
		return t, errf(t.Line, "expected %q, found %s", s, t)
	}
	return t, nil
}

func (p *Parser) isPunct(s string) bool {
	t := p.peek()
	return t.Kind == TokPunct && t.Lit == s
}

func (p *Parser) isKeyword(s string) bool {
	t := p.peek()
	return t.Kind == TokKeyword && t.Lit == s
}

// parseType parses a base type with optional * and restrict/const qualifiers.
func (p *Parser) parseType() (Type, bool, error) {
	restrict := false
	for p.isKeyword("const") {
		p.next()
	}
	t := p.next()
	if t.Kind != TokKeyword {
		return TypeVoid, false, errf(t.Line, "expected type, found %s", t)
	}
	var base Type
	switch t.Lit {
	case "void":
		base = TypeVoid
	case "int", "long":
		base = TypeInt
	case "float", "double":
		base = TypeFloat
	default:
		return TypeVoid, false, errf(t.Line, "expected type, found %q", t.Lit)
	}
	for {
		switch {
		case p.isPunct("*"):
			p.next()
			switch base {
			case TypeInt:
				base = TypeIntPtr
			case TypeFloat:
				base = TypeFloatPtr
			default:
				return TypeVoid, false, errf(t.Line, "cannot form pointer to %s", base)
			}
		case p.isKeyword("restrict"):
			p.next()
			restrict = true
		case p.isKeyword("const"):
			p.next()
		default:
			return base, restrict, nil
		}
	}
}

func (p *Parser) parsePragmas(fn *Function) error {
	for p.peek().Kind == TokPragma {
		t := p.next()
		fields := strings.Fields(t.Lit)
		if len(fields) == 0 {
			return errf(t.Line, "empty #pragma")
		}
		word := fields[0]
		// allow replicate(4) style
		if i := strings.IndexByte(word, '('); i >= 0 {
			rest := word[i:]
			word = word[:i]
			fields = append([]string{word, rest}, fields[1:]...)
		}
		switch word {
		case "phloem":
			fn.Pragmas.Phloem = true
		case "replicate":
			n := 0
			arg := strings.Join(fields[1:], "")
			arg = strings.Trim(arg, "()")
			if arg != "" {
				v, err := strconv.Atoi(arg)
				if err != nil {
					return errf(t.Line, "bad replicate count %q", arg)
				}
				n = v
			}
			if n <= 0 {
				return errf(t.Line, "#pragma replicate requires a positive count")
			}
			fn.Pragmas.Replicate = n
		case "distribute":
			fn.Pragmas.Distribute = true
		case "decouple":
			return errf(t.Line, "#pragma decouple must appear inside the function body")
		default:
			return errf(t.Line, "unknown #pragma %q", word)
		}
	}
	return nil
}

func (p *Parser) parseFunction() (*Function, error) {
	fn := &Function{}
	if err := p.parsePragmas(fn); err != nil {
		return nil, err
	}
	retType, _, err := p.parseType()
	if err != nil {
		return nil, err
	}
	if retType != TypeVoid {
		return nil, errf(p.peek().Line, "kernel functions must return void")
	}
	name := p.next()
	if name.Kind != TokIdent {
		return nil, errf(name.Line, "expected function name, found %s", name)
	}
	fn.Name = name.Lit
	fn.Line = name.Line
	if _, err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for !p.isPunct(")") {
		pt, restrict, err := p.parseType()
		if err != nil {
			return nil, err
		}
		pn := p.next()
		if pn.Kind != TokIdent {
			return nil, errf(pn.Line, "expected parameter name, found %s", pn)
		}
		fn.Params = append(fn.Params, Param{Name: pn.Lit, Type: pt, Restrict: restrict, Line: pn.Line})
		if p.isPunct(",") {
			p.next()
		} else {
			break
		}
	}
	if _, err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	return fn, nil
}

func (p *Parser) parseBlock() (*Block, error) {
	if _, err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	b := &Block{}
	for !p.isPunct("}") {
		if p.peek().Kind == TokEOF {
			return nil, errf(p.peek().Line, "unexpected end of file in block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if s != nil {
			b.Stmts = append(b.Stmts, s)
		}
	}
	p.next() // }
	return b, nil
}

func (p *Parser) parseStmt() (Stmt, error) {
	t := p.peek()
	switch {
	case t.Kind == TokPragma:
		p.next()
		word := strings.Fields(t.Lit)
		if len(word) == 1 && word[0] == "decouple" {
			return &DecoupleStmt{Line: t.Line}, nil
		}
		return nil, errf(t.Line, "unexpected #pragma %q inside function body", t.Lit)
	case t.Kind == TokPunct && t.Lit == "{":
		return p.parseBlock()
	case t.Kind == TokPunct && t.Lit == ";":
		p.next()
		return nil, nil
	case p.isKeyword("if"):
		return p.parseIf()
	case p.isKeyword("while"):
		return p.parseWhile()
	case p.isKeyword("for"):
		return p.parseFor()
	case p.isKeyword("swap"):
		return p.parseSwap()
	case p.isKeyword("barrier"):
		t := p.next()
		if _, err := p.expectPunct("("); err != nil {
			return nil, err
		}
		if _, err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		if _, err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return &BarrierStmt{Line: t.Line}, nil
	case p.isKeyword("return"):
		p.next()
		if _, err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return nil, errf(t.Line, "early return is not supported in kernels")
	case p.isKeyword("int") || p.isKeyword("float") || p.isKeyword("long") ||
		p.isKeyword("double") || p.isKeyword("const"):
		return p.parseDecl()
	case p.isKeyword("break") || p.isKeyword("continue"):
		return nil, errf(t.Line, "%s is not supported; restructure the loop condition", t.Lit)
	default:
		return p.parseAssign()
	}
}

func (p *Parser) parseIf() (Stmt, error) {
	t := p.next() // if
	if _, err := p.expectPunct("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	thn, err := p.parseStmtAsBlock()
	if err != nil {
		return nil, err
	}
	var els *Block
	if p.isKeyword("else") {
		p.next()
		els, err = p.parseStmtAsBlock()
		if err != nil {
			return nil, err
		}
	}
	return &IfStmt{Cond: cond, Then: thn, Else: els, Line: t.Line}, nil
}

// parseStmtAsBlock parses either a block or a single statement as a block.
func (p *Parser) parseStmtAsBlock() (*Block, error) {
	if p.isPunct("{") {
		return p.parseBlock()
	}
	s, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	b := &Block{}
	if s != nil {
		b.Stmts = append(b.Stmts, s)
	}
	return b, nil
}

func (p *Parser) parseWhile() (Stmt, error) {
	t := p.next() // while
	if _, err := p.expectPunct("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStmtAsBlock()
	if err != nil {
		return nil, err
	}
	return &WhileStmt{Cond: cond, Body: body, Line: t.Line}, nil
}

func (p *Parser) parseFor() (Stmt, error) {
	t := p.next() // for
	if _, err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var init Stmt
	var err error
	if !p.isPunct(";") {
		if p.isKeyword("int") || p.isKeyword("float") || p.isKeyword("long") || p.isKeyword("double") {
			init, err = p.parseDeclNoSemi()
		} else {
			init, err = p.parseAssignNoSemi()
		}
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	var cond Expr
	if !p.isPunct(";") {
		cond, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	var post *AssignStmt
	if !p.isPunct(")") {
		s, err := p.parseAssignNoSemi()
		if err != nil {
			return nil, err
		}
		post = s.(*AssignStmt)
	}
	if _, err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStmtAsBlock()
	if err != nil {
		return nil, err
	}
	if cond == nil {
		return nil, errf(t.Line, "for loops must have a condition")
	}
	return &ForStmt{Init: init, Cond: cond, Post: post, Body: body, Line: t.Line}, nil
}

func (p *Parser) parseSwap() (Stmt, error) {
	t := p.next() // swap
	if _, err := p.expectPunct("("); err != nil {
		return nil, err
	}
	a := p.next()
	if a.Kind != TokIdent {
		return nil, errf(a.Line, "swap expects an array name, found %s", a)
	}
	if _, err := p.expectPunct(","); err != nil {
		return nil, err
	}
	b := p.next()
	if b.Kind != TokIdent {
		return nil, errf(b.Line, "swap expects an array name, found %s", b)
	}
	if _, err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if _, err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	return &SwapStmt{A: a.Lit, B: b.Lit, Line: t.Line}, nil
}

func (p *Parser) parseDecl() (Stmt, error) {
	s, err := p.parseDeclNoSemi()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	return s, nil
}

func (p *Parser) parseDeclNoSemi() (Stmt, error) {
	ty, _, err := p.parseType()
	if err != nil {
		return nil, err
	}
	name := p.next()
	if name.Kind != TokIdent {
		return nil, errf(name.Line, "expected variable name, found %s", name)
	}
	if ty.IsPtr() {
		return nil, errf(name.Line, "local pointer variables are not supported; use swap() for double buffering")
	}
	if _, err := p.expectPunct("="); err != nil {
		return nil, errf(name.Line, "declarations must have an initializer")
	}
	init, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &DeclStmt{Name: name.Lit, Type: ty, Init: init, Line: name.Line}, nil
}

func (p *Parser) parseAssign() (Stmt, error) {
	s, err := p.parseAssignNoSemi()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	return s, nil
}

func (p *Parser) parseAssignNoSemi() (Stmt, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	t := p.next()
	if t.Kind != TokPunct {
		return nil, errf(t.Line, "expected assignment operator, found %s", t)
	}
	switch t.Lit {
	case "=", "+=", "-=", "*=", "/=":
	default:
		return nil, errf(t.Line, "expected assignment operator, found %q", t.Lit)
	}
	switch lhs.(type) {
	case *Ident, *Index:
	default:
		return nil, errf(t.Line, "assignment target must be a variable or array element")
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &AssignStmt{Target: lhs, Op: t.Lit, Value: rhs, Line: t.Line}, nil
}

// Expression parsing: precedence climbing.
var binPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"|":  3,
	"^":  4,
	"&":  5,
	"==": 6, "!=": 6,
	"<": 7, "<=": 7, ">": 7, ">=": 7,
	"<<": 8, ">>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

func (p *Parser) parseExpr() (Expr, error) { return p.parseBin(1) }

func (p *Parser) parseBin(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind != TokPunct {
			return lhs, nil
		}
		prec, ok := binPrec[t.Lit]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		p.next()
		rhs, err := p.parseBin(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &Binary{Op: t.Lit, L: lhs, R: rhs, Line: t.Line}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	t := p.peek()
	if t.Kind == TokPunct {
		switch t.Lit {
		case "-", "!", "~":
			p.next()
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &Unary{Op: t.Lit, X: x, Line: t.Line}, nil
		case "(":
			// cast or parenthesized expression
			if p.peek2().Kind == TokKeyword {
				switch p.peek2().Lit {
				case "int", "long", "float", "double":
					p.next() // (
					ty, _, err := p.parseType()
					if err != nil {
						return nil, err
					}
					if ty.IsPtr() {
						return nil, errf(t.Line, "pointer casts are not supported")
					}
					if _, err := p.expectPunct(")"); err != nil {
						return nil, err
					}
					x, err := p.parseUnary()
					if err != nil {
						return nil, err
					}
					return &Cast{To: ty, X: x, Line: t.Line}, nil
				}
			}
			p.next() // (
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return x, nil
		}
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() (Expr, error) {
	t := p.next()
	switch t.Kind {
	case TokIntLit:
		v, err := strconv.ParseInt(t.Lit, 10, 64)
		if err != nil {
			return nil, errf(t.Line, "bad integer literal %q", t.Lit)
		}
		return &IntLit{Val: v, Line: t.Line}, nil
	case TokFloatLit:
		v, err := strconv.ParseFloat(t.Lit, 64)
		if err != nil {
			return nil, errf(t.Line, "bad float literal %q", t.Lit)
		}
		return &FloatLit{Val: v, Line: t.Line}, nil
	case TokIdent:
		// call?
		if p.isPunct("(") {
			p.next()
			var args []Expr
			for !p.isPunct(")") {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if p.isPunct(",") {
					p.next()
				} else {
					break
				}
			}
			if _, err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return &Call{Name: t.Lit, Args: args, Line: t.Line}, nil
		}
		// index?
		if p.isPunct("[") {
			p.next()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			if p.isPunct("[") {
				return nil, errf(t.Line, "multi-dimensional indexing is not supported; linearize the index")
			}
			return &Index{Array: t.Lit, Idx: idx, Line: t.Line}, nil
		}
		return &Ident{Name: t.Lit, Line: t.Line}, nil
	}
	return nil, errf(t.Line, "expected expression, found %s", t)
}
