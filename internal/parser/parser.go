package parser

import (
	"fmt"

	"github.com/aqldb/aql/internal/scan"
)

// ParseExpr parses a single AQL expression.
func ParseExpr(src string) (Expr, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	if p.peek().Kind != scan.EOF {
		return nil, p.errf("unexpected %s after expression", p.peek().Kind)
	}
	return e, nil
}

// ParseProgram parses a sequence of top-level statements, each terminated
// by a semicolon.
func ParseProgram(src string) ([]Stmt, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	var stmts []Stmt
	for p.peek().Kind != scan.EOF {
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	return stmts, nil
}

type parser struct {
	toks []scan.Token
	pos  int
}

func newParser(src string) (*parser, error) {
	toks, err := scan.Scan(src)
	if err != nil {
		return nil, err
	}
	return &parser{toks: toks}, nil
}

func (p *parser) peek() scan.Token { return p.toks[p.pos] }
func (p *parser) peekAt(n int) scan.Token {
	if p.pos+n >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+n]
}

func (p *parser) advance() scan.Token {
	t := p.toks[p.pos]
	if t.Kind != scan.EOF {
		p.pos++
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("parse: %s: %s", p.peek().Pos, fmt.Sprintf(format, args...))
}

func (p *parser) eat(k scan.Kind) bool {
	if p.peek().Kind == k {
		p.advance()
		return true
	}
	return false
}

func (p *parser) eatKeyword(kw string) bool {
	if t := p.peek(); t.Kind == scan.KEYWORD && t.Text == kw {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expect(k scan.Kind) (scan.Token, error) {
	if p.peek().Kind != k {
		return scan.Token{}, p.errf("expected %s, got %s", k, p.peek().Kind)
	}
	return p.advance(), nil
}

// expectRBracket consumes a single `]`. Adjacent closing brackets lex as
// the array-literal terminator `]]`, so nested subscripts like A[B[i]]
// arrive as RARR; splitting the token here restores the intended reading.
func (p *parser) expectRBracket() error {
	switch p.peek().Kind {
	case scan.RBRACK:
		p.advance()
		return nil
	case scan.RARR:
		p.toks[p.pos] = scan.Token{Kind: scan.RBRACK, Pos: p.peek().Pos}
		return nil
	}
	return p.errf("expected %s, got %s", scan.RBRACK, p.peek().Kind)
}

func (p *parser) expectKeyword(kw string) error {
	if t := p.peek(); t.Kind != scan.KEYWORD || t.Text != kw {
		return p.errf("expected %q, got %s", kw, p.peek().Kind)
	}
	p.advance()
	return nil
}

// --- Statements ------------------------------------------------------------

func (p *parser) stmt() (Stmt, error) {
	t := p.peek()
	if t.Kind == scan.KEYWORD {
		switch t.Text {
		case "val":
			// Distinguish a top-level `val \x = e;` from the start of an
			// expression (a bare `val` cannot start an expression anyway).
			p.advance()
			name, err := p.bindingName()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(scan.EQ); err != nil {
				return nil, err
			}
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(scan.SEMI); err != nil {
				return nil, err
			}
			return &ValDecl{Name: name, E: e}, nil
		case "macro":
			p.advance()
			name, err := p.bindingName()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(scan.EQ); err != nil {
				return nil, err
			}
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(scan.SEMI); err != nil {
				return nil, err
			}
			return &MacroDecl{Name: name, E: e}, nil
		case "readval":
			p.advance()
			name, err := p.bindingName()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("using"); err != nil {
				return nil, err
			}
			rd, err := p.expect(scan.IDENT)
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("at"); err != nil {
				return nil, err
			}
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(scan.SEMI); err != nil {
				return nil, err
			}
			return &ReadVal{Name: name, Reader: rd.Text, At: e}, nil
		case "writeval":
			p.advance()
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("using"); err != nil {
				return nil, err
			}
			wr, err := p.expect(scan.IDENT)
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("at"); err != nil {
				return nil, err
			}
			at, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(scan.SEMI); err != nil {
				return nil, err
			}
			return &WriteVal{E: e, Writer: wr.Text, At: at}, nil
		}
	}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(scan.SEMI); err != nil {
		return nil, err
	}
	return &ExprStmt{E: e}, nil
}

// bindingName parses `\name` (the backslash is optional, accepting both
// `val \x = ...` as in the paper's session and plain `val x = ...`).
func (p *parser) bindingName() (string, error) {
	p.eat(scan.BACKSLASH)
	t, err := p.expect(scan.IDENT)
	if err != nil {
		return "", err
	}
	return t.Text, nil
}

// --- Expressions -------------------------------------------------------------
//
// Precedence, loosest first:
//
//	or
//	and
//	not (prefix)
//	= <> < > <= >= mem        (non-associative)
//	+ -
//	* / %
//	f!e                       (application, left-associative)
//	e[i,...]                  (subscript, postfix)
//	atoms; if/fn/let parse greedily wherever an operand may start.

func (p *parser) expr() (Expr, error) { return p.orExpr() }

// special returns a greedy prefix form (if/fn/let) if one starts here.
func (p *parser) special() (Expr, bool, error) {
	t := p.peek()
	if t.Kind != scan.KEYWORD {
		return nil, false, nil
	}
	switch t.Text {
	case "if":
		p.advance()
		cond, err := p.expr()
		if err != nil {
			return nil, false, err
		}
		if err := p.expectKeyword("then"); err != nil {
			return nil, false, err
		}
		then, err := p.expr()
		if err != nil {
			return nil, false, err
		}
		if err := p.expectKeyword("else"); err != nil {
			return nil, false, err
		}
		els, err := p.expr()
		if err != nil {
			return nil, false, err
		}
		return &IfE{Cond: cond, Then: then, Else: els, At: t.Pos}, true, nil
	case "fn":
		p.advance()
		pat, err := p.pattern()
		if err != nil {
			return nil, false, err
		}
		if _, err := p.expect(scan.DARROW); err != nil {
			return nil, false, err
		}
		body, err := p.expr()
		if err != nil {
			return nil, false, err
		}
		return &Fn{Pat: pat, Body: body, At: t.Pos}, true, nil
	case "let":
		p.advance()
		var decls []LetDecl
		for p.eatKeyword("val") {
			pat, err := p.pattern()
			if err != nil {
				return nil, false, err
			}
			if _, err := p.expect(scan.EQ); err != nil {
				return nil, false, err
			}
			e, err := p.expr()
			if err != nil {
				return nil, false, err
			}
			decls = append(decls, LetDecl{Pat: pat, E: e})
		}
		if len(decls) == 0 {
			return nil, false, p.errf("let block needs at least one val declaration")
		}
		if err := p.expectKeyword("in"); err != nil {
			return nil, false, err
		}
		body, err := p.expr()
		if err != nil {
			return nil, false, err
		}
		if err := p.expectKeyword("end"); err != nil {
			return nil, false, err
		}
		return &Let{Decls: decls, Body: body, At: t.Pos}, true, nil
	}
	return nil, false, nil
}

func (p *parser) orExpr() (Expr, error) {
	if e, ok, err := p.special(); ok || err != nil {
		return e, err
	}
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind == scan.KEYWORD && t.Text == "or" {
			p.advance()
			r, err := p.andExpr()
			if err != nil {
				return nil, err
			}
			l = &Bin{Op: "or", L: l, R: r, At: t.Pos}
			continue
		}
		return l, nil
	}
}

func (p *parser) andExpr() (Expr, error) {
	if e, ok, err := p.special(); ok || err != nil {
		return e, err
	}
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind == scan.KEYWORD && t.Text == "and" {
			p.advance()
			r, err := p.notExpr()
			if err != nil {
				return nil, err
			}
			l = &Bin{Op: "and", L: l, R: r, At: t.Pos}
			continue
		}
		return l, nil
	}
}

func (p *parser) notExpr() (Expr, error) {
	if t := p.peek(); t.Kind == scan.KEYWORD && t.Text == "not" {
		p.advance()
		e, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &Not{E: e, At: t.Pos}, nil
	}
	return p.cmpExpr()
}

var cmpOps = map[scan.Kind]string{
	scan.EQ: "=", scan.NE: "<>", scan.LT: "<", scan.GT: ">",
	scan.LE: "<=", scan.GE: ">=",
}

func (p *parser) cmpExpr() (Expr, error) {
	if e, ok, err := p.special(); ok || err != nil {
		return e, err
	}
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if op, ok := cmpOps[t.Kind]; ok {
		p.advance()
		r, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return &Bin{Op: op, L: l, R: r, At: t.Pos}, nil
	}
	if t.Kind == scan.KEYWORD && t.Text == "mem" {
		p.advance()
		r, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return &Bin{Op: "mem", L: l, R: r, At: t.Pos}, nil
	}
	return l, nil
}

func (p *parser) addExpr() (Expr, error) {
	if e, ok, err := p.special(); ok || err != nil {
		return e, err
	}
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		var op string
		switch {
		case t.Kind == scan.PLUS:
			op = "+"
		case t.Kind == scan.MINUS:
			op = "-"
		case t.Kind == scan.KEYWORD && t.Text == "union":
			op = "union"
		case t.Kind == scan.KEYWORD && t.Text == "uplus":
			op = "uplus"
		default:
			return l, nil
		}
		p.advance()
		r, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		l = &Bin{Op: op, L: l, R: r, At: t.Pos}
	}
}

func (p *parser) mulExpr() (Expr, error) {
	if e, ok, err := p.special(); ok || err != nil {
		return e, err
	}
	l, err := p.appExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		var op string
		switch t.Kind {
		case scan.STAR:
			op = "*"
		case scan.SLASH:
			op = "/"
		case scan.PERCENT:
			op = "%"
		default:
			return l, nil
		}
		p.advance()
		r, err := p.appExpr()
		if err != nil {
			return nil, err
		}
		l = &Bin{Op: op, L: l, R: r, At: t.Pos}
	}
}

// appExpr parses f!e chains, including the summap(f)!e special form and
// unary minus (desugared to the neg primitive; reals only, since naturals
// subtract by monus).
func (p *parser) appExpr() (Expr, error) {
	if e, ok, err := p.special(); ok || err != nil {
		return e, err
	}
	if t := p.peek(); t.Kind == scan.MINUS {
		p.advance()
		e, err := p.appExpr()
		if err != nil {
			return nil, err
		}
		return &AppE{Fn: &Ident{Name: "neg", At: t.Pos}, Arg: e, At: t.Pos}, nil
	}
	// summap(f)!e
	if t := p.peek(); t.Kind == scan.IDENT && t.Text == "summap" && p.peekAt(1).Kind == scan.LPAREN {
		p.advance()
		p.advance()
		f, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(scan.RPAREN); err != nil {
			return nil, err
		}
		if _, err := p.expect(scan.BANG); err != nil {
			return nil, err
		}
		over, err := p.postfixExpr()
		if err != nil {
			return nil, err
		}
		return &SumMap{F: f, Over: over, At: t.Pos}, nil
	}
	l, err := p.postfixExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind != scan.BANG {
			return l, nil
		}
		p.advance()
		// The argument of ! is a postfix expression (or a greedy special
		// form), so `gen!m + 1` parses as `(gen!m) + 1`.
		if e, ok, err := p.special(); ok || err != nil {
			if err != nil {
				return nil, err
			}
			l = &AppE{Fn: l, Arg: e, At: t.Pos}
			continue
		}
		arg, err := p.postfixExpr()
		if err != nil {
			return nil, err
		}
		l = &AppE{Fn: l, Arg: arg, At: t.Pos}
	}
}

// postfixExpr parses an atom followed by any number of subscripts.
func (p *parser) postfixExpr() (Expr, error) {
	e, err := p.atom()
	if err != nil {
		return nil, err
	}
	for p.peek().Kind == scan.LBRACK {
		at := p.advance().Pos
		var idx []Expr
		for {
			i, err := p.expr()
			if err != nil {
				return nil, err
			}
			idx = append(idx, i)
			if p.eat(scan.COMMA) {
				continue
			}
			break
		}
		if err := p.expectRBracket(); err != nil {
			return nil, err
		}
		e = &SubE{Arr: e, Indices: idx, At: at}
	}
	return e, nil
}

func (p *parser) atom() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case scan.NAT:
		p.advance()
		return &NatLit{Val: t.Nat, At: t.Pos}, nil
	case scan.REAL:
		p.advance()
		return &RealLit{Val: t.Real, At: t.Pos}, nil
	case scan.STRING:
		p.advance()
		return &StringLit{Val: t.Text, At: t.Pos}, nil
	case scan.BOTTOM:
		p.advance()
		return &BottomLit{At: t.Pos}, nil
	case scan.PARAM:
		p.advance()
		return &ParamE{Name: t.Text, At: t.Pos}, nil
	case scan.IDENT:
		p.advance()
		return &Ident{Name: t.Text, At: t.Pos}, nil
	case scan.KEYWORD:
		switch t.Text {
		case "true", "false":
			p.advance()
			return &BoolLit{Val: t.Text == "true", At: t.Pos}, nil
		case "if", "fn", "let":
			e, _, err := p.special()
			return e, err
		}
		return nil, p.errf("unexpected keyword %q", t.Text)
	case scan.LPAREN:
		p.advance()
		if p.eat(scan.RPAREN) {
			return &TupleE{At: t.Pos}, nil // unit
		}
		first, err := p.expr()
		if err != nil {
			return nil, err
		}
		if p.peek().Kind == scan.COMMA {
			elems := []Expr{first}
			for p.eat(scan.COMMA) {
				e, err := p.expr()
				if err != nil {
					return nil, err
				}
				elems = append(elems, e)
			}
			if _, err := p.expect(scan.RPAREN); err != nil {
				return nil, err
			}
			return &TupleE{Elems: elems, At: t.Pos}, nil
		}
		if _, err := p.expect(scan.RPAREN); err != nil {
			return nil, err
		}
		return first, nil
	case scan.LBRACE:
		return p.braces(t.Pos, false)
	case scan.LBAG:
		return p.braces(t.Pos, true)
	case scan.LARR:
		return p.arrayLit(t.Pos)
	}
	return nil, p.errf("unexpected %s", t.Kind)
}

// braces parses { ... } or {| ... |}: a (possibly empty) literal or a
// comprehension, depending on whether a | follows the first expression.
func (p *parser) braces(at scan.Pos, bag bool) (Expr, error) {
	close, compSep := scan.RBRACE, scan.BAR
	if bag {
		close = scan.RBAG
	}
	p.advance() // { or {|
	if p.eat(close) {
		return &SetE{Bag: bag, At: at}, nil
	}
	first, err := p.expr()
	if err != nil {
		return nil, err
	}
	switch {
	case p.peek().Kind == compSep:
		p.advance()
		quals, err := p.quals()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(close); err != nil {
			return nil, err
		}
		return &Comp{Head: first, Quals: quals, Bag: bag, At: at}, nil
	case p.peek().Kind == scan.COMMA:
		elems := []Expr{first}
		for p.eat(scan.COMMA) {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			elems = append(elems, e)
		}
		if _, err := p.expect(close); err != nil {
			return nil, err
		}
		return &SetE{Elems: elems, Bag: bag, At: at}, nil
	default:
		if _, err := p.expect(close); err != nil {
			return nil, err
		}
		return &SetE{Elems: []Expr{first}, Bag: bag, At: at}, nil
	}
}

// arrayLit parses [[ ... ]]: empty, element list, the row-major
// dims-then-values form with a semicolon, or a tabulation
// [[ e | \i < n, ... ]].
func (p *parser) arrayLit(at scan.Pos) (Expr, error) {
	p.advance() // [[
	if p.eat(scan.RARR) {
		return &ArrayE{At: at}, nil
	}
	var elems []Expr
	for {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		elems = append(elems, e)
		if p.eat(scan.COMMA) {
			continue
		}
		break
	}
	if len(elems) == 1 && p.eat(scan.BAR) {
		// Tabulation: a bound list \i < e, ....
		var idx []string
		var bounds []Expr
		for {
			if _, err := p.expect(scan.BACKSLASH); err != nil {
				return nil, err
			}
			iv, err := p.expect(scan.IDENT)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(scan.LT); err != nil {
				return nil, err
			}
			b, err := p.expr()
			if err != nil {
				return nil, err
			}
			idx = append(idx, iv.Text)
			bounds = append(bounds, b)
			if p.eat(scan.COMMA) {
				continue
			}
			break
		}
		if _, err := p.expect(scan.RARR); err != nil {
			return nil, err
		}
		return &TabE{Head: elems[0], Idx: idx, Bounds: bounds, At: at}, nil
	}
	if p.eat(scan.SEMI) {
		dims := elems
		var vals []Expr
		if !p.eat(scan.RARR) {
			for {
				e, err := p.expr()
				if err != nil {
					return nil, err
				}
				vals = append(vals, e)
				if p.eat(scan.COMMA) {
					continue
				}
				break
			}
			if _, err := p.expect(scan.RARR); err != nil {
				return nil, err
			}
		}
		return &ArrayE{Dims: dims, Elems: vals, At: at}, nil
	}
	if _, err := p.expect(scan.RARR); err != nil {
		return nil, err
	}
	return &ArrayE{Elems: elems, At: at}, nil
}

// quals parses the comma-separated qualifier list of a comprehension.
func (p *parser) quals() ([]Qual, error) {
	var quals []Qual
	for {
		q, err := p.qual()
		if err != nil {
			return nil, err
		}
		quals = append(quals, q)
		if p.eat(scan.COMMA) {
			continue
		}
		return quals, nil
	}
}

func (p *parser) qual() (Qual, error) {
	// Array generator: [P1 : P2] <- e.
	if p.peek().Kind == scan.LBRACK {
		p.advance()
		ip, err := p.pattern()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(scan.COLON); err != nil {
			return nil, err
		}
		vp, err := p.pattern()
		if err != nil {
			return nil, err
		}
		if err := p.expectRBracket(); err != nil {
			return nil, err
		}
		if _, err := p.expect(scan.ARROW); err != nil {
			return nil, err
		}
		src, err := p.expr()
		if err != nil {
			return nil, err
		}
		return &ArrGenQ{IdxPat: ip, ValPat: vp, Src: src}, nil
	}
	// Generator or binding: try a pattern followed by <- or ==; otherwise
	// backtrack and parse a filter expression.
	save := p.pos
	if pat, err := p.pattern(); err == nil {
		switch p.peek().Kind {
		case scan.ARROW:
			p.advance()
			src, err := p.expr()
			if err != nil {
				return nil, err
			}
			return &GenQ{Pat: pat, Src: src}, nil
		case scan.BIND:
			p.advance()
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			return &BindQ{Pat: pat, E: e}, nil
		}
	}
	p.pos = save
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	return &FilterQ{E: e}, nil
}

// pattern parses P ::= (P1,...,Pk) | _ | c | x | \x.
func (p *parser) pattern() (Pat, error) {
	t := p.peek()
	switch t.Kind {
	case scan.BACKSLASH:
		p.advance()
		id, err := p.expect(scan.IDENT)
		if err != nil {
			return nil, err
		}
		return &PVar{Name: id.Text}, nil
	case scan.WILD:
		p.advance()
		return &PWild{}, nil
	case scan.IDENT:
		p.advance()
		return &PRef{Name: t.Text}, nil
	case scan.NAT:
		p.advance()
		return &PConst{E: &NatLit{Val: t.Nat, At: t.Pos}}, nil
	case scan.REAL:
		p.advance()
		return &PConst{E: &RealLit{Val: t.Real, At: t.Pos}}, nil
	case scan.STRING:
		p.advance()
		return &PConst{E: &StringLit{Val: t.Text, At: t.Pos}}, nil
	case scan.KEYWORD:
		if t.Text == "true" || t.Text == "false" {
			p.advance()
			return &PConst{E: &BoolLit{Val: t.Text == "true", At: t.Pos}}, nil
		}
	case scan.LPAREN:
		p.advance()
		var elems []Pat
		if !p.eat(scan.RPAREN) {
			for {
				sub, err := p.pattern()
				if err != nil {
					return nil, err
				}
				elems = append(elems, sub)
				if p.eat(scan.COMMA) {
					continue
				}
				break
			}
			if _, err := p.expect(scan.RPAREN); err != nil {
				return nil, err
			}
		}
		if len(elems) == 1 {
			return elems[0], nil
		}
		return &PTuple{Elems: elems}, nil
	}
	return nil, p.errf("expected a pattern, got %s", t.Kind)
}
