// Package scan tokenizes AQL surface syntax (section 3 of the paper).
//
// The concrete syntax follows the paper's examples (sections 1 and 4.2):
// `!` is function application, `\x` marks a binding occurrence in a pattern,
// `<-` introduces a generator, `==` is the binding shorthand for
// `<- { e }`, `fn P => e` is lambda abstraction, `(* ... *)` are (nesting)
// comments, and `[[` `]]` delimit array literals.
package scan

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Kind is a token kind.
type Kind int

// Token kinds.
const (
	EOF       Kind = iota
	IDENT          // identifier, possibly with trailing primes: WS'
	NAT            // natural literal: 42
	REAL           // real literal: 85.0, 1e-3
	STRING         // string literal: "temp.nc"
	KEYWORD        // fn let val in end if then else true false and or not mem macro readval writeval using at
	LPAREN         // (
	RPAREN         // )
	LBRACE         // {
	RBRACE         // }
	LBAG           // {|
	RBAG           // |}
	LARR           // [[
	RARR           // ]]
	LBRACK         // [
	RBRACK         // ]
	COMMA          // ,
	SEMI           // ;
	BAR            // |
	COLON          // :
	BACKSLASH      // \
	WILD           // _
	BANG           // !
	ARROW          // <- (generator)
	DARROW         // => (lambda)
	BIND           // == (binding shorthand)
	EQ             // =
	NE             // <>
	LE             // <=
	GE             // >=
	LT             // <
	GT             // >
	PLUS           // +
	MINUS          // -
	STAR           // *
	SLASH          // /
	PERCENT        // %
	BOTTOM         // _|_
	PARAM          // $name (input placeholder)
)

var kindNames = map[Kind]string{
	EOF: "end of input", IDENT: "identifier", NAT: "natural literal",
	REAL: "real literal", STRING: "string literal", KEYWORD: "keyword",
	LPAREN: "(", RPAREN: ")", LBRACE: "{", RBRACE: "}", LBAG: "{|", RBAG: "|}",
	LARR: "[[", RARR: "]]", LBRACK: "[", RBRACK: "]", COMMA: ",", SEMI: ";",
	BAR: "|", COLON: ":", BACKSLASH: "\\", WILD: "_", BANG: "!", ARROW: "<-",
	DARROW: "=>", BIND: "==", EQ: "=", NE: "<>", LE: "<=", GE: ">=", LT: "<",
	GT: ">", PLUS: "+", MINUS: "-", STAR: "*", SLASH: "/", PERCENT: "%",
	BOTTOM: "_|_", PARAM: "input placeholder",
}

// String returns a readable name for the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("token(%d)", int(k))
}

// Token is a lexical token with its source position.
type Token struct {
	Kind Kind
	Text string  // IDENT, KEYWORD: the name; STRING: the unquoted value
	Nat  int64   // NAT
	Real float64 // REAL
	Pos  Pos
}

// Pos is a line/column source position (both 1-based).
type Pos struct{ Line, Col int }

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// keywords of the surface language.
var keywords = map[string]bool{
	"fn": true, "let": true, "val": true, "in": true, "end": true,
	"if": true, "then": true, "else": true, "true": true, "false": true,
	"and": true, "or": true, "not": true, "mem": true,
	"union": true, "uplus": true,
	"macro": true, "readval": true, "writeval": true, "using": true, "at": true,
}

// IsKeyword reports whether name is a reserved word.
func IsKeyword(name string) bool { return keywords[name] }

// Scan tokenizes src, returning the token stream terminated by an EOF token.
func Scan(src string) ([]Token, error) {
	s := &scanner{src: src, line: 1, col: 1}
	// Surface AQL averages about one token per two bytes of text; one
	// allocation usually holds the whole stream.
	toks := make([]Token, 0, len(src)/2+2)
	for {
		tok, err := s.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, tok)
		if tok.Kind == EOF {
			return toks, nil
		}
	}
}

type scanner struct {
	src  string
	pos  int
	line int
	col  int
}

func (s *scanner) errf(format string, args ...any) error {
	return fmt.Errorf("scan: %d:%d: %s", s.line, s.col, fmt.Sprintf(format, args...))
}

func (s *scanner) peek() byte {
	if s.pos >= len(s.src) {
		return 0
	}
	return s.src[s.pos]
}

func (s *scanner) peek2() byte {
	if s.pos+1 >= len(s.src) {
		return 0
	}
	return s.src[s.pos+1]
}

func (s *scanner) advance() byte {
	b := s.src[s.pos]
	s.pos++
	if b == '\n' {
		s.line++
		s.col = 1
	} else {
		s.col++
	}
	return b
}

func (s *scanner) skipSpaceAndComments() error {
	for s.pos < len(s.src) {
		b := s.peek()
		switch {
		case unicode.IsSpace(rune(b)):
			s.advance()
		case b == '(' && s.peek2() == '*':
			start := Pos{s.line, s.col}
			s.advance()
			s.advance()
			depth := 1
			for depth > 0 {
				if s.pos >= len(s.src) {
					return fmt.Errorf("scan: %s: unterminated comment", start)
				}
				if s.peek() == '(' && s.peek2() == '*' {
					depth++
					s.advance()
					s.advance()
				} else if s.peek() == '*' && s.peek2() == ')' {
					depth--
					s.advance()
					s.advance()
				} else {
					s.advance()
				}
			}
		default:
			return nil
		}
	}
	return nil
}

func (s *scanner) next() (Token, error) {
	if err := s.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	pos := Pos{s.line, s.col}
	if s.pos >= len(s.src) {
		return Token{Kind: EOF, Pos: pos}, nil
	}
	b := s.peek()
	switch {
	case b == '_':
		// `_|_` is bottom; a bare `_` is the wildcard; `_x` is an identifier.
		if s.peek2() == '|' && s.pos+2 < len(s.src) && s.src[s.pos+2] == '_' {
			s.advance()
			s.advance()
			s.advance()
			return Token{Kind: BOTTOM, Pos: pos}, nil
		}
		if isIdentByte(s.peek2()) {
			return s.ident(pos)
		}
		s.advance()
		return Token{Kind: WILD, Pos: pos}, nil
	case unicode.IsLetter(rune(b)):
		return s.ident(pos)
	case unicode.IsDigit(rune(b)):
		return s.number(pos)
	case b == '"':
		return s.str(pos)
	case b == '$':
		// `$name` is an input placeholder: a hole filled per execution from
		// the argument frame of a prepared query.
		s.advance()
		if !isIdentByte(s.peek()) || unicode.IsDigit(rune(s.peek())) {
			return Token{}, s.errf("expected a name after $")
		}
		start := s.pos
		for s.pos < len(s.src) && isIdentByte(s.peek()) {
			s.advance()
		}
		return Token{Kind: PARAM, Text: s.src[start:s.pos], Pos: pos}, nil
	}
	// Multi-byte symbols first.
	two := ""
	if s.pos+1 < len(s.src) {
		two = s.src[s.pos : s.pos+2]
	}
	switch two {
	case "{|":
		s.advance()
		s.advance()
		return Token{Kind: LBAG, Pos: pos}, nil
	case "|}":
		s.advance()
		s.advance()
		return Token{Kind: RBAG, Pos: pos}, nil
	case "[[":
		s.advance()
		s.advance()
		return Token{Kind: LARR, Pos: pos}, nil
	case "]]":
		s.advance()
		s.advance()
		return Token{Kind: RARR, Pos: pos}, nil
	case "<-":
		s.advance()
		s.advance()
		return Token{Kind: ARROW, Pos: pos}, nil
	case "=>":
		s.advance()
		s.advance()
		return Token{Kind: DARROW, Pos: pos}, nil
	case "==":
		s.advance()
		s.advance()
		return Token{Kind: BIND, Pos: pos}, nil
	case "<>":
		s.advance()
		s.advance()
		return Token{Kind: NE, Pos: pos}, nil
	case "<=":
		s.advance()
		s.advance()
		return Token{Kind: LE, Pos: pos}, nil
	case ">=":
		s.advance()
		s.advance()
		return Token{Kind: GE, Pos: pos}, nil
	}
	s.advance()
	if k := single[b]; k != EOF {
		return Token{Kind: k, Pos: pos}, nil
	}
	return Token{}, s.errf("unexpected character %q", b)
}

// single maps each one-byte punctuation token to its kind; every other byte
// maps to EOF, which no byte scans as.
var single = [256]Kind{
	'(': LPAREN, ')': RPAREN, '{': LBRACE, '}': RBRACE, '[': LBRACK,
	']': RBRACK, ',': COMMA, ';': SEMI, '|': BAR, ':': COLON,
	'\\': BACKSLASH, '!': BANG, '=': EQ, '<': LT, '>': GT, '+': PLUS,
	'-': MINUS, '*': STAR, '/': SLASH, '%': PERCENT,
}

func isIdentByte(b byte) bool {
	return b == '_' || b == '\'' || unicode.IsLetter(rune(b)) || unicode.IsDigit(rune(b))
}

func (s *scanner) ident(pos Pos) (Token, error) {
	start := s.pos
	for s.pos < len(s.src) && isIdentByte(s.peek()) {
		s.advance()
	}
	name := s.src[start:s.pos]
	if keywords[name] {
		return Token{Kind: KEYWORD, Text: name, Pos: pos}, nil
	}
	return Token{Kind: IDENT, Text: name, Pos: pos}, nil
}

func (s *scanner) number(pos Pos) (Token, error) {
	start := s.pos
	for s.pos < len(s.src) && unicode.IsDigit(rune(s.peek())) {
		s.advance()
	}
	isReal := false
	// A fractional part: '.' followed by a digit (so `1.` is an error and
	// `A[1]` is unaffected).
	if s.peek() == '.' && unicode.IsDigit(rune(s.peek2())) {
		isReal = true
		s.advance()
		for s.pos < len(s.src) && unicode.IsDigit(rune(s.peek())) {
			s.advance()
		}
	}
	// An exponent: e or E, optional sign, digits.
	if b := s.peek(); b == 'e' || b == 'E' {
		save := s.pos
		s.advance()
		if s.peek() == '+' || s.peek() == '-' {
			s.advance()
		}
		if unicode.IsDigit(rune(s.peek())) {
			isReal = true
			for s.pos < len(s.src) && unicode.IsDigit(rune(s.peek())) {
				s.advance()
			}
		} else {
			s.pos = save // it was an identifier start, e.g. `2elems` (error later)
		}
	}
	text := s.src[start:s.pos]
	if isReal {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return Token{}, s.errf("bad real literal %q: %v", text, err)
		}
		return Token{Kind: REAL, Real: f, Pos: pos}, nil
	}
	n, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return Token{}, s.errf("bad natural literal %q: %v", text, err)
	}
	return Token{Kind: NAT, Nat: n, Pos: pos}, nil
}

func (s *scanner) str(pos Pos) (Token, error) {
	var raw strings.Builder
	raw.WriteByte(s.advance()) // opening quote
	for {
		if s.pos >= len(s.src) {
			return Token{}, fmt.Errorf("scan: %s: unterminated string literal", pos)
		}
		b := s.advance()
		raw.WriteByte(b)
		if b == '\\' {
			if s.pos >= len(s.src) {
				return Token{}, fmt.Errorf("scan: %s: unterminated string literal", pos)
			}
			raw.WriteByte(s.advance())
			continue
		}
		if b == '"' {
			break
		}
	}
	text, err := strconv.Unquote(raw.String())
	if err != nil {
		return Token{}, fmt.Errorf("scan: %s: bad string literal: %v", pos, err)
	}
	return Token{Kind: STRING, Text: text, Pos: pos}, nil
}
