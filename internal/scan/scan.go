// Package scan tokenizes AQL surface syntax (section 3 of the paper).
//
// The concrete syntax follows the paper's examples (sections 1 and 4.2):
// `!` is function application, `\x` marks a binding occurrence in a pattern,
// `<-` introduces a generator, `==` is the binding shorthand for
// `<- { e }`, `fn P => e` is lambda abstraction, `(* ... *)` are (nesting)
// comments, and `[[` `]]` delimit array literals.
//
// The package owns AQL's lexical rules, and every reader of AQL text calls
// them: the query scanner here, the type syntax (types.Parse), the
// plan-cache key (server.NormalizeQuery) and the exchange reader. They are
// Space (white space and comments), Ident, Number and StringEnd. Source
// text is UTF-8: identifiers are made of Unicode letters and digits, and a
// byte that is not valid UTF-8 belongs to no token.
package scan

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
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

// Space returns the end of the white space and comments that start at
// src[i]. White space is the ASCII space, tab, newline, vertical tab, form
// feed and carriage return, as in Go; a comment is (* ... *), and comments
// nest. A comment left open runs to the end of src and open is the offset
// of its outermost "(*"; otherwise open is -1.
func Space(src string, i int) (end, open int) {
	for i < len(src) {
		switch {
		case isSpace[src[i]]:
			i++
		case strings.HasPrefix(src[i:], "(*"):
			start := i
			i += 2
			for depth := 1; depth > 0; {
				switch {
				case i >= len(src):
					return i, start
				case strings.HasPrefix(src[i:], "(*"):
					depth++
					i += 2
				case strings.HasPrefix(src[i:], "*)"):
					depth--
					i += 2
				default:
					i++
				}
			}
		default:
			return i, -1
		}
	}
	return i, -1
}

var isSpace = [256]bool{' ': true, '\t': true, '\n': true, '\v': true, '\f': true, '\r': true}

// IsLetter reports whether r may begin an identifier: '_' or a Unicode
// letter.
func IsLetter(r rune) bool { return r == '_' || unicode.IsLetter(r) }

// Ident returns the end of the identifier that starts at src[i], or i when
// none does. An identifier is a letter (IsLetter), then letters, Unicode
// digits and primes ('), as in WS'.
func Ident(src string, i int) int {
	j := i
	for j < len(src) {
		if b := src[j]; b < utf8.RuneSelf {
			if c := identByte[b]; c == identLetter || c == identMore && j > i {
				j++
				continue
			}
			break
		}
		r, n := utf8.DecodeRuneInString(src[j:])
		if !unicode.IsLetter(r) && (j == i || !unicode.IsDigit(r)) {
			break // not a letter, nor a digit after the first
		}
		j += n
	}
	return j
}

// identByte classifies the ASCII bytes of identifiers: Ident's fast path.
var identByte = func() (t [utf8.RuneSelf]uint8) {
	for b := range t {
		switch {
		case IsLetter(rune(b)):
			t[b] = identLetter
		case isDigit(byte(b)) || b == '\'':
			t[b] = identMore
		}
	}
	return t
}()

const (
	identLetter = 1 + iota // may begin an identifier
	identMore              // may only continue one
)

// Number returns the end of the number literal that starts at src[i], or i
// when none does, and whether it is a real. A number is ASCII digits, then
// an optional fraction ('.' and digits), then an optional exponent ('e' or
// 'E', an optional sign, digits); it is a real iff it has a fraction or an
// exponent. A '.' or an 'e' that no digit follows ends it, so A[1].x and
// 2elems end after their digits.
func Number(src string, i int) (end int, real bool) {
	end = digits(src, i)
	if end == i {
		return i, false
	}
	if end+1 < len(src) && src[end] == '.' && isDigit(src[end+1]) {
		end, real = digits(src, end+1), true
	}
	if end < len(src) && (src[end] == 'e' || src[end] == 'E') {
		j := end + 1
		if j < len(src) && (src[j] == '+' || src[j] == '-') {
			j++
		}
		if k := digits(src, j); k > j {
			end, real = k, true
		}
	}
	return end, real
}

func isDigit(b byte) bool { return '0' <= b && b <= '9' }

func digits(src string, i int) int {
	for i < len(src) && isDigit(src[i]) {
		i++
	}
	return i
}

// StringEnd returns the end of the string literal whose opening '"' is
// src[i]: the offset just past its closing quote. A backslash escapes the
// byte after it. ok is false when the literal is not closed, and end is
// then len(src).
func StringEnd(src string, i int) (end int, ok bool) {
	for j := i + 1; j < len(src); j++ {
		switch src[j] {
		case '\\':
			j++
		case '"':
			return j + 1, true
		}
	}
	return len(src), false
}

// Scan tokenizes src, returning the token stream terminated by an EOF token.
// A position's column counts bytes from the start of its line.
func Scan(src string) ([]Token, error) {
	s := &scanner{src: src, line: 1}
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
	src       string
	pos       int
	line      int
	lineStart int // offset of the first byte of line
}

// here is the position of s.pos.
func (s *scanner) here() Pos { return Pos{s.line, s.pos - s.lineStart + 1} }

// skip moves s.pos to end, counting the lines it passes.
func (s *scanner) skip(end int) {
	for s.pos < end {
		nl := strings.IndexByte(s.src[s.pos:end], '\n')
		if nl < 0 {
			s.pos = end
			return
		}
		s.pos += nl + 1
		s.line++
		s.lineStart = s.pos
	}
}

func (s *scanner) errf(format string, args ...any) error {
	return fmt.Errorf("scan: %s: %s", s.here(), fmt.Sprintf(format, args...))
}

func (s *scanner) next() (Token, error) {
	end, open := Space(s.src, s.pos)
	if open >= 0 {
		s.skip(open)
		return Token{}, s.errf("unterminated comment")
	}
	s.skip(end)
	pos := s.here()
	if s.pos >= len(s.src) {
		return Token{Kind: EOF, Pos: pos}, nil
	}
	rest := s.src[s.pos:]
	switch b := rest[0]; {
	case strings.HasPrefix(rest, "_|_"):
		s.pos += 3
		return Token{Kind: BOTTOM, Pos: pos}, nil
	case isDigit(b):
		return s.number(pos)
	case b == '"':
		return s.str(pos)
	case b == '$':
		// `$name` is an input placeholder: a hole filled per execution from
		// the argument frame of a prepared query.
		s.pos++
		end := Ident(s.src, s.pos)
		if end == s.pos {
			return Token{}, s.errf("expected a name after $")
		}
		name := s.src[s.pos:end]
		s.pos = end
		return Token{Kind: PARAM, Text: name, Pos: pos}, nil
	}
	if end := Ident(s.src, s.pos); end > s.pos {
		name := s.src[s.pos:end]
		s.pos = end
		switch {
		case name == "_": // a bare `_` is the wildcard; `_x` is an identifier
			return Token{Kind: WILD, Pos: pos}, nil
		case keywords[name]:
			return Token{Kind: KEYWORD, Text: name, Pos: pos}, nil
		}
		return Token{Kind: IDENT, Text: name, Pos: pos}, nil
	}
	// Two-byte symbols first.
	var k Kind
	if len(rest) >= 2 {
		switch rest[:2] {
		case "{|":
			k = LBAG
		case "|}":
			k = RBAG
		case "[[":
			k = LARR
		case "]]":
			k = RARR
		case "<-":
			k = ARROW
		case "=>":
			k = DARROW
		case "==":
			k = BIND
		case "<>":
			k = NE
		case "<=":
			k = LE
		case ">=":
			k = GE
		}
	}
	if k != EOF {
		s.pos += 2
		return Token{Kind: k, Pos: pos}, nil
	}
	if k := single[rest[0]]; k != EOF {
		s.pos++
		return Token{Kind: k, Pos: pos}, nil
	}
	r, n := utf8.DecodeRuneInString(rest)
	s.pos += n
	if r == utf8.RuneError && n == 1 {
		return Token{}, s.errf("invalid UTF-8 byte %#x", rest[0])
	}
	return Token{}, s.errf("unexpected character %q", r)
}

// single maps each one-byte punctuation token to its kind; every other byte
// maps to EOF, which no byte scans as.
var single = [256]Kind{
	'(': LPAREN, ')': RPAREN, '{': LBRACE, '}': RBRACE, '[': LBRACK,
	']': RBRACK, ',': COMMA, ';': SEMI, '|': BAR, ':': COLON,
	'\\': BACKSLASH, '!': BANG, '=': EQ, '<': LT, '>': GT, '+': PLUS,
	'-': MINUS, '*': STAR, '/': SLASH, '%': PERCENT,
}

func (s *scanner) number(pos Pos) (Token, error) {
	start := s.pos
	end, isReal := Number(s.src, s.pos)
	s.pos = end
	text := s.src[start:end]
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
	end, ok := StringEnd(s.src, s.pos)
	if !ok {
		return Token{}, fmt.Errorf("scan: %s: unterminated string literal", pos)
	}
	text, err := strconv.Unquote(s.src[s.pos:end])
	if err != nil {
		return Token{}, fmt.Errorf("scan: %s: bad string literal: %v", pos, err)
	}
	s.pos = end // a literal that unquotes holds no newline
	return Token{Kind: STRING, Text: text, Pos: pos}, nil
}
