package scan

import "testing"

func kinds(t *testing.T, src string) []Kind {
	t.Helper()
	toks, err := Scan(src)
	if err != nil {
		t.Fatalf("Scan(%q): %v", src, err)
	}
	out := make([]Kind, len(toks))
	for i, tok := range toks {
		out[i] = tok.Kind
	}
	return out
}

func eqKinds(a, b []Kind) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSymbols(t *testing.T) {
	tests := []struct {
		src  string
		want []Kind
	}{
		{"( ) { } , ; | : ! = < >", []Kind{LPAREN, RPAREN, LBRACE, RBRACE, COMMA, SEMI, BAR, COLON, BANG, EQ, LT, GT, EOF}},
		{"{| |} [[ ]] [ ]", []Kind{LBAG, RBAG, LARR, RARR, LBRACK, RBRACK, EOF}},
		{"<- => == <> <= >=", []Kind{ARROW, DARROW, BIND, NE, LE, GE, EOF}},
		{"+ - * / %", []Kind{PLUS, MINUS, STAR, SLASH, PERCENT, EOF}},
		{`\x _ _|_`, []Kind{BACKSLASH, IDENT, WILD, BOTTOM, EOF}},
		{"_x", []Kind{IDENT, EOF}},
	}
	for _, tt := range tests {
		if got := kinds(t, tt.src); !eqKinds(got, tt.want) {
			t.Errorf("Scan(%q) kinds = %v, want %v", tt.src, got, tt.want)
		}
	}
}

func TestIdentifiersAndKeywords(t *testing.T) {
	toks, err := Scan("fn WS' => heatindex")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != KEYWORD || toks[0].Text != "fn" {
		t.Errorf("tok0 = %+v", toks[0])
	}
	if toks[1].Kind != IDENT || toks[1].Text != "WS'" {
		t.Errorf("tok1 = %+v (primes should be part of identifiers)", toks[1])
	}
	if toks[3].Kind != IDENT || toks[3].Text != "heatindex" {
		t.Errorf("tok3 = %+v", toks[3])
	}
	for _, kw := range []string{"let", "val", "in", "end", "if", "then", "else",
		"true", "false", "and", "or", "not", "mem", "macro", "readval",
		"writeval", "using", "at"} {
		toks, err := Scan(kw)
		if err != nil {
			t.Fatal(err)
		}
		if toks[0].Kind != KEYWORD {
			t.Errorf("%q should be a keyword", kw)
		}
	}
}

func TestNumbers(t *testing.T) {
	toks, err := Scan("30 85.0 1e-3 2.5E2 7")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != NAT || toks[0].Nat != 30 {
		t.Errorf("tok0 = %+v", toks[0])
	}
	if toks[1].Kind != REAL || toks[1].Real != 85.0 {
		t.Errorf("tok1 = %+v", toks[1])
	}
	if toks[2].Kind != REAL || toks[2].Real != 1e-3 {
		t.Errorf("tok2 = %+v", toks[2])
	}
	if toks[3].Kind != REAL || toks[3].Real != 250 {
		t.Errorf("tok3 = %+v", toks[3])
	}
	if toks[4].Kind != NAT || toks[4].Nat != 7 {
		t.Errorf("tok4 = %+v", toks[4])
	}
}

func TestSubscriptNotReal(t *testing.T) {
	// `months[i]` and `A[1]` must not lex `1.` type reals; also `d*24+23`.
	want := []Kind{IDENT, LBRACK, NAT, RBRACK, EOF}
	if got := kinds(t, "A[1]"); !eqKinds(got, want) {
		t.Errorf("got %v", got)
	}
}

func TestStrings(t *testing.T) {
	toks, err := Scan(`"temp.nc" "a\"b"`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Text != "temp.nc" {
		t.Errorf("tok0 = %q", toks[0].Text)
	}
	if toks[1].Text != `a"b` {
		t.Errorf("tok1 = %q", toks[1].Text)
	}
	if _, err := Scan(`"unterminated`); err == nil {
		t.Error("unterminated string should error")
	}
}

func TestComments(t *testing.T) {
	toks, err := Scan("1 (* a comment (* nested *) more *) 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 3 || toks[0].Nat != 1 || toks[1].Nat != 2 {
		t.Errorf("toks = %+v", toks)
	}
	if _, err := Scan("(* unterminated"); err == nil {
		t.Error("unterminated comment should error")
	}
}

func TestPositions(t *testing.T) {
	toks, err := Scan("a\n  b")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos != (Pos{1, 1}) {
		t.Errorf("a at %v", toks[0].Pos)
	}
	if toks[1].Pos != (Pos{2, 3}) {
		t.Errorf("b at %v", toks[1].Pos)
	}
}

func TestPaperQueryLexes(t *testing.T) {
	src := `{d | \d <- gen!30,
	        \WS' == evenpos!(proj_col!(WS,0)),
	        \TRW == zip_3!(T,RH,WS'),
	        \A == subseq!(TRW, d*24, d*24+23),
	        heatindex!(A) > threshold};`
	toks, err := Scan(src)
	if err != nil {
		t.Fatal(err)
	}
	if toks[len(toks)-1].Kind != EOF || toks[len(toks)-2].Kind != SEMI {
		t.Error("query should end with ; EOF")
	}
}

func TestSessionQueryLexes(t *testing.T) {
	src := `{d | [(\h,_,_):\t] <- T, \d==h/24+1,
	        h > june_sunset!(NYlat,NYlon,d), t > 85.0};`
	if _, err := Scan(src); err != nil {
		t.Fatal(err)
	}
}

func TestErrors(t *testing.T) {
	for _, src := range []string{"#", "@", "99999999999999999999999"} {
		if _, err := Scan(src); err == nil {
			t.Errorf("Scan(%q) should error", src)
		}
	}
}

// TestScanAllocs pins the scanner's allocations: a text without string
// literals costs one, the token slice. A per-token map or a slice grown by
// appending would exceed it.
func TestScanAllocs(t *testing.T) {
	for _, src := range []string{
		`{d | \d <- gen!30,
  \WS' == evenpos!(proj_col!(WS, 0)),
  \TRW == zip_3!(T, RH, WS'),
  \A == subseq!(TRW, d*24, d*24+23),
  heatindex!(A) > threshold}`,
		`transpose![[ i * 37 + j + 5 | \i < 4, \j < 6 ]]`,
		`(* a comment *) {| x | \x <- B, x > 1.5e3 |} uplus {||}`,
		`summap(fn \i => if i < 2 then i else R)!(gen!4)`,
	} {
		if got := testing.AllocsPerRun(50, func() { _, _ = Scan(src) }); got > 1 {
			t.Errorf("Scan(%q) allocates %.0f times, want at most 1", src, got)
		}
	}
}
