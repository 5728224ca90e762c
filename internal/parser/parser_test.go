package parser

import "testing"

func mustExpr(t *testing.T, src string) Expr {
	t.Helper()
	e, err := ParseExpr(src)
	if err != nil {
		t.Fatalf("ParseExpr(%q): %v", src, err)
	}
	return e
}

func TestPrecedence(t *testing.T) {
	// 1 + 2 * 3 parses as 1 + (2 * 3).
	e := mustExpr(t, "1 + 2 * 3").(*Bin)
	if e.Op != "+" {
		t.Fatalf("top op = %q", e.Op)
	}
	if r, ok := e.R.(*Bin); !ok || r.Op != "*" {
		t.Errorf("right operand should be *, got %#v", e.R)
	}
	// a < b and c < d parses as (a < b) and (c < d).
	e2 := mustExpr(t, "a < b and c < d").(*Bin)
	if e2.Op != "and" {
		t.Fatalf("top op = %q", e2.Op)
	}
	// f!x + 1 parses as (f!x) + 1.
	e3 := mustExpr(t, "f!x + 1").(*Bin)
	if e3.Op != "+" {
		t.Fatalf("top op = %q", e3.Op)
	}
	if _, ok := e3.L.(*AppE); !ok {
		t.Errorf("left operand should be an application, got %#v", e3.L)
	}
	// not a or b parses as (not a) or b.
	e4 := mustExpr(t, "not a or b").(*Bin)
	if e4.Op != "or" {
		t.Fatalf("top op = %q", e4.Op)
	}
}

func TestIfInOperandPosition(t *testing.T) {
	// The session macro writes `d + ... + if m>2 and y%4=0 then 1 else 0`.
	e := mustExpr(t, "d + if m > 2 then 1 else 0").(*Bin)
	if e.Op != "+" {
		t.Fatalf("top op = %q", e.Op)
	}
	if _, ok := e.R.(*IfE); !ok {
		t.Errorf("right operand should be if, got %#v", e.R)
	}
}

func TestApplicationChain(t *testing.T) {
	// f!x!y parses as (f!x)!y.
	e := mustExpr(t, "f!x!y").(*AppE)
	if _, ok := e.Fn.(*AppE); !ok {
		t.Errorf("application should be left-associative, got %#v", e.Fn)
	}
}

func TestSubscripts(t *testing.T) {
	e := mustExpr(t, "A[i][j]").(*SubE)
	if _, ok := e.Arr.(*SubE); !ok {
		t.Errorf("chained subscript, got %#v", e.Arr)
	}
	e2 := mustExpr(t, "M[i, j]").(*SubE)
	if len(e2.Indices) != 2 {
		t.Errorf("M[i,j] should have 2 indices, got %d", len(e2.Indices))
	}
}

func TestComprehensionQualifiers(t *testing.T) {
	e := mustExpr(t, `{d | \d <- gen!30, \A == f!d, g!A > t}`).(*Comp)
	if len(e.Quals) != 3 {
		t.Fatalf("quals = %d, want 3", len(e.Quals))
	}
	if _, ok := e.Quals[0].(*GenQ); !ok {
		t.Errorf("qual 0 should be a generator: %#v", e.Quals[0])
	}
	if _, ok := e.Quals[1].(*BindQ); !ok {
		t.Errorf("qual 1 should be a binding: %#v", e.Quals[1])
	}
	if _, ok := e.Quals[2].(*FilterQ); !ok {
		t.Errorf("qual 2 should be a filter: %#v", e.Quals[2])
	}
}

func TestArrayGeneratorQualifier(t *testing.T) {
	e := mustExpr(t, `{d | [(\h,_,_):\t] <- T, t > 85.0}`).(*Comp)
	ag, ok := e.Quals[0].(*ArrGenQ)
	if !ok {
		t.Fatalf("qual 0 = %#v", e.Quals[0])
	}
	pt, ok := ag.IdxPat.(*PTuple)
	if !ok || len(pt.Elems) != 3 {
		t.Errorf("index pattern = %#v", ag.IdxPat)
	}
	if _, ok := ag.ValPat.(*PVar); !ok {
		t.Errorf("value pattern = %#v", ag.ValPat)
	}
}

func TestSetVsComprehension(t *testing.T) {
	if s, ok := mustExpr(t, "{1, 2, 3}").(*SetE); !ok || s.Bag {
		t.Error("{1,2,3} should be a set literal")
	}
	if _, ok := mustExpr(t, "{x | \\x <- S}").(*Comp); !ok {
		t.Error("{x | ...} should be a comprehension")
	}
	if _, ok := mustExpr(t, "{}").(*SetE); !ok {
		t.Error("{} should be the empty set")
	}
	if c, ok := mustExpr(t, "{| x | \\x <- B |}").(*Comp); !ok || !c.Bag {
		t.Error("{| x | ... |} should be a bag comprehension")
	}
	if s, ok := mustExpr(t, "{| 1, 2 |}").(*SetE); !ok || !s.Bag {
		t.Error("{|1,2|} should be a bag literal")
	}
}

func TestArrayLiterals(t *testing.T) {
	a := mustExpr(t, "[[1, 2, 3]]").(*ArrayE)
	if a.Dims != nil || len(a.Elems) != 3 {
		t.Errorf("1-d literal: %#v", a)
	}
	b := mustExpr(t, "[[2, 3; 1, 2, 3, 4, 5, 6]]").(*ArrayE)
	if len(b.Dims) != 2 || len(b.Elems) != 6 {
		t.Errorf("row-major literal: dims=%d elems=%d", len(b.Dims), len(b.Elems))
	}
	empty := mustExpr(t, "[[]]").(*ArrayE)
	if len(empty.Elems) != 0 {
		t.Errorf("empty literal: %#v", empty)
	}
}

func TestTuplesAndUnit(t *testing.T) {
	if tp, ok := mustExpr(t, "(1, 2, 3)").(*TupleE); !ok || len(tp.Elems) != 3 {
		t.Error("(1,2,3) should be a 3-tuple")
	}
	if _, ok := mustExpr(t, "(1)").(*NatLit); !ok {
		t.Error("(1) should be just 1")
	}
	if u, ok := mustExpr(t, "()").(*TupleE); !ok || len(u.Elems) != 0 {
		t.Error("() should be unit")
	}
}

func TestStatements(t *testing.T) {
	src := `val \months = [[0, 31, 28]];
	macro \f = fn \x => x + 1;
	readval \T using NETCDF3 at ("temp.nc", "temp", (0,0,0), (9,0,0));
	writeval T using PRINT at "out.txt";
	{d | \d <- gen!30};`
	stmts, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 5 {
		t.Fatalf("stmts = %d, want 5", len(stmts))
	}
	if v, ok := stmts[0].(*ValDecl); !ok || v.Name != "months" {
		t.Errorf("stmt 0 = %#v", stmts[0])
	}
	if m, ok := stmts[1].(*MacroDecl); !ok || m.Name != "f" {
		t.Errorf("stmt 1 = %#v", stmts[1])
	}
	if r, ok := stmts[2].(*ReadVal); !ok || r.Reader != "NETCDF3" || r.Name != "T" {
		t.Errorf("stmt 2 = %#v", stmts[2])
	}
	if w, ok := stmts[3].(*WriteVal); !ok || w.Writer != "PRINT" {
		t.Errorf("stmt 3 = %#v", stmts[3])
	}
	if _, ok := stmts[4].(*ExprStmt); !ok {
		t.Errorf("stmt 4 = %#v", stmts[4])
	}
}

func TestFullPaperQueries(t *testing.T) {
	srcs := []string{
		// The motivating query of section 1.
		`{d | \d <- gen!30,
		   \WS' == evenpos!(proj_col!(WS, 0)),
		   \TRW == zip_3!(T, RH, WS'),
		   \A == subseq!(TRW, d*24, d*24+23),
		   heatindex!(A) > threshold}`,
		// The session query of section 4.2.
		`{d | [(\h,_,_):\t] <- T, \d == h/24+1,
		   h > june_sunset!(NYlat, NYlon, d), t > 85.0}`,
		// The macro from the session.
		`fn (\m,\d,\y) =>
		   d + summap(fn \i => months[i])!(gen!m) +
		   if m > 2 and y % 4 = 0 then 1 else 0`,
	}
	for _, src := range srcs {
		if _, err := ParseExpr(src); err != nil {
			t.Errorf("ParseExpr(%q): %v", src, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "1 +", "{x | }", "fn => 1", "let in 1 end", "if 1 then 2",
		"(1, 2", "[[1, 2", "f!", "val x", "A[", "{x | \\x <-}",
		"let val \\x = 1 in x", // missing end
	}
	for _, src := range bad {
		if e, err := ParseExpr(src); err == nil {
			t.Errorf("ParseExpr(%q) = %#v, want error", src, e)
		}
	}
}
