package rank

import (
	"math/rand"
	"testing"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/types"
)

func v(name string) ast.Expr                       { return &ast.Var{Name: name} }
func nat(n int64) ast.Expr                         { return &ast.NatLit{Val: n} }
func sing(e ast.Expr) ast.Expr                     { return &ast.Singleton{Elem: e} }
func arith(op ast.ArithOp, l, r ast.Expr) ast.Expr { return &ast.Arith{Op: op, L: l, R: r} }
func cmp(op ast.CmpOp, l, r ast.Expr) ast.Expr     { return &ast.Cmp{Op: op, L: l, R: r} }
func proj(i, k int, e ast.Expr) ast.Expr           { return &ast.Proj{I: i, K: k, Tuple: e} }
func tup(es ...ast.Expr) ast.Expr                  { return &ast.Tuple{Elems: es} }
func bigU(h ast.Expr, x string, o ast.Expr) ast.Expr {
	return &ast.BigUnion{Head: h, Var: x, Over: o}
}

func run(t *testing.T, e ast.Expr, globals map[string]object.Value) object.Value {
	t.Helper()
	g := eval.Builtins()
	for k, val := range globals {
		g[k] = val
	}
	got, err := eval.New(g).Eval(e, nil)
	if err != nil {
		t.Fatalf("eval %s: %v", e, err)
	}
	return got
}

// --- Fragment checking ---------------------------------------------------------

func TestCheckFragments(t *testing.T) {
	pureNRC := bigU(sing(v("x")), "x", v("S"))
	withGen := bigU(sing(v("x")), "x", &ast.Gen{N: nat(5)})
	withSum := &ast.Sum{Head: nat(1), Var: "x", Over: v("S")}
	withArray := &ast.Dim{K: 1, Arr: v("A")}
	withRank := RankExpr(v("S"))
	withBagRank := BagRankExpr(v("B"))

	if err := Check(pureNRC, NRC); err != nil {
		t.Errorf("pure NRC rejected: %v", err)
	}
	if err := Check(withGen, NRC); err == nil {
		t.Error("gen accepted in NRC")
	}
	if err := Check(withGen, NRCAggrGen); err != nil {
		t.Errorf("gen rejected in NRC^aggr(gen): %v", err)
	}
	if err := Check(withSum, NRC); err == nil {
		t.Error("sum accepted in NRC")
	}
	if err := Check(withSum, NRCAggr); err != nil {
		t.Errorf("sum rejected in NRC^aggr: %v", err)
	}
	if err := Check(withArray, NRCAggrGen); err == nil {
		t.Error("array construct accepted in NRC^aggr(gen)")
	}
	if err := Check(withRank, NRCr); err != nil {
		t.Errorf("⋃_r rejected in NRC_r: %v", err)
	}
	if err := Check(withRank, NRCAggrGen); err == nil {
		t.Error("⋃_r accepted in NRC^aggr(gen)")
	}
	if err := Check(withBagRank, NBCr); err != nil {
		t.Errorf("⊎_r rejected in NBC_r: %v", err)
	}
	if err := Check(withBagRank, NRCr); err == nil {
		t.Error("⊎_r accepted in NRC_r")
	}
	if err := Check(pureNRC, NBCr); err == nil {
		t.Error("set construct accepted in NBC_r")
	}
}

// --- The object translation ------------------------------------------------------

func TestTranslateValueGraphs(t *testing.T) {
	A := object.NatVector(7, 8, 9)
	g, err := TranslateValue(A)
	if err != nil {
		t.Fatal(err)
	}
	want := object.Set(
		object.Tuple(object.Nat(0), object.Nat(7)),
		object.Tuple(object.Nat(1), object.Nat(8)),
		object.Tuple(object.Nat(2), object.Nat(9)))
	if !object.Equal(g, want) {
		t.Errorf("A° = %s, want %s", g, want)
	}
	back, err := UntranslateValue(g, types.MustParse("[[nat]]"))
	if err != nil {
		t.Fatal(err)
	}
	if !object.Equal(back, A) {
		t.Errorf("round trip = %s", back)
	}
}

func TestTranslateNested(t *testing.T) {
	// An array of arrays translates both levels.
	A := object.Vector(object.NatVector(1), object.NatVector(2, 3))
	typ := types.MustParse("[[[[nat]]]]")
	g, err := TranslateValue(A)
	if err != nil {
		t.Fatal(err)
	}
	// Outer graph with inner graphs as values.
	if g.Kind != object.KSet || len(g.Elems) != 2 {
		t.Fatalf("outer translation = %s", g)
	}
	inner := g.Elems[0].Elems[1]
	if inner.Kind != object.KSet {
		t.Errorf("inner array not translated: %s", inner)
	}
	back, err := UntranslateValue(g, typ)
	if err != nil {
		t.Fatal(err)
	}
	if !object.Equal(back, A) {
		t.Errorf("nested round trip = %s", back)
	}
}

func TestTranslateMultiDim(t *testing.T) {
	M := object.MustArray([]int{2, 2}, []object.Value{
		object.Nat(1), object.Nat(2), object.Nat(3), object.Nat(4)})
	g, err := TranslateValue(M)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UntranslateValue(g, types.MustParse("[[nat]]_2"))
	if err != nil {
		t.Fatal(err)
	}
	if !object.Equal(back, M) {
		t.Errorf("2-d round trip = %s", back)
	}
}

func TestUntranslateRejectsHoles(t *testing.T) {
	// {(0,a), (2,b)} has a hole at 1 and is not an array encoding.
	bad := object.Set(
		object.Tuple(object.Nat(0), object.Nat(1)),
		object.Tuple(object.Nat(2), object.Nat(2)))
	if _, err := UntranslateValue(bad, types.MustParse("[[nat]]")); err == nil {
		t.Error("holes should be rejected")
	}
}

func TestPropTranslateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(6)
		data := make([]object.Value, n)
		for i := range data {
			data[i] = object.Nat(int64(rng.Intn(10)))
		}
		A := object.Vector(data...)
		g, err := TranslateValue(A)
		if err != nil {
			t.Fatal(err)
		}
		back, err := UntranslateValue(g, types.MustParse("[[nat]]"))
		if err != nil {
			t.Fatal(err)
		}
		if !object.Equal(back, A) {
			t.Fatalf("trial %d: %s -> %s -> %s", trial, A, g, back)
		}
	}
}

// --- Theorem 6.1: NRCA ≡ NRC^aggr(gen), empirically -----------------------------

// The pairs below implement the same operation twice: natively with array
// constructs, and in NRC^aggr(gen) over the translated (graph) encoding.
// Agreement through the translation on random inputs demonstrates the
// nontrivial inclusion of Theorem 6.1.

// lenNative = dim_1(A); lenEncoded = Σ{1 | x ∈ G}.
func lenEncoded(g ast.Expr) ast.Expr {
	return &ast.Sum{Head: nat(1), Var: "x", Over: g}
}

// tabulateNative = [[ i*i+1 | i < n ]];
// tabulateEncoded = ⋃{ {(i, i*i+1)} | i ∈ gen(n) }.
func tabulateNative(n ast.Expr) ast.Expr {
	return &ast.ArrayTab{
		Head:   arith(ast.OpAdd, arith(ast.OpMul, v("i"), v("i")), nat(1)),
		Idx:    []string{"i"},
		Bounds: []ast.Expr{n},
	}
}

func tabulateEncoded(n ast.Expr) ast.Expr {
	return bigU(sing(tup(v("i"), arith(ast.OpAdd, arith(ast.OpMul, v("i"), v("i")), nat(1)))),
		"i", &ast.Gen{N: n})
}

// zipEncoded joins the two graphs on equal indices:
// ⋃{ ⋃{ if π1 x = π1 y then {(π1 x, (π2 x, π2 y))} else {} | y ∈ H} | x ∈ G}.
func zipEncoded(g, h ast.Expr) ast.Expr {
	inner := bigU(&ast.If{
		Cond: cmp(ast.OpEq, proj(1, 2, v("x")), proj(1, 2, v("y"))),
		Then: sing(tup(proj(1, 2, v("x")), tup(proj(2, 2, v("x")), proj(2, 2, v("y"))))),
		Else: &ast.Empty{},
	}, "y", h)
	return bigU(inner, "x", g)
}

// zipNative = [[ (A[i], B[i]) | i < min{len A, len B} ]].
func zipNative(a, b ast.Expr) ast.Expr {
	return &ast.ArrayTab{
		Head: tup(&ast.Subscript{Arr: a, Index: v("m")}, &ast.Subscript{Arr: b, Index: v("m")}),
		Idx:  []string{"m"},
		Bounds: []ast.Expr{&ast.App{
			Fn: v("min"),
			Arg: &ast.Union{
				L: sing(&ast.Dim{K: 1, Arr: a}),
				R: sing(&ast.Dim{K: 1, Arr: b})}}},
	}
}

func TestTheorem61(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	arrType := types.MustParse("[[nat]]")
	for trial := 0; trial < 100; trial++ {
		na, nb := rng.Intn(7), rng.Intn(7)
		mk := func(n int) object.Value {
			data := make([]object.Value, n)
			for i := range data {
				data[i] = object.Nat(int64(rng.Intn(20)))
			}
			return object.Vector(data...)
		}
		A, B := mk(na), mk(nb)
		Ag, err := TranslateValue(A)
		if err != nil {
			t.Fatal(err)
		}
		Bg, err := TranslateValue(B)
		if err != nil {
			t.Fatal(err)
		}
		globals := map[string]object.Value{"A": A, "B": B, "G": Ag, "H": Bg}

		// len agrees.
		native := run(t, &ast.Dim{K: 1, Arr: v("A")}, globals)
		encoded := run(t, lenEncoded(v("G")), globals)
		if !object.Equal(native, encoded) {
			t.Fatalf("len: %s vs %s", native, encoded)
		}

		// tabulation agrees through the translation.
		n := ast.Expr(nat(int64(rng.Intn(6))))
		tabN := run(t, tabulateNative(n), globals)
		tabE := run(t, tabulateEncoded(n), globals)
		tabNg, err := TranslateValue(tabN)
		if err != nil {
			t.Fatal(err)
		}
		if !object.Equal(tabNg, tabE) {
			t.Fatalf("tabulate: %s° = %s vs %s", tabN, tabNg, tabE)
		}

		// zip agrees through the translation (the min-length truncation
		// falls out of the join over rectangular domains).
		zipN := run(t, zipNative(v("A"), v("B")), globals)
		zipE := run(t, zipEncoded(v("G"), v("H")), globals)
		zipNg, err := TranslateValue(zipN)
		if err != nil {
			t.Fatal(err)
		}
		if !object.Equal(zipNg, zipE) {
			t.Fatalf("zip: %s vs %s", zipNg, zipE)
		}

		// Fragment sanity: the encoded sides really avoid array constructs.
		for _, e := range []ast.Expr{lenEncoded(v("G")), tabulateEncoded(n), zipEncoded(v("G"), v("H"))} {
			if err := Check(e, NRCAggrGen); err != nil {
				t.Fatalf("encoded query outside NRC^aggr(gen): %v", err)
			}
		}
		// And round-tripping the encoding recovers the native array.
		back, err := UntranslateValue(Ag, arrType)
		if err != nil {
			t.Fatal(err)
		}
		if !object.Equal(back, A) {
			t.Fatalf("untranslate: %s vs %s", back, A)
		}
	}
}

// --- Theorem 6.2: ranking gives the power of arrays ------------------------------

// reverseNRCr reverses an encoded array using ⋃_r: the rank of (i, v) in
// the graph's canonical order is i+1, so
// reverse° = ⋃_r{ {(n - i, π2 x)} | x_i ∈ G } with n = Σ{1 | x ∈ G}.
func reverseNRCr(g ast.Expr) ast.Expr {
	body := sing(tup(arith(ast.OpSub, lenEncoded(g), v("i")), proj(2, 2, v("x"))))
	return &ast.RankUnion{Head: body, Var: "x", RankVar: "i", Over: g}
}

// evenposNRCr keeps graph entries with even index, halving the index:
// ⋃_r{ if (i-1) % 2 = 0 then {((i-1)/2, π2 x)} else {} | x_i ∈ G }.
func evenposNRCr(g ast.Expr) ast.Expr {
	im1 := arith(ast.OpSub, v("i"), nat(1))
	body := &ast.If{
		Cond: cmp(ast.OpEq, arith(ast.OpMod, im1, nat(2)), nat(0)),
		Then: sing(tup(arith(ast.OpDiv, im1, nat(2)), proj(2, 2, v("x")))),
		Else: &ast.Empty{},
	}
	return &ast.RankUnion{Head: body, Var: "x", RankVar: "i", Over: g}
}

func TestTheorem62(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(8)
		data := make([]object.Value, n)
		for i := range data {
			data[i] = object.Nat(int64(rng.Intn(20)))
		}
		A := object.Vector(data...)
		G, err := TranslateValue(A)
		if err != nil {
			t.Fatal(err)
		}
		globals := map[string]object.Value{"A": A, "G": G}

		// reverse.
		revNative := run(t, &ast.ArrayTab{
			Head: &ast.Subscript{Arr: v("A"),
				Index: arith(ast.OpSub, arith(ast.OpSub, &ast.Dim{K: 1, Arr: v("A")}, v("i")), nat(1))},
			Idx:    []string{"i"},
			Bounds: []ast.Expr{&ast.Dim{K: 1, Arr: v("A")}},
		}, globals)
		revEncoded := run(t, reverseNRCr(v("G")), globals)
		revNativeG, err := TranslateValue(revNative)
		if err != nil {
			t.Fatal(err)
		}
		// reverse° indexes run 1..n in the ⋃_r encoding (n - i for rank
		// i = 1..n gives n-1 .. 0); both sides must agree as graphs.
		if !object.Equal(revNativeG, revEncoded) {
			t.Fatalf("reverse: %s vs %s", revNativeG, revEncoded)
		}

		// evenpos.
		evenNative := run(t, &ast.ArrayTab{
			Head:   &ast.Subscript{Arr: v("A"), Index: arith(ast.OpMul, v("i"), nat(2))},
			Idx:    []string{"i"},
			Bounds: []ast.Expr{arith(ast.OpDiv, &ast.Dim{K: 1, Arr: v("A")}, nat(2))},
		}, globals)
		evenEncoded := run(t, evenposNRCr(v("G")), globals)
		evenNativeG, err := TranslateValue(evenNative)
		if err != nil {
			t.Fatal(err)
		}
		// evenpos truncates at len/2; the encoded version keeps all even
		// positions, which differ when the length is odd — align by
		// restricting to the native length.
		if n%2 == 1 && len(evenEncoded.Elems) == len(evenNativeG.Elems)+1 {
			evenEncoded = object.SetFromSorted(evenEncoded.Elems[:len(evenEncoded.Elems)-1])
		}
		if !object.Equal(evenNativeG, evenEncoded) {
			t.Fatalf("evenpos (n=%d): %s vs %s", n, evenNativeG, evenEncoded)
		}

		if err := Check(reverseNRCr(v("G")), NRCr); err != nil {
			t.Fatalf("reverse outside NRC_r: %v", err)
		}
		if err := Check(evenposNRCr(v("G")), NRCr); err != nil {
			t.Fatalf("evenpos outside NRC_r: %v", err)
		}
	}
}

func TestRankOperator(t *testing.T) {
	X := object.Set(object.Nat(30), object.Nat(10), object.Nat(20))
	got := run(t, RankExpr(v("X")), map[string]object.Value{"X": X})
	want := object.Set(
		object.Tuple(object.Nat(10), object.Nat(1)),
		object.Tuple(object.Nat(20), object.Nat(2)),
		object.Tuple(object.Nat(30), object.Nat(3)))
	if !object.Equal(got, want) {
		t.Errorf("rank = %s", got)
	}
	B := object.Bag(object.Nat(5), object.Nat(5))
	gotB := run(t, BagRankExpr(v("B")), map[string]object.Value{"B": B})
	wantB := object.Bag(
		object.Tuple(object.Nat(5), object.Nat(1)),
		object.Tuple(object.Nat(5), object.Nat(2)))
	if !object.Equal(gotB, wantB) {
		t.Errorf("bag rank = %s", gotB)
	}
}

func TestFragmentStrings(t *testing.T) {
	for f, want := range map[Fragment]string{
		NRC: "NRC", NRCAggr: "NRC^aggr", NRCAggrGen: "NRC^aggr(gen)",
		NRCr: "NRC_r", NBCr: "NBC_r",
	} {
		if f.String() != want {
			t.Errorf("%d.String() = %q, want %q", f, f.String(), want)
		}
	}
}

func TestTranslateValueErrors(t *testing.T) {
	fn := object.Func(func(v object.Value) (object.Value, error) { return v, nil })
	if _, err := TranslateValue(fn); err == nil {
		t.Error("function value translated")
	}
	// Bags and tuples recurse.
	b := object.Bag(object.NatVector(1), object.NatVector(2))
	got, err := TranslateValue(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != object.KBag || got.Elems[0].Kind != object.KSet {
		t.Errorf("bag of arrays translated to %s", got)
	}
	tu := object.Tuple(object.NatVector(1), object.Nat(2))
	got, err = TranslateValue(tu)
	if err != nil {
		t.Fatal(err)
	}
	if got.Elems[0].Kind != object.KSet {
		t.Errorf("tuple of arrays translated to %s", got)
	}
}

func TestUntranslateValueErrors(t *testing.T) {
	// Value shape must match the type.
	cases := []struct {
		v   object.Value
		typ string
	}{
		{object.Nat(1), "[[nat]]"},                                        // not a set encoding
		{object.Set(object.Nat(1)), "[[nat]]"},                            // elements not pairs
		{object.Nat(1), "nat * nat"},                                      // not a tuple
		{object.Nat(1), "{nat}"},                                          // not a set
		{object.Set(object.Tuple(object.True, object.Nat(0))), "[[nat]]"}, // bad key
	}
	for _, tc := range cases {
		if _, err := UntranslateValue(tc.v, types.MustParse(tc.typ)); err == nil {
			t.Errorf("UntranslateValue(%s, %s) accepted", tc.v, tc.typ)
		}
	}
	// Bag and tuple types recurse on the way back.
	enc := object.Bag(object.Set(object.Tuple(object.Nat(0), object.Nat(7))))
	back, err := UntranslateValue(enc, types.MustParse("{|[[nat]]|}"))
	if err != nil {
		t.Fatal(err)
	}
	want := object.Bag(object.NatVector(7))
	if !object.Equal(back, want) {
		t.Errorf("bag round trip = %s", back)
	}
}
