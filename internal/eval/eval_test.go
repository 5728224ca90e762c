package eval

import (
	"strings"
	"testing"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/object"
)

// Shorthand AST constructors for tests.
func v(name string) ast.Expr                       { return &ast.Var{Name: name} }
func nat(n int64) ast.Expr                         { return &ast.NatLit{Val: n} }
func app(f, a ast.Expr) ast.Expr                   { return &ast.App{Fn: f, Arg: a} }
func lam(p string, b ast.Expr) ast.Expr            { return &ast.Lam{Param: p, Body: b} }
func sing(e ast.Expr) ast.Expr                     { return &ast.Singleton{Elem: e} }
func arith(op ast.ArithOp, l, r ast.Expr) ast.Expr { return &ast.Arith{Op: op, L: l, R: r} }
func cmp(op ast.CmpOp, l, r ast.Expr) ast.Expr     { return &ast.Cmp{Op: op, L: l, R: r} }
func bigU(h ast.Expr, x string, o ast.Expr) ast.Expr {
	return &ast.BigUnion{Head: h, Var: x, Over: o}
}
func tab(h ast.Expr, idx []string, bounds ...ast.Expr) ast.Expr {
	return &ast.ArrayTab{Head: h, Idx: idx, Bounds: bounds}
}
func sub(a, i ast.Expr) ast.Expr     { return &ast.Subscript{Arr: a, Index: i} }
func dim(k int, a ast.Expr) ast.Expr { return &ast.Dim{K: k, Arr: a} }

// run evaluates e with the builtin globals plus the given extra bindings.
func run(t *testing.T, e ast.Expr, extra map[string]object.Value) object.Value {
	t.Helper()
	globals := Builtins()
	for k, val := range extra {
		globals[k] = val
	}
	got, err := New(globals).Eval(e, nil)
	if err != nil {
		t.Fatalf("Eval(%s): %v", e, err)
	}
	return got
}

func expect(t *testing.T, e ast.Expr, extra map[string]object.Value, want object.Value) {
	t.Helper()
	got := run(t, e, extra)
	if !object.Equal(got, want) {
		t.Errorf("Eval(%s) = %s, want %s", e, got, want)
	}
}

// --- E1 conformance: one test per row of figure 1 ------------------------

func TestFig1Functions(t *testing.T) {
	// (λx. x + 1)(41) = 42
	expect(t, app(lam("x", arith(ast.OpAdd, v("x"), nat(1))), nat(41)), nil, object.Nat(42))
	// Closures capture their environment: (λx. λy. x + y)(40)(2) = 42.
	e := app(app(lam("x", lam("y", arith(ast.OpAdd, v("x"), v("y")))), nat(40)), nat(2))
	expect(t, e, nil, object.Nat(42))
}

func TestFig1Products(t *testing.T) {
	pair := &ast.Tuple{Elems: []ast.Expr{nat(1), nat(2), nat(3)}}
	expect(t, &ast.Proj{I: 2, K: 3, Tuple: pair}, nil, object.Nat(2))
	expect(t, pair, nil, object.Tuple(object.Nat(1), object.Nat(2), object.Nat(3)))
}

func TestFig1Sets(t *testing.T) {
	expect(t, &ast.Empty{}, nil, object.EmptySet)
	expect(t, sing(nat(7)), nil, object.Set(object.Nat(7)))
	expect(t, &ast.Union{L: sing(nat(1)), R: sing(nat(2))}, nil, object.Set(object.Nat(1), object.Nat(2)))
	// ⋃{ {x+1} | x ∈ {1,2} } = {2,3}
	in := object.Set(object.Nat(1), object.Nat(2))
	e := bigU(sing(arith(ast.OpAdd, v("x"), nat(1))), "x", v("S"))
	expect(t, e, map[string]object.Value{"S": in}, object.Set(object.Nat(2), object.Nat(3)))
}

func TestFig1Booleans(t *testing.T) {
	expect(t, &ast.BoolLit{Val: true}, nil, object.True)
	expect(t, &ast.If{Cond: cmp(ast.OpLt, nat(1), nat(2)), Then: nat(10), Else: nat(20)}, nil, object.Nat(10))
	expect(t, &ast.If{Cond: cmp(ast.OpGe, nat(1), nat(2)), Then: nat(10), Else: nat(20)}, nil, object.Nat(20))
	for _, tc := range []struct {
		op   ast.CmpOp
		want bool
	}{
		{ast.OpEq, false}, {ast.OpNe, true}, {ast.OpLt, true},
		{ast.OpGt, false}, {ast.OpLe, true}, {ast.OpGe, false},
	} {
		expect(t, cmp(tc.op, nat(1), nat(2)), nil, object.Bool(tc.want))
	}
	// Comparisons lift to complex objects through the linear order.
	s1 := object.Set(object.Nat(1))
	s2 := object.Set(object.Nat(1), object.Nat(2))
	e := cmp(ast.OpLt, v("a"), v("b"))
	expect(t, e, map[string]object.Value{"a": s1, "b": s2}, object.True)
}

func TestFig1Naturals(t *testing.T) {
	expect(t, arith(ast.OpAdd, nat(2), nat(3)), nil, object.Nat(5))
	expect(t, arith(ast.OpMul, nat(2), nat(3)), nil, object.Nat(6))
	expect(t, arith(ast.OpDiv, nat(7), nat(2)), nil, object.Nat(3))
	expect(t, arith(ast.OpMod, nat(7), nat(2)), nil, object.Nat(1))
	// Subtraction is monus: 2 - 5 = 0.
	expect(t, arith(ast.OpSub, nat(2), nat(5)), nil, object.Nat(0))
	expect(t, arith(ast.OpSub, nat(5), nat(2)), nil, object.Nat(3))
	// gen(4) = {0,1,2,3}
	expect(t, &ast.Gen{N: nat(4)}, nil,
		object.Set(object.Nat(0), object.Nat(1), object.Nat(2), object.Nat(3)))
	expect(t, &ast.Gen{N: nat(0)}, nil, object.EmptySet)
	// Σ{ x*x | x ∈ gen(4) } = 0+1+4+9 = 14
	e := &ast.Sum{Head: arith(ast.OpMul, v("x"), v("x")), Var: "x", Over: &ast.Gen{N: nat(4)}}
	expect(t, e, nil, object.Nat(14))
}

func TestFig1ArrayTabulation(t *testing.T) {
	// [[ i*2 | i < 4 ]] = [[0, 2, 4, 6]]
	e := tab(arith(ast.OpMul, v("i"), nat(2)), []string{"i"}, nat(4))
	expect(t, e, nil, object.NatVector(0, 2, 4, 6))
	// 2-dimensional: [[ i*10 + j | i < 2, j < 3 ]]
	e2 := tab(arith(ast.OpAdd, arith(ast.OpMul, v("i"), nat(10)), v("j")), []string{"i", "j"}, nat(2), nat(3))
	want := object.MustArray([]int{2, 3}, []object.Value{
		object.Nat(0), object.Nat(1), object.Nat(2),
		object.Nat(10), object.Nat(11), object.Nat(12)})
	expect(t, e2, nil, want)
}

func TestFig1Subscript(t *testing.T) {
	A := object.NatVector(5, 6, 7)
	expect(t, sub(v("A"), nat(1)), map[string]object.Value{"A": A}, object.Nat(6))
	// Out of bounds is ⊥.
	got := run(t, sub(v("A"), nat(9)), map[string]object.Value{"A": A})
	if !got.IsBottom() {
		t.Errorf("A[9] = %s, want bottom", got)
	}
	// Multidimensional subscript with a tuple index.
	M := object.MustArray([]int{2, 2}, []object.Value{object.Nat(1), object.Nat(2), object.Nat(3), object.Nat(4)})
	e := sub(v("M"), &ast.Tuple{Elems: []ast.Expr{nat(1), nat(1)}})
	expect(t, e, map[string]object.Value{"M": M}, object.Nat(4))
}

func TestFig1Dim(t *testing.T) {
	A := object.NatVector(5, 6, 7)
	expect(t, dim(1, v("A")), map[string]object.Value{"A": A}, object.Nat(3))
	M := object.MustArray([]int{2, 3}, make([]object.Value, 6))
	expect(t, dim(2, v("M")), map[string]object.Value{"M": M}, object.Tuple(object.Nat(2), object.Nat(3)))
	// dim with the wrong dimensionality is a static/kind error.
	ev := New(nil)
	if _, err := ev.Eval(dim(1, v("M")), (&Env{}).Bind("M", M)); err == nil {
		t.Error("dim_1 of a 2-d array should error")
	}
}

func TestFig1Index(t *testing.T) {
	// index({(1,"a"), (3,"b"), (1,"c")}) — the paper's example.
	s := object.Set(
		object.Tuple(object.Nat(1), object.String_("a")),
		object.Tuple(object.Nat(3), object.String_("b")),
		object.Tuple(object.Nat(1), object.String_("c")),
	)
	want := object.Vector(object.EmptySet,
		object.Set(object.String_("a"), object.String_("c")),
		object.EmptySet, object.Set(object.String_("b")))
	expect(t, &ast.Index{K: 1, Set: v("S")}, map[string]object.Value{"S": s}, want)
}

func TestFig1Get(t *testing.T) {
	expect(t, &ast.Get{Set: sing(nat(9))}, nil, object.Nat(9))
	if got := run(t, &ast.Get{Set: &ast.Empty{}}, nil); !got.IsBottom() {
		t.Errorf("get({}) = %s, want bottom", got)
	}
	two := &ast.Union{L: sing(nat(1)), R: sing(nat(2))}
	if got := run(t, &ast.Get{Set: two}, nil); !got.IsBottom() {
		t.Errorf("get on 2-set = %s, want bottom", got)
	}
}

// --- Derived operations from section 2 -------------------------------------

// mapArr builds map f A = [[ f(A[i]) | i < len(A) ]].
func mapArr(f, a ast.Expr) ast.Expr {
	return tab(app(f, sub(a, v("i"))), []string{"i"}, dim(1, a))
}

func TestDerivedMap(t *testing.T) {
	A := object.NatVector(1, 2, 3)
	e := mapArr(lam("x", arith(ast.OpMul, v("x"), v("x"))), v("A"))
	expect(t, e, map[string]object.Value{"A": A}, object.NatVector(1, 4, 9))
}

func TestDerivedZip(t *testing.T) {
	// zip(A,B) = [[ (A[i], B[i]) | i < min{len A, len B} ]]
	e := tab(
		&ast.Tuple{Elems: []ast.Expr{sub(v("A"), v("i")), sub(v("B"), v("i"))}},
		[]string{"i"},
		app(v("min"), &ast.Union{L: sing(dim(1, v("A"))), R: sing(dim(1, v("B")))}),
	)
	A := object.NatVector(1, 2, 3)
	B := object.NatVector(10, 20)
	want := object.Vector(
		object.Tuple(object.Nat(1), object.Nat(10)),
		object.Tuple(object.Nat(2), object.Nat(20)))
	expect(t, e, map[string]object.Value{"A": A, "B": B}, want)
}

func TestDerivedReverseEvenpos(t *testing.T) {
	A := object.NatVector(1, 2, 3, 4, 5)
	// reverse A = [[ A[len(A) - i - 1] | i < len(A) ]]
	rev := tab(sub(v("A"), arith(ast.OpSub, arith(ast.OpSub, dim(1, v("A")), v("i")), nat(1))),
		[]string{"i"}, dim(1, v("A")))
	expect(t, rev, map[string]object.Value{"A": A}, object.NatVector(5, 4, 3, 2, 1))
	// evenpos A = [[ A[i*2] | i < len(A)/2 ]] — note: paper uses len/2.
	even := tab(sub(v("A"), arith(ast.OpMul, v("i"), nat(2))),
		[]string{"i"}, arith(ast.OpDiv, dim(1, v("A")), nat(2)))
	expect(t, even, map[string]object.Value{"A": A}, object.NatVector(1, 3))
}

func TestDerivedTransposeAndMultiply(t *testing.T) {
	M := object.MustArray([]int{2, 3}, []object.Value{
		object.Nat(1), object.Nat(2), object.Nat(3),
		object.Nat(4), object.Nat(5), object.Nat(6)})
	// transpose M = [[ M[i,j] | j < dim2, i < dim1 ]]
	tr := tab(sub(v("M"), &ast.Tuple{Elems: []ast.Expr{v("i"), v("j")}}),
		[]string{"j", "i"},
		&ast.Proj{I: 2, K: 2, Tuple: dim(2, v("M"))},
		&ast.Proj{I: 1, K: 2, Tuple: dim(2, v("M"))})
	want := object.MustArray([]int{3, 2}, []object.Value{
		object.Nat(1), object.Nat(4),
		object.Nat(2), object.Nat(5),
		object.Nat(3), object.Nat(6)})
	expect(t, tr, map[string]object.Value{"M": M}, want)

	// multiply(M, N) with N = transpose M: result is 2x2.
	N := want
	mult := tab(
		&ast.Sum{
			Head: arith(ast.OpMul,
				sub(v("M"), &ast.Tuple{Elems: []ast.Expr{v("i"), v("j")}}),
				sub(v("N"), &ast.Tuple{Elems: []ast.Expr{v("j"), v("k")}})),
			Var:  "j",
			Over: &ast.Gen{N: &ast.Proj{I: 2, K: 2, Tuple: dim(2, v("M"))}},
		},
		[]string{"i", "k"},
		&ast.Proj{I: 1, K: 2, Tuple: dim(2, v("M"))},
		&ast.Proj{I: 2, K: 2, Tuple: dim(2, v("N"))})
	wantMult := object.MustArray([]int{2, 2}, []object.Value{
		object.Nat(14), object.Nat(32),
		object.Nat(32), object.Nat(77)})
	expect(t, mult, map[string]object.Value{"M": M, "N": N}, wantMult)
}

// --- Aggregates from section 2 ---------------------------------------------

func TestAggregates(t *testing.T) {
	// count(X) = Σ{1 | x ∈ X}
	X := object.Set(object.Nat(4), object.Nat(7), object.Nat(9))
	countE := &ast.Sum{Head: nat(1), Var: "x", Over: v("X")}
	expect(t, countE, map[string]object.Value{"X": X}, object.Nat(3))
	// min via primitive
	expect(t, app(v("min"), v("X")), map[string]object.Value{"X": X}, object.Nat(4))
	expect(t, app(v("max"), v("X")), map[string]object.Value{"X": X}, object.Nat(9))
	if got := run(t, app(v("min"), &ast.Empty{}), nil); !got.IsBottom() {
		t.Errorf("min({}) = %s, want bottom", got)
	}
	// member
	e := app(v("member"), &ast.Tuple{Elems: []ast.Expr{nat(7), v("X")}})
	expect(t, e, map[string]object.Value{"X": X}, object.True)
	// count primitive
	expect(t, app(v("count"), v("X")), map[string]object.Value{"X": X}, object.Nat(3))
	// not
	expect(t, app(v("not"), &ast.BoolLit{Val: false}), nil, object.True)
}

// --- Errors and bottom propagation -----------------------------------------

func TestBottomPropagation(t *testing.T) {
	bot := &ast.Bottom{}
	cases := []ast.Expr{
		arith(ast.OpAdd, bot, nat(1)),
		arith(ast.OpAdd, nat(1), bot),
		cmp(ast.OpEq, bot, nat(1)),
		sing(bot),
		&ast.Union{L: sing(nat(1)), R: bot},
		&ast.Tuple{Elems: []ast.Expr{nat(1), bot}},
		&ast.Get{Set: bot},
		&ast.Gen{N: bot},
		&ast.If{Cond: bot, Then: nat(1), Else: nat(2)},
		tab(bot, []string{"i"}, nat(2)),
		tab(v("i"), []string{"i"}, bot),
		sub(bot, nat(0)),
		dim(1, bot),
		&ast.Index{K: 1, Set: bot},
		&ast.Sum{Head: bot, Var: "x", Over: &ast.Gen{N: nat(2)}},
		bigU(bot, "x", &ast.Gen{N: nat(1)}),
		&ast.MkArray{Dims: []ast.Expr{nat(1)}, Elems: []ast.Expr{bot}},
		app(lam("x", v("x")), bot),
		&ast.Singleton{Elem: bot, Bag: true},
	}
	for _, e := range cases {
		if got := run(t, e, nil); !got.IsBottom() {
			t.Errorf("Eval(%s) = %s, want bottom", e, got)
		}
	}
}

func TestIfDoesNotEvaluateUntakenBranch(t *testing.T) {
	// if 0 < 1 then 42 else ⊥ — the β^p residual pattern — must not be ⊥.
	e := &ast.If{Cond: cmp(ast.OpLt, nat(0), nat(1)), Then: nat(42), Else: &ast.Bottom{}}
	expect(t, e, nil, object.Nat(42))
}

func TestDivisionByZero(t *testing.T) {
	if got := run(t, arith(ast.OpDiv, nat(1), nat(0)), nil); !got.IsBottom() {
		t.Errorf("1/0 = %s, want bottom", got)
	}
	if got := run(t, arith(ast.OpMod, nat(1), nat(0)), nil); !got.IsBottom() {
		t.Errorf("1%%0 = %s, want bottom", got)
	}
}

func TestRealArithmetic(t *testing.T) {
	r := func(f float64) ast.Expr { return &ast.RealLit{Val: f} }
	expect(t, arith(ast.OpAdd, r(1.5), r(2.25)), nil, object.Real(3.75))
	// Mixed nat/real promotes.
	expect(t, arith(ast.OpMul, nat(2), r(2.5)), nil, object.Real(5))
	// Real subtraction is not monus.
	expect(t, arith(ast.OpSub, r(1), r(2.5)), nil, object.Real(-1.5))
	if got := run(t, arith(ast.OpDiv, r(1), r(0)), nil); !got.IsBottom() {
		t.Errorf("1.0/0.0 = %s, want bottom", got)
	}
}

func TestMkArray(t *testing.T) {
	e := &ast.MkArray{Dims: []ast.Expr{nat(2), nat(2)}, Elems: []ast.Expr{nat(1), nat(2), nat(3), nat(4)}}
	want := object.MustArray([]int{2, 2}, []object.Value{object.Nat(1), object.Nat(2), object.Nat(3), object.Nat(4)})
	expect(t, e, nil, want)
	// Mismatched count is undefined (⊥), per section 3.
	bad := &ast.MkArray{Dims: []ast.Expr{nat(3)}, Elems: []ast.Expr{nat(1)}}
	if got := run(t, bad, nil); !got.IsBottom() {
		t.Errorf("mismatched literal = %s, want bottom", got)
	}
}

func TestUnboundVariable(t *testing.T) {
	ev := New(nil)
	_, err := ev.Eval(v("nope"), nil)
	if err == nil || !strings.Contains(err.Error(), "unbound") {
		t.Errorf("unbound variable error = %v", err)
	}
}

func TestStepBudget(t *testing.T) {
	ev := New(nil)
	ev.Limits.MaxSteps = 10
	// A tabulation of 1000 elements exceeds 10 steps.
	_, err := ev.Eval(tab(v("i"), []string{"i"}, nat(1000)), nil)
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Errorf("step budget error = %v", err)
	}
}

// --- Bags and ranking (section 6) -------------------------------------------

func TestBags(t *testing.T) {
	expect(t, &ast.Empty{Bag: true}, nil, object.EmptyBag)
	expect(t, &ast.Singleton{Elem: nat(1), Bag: true}, nil, object.Bag(object.Nat(1)))
	e := &ast.Union{L: &ast.Singleton{Elem: nat(1), Bag: true}, R: &ast.Singleton{Elem: nat(1), Bag: true}, Bag: true}
	expect(t, e, nil, object.Bag(object.Nat(1), object.Nat(1)))
	// ⊎{| {|x|} | x ∈ {|1,1,2|} |} preserves multiplicity.
	B := object.Bag(object.Nat(1), object.Nat(1), object.Nat(2))
	e2 := &ast.BigUnion{Head: &ast.Singleton{Elem: v("x"), Bag: true}, Var: "x", Over: v("B"), Bag: true}
	expect(t, e2, map[string]object.Value{"B": B}, B)
}

func TestRankUnion(t *testing.T) {
	// rank(X) = ⋃_r{ {(x, i)} | x_i ∈ X } (section 6).
	X := object.Set(object.Nat(30), object.Nat(10), object.Nat(20))
	e := &ast.RankUnion{
		Head:    sing(&ast.Tuple{Elems: []ast.Expr{v("x"), v("i")}}),
		Var:     "x",
		RankVar: "i",
		Over:    v("X"),
	}
	want := object.Set(
		object.Tuple(object.Nat(10), object.Nat(1)),
		object.Tuple(object.Nat(20), object.Nat(2)),
		object.Tuple(object.Nat(30), object.Nat(3)))
	expect(t, e, map[string]object.Value{"X": X}, want)
}

func TestRankBagUnion(t *testing.T) {
	// Equal values get consecutive ranks.
	B := object.Bag(object.Nat(5), object.Nat(5), object.Nat(7))
	e := &ast.RankUnion{
		Head:    &ast.Singleton{Elem: &ast.Tuple{Elems: []ast.Expr{v("x"), v("i")}}, Bag: true},
		Var:     "x",
		RankVar: "i",
		Over:    v("B"),
		Bag:     true,
	}
	want := object.Bag(
		object.Tuple(object.Nat(5), object.Nat(1)),
		object.Tuple(object.Nat(5), object.Nat(2)),
		object.Tuple(object.Nat(7), object.Nat(3)))
	expect(t, e, map[string]object.Value{"B": B}, want)
}

// --- The nest example from sections 2 and 3 ---------------------------------

func TestNest(t *testing.T) {
	// nest : {s × t} → {s × {t}} groups second components by first.
	// nest = λX. ⋃{ {(π1 x, Π2(filter(λy.π1 y = π1 x)(X)))} | x ∈ X }
	p1 := func(e ast.Expr) ast.Expr { return &ast.Proj{I: 1, K: 2, Tuple: e} }
	p2 := func(e ast.Expr) ast.Expr { return &ast.Proj{I: 2, K: 2, Tuple: e} }
	inner := bigU(
		&ast.If{
			Cond: cmp(ast.OpEq, p1(v("y")), p1(v("x"))),
			Then: sing(p2(v("y"))),
			Else: &ast.Empty{},
		}, "y", v("X"))
	e := bigU(sing(&ast.Tuple{Elems: []ast.Expr{p1(v("x")), inner}}), "x", v("X"))
	X := object.Set(
		object.Tuple(object.Nat(1), object.String_("a")),
		object.Tuple(object.Nat(1), object.String_("b")),
		object.Tuple(object.Nat(2), object.String_("c")),
	)
	want := object.Set(
		object.Tuple(object.Nat(1), object.Set(object.String_("a"), object.String_("b"))),
		object.Tuple(object.Nat(2), object.Set(object.String_("c"))),
	)
	expect(t, e, map[string]object.Value{"X": X}, want)
}

// --- hist and hist' from section 2 -------------------------------------------

// histSlow e = [[ Σ{ if e[j] = i then 1 else 0 | j ∈ dom(e) } | i < max(rng(e))+1 ]]
func histSlow(arr ast.Expr) ast.Expr {
	rng := bigU(sing(sub(arr, v("j"))), "j", &ast.Gen{N: dim(1, arr)})
	body := &ast.Sum{
		Head: &ast.If{Cond: cmp(ast.OpEq, sub(arr, v("j")), v("i")), Then: nat(1), Else: nat(0)},
		Var:  "j",
		Over: &ast.Gen{N: dim(1, arr)},
	}
	return tab(body, []string{"i"}, arith(ast.OpAdd, app(v("max"), rng), nat(1)))
}

// histFast e = map(count)(index(⋃{ {(e[j], j)} | j ∈ dom(e) })).
// The index result is bound through a lambda so it is computed once; the
// paper's composition map(count) ∘ index has the same sharing.
func histFast(arr ast.Expr) ast.Expr {
	pairs := bigU(sing(&ast.Tuple{Elems: []ast.Expr{sub(arr, v("j")), v("j")}}),
		"j", &ast.Gen{N: dim(1, arr)})
	idx := &ast.Index{K: 1, Set: pairs}
	return app(lam("h", mapArr(v("count"), v("h"))), idx)
}

func TestHistBothVersionsAgree(t *testing.T) {
	A := object.NatVector(2, 0, 2, 3, 2)
	want := object.NatVector(1, 0, 3, 1)
	got1 := run(t, histSlow(v("A")), map[string]object.Value{"A": A})
	got2 := run(t, histFast(v("A")), map[string]object.Value{"A": A})
	if !object.Equal(got1, want) {
		t.Errorf("hist = %s, want %s", got1, want)
	}
	if !object.Equal(got2, want) {
		t.Errorf("hist' = %s, want %s", got2, want)
	}
}

func TestHistComplexityClaim(t *testing.T) {
	// hist' should take far fewer evaluator steps than hist when the value
	// range m is large (E7's claim, in steps instead of seconds).
	n, m := 50, 500
	data := make([]object.Value, n)
	for i := range data {
		data[i] = object.Nat(int64((i * 7919) % m))
	}
	data[0] = object.Nat(int64(m - 1)) // pin the max so both versions see range m
	A := object.Vector(data...)

	evSlow := New(Builtins())
	if _, err := evSlow.Eval(histSlow(v("A")), (*Env)(nil).Bind("A", A)); err != nil {
		t.Fatal(err)
	}
	evFast := New(Builtins())
	if _, err := evFast.Eval(histFast(v("A")), (*Env)(nil).Bind("A", A)); err != nil {
		t.Fatal(err)
	}
	if evFast.Used.Steps*4 > evSlow.Used.Steps {
		t.Errorf("hist' (%d steps) is not substantially cheaper than hist (%d steps)", evFast.Used.Steps, evSlow.Used.Steps)
	}
}

// TestKindErrors feeds ill-kinded values (possible only through misuse of
// the Go API, never from typechecked queries) and checks the evaluator
// reports errors instead of panicking.
func TestKindErrors(t *testing.T) {
	S := object.Set(object.Nat(1))
	A := object.NatVector(1, 2)
	cases := []struct {
		name string
		e    ast.Expr
		env  map[string]object.Value
	}{
		{"apply non-function", app(v("S"), nat(1)), map[string]object.Value{"S": S}},
		{"proj non-tuple", &ast.Proj{I: 1, K: 2, Tuple: nat(1)}, nil},
		{"union non-set", &ast.Union{L: v("A"), R: v("A")}, map[string]object.Value{"A": A}},
		{"bigunion over nat", bigU(sing(v("x")), "x", nat(3)), nil},
		{"bigunion body non-set", bigU(v("x"), "x", v("S")), map[string]object.Value{"S": S}},
		{"get non-set", &ast.Get{Set: nat(1)}, nil},
		{"if non-bool", &ast.If{Cond: nat(1), Then: nat(1), Else: nat(1)}, nil},
		{"gen non-nat", &ast.Gen{N: v("S")}, map[string]object.Value{"S": S}},
		{"sum over non-set", &ast.Sum{Head: nat(1), Var: "x", Over: nat(3)}, nil},
		{"sum of non-numeric", &ast.Sum{Head: &ast.BoolLit{Val: true}, Var: "x", Over: v("S")},
			map[string]object.Value{"S": S}},
		{"tab bound non-nat", tab(nat(1), []string{"i"}, v("S")), map[string]object.Value{"S": S}},
		{"subscript non-array", sub(nat(1), nat(0)), nil},
		{"dim non-array", dim(1, nat(1)), nil},
		{"index non-set", &ast.Index{K: 1, Set: nat(1)}, nil},
		{"index non-pairs", &ast.Index{K: 1, Set: v("S")}, map[string]object.Value{"S": S}},
		{"mkarray dim non-nat", &ast.MkArray{Dims: []ast.Expr{v("S")}, Elems: nil},
			map[string]object.Value{"S": S}},
		{"bag union over set", &ast.BigUnion{Head: &ast.Singleton{Elem: v("x"), Bag: true}, Var: "x", Over: v("S"), Bag: true},
			map[string]object.Value{"S": S}},
		{"rank over bag", &ast.RankUnion{Head: sing(v("x")), Var: "x", RankVar: "i", Over: &ast.Empty{Bag: true}}, nil},
		{"cmp function", cmp(ast.OpEq, v("min"), v("min")), nil},
		{"arith on strings", arith(ast.OpAdd, &ast.StringLit{Val: "a"}, &ast.StringLit{Val: "b"}), nil},
	}
	for _, tc := range cases {
		g := Builtins()
		for k, val := range tc.env {
			g[k] = val
		}
		if _, err := New(g).Eval(tc.e, nil); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

// TestRealModAndComparisons covers the real-arithmetic remainder and the
// promotion rules.
func TestRealModAndComparisons(t *testing.T) {
	r := func(f float64) ast.Expr { return &ast.RealLit{Val: f} }
	got := run(t, arith(ast.OpMod, r(7.5), r(2)), nil)
	if got.Kind != object.KReal || got.R != 1.5 {
		t.Errorf("7.5 %% 2.0 = %s", got)
	}
	if got := run(t, arith(ast.OpMod, r(1), r(0)), nil); !got.IsBottom() {
		t.Errorf("mod by zero = %s", got)
	}
	if got := run(t, cmp(ast.OpLe, nat(2), r(2.0)), nil); !object.Equal(got, object.True) {
		t.Errorf("2 <= 2.0 = %s", got)
	}
}
