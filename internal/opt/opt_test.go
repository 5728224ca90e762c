package opt

import (
	"math"
	"math/rand"
	"testing"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/object"
)

// Shorthand constructors.
func v(name string) ast.Expr                       { return &ast.Var{Name: name} }
func nat(n int64) ast.Expr                         { return &ast.NatLit{Val: n} }
func app(f, a ast.Expr) ast.Expr                   { return &ast.App{Fn: f, Arg: a} }
func lam(p string, b ast.Expr) ast.Expr            { return &ast.Lam{Param: p, Body: b} }
func sing(e ast.Expr) ast.Expr                     { return &ast.Singleton{Elem: e} }
func arith(op ast.ArithOp, l, r ast.Expr) ast.Expr { return &ast.Arith{Op: op, L: l, R: r} }
func cmp(op ast.CmpOp, l, r ast.Expr) ast.Expr     { return &ast.Cmp{Op: op, L: l, R: r} }
func proj(i, k int, e ast.Expr) ast.Expr           { return &ast.Proj{I: i, K: k, Tuple: e} }
func dim(k int, a ast.Expr) ast.Expr               { return &ast.Dim{K: k, Arr: a} }
func sub(a, i ast.Expr) ast.Expr                   { return &ast.Subscript{Arr: a, Index: i} }
func tup(es ...ast.Expr) ast.Expr                  { return &ast.Tuple{Elems: es} }
func tab(h ast.Expr, idx []string, bs ...ast.Expr) *ast.ArrayTab {
	return &ast.ArrayTab{Head: h, Idx: idx, Bounds: bs}
}

func optimize(e ast.Expr) ast.Expr { return New().Optimize(e) }

// --- The β^p, η^p, δ^p rules in isolation (E9's rewrites) --------------------

func TestBetaP(t *testing.T) {
	// [[ i*2 | i < n ]][k] ~> if k < n then k*2 else ⊥
	e := sub(tab(arith(ast.OpMul, v("i"), nat(2)), []string{"i"}, v("n")), v("k"))
	got := optimize(e)
	want := &ast.If{
		Cond: cmp(ast.OpLt, v("k"), v("n")),
		Then: arith(ast.OpMul, v("k"), nat(2)),
		Else: &ast.Bottom{},
	}
	if !ast.AlphaEqual(got, want) {
		t.Errorf("beta-p: got %s, want %s", got, want)
	}
}

func TestBetaPMultiDim(t *testing.T) {
	// [[ i+j | i < m, j < n ]][(a, b)] ~>
	//   if a < m then if b < n then a+b else ⊥ else ⊥
	e := sub(tab(arith(ast.OpAdd, v("i"), v("j")), []string{"i", "j"}, v("m"), v("n")),
		tup(v("a"), v("b")))
	got := optimize(e)
	want := &ast.If{
		Cond: cmp(ast.OpLt, v("a"), v("m")),
		Then: &ast.If{
			Cond: cmp(ast.OpLt, v("b"), v("n")),
			Then: arith(ast.OpAdd, v("a"), v("b")),
			Else: &ast.Bottom{},
		},
		Else: &ast.Bottom{},
	}
	if !ast.AlphaEqual(got, want) {
		t.Errorf("beta-p 2d: got %s, want %s", got, want)
	}
}

func TestEtaP(t *testing.T) {
	// [[ A[i] | i < len(A) ]] ~> A
	e := tab(sub(v("A"), v("i")), []string{"i"}, dim(1, v("A")))
	got := optimize(e)
	if !ast.AlphaEqual(got, v("A")) {
		t.Errorf("eta-p: got %s, want A", got)
	}
	// 2-dimensional variant.
	e2 := tab(sub(v("M"), tup(v("i"), v("j"))), []string{"i", "j"},
		proj(1, 2, dim(2, v("M"))), proj(2, 2, dim(2, v("M"))))
	if got := optimize(e2); !ast.AlphaEqual(got, v("M")) {
		t.Errorf("eta-p 2d: got %s, want M", got)
	}
	// Swapped indices must NOT reduce (that's a transpose, not identity).
	e3 := tab(sub(v("M"), tup(v("j"), v("i"))), []string{"i", "j"},
		proj(1, 2, dim(2, v("M"))), proj(2, 2, dim(2, v("M"))))
	if got := optimize(e3); ast.AlphaEqual(got, v("M")) {
		t.Error("eta-p must not fire on transposed subscripts")
	}
}

func TestDeltaP(t *testing.T) {
	// len([[ e | i < n ]]) ~> n
	e := dim(1, tab(arith(ast.OpMul, v("i"), v("i")), []string{"i"}, v("n")))
	if got := optimize(e); !ast.AlphaEqual(got, v("n")) {
		t.Errorf("delta-p: got %s, want n", got)
	}
	// dim_2([[ e | i < m, j < n ]]) ~> (m, n)
	e2 := dim(2, tab(v("i"), []string{"i", "j"}, v("m"), v("n")))
	if got := optimize(e2); !ast.AlphaEqual(got, tup(v("m"), v("n"))) {
		t.Errorf("delta-p 2d: got %s, want (m, n)", got)
	}
}

// --- E10: the transpose rule is derivable from the minimal rule set ------------

// transposeOf builds transpose(arg) with the section 2 definition:
// λA.[[ A[i,j] | j < dim_2,2(A), i < dim_1,2(A) ]].
func transposeOf(arg ast.Expr) ast.Expr {
	body := tab(
		sub(v("A"), tup(v("i"), v("j"))),
		[]string{"j", "i"},
		proj(2, 2, dim(2, v("A"))),
		proj(1, 2, dim(2, v("A"))),
	)
	return app(lam("A", body), arg)
}

func TestTransposeDerivation(t *testing.T) {
	// transpose([[ i*10+j | i < m, j < n ]]) must normalize to
	// [[ i*10+j | j < n, i < m ]] with all redundant checks eliminated —
	// the full derivation of section 5.
	inner := tab(arith(ast.OpAdd, arith(ast.OpMul, v("i"), nat(10)), v("j")),
		[]string{"i", "j"}, v("m"), v("n"))
	got := optimize(transposeOf(inner))
	want := tab(arith(ast.OpAdd, arith(ast.OpMul, v("i"), nat(10)), v("j")),
		[]string{"j", "i"}, v("n"), v("m"))
	if !ast.AlphaEqual(got, want) {
		t.Errorf("transpose derivation:\n got  %s\n want %s", got, want)
	}
}

func TestTransposeDerivationSemantics(t *testing.T) {
	// And the derived form computes the actual transpose.
	inner := tab(arith(ast.OpAdd, arith(ast.OpMul, v("i"), nat(10)), v("j")),
		[]string{"i", "j"}, nat(2), nat(3))
	opt := optimize(transposeOf(inner))
	ev := eval.New(nil)
	got, err := ev.Eval(opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := object.MustArray([]int{3, 2}, []object.Value{
		object.Nat(0), object.Nat(10),
		object.Nat(1), object.Nat(11),
		object.Nat(2), object.Nat(12)})
	if !object.Equal(got, want) {
		t.Errorf("optimized transpose = %s, want %s", got, want)
	}
}

// --- E11: zip ∘ subseq and subseq ∘ zip normalize to the same query -------------

// subseqOf builds subseq(a, i, j) = [[ a[i+k] | k < (j+1)-i ]].
func subseqOf(a, i, j ast.Expr) ast.Expr {
	return tab(
		sub(a, arith(ast.OpAdd, i, v("k"))),
		[]string{"k"},
		arith(ast.OpSub, arith(ast.OpAdd, j, nat(1)), i),
	)
}

// zipOf builds zip(x, y) = [[ (x[m], y[m]) | m < min{len x, len y} ]].
func zipOf(x, y ast.Expr) ast.Expr {
	return tab(
		tup(sub(x, v("m")), sub(y, v("m"))),
		[]string{"m"},
		app(v("min"), &ast.Union{L: sing(dim(1, x)), R: sing(dim(1, y))}),
	)
}

// stripGuard removes one residual bound-check of the form
// `if c then e else ⊥`, returning e.
func stripGuard(e ast.Expr) ast.Expr {
	if n, ok := e.(*ast.If); ok {
		if _, isBot := n.Else.(*ast.Bottom); isBot {
			return n.Then
		}
	}
	return e
}

// unhoist β-reduces top-level (λz.e)(arg) bindings introduced by the code
// motion phase, for normal-form comparison only.
func unhoist(e ast.Expr) ast.Expr {
	for {
		a, ok := e.(*ast.App)
		if !ok {
			return e
		}
		l, ok := a.Fn.(*ast.Lam)
		if !ok {
			return e
		}
		e = ast.Subst(l.Body, l.Param, a.Arg)
	}
}

func TestZipSubseqNormalization(t *testing.T) {
	// Left: zip(subseq(A,i,j), subseq(B,i,j)). Right: subseq(zip(A,B), i, j).
	left := unhoist(optimize(zipOf(subseqOf(v("A"), v("i"), v("j")), subseqOf(v("B"), v("i"), v("j")))))
	right := unhoist(optimize(subseqOf(zipOf(v("A"), v("B")), v("i"), v("j"))))

	lt, ok := left.(*ast.ArrayTab)
	if !ok {
		t.Fatalf("left did not normalize to a tabulation: %s", left)
	}
	rt, ok := right.(*ast.ArrayTab)
	if !ok {
		t.Fatalf("right did not normalize to a tabulation: %s", right)
	}
	// Same bounds.
	if !ast.AlphaEqual(lt.Bounds[0], rt.Bounds[0]) {
		t.Errorf("bounds differ:\n left  %s\n right %s", lt.Bounds[0], rt.Bounds[0])
	}
	// Same body up to extra constant-time bound checks (the paper's exact
	// claim); strip at most one residual guard from each side.
	lh := stripGuard(ast.Subst(lt.Head, lt.Idx[0], v("%z")))
	rh := stripGuard(ast.Subst(rt.Head, rt.Idx[0], v("%z")))
	if !ast.AlphaEqual(lh, rh) {
		t.Errorf("bodies differ beyond a residual guard:\n left  %s\n right %s", lh, rh)
	}
}

func TestZipSubseqSemanticsAgree(t *testing.T) {
	// Both orders produce the same value, optimized or not.
	A := object.NatVector(10, 20, 30, 40, 50)
	B := object.NatVector(1, 2, 3, 4, 5)
	mk := func(e ast.Expr, optimized bool) object.Value {
		if optimized {
			e = optimize(e)
		}
		ev := eval.New(eval.Builtins())
		env := (*eval.Env)(nil).Bind("A", A).Bind("B", B)
		got, err := ev.Eval(e, env)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	lhs := zipOf(subseqOf(v("A"), nat(1), nat(3)), subseqOf(v("B"), nat(1), nat(3)))
	rhs := subseqOf(zipOf(v("A"), v("B")), nat(1), nat(3))
	want := object.Vector(
		object.Tuple(object.Nat(20), object.Nat(2)),
		object.Tuple(object.Nat(30), object.Nat(3)),
		object.Tuple(object.Nat(40), object.Nat(4)))
	for _, e := range []ast.Expr{lhs, rhs} {
		for _, o := range []bool{false, true} {
			if got := mk(e, o); !object.Equal(got, want) {
				t.Errorf("optimized=%v: got %s, want %s", o, got, want)
			}
		}
	}
}

// --- E12: constraint elimination -----------------------------------------------

func TestConstraintEliminationInTab(t *testing.T) {
	// [[ if i < n then e else ⊥ | i < n ]] ~> [[ e | i < n ]]
	e := tab(&ast.If{
		Cond: cmp(ast.OpLt, v("i"), v("n")),
		Then: arith(ast.OpMul, v("i"), nat(2)),
		Else: &ast.Bottom{},
	}, []string{"i"}, v("n"))
	got := optimize(e)
	want := tab(arith(ast.OpMul, v("i"), nat(2)), []string{"i"}, v("n"))
	if !ast.AlphaEqual(got, want) {
		t.Errorf("got %s, want %s", got, want)
	}
}

func TestConstraintEliminationInGenLoop(t *testing.T) {
	// U{ if i < n then {i} else {} | i ∈ gen(n) } ~> U{ {i} | i ∈ gen(n) }
	e := &ast.BigUnion{
		Head: &ast.If{
			Cond: cmp(ast.OpLt, v("i"), v("n")),
			Then: sing(v("i")),
			Else: &ast.Empty{},
		},
		Var:  "i",
		Over: &ast.Gen{N: v("n")},
	}
	got := optimize(e)
	want := &ast.BigUnion{Head: sing(v("i")), Var: "i", Over: &ast.Gen{N: v("n")}}
	if !ast.AlphaEqual(got, want) {
		t.Errorf("got %s, want %s", got, want)
	}
}

func TestConstraintEliminationInConditionals(t *testing.T) {
	// if c then (if c then a else b) else d ~> if c then a else d
	c := cmp(ast.OpLt, v("x"), v("y"))
	e := &ast.If{
		Cond: c,
		Then: &ast.If{Cond: cmp(ast.OpLt, v("x"), v("y")), Then: v("a"), Else: v("b")},
		Else: v("d"),
	}
	got := optimize(e)
	want := &ast.If{Cond: c, Then: v("a"), Else: v("d")}
	if !ast.AlphaEqual(got, want) {
		t.Errorf("got %s, want %s", got, want)
	}
	// In the else branch the condition is known false.
	e2 := &ast.If{
		Cond: c,
		Then: v("a"),
		Else: &ast.If{Cond: cmp(ast.OpLt, v("x"), v("y")), Then: v("b"), Else: v("d")},
	}
	got2 := optimize(e2)
	want2 := &ast.If{Cond: c, Then: v("a"), Else: v("d")}
	if !ast.AlphaEqual(got2, want2) {
		t.Errorf("got %s, want %s", got2, want2)
	}
}

func TestConstraintEliminationRespectsScope(t *testing.T) {
	// The i < n inside a *different* binder for i must not be replaced.
	inner := tab(&ast.If{Cond: cmp(ast.OpLt, v("i"), v("n")), Then: v("i"), Else: nat(0)},
		[]string{"i"}, v("q")) // inner i shadows outer i; bound q ≠ n
	e := tab(dim(1, inner), []string{"i"}, v("n"))
	got := optimize(e)
	// After delta-p the inner tabulation's length is q; the guard must
	// survive wherever the inner i-binder kept it. What must NOT happen is
	// the inner check being rewritten to true.
	if containsBoolLit(got, true) {
		t.Errorf("inner shadowed bound check was eliminated: %s", got)
	}
}

func containsBoolLit(e ast.Expr, val bool) bool {
	if b, ok := e.(*ast.BoolLit); ok && b.Val == val {
		return true
	}
	for _, k := range e.Children() {
		if containsBoolLit(k, val) {
			return true
		}
	}
	return false
}

// --- NRC rules --------------------------------------------------------------------

func TestBetaGuard(t *testing.T) {
	// (λh. [[ h[i] + len(h) | i < 10 ]])(EXPENSIVE) with EXPENSIVE a set
	// loop must NOT be inlined (h occurs inside the tabulation body).
	expensive := &ast.Index{K: 1, Set: &ast.BigUnion{
		Head: sing(tup(v("x"), v("x"))), Var: "x", Over: v("S")}}
	e := app(lam("h", tab(arith(ast.OpAdd, sub(v("h"), v("i")), dim(1, v("h"))),
		[]string{"i"}, nat(10))), expensive)
	got := optimize(e)
	if _, stillApp := got.(*ast.App); !stillApp {
		t.Errorf("expensive argument was inlined into a loop: %s", got)
	}
	// But cheap arguments are inlined.
	e2 := app(lam("x", arith(ast.OpAdd, v("x"), v("x"))), v("y"))
	if got := optimize(e2); !ast.AlphaEqual(got, arith(ast.OpAdd, v("y"), v("y"))) {
		t.Errorf("variable argument not inlined: %s", got)
	}
	// Single-use arguments are inlined regardless of cost.
	e3 := app(lam("x", sing(v("x"))), expensive)
	if got := optimize(e3); !ast.AlphaEqual(got, sing(expensive)) {
		t.Errorf("single-use argument not inlined: %s", got)
	}
}

func TestVerticalFusion(t *testing.T) {
	// U{ {x} | x ∈ U{ {y+1} | y ∈ S } } ~> U{ {y+1} | y ∈ S } (after
	// fusion and the singleton rule).
	e := &ast.BigUnion{
		Head: sing(v("x")),
		Var:  "x",
		Over: &ast.BigUnion{Head: sing(arith(ast.OpAdd, v("y"), nat(1))), Var: "y", Over: v("S")},
	}
	got := optimize(e)
	want := &ast.BigUnion{Head: sing(arith(ast.OpAdd, v("y"), nat(1))), Var: "y", Over: v("S")}
	if !ast.AlphaEqual(got, want) {
		t.Errorf("got %s, want %s", got, want)
	}
}

func TestFilterPromotion(t *testing.T) {
	// U{ if c then {x} else {} | x ∈ S } with c independent of x
	// ~> if c then U{ {x} | x ∈ S } else {}.
	c := cmp(ast.OpLt, v("a"), v("b"))
	e := &ast.BigUnion{
		Head: &ast.If{Cond: c, Then: sing(v("x")), Else: &ast.Empty{}},
		Var:  "x",
		Over: v("S"),
	}
	got := optimize(e)
	wantThen := &ast.BigUnion{Head: sing(v("x")), Var: "x", Over: v("S")}
	want := &ast.If{Cond: c, Then: wantThen, Else: &ast.Empty{}}
	if !ast.AlphaEqual(got, want) {
		t.Errorf("got %s, want %s", got, want)
	}
	// Dependent filters stay inside.
	e2 := &ast.BigUnion{
		Head: &ast.If{Cond: cmp(ast.OpLt, v("x"), v("b")), Then: sing(v("x")), Else: &ast.Empty{}},
		Var:  "x",
		Over: v("S"),
	}
	if got := optimize(e2); !ast.AlphaEqual(got, e2) {
		t.Errorf("dependent filter moved: %s", got)
	}
}

func TestHorizontalFusion(t *testing.T) {
	e := &ast.Union{
		L: &ast.BigUnion{Head: sing(arith(ast.OpAdd, v("x"), nat(1))), Var: "x", Over: v("S")},
		R: &ast.BigUnion{Head: sing(arith(ast.OpMul, v("y"), nat(2))), Var: "y", Over: v("S")},
	}
	got := optimize(e)
	want := &ast.BigUnion{
		Head: &ast.Union{
			L: sing(arith(ast.OpAdd, v("x"), nat(1))),
			R: sing(arith(ast.OpMul, v("x"), nat(2))),
		},
		Var:  "x",
		Over: v("S"),
	}
	if !ast.AlphaEqual(got, want) {
		t.Errorf("got %s, want %s", got, want)
	}
}

func TestConstantFolding(t *testing.T) {
	if got := optimize(arith(ast.OpAdd, nat(2), nat(3))); !ast.AlphaEqual(got, nat(5)) {
		t.Errorf("2+3 = %s", got)
	}
	// Monus folds to 0.
	if got := optimize(arith(ast.OpSub, nat(2), nat(5))); !ast.AlphaEqual(got, nat(0)) {
		t.Errorf("2-5 = %s", got)
	}
	// A ⊥ result is left to the evaluator, whose diagnostic names it:
	// division by zero, and a nat overflow, which must not panic here.
	for _, e := range []ast.Expr{arith(ast.OpDiv, nat(1), nat(0)), arith(ast.OpAdd, nat(math.MaxInt64), nat(1))} {
		if got := optimize(e); !ast.AlphaEqual(got, e) {
			t.Errorf("%s = %s, want it unfolded", e, got)
		}
	}
	if got := optimize(cmp(ast.OpLt, nat(1), nat(2))); !ast.AlphaEqual(got, &ast.BoolLit{Val: true}) {
		t.Errorf("1<2 = %s", got)
	}
	// if with folded condition.
	e := &ast.If{Cond: cmp(ast.OpLt, nat(1), nat(2)), Then: v("a"), Else: v("b")}
	if got := optimize(e); !ast.AlphaEqual(got, v("a")) {
		t.Errorf("if-fold = %s", got)
	}
}

func TestGetSingleton(t *testing.T) {
	if got := optimize(&ast.Get{Set: sing(v("x"))}); !ast.AlphaEqual(got, v("x")) {
		t.Errorf("get({x}) = %s", got)
	}
}

// --- Code motion -------------------------------------------------------------------

func TestLoopInvariantHoisting(t *testing.T) {
	// [[ i + count(U{{x} | x ∈ S}) | i < n ]]: the big union is invariant
	// and must be hoisted out of the tabulation.
	invariant := app(v("count"), &ast.BigUnion{Head: sing(v("x")), Var: "x", Over: v("S")})
	e := tab(arith(ast.OpAdd, v("i"), invariant), []string{"i"}, v("n"))
	got := optimize(e)
	appNode, ok := got.(*ast.App)
	if !ok {
		t.Fatalf("no hoist: %s", got)
	}
	if !ast.AlphaEqual(appNode.Arg, invariant) {
		t.Errorf("hoisted %s, want %s", appNode.Arg, invariant)
	}
	lamNode := appNode.Fn.(*ast.Lam)
	tabNode, ok := lamNode.Body.(*ast.ArrayTab)
	if !ok {
		t.Fatalf("hoist shape: %s", got)
	}
	if ast.CountNodes(tabNode.Head) > 5 {
		t.Errorf("loop body still contains the invariant: %s", tabNode.Head)
	}
}

func TestHoistingPreservesSemantics(t *testing.T) {
	invariant := app(v("count"), &ast.BigUnion{Head: sing(v("x")), Var: "x", Over: v("S")})
	e := tab(arith(ast.OpAdd, v("i"), invariant), []string{"i"}, nat(4))
	S := object.Set(object.Nat(7), object.Nat(8), object.Nat(9))
	run := func(x ast.Expr) object.Value {
		ev := eval.New(eval.Builtins())
		got, err := ev.Eval(x, (*eval.Env)(nil).Bind("S", S))
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	if a, b := run(e), run(optimize(e)); !object.Equal(a, b) {
		t.Errorf("hoisting changed semantics: %s vs %s", a, b)
	}
}

// Terms for the hoisting scope tests: get({1, 2}) is loop-invariant, and
// ⊥ wherever it is evaluated.
func getOfPair() ast.Expr {
	return &ast.Get{Set: &ast.Union{L: sing(nat(1)), R: sing(nat(2))}}
}

// [[ if i > 5 then get({1,2}) else i | i < 3 ]]: no iteration takes the
// branch.
func untakenBranchTab() ast.Expr {
	return tab(&ast.If{Cond: cmp(ast.OpGt, v("i"), nat(5)), Then: getOfPair(), Else: v("i")},
		[]string{"i"}, nat(3))
}

// [[ Σ{ get({1,2}) | j ∈ gen(i - i) } + i | i < 3 ]]: the nested loop runs
// zero times on every iteration.
func nestedBodyTab() ast.Expr {
	inner := &ast.Sum{Head: getOfPair(), Var: "j", Over: &ast.Gen{N: arith(ast.OpSub, v("i"), v("i"))}}
	return tab(arith(ast.OpAdd, inner, v("i")), []string{"i"}, nat(3))
}

// [[ get({1,2}) + i | i < 0 ]]: the loop itself runs zero times.
func zeroTripTab() ast.Expr {
	return tab(arith(ast.OpAdd, getOfPair(), v("i")), []string{"i"}, nat(0))
}

func TestHoistSkipsCodeNotRunEveryIteration(t *testing.T) {
	run := func(x ast.Expr) object.Value {
		got, err := eval.New(eval.Builtins()).Eval(x, nil)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	e := untakenBranchTab()
	if want, got := run(e), run(optimize(e)); !object.Equal(got, want) {
		t.Errorf("hoisting out of an untaken branch: optimized %s, unoptimized %s", got, want)
	}
	// The outer loop must not reach into a nested loop's body (the nested
	// loop hoists out of its own body, with the zero-trip deviation below).
	if out, fired := hoistRule(nestedBodyTab()); fired {
		t.Errorf("hoisted out of a nested loop's body: %s", out)
	}
	// A nested loop's source is evaluated on every iteration: gen(n) is
	// still hoisted out of matmul's inner summation.
	matmul := tab(&ast.Sum{Head: arith(ast.OpMul, v("i"), v("k")), Var: "k", Over: &ast.Gen{N: v("n")}},
		[]string{"i", "j"}, v("n"), v("n"))
	out, fired := hoistRule(matmul)
	if a, ok := out.(*ast.App); !fired || !ok || !ast.AlphaEqual(a.Arg, &ast.Gen{N: v("n")}) {
		t.Errorf("gen(n) in a nested loop's source was not hoisted: %s", out)
	}
}

// TestHoistZeroTripLoopDeviation pins the hoist's accepted deviation (see
// hoistRule): a loop that runs zero times evaluates its hoisted invariant.
func TestHoistZeroTripLoopDeviation(t *testing.T) {
	e := zeroTripTab()
	unopt, err := eval.New(eval.Builtins()).Eval(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := eval.New(eval.Builtins()).Eval(optimize(e), nil)
	if err != nil {
		t.Fatal(err)
	}
	if unopt.IsBottom() || !opt.IsBottom() {
		t.Errorf("zero-trip loop: unoptimized %s, optimized %s; want a value, then ⊥", unopt, opt)
	}
}

// --- E16: dynamic rule registration ------------------------------------------------

func TestDynamicRuleRegistration(t *testing.T) {
	// Register reverse(reverse(x)) ~> x as a user rule, as section 4.1's
	// open architecture allows.
	base := New()
	o := base.WithRule("normalize", Rule{
		Name: "reverse-reverse",
		Apply: func(e ast.Expr) (ast.Expr, bool) {
			outer, ok := e.(*ast.App)
			if !ok {
				return e, false
			}
			f1, ok := outer.Fn.(*ast.Var)
			if !ok || f1.Name != "reverse" {
				return e, false
			}
			inner, ok := outer.Arg.(*ast.App)
			if !ok {
				return e, false
			}
			f2, ok := inner.Fn.(*ast.Var)
			if !ok || f2.Name != "reverse" {
				return e, false
			}
			return inner.Arg, true
		},
	})
	e := app(v("reverse"), app(v("reverse"), v("A")))
	fired := 0
	got := o.OptimizeTraced(e, func(_, rule string, _, _ int) {
		if rule == "reverse-reverse" {
			fired++
		}
	})
	if !ast.AlphaEqual(got, v("A")) || fired != 1 {
		t.Errorf("user rule: got %s after %d firings, want A after 1", got, fired)
	}
	// The optimizer it was derived from is unchanged.
	if got := base.Optimize(e); ast.AlphaEqual(got, v("A")) {
		t.Errorf("WithRule changed its receiver: %s", got)
	}
	if n, m := len(base.Phases[0].Rules), len(o.Phases[0].Rules); m != n+1 {
		t.Errorf("normalize has %d rules after WithRule, %d before", m, n)
	}
	// A brand-new phase can be added too, sharing the untouched ones.
	o2 := base.WithRule("post", Rule{Name: "noop", Apply: func(e ast.Expr) (ast.Expr, bool) { return e, false }})
	if len(o2.Phases) != 5 || len(base.Phases) != 4 {
		t.Errorf("phases = %d (base %d), want 5 (base 4)", len(o2.Phases), len(base.Phases))
	}
	for i, ph := range base.Phases {
		if o2.Phases[i].byHead != ph.byHead {
			t.Errorf("WithRule rebuilt the untouched phase %s", ph.Name)
		}
	}
}

// --- Property: optimization preserves semantics --------------------------------------

// randomExpr builds a random well-typed-enough expression over nat arrays
// and sets; evaluation may produce ⊥ but must not error.
func randomExpr(rng *rand.Rand, depth int, idxVars []string) ast.Expr {
	if depth <= 0 {
		switch rng.Intn(3) {
		case 0:
			return nat(int64(rng.Intn(5)))
		case 1:
			if len(idxVars) > 0 {
				return v(idxVars[rng.Intn(len(idxVars))])
			}
			return nat(int64(rng.Intn(5)))
		default:
			return nat(int64(rng.Intn(3) + 1))
		}
	}
	switch rng.Intn(8) {
	case 0:
		return arith([]ast.ArithOp{ast.OpAdd, ast.OpSub, ast.OpMul}[rng.Intn(3)],
			randomExpr(rng, depth-1, idxVars), randomExpr(rng, depth-1, idxVars))
	case 1:
		return &ast.If{
			Cond: cmp(ast.OpLt, randomExpr(rng, depth-1, idxVars), randomExpr(rng, depth-1, idxVars)),
			Then: randomExpr(rng, depth-1, idxVars),
			Else: randomExpr(rng, depth-1, idxVars),
		}
	case 2:
		iv := ast.Fresh("ri")
		return dim(1, tab(randomExpr(rng, depth-1, append(idxVars, iv)), []string{iv},
			randomExpr(rng, depth-1, idxVars)))
	case 3:
		iv := ast.Fresh("ri")
		return sub(
			tab(randomExpr(rng, depth-1, append(idxVars, iv)), []string{iv},
				randomExpr(rng, depth-1, idxVars)),
			randomExpr(rng, depth-1, idxVars))
	case 4:
		iv := ast.Fresh("rs")
		return &ast.Sum{
			Head: randomExpr(rng, depth-1, append(idxVars, iv)),
			Var:  iv,
			Over: &ast.Gen{N: randomExpr(rng, depth-1, idxVars)},
		}
	case 5:
		x := ast.Fresh("rx")
		return app(lam(x, arith(ast.OpAdd, v(x), randomExpr(rng, depth-1, idxVars))),
			randomExpr(rng, depth-1, idxVars))
	case 6:
		return &ast.Get{Set: sing(randomExpr(rng, depth-1, idxVars))}
	default:
		return proj(rng.Intn(2)+1, 2, tup(randomExpr(rng, depth-1, idxVars),
			randomExpr(rng, depth-1, idxVars)))
	}
}

func TestPropOptimizationPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(20260704))
	o := New()
	for n := 0; n < 400; n++ {
		e := randomExpr(rng, 4, nil)
		opt := o.Optimize(e)
		evA := eval.New(eval.Builtins())
		evB := eval.New(eval.Builtins())
		a, errA := evA.Eval(e, nil)
		b, errB := evB.Eval(opt, nil)
		if errA != nil || errB != nil {
			t.Fatalf("case %d: eval errors: %v / %v\n orig %s\n opt  %s", n, errA, errB, e, opt)
		}
		// δ^p may drop a ⊥ buried in a dead tabulation (the paper accepts
		// this); treat original-⊥ as compatible with any optimized result.
		if a.IsBottom() {
			continue
		}
		if !object.Equal(a, b) {
			t.Fatalf("case %d: semantics changed:\n orig %s = %s\n opt  %s = %s",
				n, e, a, opt, b)
		}
	}
}

func TestOptimizerTermination(t *testing.T) {
	// A pathological nest of redexes must terminate within the budget.
	e := ast.Expr(v("x"))
	for i := 0; i < 30; i++ {
		e = app(lam("x", arith(ast.OpAdd, v("x"), v("x"))), e)
	}
	o := New()
	o.MaxApplications = 2000
	_ = o.Optimize(e) // must return, not hang
}
