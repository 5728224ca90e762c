package algebra

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/object"
)

func v(name string) ast.Expr                       { return &ast.Var{Name: name} }
func nat(n int64) ast.Expr                         { return &ast.NatLit{Val: n} }
func sing(e ast.Expr) ast.Expr                     { return &ast.Singleton{Elem: e} }
func arith(op ast.ArithOp, l, r ast.Expr) ast.Expr { return &ast.Arith{Op: op, L: l, R: r} }
func cmp(op ast.CmpOp, l, r ast.Expr) ast.Expr     { return &ast.Cmp{Op: op, L: l, R: r} }
func tup(es ...ast.Expr) ast.Expr                  { return &ast.Tuple{Elems: es} }

// both evaluates e in the calculus and through the algebra translation,
// and checks the results agree.
func both(t *testing.T, e ast.Expr, envVars []string, envVals []object.Value,
	globals map[string]object.Value) object.Value {
	t.Helper()
	g := eval.Builtins()
	for k, val := range globals {
		g[k] = val
	}
	// Calculus evaluation.
	ev := eval.New(g)
	var env *eval.Env
	for i, name := range envVars {
		env = env.Bind(name, envVals[i])
	}
	want, err := ev.Eval(e, env)
	if err != nil {
		t.Fatalf("calculus eval %s: %v", e, err)
	}
	// Algebra evaluation.
	term, err := Translate(e, envVars, g)
	if err != nil {
		t.Fatalf("translate %s: %v", e, err)
	}
	got, err := term.Apply(EnvValue(envVals...))
	if err != nil {
		t.Fatalf("algebra eval %s: %v", term, err)
	}
	if !object.Equal(got, want) {
		t.Fatalf("algebra disagrees with calculus:\n expr  %s\n term  %s\n want  %s\n got   %s",
			e, term, want, got)
	}
	return got
}

func TestScalars(t *testing.T) {
	both(t, nat(42), nil, nil, nil)
	both(t, arith(ast.OpAdd, nat(2), nat(3)), nil, nil, nil)
	both(t, arith(ast.OpSub, nat(2), nat(5)), nil, nil, nil) // monus
	both(t, cmp(ast.OpLt, nat(1), nat(2)), nil, nil, nil)
	both(t, &ast.If{Cond: cmp(ast.OpLt, nat(2), nat(1)), Then: nat(10), Else: nat(20)}, nil, nil, nil)
	both(t, &ast.StringLit{Val: "x"}, nil, nil, nil)
	both(t, &ast.RealLit{Val: 2.5}, nil, nil, nil)
	both(t, &ast.BoolLit{Val: true}, nil, nil, nil)
}

func TestEnvironmentPaths(t *testing.T) {
	// Variables at several depths.
	e := tup(v("x"), v("y"), v("z"))
	got := both(t, e, []string{"x", "y", "z"},
		[]object.Value{object.Nat(1), object.Nat(2), object.Nat(3)}, nil)
	if !object.Equal(got, object.Tuple(object.Nat(1), object.Nat(2), object.Nat(3))) {
		t.Errorf("got %s", got)
	}
	// Shadowing: the innermost binding wins.
	shadow := &ast.BigUnion{
		Head: sing(v("x")),
		Var:  "x",
		Over: &ast.Gen{N: nat(3)},
	}
	got2 := both(t, shadow, []string{"x"}, []object.Value{object.Nat(99)}, nil)
	if !object.Equal(got2, object.Set(object.Nat(0), object.Nat(1), object.Nat(2))) {
		t.Errorf("shadowing broken: %s", got2)
	}
}

func TestSetsAndAggregates(t *testing.T) {
	S := object.Set(object.Nat(1), object.Nat(2), object.Nat(3))
	G := map[string]object.Value{"S": S}
	both(t, &ast.BigUnion{Head: sing(arith(ast.OpMul, v("x"), v("x"))), Var: "x", Over: v("S")},
		nil, nil, G)
	both(t, &ast.Sum{Head: v("x"), Var: "x", Over: v("S")}, nil, nil, G)
	both(t, &ast.Get{Set: sing(nat(9))}, nil, nil, nil)
	both(t, &ast.Union{L: sing(nat(1)), R: v("S")}, nil, nil, G)
	both(t, &ast.Gen{N: nat(5)}, nil, nil, nil)
	both(t, &ast.Empty{}, nil, nil, nil)
}

func TestLetViaApp(t *testing.T) {
	// (λx. x + x)(21)
	e := &ast.App{
		Fn:  &ast.Lam{Param: "x", Body: arith(ast.OpAdd, v("x"), v("x"))},
		Arg: nat(21),
	}
	got := both(t, e, nil, nil, nil)
	if got.N != 42 {
		t.Errorf("let = %s", got)
	}
}

func TestPrimitiveApplication(t *testing.T) {
	e := &ast.App{Fn: v("min"), Arg: &ast.Union{L: sing(nat(5)), R: sing(nat(3))}}
	got := both(t, e, nil, nil, nil)
	if got.N != 3 {
		t.Errorf("min = %s", got)
	}
}

func TestHigherOrderRejected(t *testing.T) {
	// A bare lambda value has no arrow form.
	if _, err := Translate(&ast.Lam{Param: "x", Body: v("x")}, nil, nil); err == nil {
		t.Error("bare lambda translated")
	}
	// A computed function applied.
	e := &ast.App{Fn: &ast.Get{Set: v("S")}, Arg: nat(1)}
	if _, err := Translate(e, nil, map[string]object.Value{"S": object.EmptySet}); err == nil {
		t.Error("computed function application translated")
	}
	// Bags are outside the NRCA algebra.
	if _, err := Translate(&ast.Empty{Bag: true}, nil, nil); err == nil {
		t.Error("bag construct translated")
	}
}

// TestBagNodesHaveNoArrowForm holds the error of every bag node to its
// text: a bag shares its Go type with the set node the algebra translates.
func TestBagNodesHaveNoArrowForm(t *testing.T) {
	for _, e := range []ast.Expr{
		&ast.Empty{Bag: true},
		&ast.Singleton{Elem: nat(1), Bag: true},
		&ast.Union{L: v("B"), R: v("B"), Bag: true},
		&ast.BigUnion{Head: &ast.Singleton{Elem: v("x"), Bag: true}, Var: "x", Over: v("B"), Bag: true},
		&ast.RankUnion{Head: &ast.Singleton{Elem: v("i"), Bag: true}, Var: "x", RankVar: "i", Over: v("B"), Bag: true},
	} {
		want := "algebra: " + ast.NodeName(e) + " has no arrow form (the NRCA algebra covers sets and arrays, not bags or ranked unions)"
		globals := map[string]object.Value{"B": object.EmptyBag}
		if term, err := Translate(e, nil, globals); err == nil || err.Error() != want {
			t.Errorf("Translate(%s) = %v, %v; want error %q", e, term, err, want)
		}
	}
}

func TestMkArr(t *testing.T) {
	// The paper's mk_arr: [[ i*i | i < 5 ]].
	e := &ast.ArrayTab{
		Head:   arith(ast.OpMul, v("i"), v("i")),
		Idx:    []string{"i"},
		Bounds: []ast.Expr{nat(5)},
	}
	got := both(t, e, nil, nil, nil)
	if !object.Equal(got, object.NatVector(0, 1, 4, 9, 16)) {
		t.Errorf("mk_arr = %s", got)
	}
	// Multidimensional.
	e2 := &ast.ArrayTab{
		Head:   arith(ast.OpAdd, arith(ast.OpMul, v("i"), nat(10)), v("j")),
		Idx:    []string{"i", "j"},
		Bounds: []ast.Expr{nat(2), nat(2)},
	}
	got2 := both(t, e2, nil, nil, nil)
	want := object.MustArray([]int{2, 2}, []object.Value{
		object.Nat(0), object.Nat(1), object.Nat(10), object.Nat(11)})
	if !object.Equal(got2, want) {
		t.Errorf("mk_arr 2d = %s", got2)
	}
}

func TestArrayOps(t *testing.T) {
	A := object.NatVector(5, 6, 7)
	G := map[string]object.Value{"A": A}
	both(t, &ast.Subscript{Arr: v("A"), Index: nat(1)}, nil, nil, G)
	both(t, &ast.Dim{K: 1, Arr: v("A")}, nil, nil, G)
	both(t, &ast.Subscript{Arr: v("A"), Index: nat(99)}, nil, nil, G) // ⊥ agrees
	idx := object.Set(
		object.Tuple(object.Nat(0), object.String_("a")),
		object.Tuple(object.Nat(2), object.String_("b")))
	both(t, &ast.Index{K: 1, Set: v("S")}, nil, nil, map[string]object.Value{"S": idx})
	both(t, &ast.MkArray{
		Dims:  []ast.Expr{nat(2), nat(2)},
		Elems: []ast.Expr{nat(1), nat(2), nat(3), nat(4)},
	}, nil, nil, nil)
	// Mismatched literal is ⊥ on both sides.
	both(t, &ast.MkArray{Dims: []ast.Expr{nat(3)}, Elems: []ast.Expr{nat(1)}}, nil, nil, nil)
}

// TestDerivedOperations runs the paper's derived array operations through
// the algebra.
func TestDerivedOperations(t *testing.T) {
	A := object.NatVector(1, 2, 3, 4, 5)
	G := map[string]object.Value{"A": A}
	// reverse
	reverse := &ast.ArrayTab{
		Head: &ast.Subscript{Arr: v("A"), Index: arith(ast.OpSub,
			arith(ast.OpSub, &ast.Dim{K: 1, Arr: v("A")}, v("i")), nat(1))},
		Idx:    []string{"i"},
		Bounds: []ast.Expr{&ast.Dim{K: 1, Arr: v("A")}},
	}
	got := both(t, reverse, nil, nil, G)
	if !object.Equal(got, object.NatVector(5, 4, 3, 2, 1)) {
		t.Errorf("reverse = %s", got)
	}
	// transpose via the algebra
	M := object.MustArray([]int{2, 3}, []object.Value{
		object.Nat(1), object.Nat(2), object.Nat(3),
		object.Nat(4), object.Nat(5), object.Nat(6)})
	transpose := &ast.ArrayTab{
		Head: &ast.Subscript{Arr: v("M"), Index: tup(v("i"), v("j"))},
		Idx:  []string{"j", "i"},
		Bounds: []ast.Expr{
			&ast.Proj{I: 2, K: 2, Tuple: &ast.Dim{K: 2, Arr: v("M")}},
			&ast.Proj{I: 1, K: 2, Tuple: &ast.Dim{K: 2, Arr: v("M")}},
		},
	}
	got2 := both(t, transpose, nil, nil, map[string]object.Value{"M": M})
	if got2.Shape[0] != 3 || got2.Shape[1] != 2 {
		t.Errorf("transpose shape = %v", got2.Shape)
	}
}

// TestPropCalculusAlgebraAgree generates random first-order expressions
// and checks the two evaluators agree — the empirical content of the
// paper's "they can be translated into each other".
func TestPropCalculusAlgebraAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(19960604))
	for trial := 0; trial < 300; trial++ {
		e := randomFirstOrder(rng, 4, nil)
		g := eval.Builtins()
		ev := eval.New(g)
		want, err := ev.Eval(e, nil)
		if err != nil {
			t.Fatalf("trial %d: calculus: %v\n%s", trial, err, e)
		}
		term, err := Translate(e, nil, g)
		if err != nil {
			t.Fatalf("trial %d: translate: %v\n%s", trial, err, e)
		}
		got, err := term.Apply(object.Unit)
		if err != nil {
			t.Fatalf("trial %d: algebra: %v\n%s", trial, err, term)
		}
		if !object.Equal(got, want) {
			t.Fatalf("trial %d: %s\n calculus %s\n algebra  %s", trial, e, want, got)
		}
	}
}

// randomFirstOrder builds random nat-valued expressions with binders.
func randomFirstOrder(rng *rand.Rand, depth int, scope []string) ast.Expr {
	if depth <= 0 {
		if len(scope) > 0 && rng.Intn(2) == 0 {
			return v(scope[rng.Intn(len(scope))])
		}
		return nat(int64(rng.Intn(5)))
	}
	switch rng.Intn(7) {
	case 0:
		return arith([]ast.ArithOp{ast.OpAdd, ast.OpSub, ast.OpMul}[rng.Intn(3)],
			randomFirstOrder(rng, depth-1, scope), randomFirstOrder(rng, depth-1, scope))
	case 1:
		return &ast.If{
			Cond: cmp(ast.OpLe, randomFirstOrder(rng, depth-1, scope), randomFirstOrder(rng, depth-1, scope)),
			Then: randomFirstOrder(rng, depth-1, scope),
			Else: randomFirstOrder(rng, depth-1, scope),
		}
	case 2:
		x := ast.Fresh("ra")
		return &ast.Sum{
			Head: randomFirstOrder(rng, depth-1, append(scope, x)),
			Var:  x,
			Over: &ast.Gen{N: randomFirstOrder(rng, depth-1, scope)},
		}
	case 3:
		i := ast.Fresh("ri")
		return &ast.Subscript{
			Arr: &ast.ArrayTab{
				Head:   randomFirstOrder(rng, depth-1, append(scope, i)),
				Idx:    []string{i},
				Bounds: []ast.Expr{arith(ast.OpAdd, randomFirstOrder(rng, depth-1, scope), nat(1))},
			},
			Index: randomFirstOrder(rng, depth-1, scope),
		}
	case 4:
		x := ast.Fresh("rl")
		return &ast.App{
			Fn:  &ast.Lam{Param: x, Body: randomFirstOrder(rng, depth-1, append(scope, x))},
			Arg: randomFirstOrder(rng, depth-1, scope),
		}
	case 5:
		i := ast.Fresh("rd")
		return &ast.Dim{K: 1, Arr: &ast.ArrayTab{
			Head:   randomFirstOrder(rng, depth-1, append(scope, i)),
			Idx:    []string{i},
			Bounds: []ast.Expr{randomFirstOrder(rng, depth-1, scope)},
		}}
	default:
		x := ast.Fresh("rs")
		return &ast.Sum{
			Head: nat(1),
			Var:  x,
			Over: &ast.BigUnion{
				Head: sing(randomFirstOrder(rng, depth-1, append(scope, x))),
				Var:  x,
				Over: &ast.Gen{N: nat(int64(rng.Intn(4)))},
			},
		}
	}
}

func TestTermStringsAndSize(t *testing.T) {
	e := &ast.BigUnion{Head: sing(arith(ast.OpAdd, v("x"), nat(1))), Var: "x", Over: &ast.Gen{N: nat(3)}}
	term, err := Translate(e, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := term.String()
	for _, frag := range []string{"ext", "gen", "eta"} {
		if !strings.Contains(s, frag) {
			t.Errorf("term rendering %q missing %q", s, frag)
		}
	}
	if Size(term) < 5 {
		t.Errorf("size = %d, suspiciously small", Size(term))
	}
}

func TestTermApplyKindErrors(t *testing.T) {
	// Arrows fed the wrong kind of value report errors rather than panic.
	cases := []Term{
		ProjAt{I: 1, K: 2},
		CondOf{C: Ident{}, T: Ident{}, E: Ident{}},
		Ext{F: Ident{}, Over: Ident{}},
		GetOf{F: Ident{}},
		GenOf{F: Ident{}},
		SumOf{F: Ident{}, Over: Ident{}},
		DimOf{K: 1, F: Ident{}},
		IndexOf{K: 1, F: Ident{}},
		SubOf{Arr: Ident{}, Index: Ident{}},
	}
	for _, term := range cases {
		if _, err := term.Apply(object.String_("wrong")); err == nil {
			t.Errorf("%s accepted a string input", term)
		}
	}
}

func TestBottomThreadsThroughCombinators(t *testing.T) {
	bot := BottomOf{}
	cases := []Term{
		Compose{G: Ident{}, F: bot},
		PairOf{Fs: []Term{bot, Ident{}}},
		SingOf{F: bot},
		UnionOf{L: bot, R: EmptyOf{}},
		CmpOf{Op: ast.OpEq, L: bot, R: bot},
		ArithOf{Op: ast.OpAdd, L: bot, R: bot},
		GetOf{F: bot},
		GenOf{F: bot},
		CondOf{C: bot, T: Ident{}, E: Ident{}},
		Prim{Name: "p", Fn: func(v object.Value) (object.Value, error) { return v, nil }, Arg: bot},
		SubOf{Arr: bot, Index: bot},
		DimOf{K: 1, F: bot},
		IndexOf{K: 1, F: bot},
		MkArr{F: Ident{}, Bounds: []Term{bot}},
		LitArr{Dims: []Term{bot}, Elems: nil},
	}
	for _, term := range cases {
		got, err := term.Apply(object.Unit)
		if err != nil {
			t.Errorf("%s errored: %v", term, err)
			continue
		}
		if !got.IsBottom() {
			t.Errorf("%s = %s, want bottom", term, got)
		}
	}
}

func TestTranslateUnboundVariable(t *testing.T) {
	if _, err := Translate(v("nope"), nil, nil); err == nil {
		t.Error("unbound variable translated")
	}
}
