package desugar

import (
	"testing"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/parser"
)

// pipe parses and desugars src.
func pipe(t *testing.T, src string) ast.Expr {
	t.Helper()
	se, err := parser.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	core, err := Expr(se)
	if err != nil {
		t.Fatalf("desugar %q: %v", src, err)
	}
	return core
}

// evalSrc runs src end to end (parse, desugar, evaluate) with the given
// globals.
func evalSrc(t *testing.T, src string, globals map[string]object.Value) object.Value {
	t.Helper()
	core := pipe(t, src)
	g := eval.Builtins()
	for k, v := range globals {
		g[k] = v
	}
	got, err := eval.New(g).Eval(core, nil)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return got
}

func expectVal(t *testing.T, src string, globals map[string]object.Value, want object.Value) {
	t.Helper()
	got := evalSrc(t, src, globals)
	if !object.Equal(got, want) {
		t.Errorf("%q = %s, want %s", src, got, want)
	}
}

// --- E2: the translation tables of figure 2 --------------------------------

func TestFig2ComprehensionTranslation(t *testing.T) {
	// {e1 | \x <- e2} translates to U{ {e1} | x in e2 }.
	core := pipe(t, `{x + 1 | \x <- S}`)
	want := &ast.BigUnion{
		Head: &ast.Singleton{Elem: &ast.Arith{Op: ast.OpAdd, L: &ast.Var{Name: "x"}, R: &ast.NatLit{Val: 1}}},
		Var:  "x",
		Over: &ast.Var{Name: "S"},
	}
	if !ast.AlphaEqual(core, want) {
		t.Errorf("got %s, want %s", core, want)
	}
}

func TestFig2FilterTranslation(t *testing.T) {
	// {e1 | e2} => if e2 then {e1} else {}
	core := pipe(t, `{x | x > 2}`)
	want := &ast.If{
		Cond: &ast.Cmp{Op: ast.OpGt, L: &ast.Var{Name: "x"}, R: &ast.NatLit{Val: 2}},
		Then: &ast.Singleton{Elem: &ast.Var{Name: "x"}},
		Else: &ast.Empty{},
	}
	if !ast.AlphaEqual(core, want) {
		t.Errorf("got %s, want %s", core, want)
	}
}

func TestFig2EmptyQualifiers(t *testing.T) {
	// {e | } has no qualifier syntax in the grammar; a literal {e} is the
	// same thing.
	core := pipe(t, `{42}`)
	want := &ast.Singleton{Elem: &ast.NatLit{Val: 42}}
	if !ast.AlphaEqual(core, want) {
		t.Errorf("got %s, want %s", core, want)
	}
}

// --- Comprehension semantics end to end -------------------------------------

func TestCartesianProduct(t *testing.T) {
	// {(x,y) | \x <- A, \y <- B} (section 3's A × B).
	A := object.Set(object.Nat(1), object.Nat(2))
	B := object.Set(object.Nat(10), object.Nat(20))
	want := object.Set(
		object.Tuple(object.Nat(1), object.Nat(10)),
		object.Tuple(object.Nat(1), object.Nat(20)),
		object.Tuple(object.Nat(2), object.Nat(10)),
		object.Tuple(object.Nat(2), object.Nat(20)))
	expectVal(t, `{(x,y) | \x <- A, \y <- B}`, map[string]object.Value{"A": A, "B": B}, want)
}

func TestIntersectionViaMem(t *testing.T) {
	// {x | \x <- A, x mem B} (section 3's A ∩ B).
	A := object.Set(object.Nat(1), object.Nat(2), object.Nat(3))
	B := object.Set(object.Nat(2), object.Nat(3), object.Nat(4))
	want := object.Set(object.Nat(2), object.Nat(3))
	expectVal(t, `{x | \x <- A, x mem B}`, map[string]object.Value{"A": A, "B": B}, want)
}

func TestNaturalJoinWithPatterns(t *testing.T) {
	// {(x, y, z) | (\x, \y) <- R, (y, \z) <- S} — the paper's join example.
	R := object.Set(
		object.Tuple(object.Nat(1), object.Nat(10)),
		object.Tuple(object.Nat(2), object.Nat(20)))
	S := object.Set(
		object.Tuple(object.Nat(10), object.String_("a")),
		object.Tuple(object.Nat(30), object.String_("b")))
	want := object.Set(object.Tuple(object.Nat(1), object.Nat(10), object.String_("a")))
	expectVal(t, `{(x, y, z) | (\x, \y) <- R, (y, \z) <- S}`,
		map[string]object.Value{"R": R, "S": S}, want)
}

func TestConstantPattern(t *testing.T) {
	// {x | (_, 0, \x) <- R} — the paper's constant-pattern example.
	R := object.Set(
		object.Tuple(object.Nat(1), object.Nat(0), object.String_("keep")),
		object.Tuple(object.Nat(2), object.Nat(5), object.String_("drop")))
	want := object.Set(object.String_("keep"))
	expectVal(t, `{x | (_, 0, \x) <- R}`, map[string]object.Value{"R": R}, want)
}

func TestBindingShorthand(t *testing.T) {
	// \y == e binds y to the value of e.
	want := object.Set(object.Nat(9))
	expectVal(t, `{y | \x == 2, \y == x*x+5}`, nil, want)
}

func TestNestWithPatterns(t *testing.T) {
	// nest = λ\X. {(x, {y | (x, \y) <- X}) | (\x, _) <- X} (section 3).
	X := object.Set(
		object.Tuple(object.Nat(1), object.String_("a")),
		object.Tuple(object.Nat(1), object.String_("b")),
		object.Tuple(object.Nat(2), object.String_("c")))
	want := object.Set(
		object.Tuple(object.Nat(1), object.Set(object.String_("a"), object.String_("b"))),
		object.Tuple(object.Nat(2), object.Set(object.String_("c"))))
	expectVal(t, `(fn \X => {(x, {y | (x, \y) <- X}) | (\x, _) <- X})!X`,
		map[string]object.Value{"X": X}, want)
}

func TestArrayGenerator1D(t *testing.T) {
	// {i | [\i : \x] <- A, x > 90} — positions with values over 90.
	A := object.NatVector(95, 10, 99, 50)
	want := object.Set(object.Nat(0), object.Nat(2))
	expectVal(t, `{i | [\i : \x] <- A, x > 90}`, map[string]object.Value{"A": A}, want)
}

func TestArrayGenerator3D(t *testing.T) {
	// The session query's generator shape: [(\h,_,_) : \t] <- T over a
	// 3-dimensional array.
	data := make([]object.Value, 4)
	for i := range data {
		data[i] = object.Real(float64(80 + i*2)) // 80, 82, 84, 86
	}
	T := object.MustArray([]int{4, 1, 1}, data)
	want := object.Set(object.Nat(3)) // only T[3,0,0] = 86 > 85
	expectVal(t, `{h | [(\h,_,_) : \t] <- T, t > 85.0}`, map[string]object.Value{"T": T}, want)
}

func TestBagComprehension(t *testing.T) {
	// Bag comprehensions preserve multiplicity.
	B := object.Bag(object.Nat(1), object.Nat(1), object.Nat(2))
	want := object.Bag(object.Nat(2), object.Nat(2), object.Nat(4))
	expectVal(t, `{| x * 2 | \x <- B |}`, map[string]object.Value{"B": B}, want)
}

// --- Lambda patterns, let blocks ----------------------------------------------

func TestFnPatterns(t *testing.T) {
	expectVal(t, `(fn \x => x + 1)!41`, nil, object.Nat(42))
	expectVal(t, `(fn (\a, \b) => a * b)!(6, 7)`, nil, object.Nat(42))
	expectVal(t, `(fn (\a, (\b, \c)) => a + b * c)!(2, (4, 10))`, nil, object.Nat(42))
	expectVal(t, `(fn _ => 5)!99`, nil, object.Nat(5))
	expectVal(t, `(fn (\a, _, \c) => a + c)!(1, 100, 2)`, nil, object.Nat(3))
}

func TestFnPatternRejectsConstants(t *testing.T) {
	se, err := parser.ParseExpr(`fn (\a, 0) => a`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Expr(se); err == nil {
		t.Error("constants in lambda patterns should be rejected")
	}
}

func TestLetBlocks(t *testing.T) {
	expectVal(t, `let val \x = 6 in x * 7 end`, nil, object.Nat(42))
	expectVal(t, `let val \x = 2 val \y = x + 3 in x * y end`, nil, object.Nat(10))
	expectVal(t, `let val (\a, \b) = (3, 4) in a * a + b * b end`, nil, object.Nat(25))
}

// --- Operators, specials ----------------------------------------------------

func TestLogicalOperators(t *testing.T) {
	expectVal(t, `true and false`, nil, object.False)
	expectVal(t, `true or false`, nil, object.True)
	expectVal(t, `not true`, nil, object.False)
	expectVal(t, `1 < 2 and 2 < 3`, nil, object.True)
	// and/or are macros over if, so they short-circuit: the second operand
	// of `false and X` is never evaluated.
	expectVal(t, `false and (1 / 0 = 1)`, nil, object.False)
	expectVal(t, `true or (1 / 0 = 1)`, nil, object.True)
}

func TestCoreConstructNames(t *testing.T) {
	expectVal(t, `gen!3`, nil, object.Set(object.Nat(0), object.Nat(1), object.Nat(2)))
	expectVal(t, `get!{7}`, nil, object.Nat(7))
	expectVal(t, `len![[4, 5, 6]]`, nil, object.Nat(3))
	M := object.MustArray([]int{2, 3}, make([]object.Value, 6))
	expectVal(t, `dim_2!M`, map[string]object.Value{"M": M}, object.Tuple(object.Nat(2), object.Nat(3)))
	expectVal(t, `dim_1_2!M`, map[string]object.Value{"M": M}, object.Nat(2))
	expectVal(t, `dim_2_2!M`, map[string]object.Value{"M": M}, object.Nat(3))
	expectVal(t, `pi_1_2!(8, 9)`, nil, object.Nat(8))
	expectVal(t, `pi_2_2!(8, 9)`, nil, object.Nat(9))
	// index_1 groups by key with holes (the paper's example).
	expectVal(t, `index_1!{(1, "a"), (3, "b"), (1, "c")}`, nil,
		object.Vector(object.EmptySet,
			object.Set(object.String_("a"), object.String_("c")),
			object.EmptySet, object.Set(object.String_("b"))))
	// graph is the inverse direction.
	expectVal(t, `graph![[7, 8]]`, nil,
		object.Set(object.Tuple(object.Nat(0), object.Nat(7)),
			object.Tuple(object.Nat(1), object.Nat(8))))
}

func TestSummap(t *testing.T) {
	// summap(f)!e = Σ{f(x) | x ∈ e} (section 4.2).
	expectVal(t, `summap(fn \i => i * i)!(gen!4)`, nil, object.Nat(14))
}

func TestSubscripts(t *testing.T) {
	A := object.NatVector(10, 20, 30)
	expectVal(t, `A[1]`, map[string]object.Value{"A": A}, object.Nat(20))
	M := object.MustArray([]int{2, 2}, []object.Value{
		object.Nat(1), object.Nat(2), object.Nat(3), object.Nat(4)})
	expectVal(t, `M[1, 0]`, map[string]object.Value{"M": M}, object.Nat(3))
	got := evalSrc(t, `A[7]`, map[string]object.Value{"A": A})
	if !got.IsBottom() {
		t.Errorf("A[7] = %s, want bottom", got)
	}
}

func TestArrayLiterals(t *testing.T) {
	expectVal(t, `[[1, 2, 3]]`, nil, object.NatVector(1, 2, 3))
	expectVal(t, `[[]]`, nil, object.Vector())
	expectVal(t, `[[2, 2; 1, 2, 3, 4]]`, nil, object.MustArray([]int{2, 2},
		[]object.Value{object.Nat(1), object.Nat(2), object.Nat(3), object.Nat(4)}))
	// Dimensions may be computed.
	expectVal(t, `[[1+1; 5, 6]]`, nil, object.NatVector(5, 6))
}

func TestMonthsMacroBody(t *testing.T) {
	// The days_since_1_1 macro body from the session (section 4.2), with
	// months inline.
	src := `let val \months = [[0,31,28,31,30,31,30,31,31,30,31,30]] in
	        (fn (\m, \d, \y) =>
	           d + summap(fn \i => months[i])!(gen!m) +
	           if m > 2 and y % 4 = 0 then 1 else 0)!(6, 1, 96)
	        end`
	// days since Jan 1 for June 1 in a leap year 96: 0+31+28+31+30+31 = 151,
	// +1 for d, +1 leap = 153.
	expectVal(t, src, nil, object.Nat(153))
}

// --- The motivating example (E4), reduced --------------------------------------

func TestMotivatingQueryShape(t *testing.T) {
	// A scaled-down version of the introduction's query over 3 "days" of
	// 4 "hours": the structure (generators, bindings, external predicate)
	// is identical; heatindex is just a sum here.
	T := object.RealVector(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)
	heatindex := object.Func(func(v object.Value) (object.Value, error) {
		total := 0.0
		for _, x := range v.Elems {
			f, err := x.AsReal()
			if err != nil {
				return object.Value{}, err
			}
			total += f
		}
		return object.Real(total), nil
	})
	subseq := object.Func(func(v object.Value) (object.Value, error) {
		arr := v.Elems[0]
		i, _ := v.Elems[1].AsNat()
		j, _ := v.Elems[2].AsNat()
		n := int(j - i + 1)
		data := make([]object.Value, 0, n)
		for k := int(i); k <= int(j) && k < len(arr.Elems); k++ {
			data = append(data, arr.Elems[k])
		}
		return object.Vector(data...), nil
	})
	src := `{d | \d <- gen!3,
	          \A == subseq!(T, d*4, d*4+3),
	          heatindex!(A) > 25.0}`
	got := evalSrc(t, src, map[string]object.Value{
		"T": T, "heatindex": heatindex, "subseq": subseq})
	// Day sums: 1+2+3+4=10, 5+6+7+8=26, 9+10+11+12=42. Days 1 and 2 exceed 25.
	want := object.Set(object.Nat(1), object.Nat(2))
	if !object.Equal(got, want) {
		t.Errorf("query = %s, want %s", got, want)
	}
}

func TestSurfaceTabulation(t *testing.T) {
	expectVal(t, `[[ i * 2 | \i < 4 ]]`, nil, object.NatVector(0, 2, 4, 6))
	got := evalSrc(t, `[[ i * 10 + j | \i < 2, \j < 3 ]]`, nil)
	want := object.MustArray([]int{2, 3}, []object.Value{
		object.Nat(0), object.Nat(1), object.Nat(2),
		object.Nat(10), object.Nat(11), object.Nat(12)})
	if !object.Equal(got, want) {
		t.Errorf("2-d tabulation = %s, want %s", got, want)
	}
	// The paper's subseq as a one-liner.
	A := object.NatVector(10, 20, 30, 40, 50)
	expectVal(t, `(fn (\A, \i, \j) => [[ A[i+k] | \k < (j+1)-i ]])!(A, 1, 3)`,
		map[string]object.Value{"A": A}, object.NatVector(20, 30, 40))
}
