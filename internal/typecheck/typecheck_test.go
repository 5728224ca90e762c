package typecheck

import (
	"strings"
	"testing"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/desugar"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/parser"
	"github.com/aqldb/aql/internal/types"
)

// BuiltinTypes mirrors eval.Builtins for the checker.
func builtinTypes() map[string]*types.Type {
	return map[string]*types.Type{
		"min":    types.MustParse("{'a} -> 'a"),
		"max":    types.MustParse("{'a} -> 'a"),
		"member": types.MustParse("'a * {'a} -> bool"),
		"not":    types.MustParse("bool -> bool"),
		"count":  types.MustParse("{'a} -> nat"),
	}
}

// inferSrc parses, desugars and infers the type of src.
func inferSrc(t *testing.T, src string, globals map[string]*types.Type) (*types.Type, error) {
	t.Helper()
	se, err := parser.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	core, err := desugar.Expr(se)
	if err != nil {
		t.Fatalf("desugar %q: %v", src, err)
	}
	g := builtinTypes()
	for k, v := range globals {
		g[k] = v
	}
	return Infer(core, g)
}

func wantType(t *testing.T, src, want string, globals map[string]*types.Type) {
	t.Helper()
	got, err := inferSrc(t, src, globals)
	if err != nil {
		t.Fatalf("Infer(%q): %v", src, err)
	}
	if got.String() != want {
		t.Errorf("Infer(%q) = %s, want %s", src, got, want)
	}
}

func wantError(t *testing.T, src, fragment string, globals map[string]*types.Type) {
	t.Helper()
	got, err := inferSrc(t, src, globals)
	if err == nil {
		t.Fatalf("Infer(%q) = %s, want error containing %q", src, got, fragment)
	}
	if !strings.Contains(err.Error(), fragment) {
		t.Errorf("Infer(%q) error = %q, want fragment %q", src, err, fragment)
	}
}

func TestLiteralTypes(t *testing.T) {
	wantType(t, "42", "nat", nil)
	wantType(t, "85.0", "real", nil)
	wantType(t, `"hello"`, "string", nil)
	wantType(t, "true", "bool", nil)
	wantType(t, "(1, true)", "nat * bool", nil)
	wantType(t, "{1, 2}", "{nat}", nil)
	wantType(t, "{|1|}", "{|nat|}", nil)
	wantType(t, "[[1, 2, 3]]", "[[nat]]", nil)
	wantType(t, "[[2, 2; 1.0, 2.0, 3.0, 4.0]]", "[[real]]_2", nil)
}

func TestFunctionTypes(t *testing.T) {
	wantType(t, `fn \x => x + 1`, "nat -> nat", nil)
	wantType(t, `fn (\a, \b) => a * b + 0.0`, "(real * real) -> real", nil)
	wantType(t, `fn \x => {x}`, "'t1 -> {'t1}", nil)
	wantType(t, `(fn \x => x + 1)!41`, "nat", nil)
}

func TestComprehensionTypes(t *testing.T) {
	wantType(t, `{x + 1 | \x <- gen!10}`, "{nat}", nil)
	wantType(t, `{(x, y) | \x <- gen!2, \y <- gen!3}`, "{nat * nat}", nil)
	wantType(t, `{x | \x <- gen!10, x > 5}`, "{nat}", nil)
}

func TestArrayConstructTypes(t *testing.T) {
	M := types.MustParse("[[real]]_2")
	wantType(t, "dim_2!M", "nat * nat", map[string]*types.Type{"M": M})
	wantType(t, "M[1, 2]", "real", map[string]*types.Type{"M": M})
	wantType(t, "len![[1]]", "nat", nil)
	wantType(t, `index_1!{(1, "a")}`, "[[{string}]]", nil)
	wantType(t, `index_2!{((1, 2), "a")}`, "[[{string}]]_2", nil)
	wantType(t, `summap(fn \i => i)!(gen!5)`, "nat", nil)
	// Tabulation via a surface comprehension is not array syntax; check the
	// core node directly.
	tab := &ast.ArrayTab{
		Head:   &ast.Var{Name: "i"},
		Idx:    []string{"i", "j"},
		Bounds: []ast.Expr{&ast.NatLit{Val: 2}, &ast.NatLit{Val: 3}},
	}
	typ, err := Infer(tab, nil)
	if err != nil {
		t.Fatal(err)
	}
	if typ.String() != "[[nat]]_2" {
		t.Errorf("tabulation type = %s", typ)
	}
}

func TestNumericDefaulting(t *testing.T) {
	// x + x with x otherwise unconstrained defaults to nat.
	wantType(t, `fn \x => x + x`, "nat -> nat", nil)
	// But a real literal forces real.
	wantType(t, `fn \x => x + 1.5`, "real -> real", nil)
}

func TestPolymorphicGlobals(t *testing.T) {
	// min is used at two different element types in one query.
	wantType(t, `(min!{1, 2}, min!{"a", "b"})`, "nat * string", nil)
}

func TestSessionMacroType(t *testing.T) {
	// The paper reports: typ days_since_1_1 : nat * nat * nat -> nat.
	months := types.MustParse("[[nat]]")
	src := `fn (\m,\d,\y) =>
	          d + summap(fn \i => months[i])!(gen!m) +
	          if m > 2 and y % 4 = 0 then 1 else 0`
	wantType(t, src, "(nat * nat * nat) -> nat", map[string]*types.Type{"months": months})
}

func TestSessionQueryType(t *testing.T) {
	// The paper reports: typ it : {nat}.
	globals := map[string]*types.Type{
		"T":           types.MustParse("[[real]]_3"),
		"june_sunset": types.MustParse("(real * real * nat) -> nat"),
		"NYlat":       types.Real,
		"NYlon":       types.Real,
	}
	src := `{d | [(\h,_,_):\t] <- T, \d == h/24+1,
	          h > june_sunset!(NYlat, NYlon, d), t > 85.0}`
	wantType(t, src, "{nat}", globals)
}

func TestTypeErrors(t *testing.T) {
	wantError(t, `1 + true`, "cannot unify", nil)
	wantError(t, `if 1 then 2 else 3`, "if condition", nil)
	wantError(t, `if true then 1 else "s"`, "if branches", nil)
	wantError(t, `{1} = {|1|}`, "cannot unify", nil)
	wantError(t, `gen!true`, "gen", nil)
	wantError(t, `nope`, "unknown identifier", nil)
	wantError(t, `(fn \x => x!x)!(fn \x => x)`, "occurs check", nil)
	wantError(t, `min!{fn \x => x} < min!{fn \x => x}`, "orderable", nil)
	wantError(t, `1 + "s" + 2`, "cannot unify", nil)
	wantError(t, `summap(fn \x => "s")!(gen!3)`, "nat or real", nil)
	wantError(t, `[[1]][0, 1]`, "cannot unify", nil)
}

func TestBagTypes(t *testing.T) {
	wantType(t, `{| x | \x <- {|1, 2|} |}`, "{|nat|}", nil)
	wantError(t, `{| x | \x <- {1, 2} |}`, "cannot unify", nil)
}

func TestRankUnionType(t *testing.T) {
	e := &ast.RankUnion{
		Head:    &ast.Singleton{Elem: &ast.Tuple{Elems: []ast.Expr{&ast.Var{Name: "x"}, &ast.Var{Name: "i"}}}},
		Var:     "x",
		RankVar: "i",
		Over:    &ast.Gen{N: &ast.NatLit{Val: 5}},
	}
	typ, err := Infer(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	if typ.String() != "{nat * nat}" {
		t.Errorf("rank type = %s", typ)
	}
}

func TestTypeOf(t *testing.T) {
	tests := []struct {
		v    object.Value
		want string
	}{
		{object.Nat(1), "nat"},
		{object.Real(1), "real"},
		{object.True, "bool"},
		{object.String_("s"), "string"},
		{object.Tuple(object.Nat(1), object.Real(2)), "nat * real"},
		{object.Set(object.Nat(1)), "{nat}"},
		{object.Bag(object.Nat(1)), "{|nat|}"},
		{object.NatVector(1, 2), "[[nat]]"},
		{object.MustArray([]int{1, 1}, []object.Value{object.Real(0)}), "[[real]]_2"},
		{object.Base("temp", "x"), "temp"},
	}
	for _, tt := range tests {
		got, err := TypeOf(tt.v)
		if err != nil {
			t.Fatalf("TypeOf(%s): %v", tt.v, err)
		}
		if got.String() != tt.want {
			t.Errorf("TypeOf(%s) = %s, want %s", tt.v, got, tt.want)
		}
	}
}

func TestTypeOfEmptyAndNested(t *testing.T) {
	got, err := TypeOf(object.EmptySet)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != types.KindSet || got.Elem().Kind != types.KindVar {
		t.Errorf("TypeOf({}) = %s, want a set of a type variable", got)
	}
	// {{}, {1}} unifies element types to {nat}.
	v := object.Set(object.EmptySet, object.Set(object.Nat(1)))
	got, err = TypeOf(v)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != "{{nat}}" {
		t.Errorf("TypeOf({{},{1}}) = %s", got)
	}
	// Heterogeneous collections are rejected.
	if _, err := TypeOf(object.Set(object.Nat(1), object.True)); err == nil {
		t.Error("heterogeneous set should be rejected")
	}
	// Functions need explicit types.
	if _, err := TypeOf(object.Func(func(v object.Value) (object.Value, error) { return v, nil })); err == nil {
		t.Error("function values should be rejected")
	}
}

func TestEmptySetUsableAtAnyType(t *testing.T) {
	// An empty-set global can appear where {nat} is needed.
	empty, err := TypeOf(object.EmptySet)
	if err != nil {
		t.Fatal(err)
	}
	wantType(t, `count!(E union {1})`, "nat", map[string]*types.Type{"E": empty})
}

func TestMoreErrorPaths(t *testing.T) {
	wantError(t, `{1} union {|1|}`, "cannot unify", nil)
	wantError(t, `get!5`, "get", nil)
	wantError(t, `pi_1_2!5`, "projection", nil)
	wantError(t, `dim_2![[1, 2]]`, "dim_2", nil)
	wantError(t, `index_1!{1}`, "index_1", nil)
	wantError(t, `[[1, "a"]]`, "element", nil)
	wantError(t, `[[true; 1]]`, "dimension", nil)
	wantError(t, `{x | \x <- 5}`, "big union", nil)
	wantError(t, `summap(fn \x => x)!5`, "sum source", nil)
	wantError(t, `{| 1 | \x <- {|2|} |} union {1}`, "cannot unify", nil)
}

func TestSubscriptArityFromIndexTuple(t *testing.T) {
	// The array's type is unknown (lambda parameter); the tuple pins k.
	typ, err := inferSrc(t, `fn \M => M[1, 2, 3]`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if typ.String() != "[['t2]]_3 -> 't2" && typ.String()[:2] != "[[" {
		t.Errorf("type = %s", typ)
	}
	// A non-nat component in the index is rejected.
	wantError(t, `fn \M => M[1, true]`, "must be nat", nil)
}

func TestBottomTypesAsAnything(t *testing.T) {
	wantType(t, `if true then 1 else _|_`, "nat", nil)
	wantType(t, `_|_ union {1}`, "{nat}", nil)
}

// TestPolymorphicGlobalsInstantiate: a global whose stored type names the
// same variables a fresh checker hands out first ('t1, 't2: what Infer
// gives `val E = {}`) instantiates to fresh variables, numbered in order of
// first occurrence, instead of chasing 't1 to itself until the stack
// overflows.
func TestPolymorphicGlobalsInstantiate(t *testing.T) {
	globals := map[string]*types.Type{
		"E": types.MustParse("{'t1}"),
		"P": types.MustParse("'t1 * 't2"),
	}
	wantType(t, `E`, "{'t1}", globals)
	wantType(t, `P`, "'t1 * 't2", globals)
	wantType(t, `{1} union E`, "{nat}", globals)
	wantType(t, `(E, E)`, "{'t1} * {'t2}", globals)
	wantType(t, `(P, E)`, "('t1 * 't2) * {'t3}", globals)
	wantType(t, `pi_1_2!P + 1`, "nat", globals)
}
