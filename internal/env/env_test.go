package env

import (
	"strings"
	"testing"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/types"
)

func TestNewHasBuiltinsAndStandardPrims(t *testing.T) {
	e := New()
	globals := e.Globals()
	typesEnv := e.GlobalTypes()
	for _, name := range []string{"min", "max", "member", "not", "count",
		"heatindex", "sunset", "sqrt", "pow", "real", "trunc", "round"} {
		if _, ok := globals[name]; !ok {
			t.Errorf("global %q missing", name)
		}
		if _, ok := typesEnv[name]; !ok {
			t.Errorf("type for %q missing", name)
		}
	}
	if e.Optimizer == nil {
		t.Error("optimizer missing")
	}
}

func TestRegisterPrimitive(t *testing.T) {
	e := New()
	err := e.RegisterPrimitive("inc", func(v object.Value) (object.Value, error) {
		return object.Nat(v.N + 1), nil
	}, types.MustParse("nat -> nat"))
	if err != nil {
		t.Fatal(err)
	}
	fn, ok := e.Globals()["inc"]
	if !ok || fn.Kind != object.KFunc {
		t.Fatal("inc not registered")
	}
	got, err := fn.Fn()(object.Nat(41))
	if err != nil || got.N != 42 {
		t.Errorf("inc(41) = %v, %v", got, err)
	}
	// Non-function types are rejected.
	if err := e.RegisterPrimitive("bad", nil, types.Nat); err == nil {
		t.Error("non-function type accepted")
	}
	if err := e.RegisterPrimitive("bad", nil, nil); err == nil {
		t.Error("nil type accepted")
	}
}

func TestReadersAndWriters(t *testing.T) {
	e := New()
	if _, err := e.Reader("NOPE"); err == nil {
		t.Error("missing reader should error")
	}
	if _, err := e.Writer("NOPE"); err == nil {
		t.Error("missing writer should error")
	}
	e.RegisterReader("R", func(arg object.Value) (object.Value, error) {
		return arg, nil
	})
	r, err := e.Reader("R")
	if err != nil {
		t.Fatal(err)
	}
	v, err := r(object.Nat(7))
	if err != nil || v.N != 7 {
		t.Errorf("reader = %v, %v", v, err)
	}
	var wrote object.Value
	e.RegisterWriter("W", func(arg, data object.Value) error {
		wrote = data
		return nil
	})
	w, err := e.Writer("W")
	if err != nil {
		t.Fatal(err)
	}
	if err := w(object.Unit, object.Nat(9)); err != nil {
		t.Fatal(err)
	}
	if wrote.N != 9 {
		t.Errorf("writer captured %v", wrote)
	}
}

func TestValsShadowNothing(t *testing.T) {
	e := New()
	e.SetVal("X", object.Nat(3), types.Nat)
	if v, ok := e.Val("X"); !ok || v.N != 3 {
		t.Error("val not set")
	}
	if _, ok := e.Val("Y"); ok {
		t.Error("absent val found")
	}
	g := e.Globals()
	if g["X"].N != 3 {
		t.Error("val not in globals")
	}
	if e.GlobalTypes()["X"] != types.Nat {
		t.Error("val type not in global types")
	}
}

func TestMacroExpansion(t *testing.T) {
	e := New()
	// macro double = \x. x + x
	body := &ast.Lam{Param: "x", Body: &ast.Arith{
		Op: ast.OpAdd, L: &ast.Var{Name: "x"}, R: &ast.Var{Name: "x"}}}
	e.DefineMacro("double", body)
	q := &ast.App{Fn: &ast.Var{Name: "double"}, Arg: &ast.NatLit{Val: 5}}
	expanded := e.ExpandMacros(q)
	want := &ast.App{Fn: body, Arg: &ast.NatLit{Val: 5}}
	if !ast.AlphaEqual(expanded, want) {
		t.Errorf("expanded = %s, want %s", expanded, want)
	}
	// A bound occurrence of the macro name is not expanded.
	shadowed := &ast.Lam{Param: "double", Body: &ast.Var{Name: "double"}}
	if got := e.ExpandMacros(shadowed); !ast.AlphaEqual(got, shadowed) {
		t.Errorf("bound occurrence expanded: %s", got)
	}
}

func TestMacroExpansionDeterministic(t *testing.T) {
	e := New()
	e.DefineMacro("a", &ast.NatLit{Val: 1})
	e.DefineMacro("b", &ast.NatLit{Val: 2})
	q := &ast.Arith{Op: ast.OpAdd, L: &ast.Var{Name: "a"}, R: &ast.Var{Name: "b"}}
	first := e.ExpandMacros(q).String()
	for i := 0; i < 10; i++ {
		if got := e.ExpandMacros(q).String(); got != first {
			t.Fatal("expansion order nondeterministic")
		}
	}
}

func TestNames(t *testing.T) {
	e := New()
	e.SetVal("zzz_val", object.Nat(1), types.Nat)
	e.DefineMacro("zzz_macro", &ast.NatLit{Val: 1})
	names := e.Names()
	joined := strings.Join(names, ",")
	for _, want := range []string{"min", "heatindex", "zzz_val", "zzz_macro"} {
		if !strings.Contains(joined, want) {
			t.Errorf("Names() missing %q", want)
		}
	}
	// Sorted.
	for i := 1; i < len(names); i++ {
		if names[i-1] > names[i] {
			t.Fatal("Names() not sorted")
		}
	}
}
