package eval

import (
	"strings"
	"testing"

	"github.com/aqldb/aql/internal/object"
)

// callBuiltin applies the named builtin to v through the Builtins map, as
// the evaluator would.
func callBuiltin(t *testing.T, name string, v object.Value) (object.Value, error) {
	t.Helper()
	f, ok := Builtins()[name]
	if !ok {
		t.Fatalf("builtin %q not registered", name)
	}
	if f.Kind != object.KFunc {
		t.Fatalf("builtin %q is %s, want a function", name, f.Kind)
	}
	return f.Fn()(v)
}

func mustBuiltin(t *testing.T, name string, v object.Value) object.Value {
	t.Helper()
	out, err := callBuiltin(t, name, v)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return out
}

func nats(ns ...int64) []object.Value {
	vs := make([]object.Value, len(ns))
	for i, n := range ns {
		vs[i] = object.Nat(n)
	}
	return vs
}

func TestMinMax(t *testing.T) {
	s := object.Set(nats(5, 2, 9, 2)...)
	if got := mustBuiltin(t, "min", s); !object.Equal(got, object.Nat(2)) {
		t.Errorf("min = %s, want 2", got)
	}
	if got := mustBuiltin(t, "max", s); !object.Equal(got, object.Nat(9)) {
		t.Errorf("max = %s, want 9", got)
	}

	// Bags keep duplicates but are still sorted, so min/max work the same.
	b := object.Bag(nats(7, 3, 3, 7)...)
	if got := mustBuiltin(t, "min", b); !object.Equal(got, object.Nat(3)) {
		t.Errorf("bag min = %s, want 3", got)
	}
	if got := mustBuiltin(t, "max", b); !object.Equal(got, object.Nat(7)) {
		t.Errorf("bag max = %s, want 7", got)
	}
}

func TestMinMaxEmptyIsBottom(t *testing.T) {
	for _, name := range []string{"min", "max"} {
		for _, coll := range []object.Value{object.EmptySet, object.EmptyBag} {
			got := mustBuiltin(t, name, coll)
			if !got.IsBottom() {
				t.Errorf("%s of empty %s = %s, want ⊥", name, coll.Kind, got)
			}
		}
	}
}

func TestMinMaxKindError(t *testing.T) {
	for _, name := range []string{"min", "max"} {
		if _, err := callBuiltin(t, name, object.Nat(3)); err == nil {
			t.Errorf("%s of a nat: want a kind error", name)
		}
	}
}

func TestMember(t *testing.T) {
	s := object.Set(nats(1, 3, 5)...)
	cases := []struct {
		elem object.Value
		want bool
	}{
		{object.Nat(3), true},
		{object.Nat(4), false},
	}
	for _, tc := range cases {
		got := mustBuiltin(t, "member", object.Tuple(tc.elem, s))
		if !object.Equal(got, object.Bool(tc.want)) {
			t.Errorf("member(%s, %s) = %s, want %v", tc.elem, s, got, tc.want)
		}
	}
	if _, err := callBuiltin(t, "member", object.Nat(1)); err == nil {
		t.Error("member of a non-pair: want an error")
	}
}

func TestNot(t *testing.T) {
	if got := mustBuiltin(t, "not", object.Bool(true)); !object.Equal(got, object.Bool(false)) {
		t.Errorf("not true = %s", got)
	}
	if got := mustBuiltin(t, "not", object.Bool(false)); !object.Equal(got, object.Bool(true)) {
		t.Errorf("not false = %s", got)
	}
	if _, err := callBuiltin(t, "not", object.Nat(0)); err == nil {
		t.Error("not of a nat: want an error")
	}
}

func TestCount(t *testing.T) {
	if got := mustBuiltin(t, "count", object.Set(nats(4, 4, 7)...)); !object.Equal(got, object.Nat(2)) {
		t.Errorf("count of {4,7} = %s, want 2 (sets deduplicate)", got)
	}
	// Bags count multiplicities.
	if got := mustBuiltin(t, "count", object.Bag(nats(4, 4, 7)...)); !object.Equal(got, object.Nat(3)) {
		t.Errorf("count of {|4,4,7|} = %s, want 3", got)
	}
	if got := mustBuiltin(t, "count", object.EmptySet); !object.Equal(got, object.Nat(0)) {
		t.Errorf("count of {} = %s, want 0", got)
	}
	if _, err := callBuiltin(t, "count", object.Bool(true)); err == nil {
		t.Error("count of a bool: want an error")
	}
}

func TestRank(t *testing.T) {
	got := mustBuiltin(t, "rank", object.Set(nats(30, 10, 20)...))
	want := object.Set(
		object.Tuple(object.Nat(10), object.Nat(1)),
		object.Tuple(object.Nat(20), object.Nat(2)),
		object.Tuple(object.Nat(30), object.Nat(3)),
	)
	if !object.Equal(got, want) {
		t.Errorf("rank = %s, want %s", got, want)
	}
	if got := mustBuiltin(t, "rank", object.EmptySet); !object.Equal(got, object.EmptySet) {
		t.Errorf("rank of {} = %s, want {}", got)
	}
	if _, err := callBuiltin(t, "rank", object.Bag(nats(1)...)); err == nil {
		t.Error("rank of a bag: want an error (ranking is defined on sets)")
	}
}

// TestBuiltinErrorsNameTheBuiltin pins the error convention: a kind
// mismatch names the builtin so REPL diagnostics point at the call site.
func TestBuiltinErrorsNameTheBuiltin(t *testing.T) {
	for _, name := range []string{"min", "max", "member", "not", "count", "rank"} {
		_, err := callBuiltin(t, name, object.String_("nope"))
		if err == nil {
			t.Errorf("%s(string): want an error", name)
			continue
		}
		if !strings.HasPrefix(err.Error(), name+":") {
			t.Errorf("%s error %q does not name the builtin", name, err)
		}
	}
}
