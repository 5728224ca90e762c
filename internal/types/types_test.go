package types

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestStringRendering(t *testing.T) {
	tests := []struct {
		typ  *Type
		want string
	}{
		{Bool, "bool"},
		{Nat, "nat"},
		{Real, "real"},
		{String, "string"},
		{Unit, "unit"},
		{Base("temp"), "temp"},
		{Set(Nat), "{nat}"},
		{Bag(Nat), "{|nat|}"},
		{Array(Real, 1), "[[real]]"},
		{Array(Real, 3), "[[real]]_3"},
		{Tuple(Nat, Bool), "nat * bool"},
		{Tuple(Nat, Tuple(Bool, Real)), "nat * (bool * real)"},
		{Func(Nat, Bool), "nat -> bool"},
		{Func(Tuple(Real, Real, Nat), Nat), "(real * real * nat) -> nat"},
		{Func(Nat, Func(Nat, Nat)), "nat -> nat -> nat"},
		{Func(Func(Nat, Nat), Nat), "(nat -> nat) -> nat"},
		{Set(Tuple(Nat, Set(Nat))), "{nat * {nat}}"},
		{Array(Tuple(Real, Real, Real), 2), "[[real * real * real]]_2"},
		{Var("a"), "'a"},
	}
	for _, tt := range tests {
		if got := tt.typ.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	srcs := []string{
		"bool", "nat", "real", "string", "temp",
		"{nat}", "{|nat|}", "[[real]]", "[[real]]_3",
		"nat * bool", "nat * (bool * real)", "nat * bool * real",
		"nat -> bool", "(real * real * nat) -> nat",
		"nat -> nat -> nat", "(nat -> nat) -> nat",
		"{nat * {nat}}", "[[real * real * real]]_2",
		"[[{nat}]]_2", "{[[nat]]_4}", "'a", "'a -> {'b}",
	}
	for _, src := range srcs {
		typ, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		back, err := Parse(typ.String())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", typ.String(), err)
		}
		if !Equal(typ, back) {
			t.Errorf("round trip of %q: got %s then %s", src, typ, back)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "{nat", "[[nat]", "[[nat]]_0", "nat *", "-> nat", "(nat", "{|nat}", "nat )", "'",
	}
	for _, src := range bad {
		if typ, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) = %s, want error", src, typ)
		}
	}
}

func TestEqual(t *testing.T) {
	a := Array(Tuple(Nat, Real), 2)
	b := Array(Tuple(Nat, Real), 2)
	if !Equal(a, b) {
		t.Error("structurally equal arrays reported unequal")
	}
	if Equal(a, Array(Tuple(Nat, Real), 3)) {
		t.Error("arrays of different dimensionality reported equal")
	}
	if Equal(Set(Nat), Bag(Nat)) {
		t.Error("set and bag reported equal")
	}
	if Equal(Base("a"), Base("b")) {
		t.Error("distinct base types reported equal")
	}
	if Equal(nil, Nat) || !Equal(nil, nil) {
		t.Error("nil handling wrong")
	}
}

func TestTupleConventions(t *testing.T) {
	if Tuple() != Unit {
		t.Error("0-ary tuple should be Unit")
	}
	if Tuple(Nat) != Nat {
		t.Error("1-ary tuple should be its component")
	}
	if got := Tuple(Nat, Nat).Arity(); got != 2 {
		t.Errorf("Arity = %d, want 2", got)
	}
	if got := Nat.Arity(); got != 1 {
		t.Errorf("Arity(nat) = %d, want 1", got)
	}
	if got := Unit.Arity(); got != 0 {
		t.Errorf("Arity(unit) = %d, want 0", got)
	}
}

func TestNatTuple(t *testing.T) {
	if NatTuple(1) != Nat {
		t.Error("NatTuple(1) should be Nat")
	}
	want := Tuple(Nat, Nat, Nat)
	if !Equal(NatTuple(3), want) {
		t.Errorf("NatTuple(3) = %s, want %s", NatTuple(3), want)
	}
}

func TestIsObjectAndOrderable(t *testing.T) {
	if !Set(Tuple(Nat, Array(Real, 2))).IsObject() {
		t.Error("nested object type reported non-object")
	}
	if Func(Nat, Nat).IsObject() {
		t.Error("function type reported object")
	}
	if Set(Func(Nat, Nat)).IsObject() {
		t.Error("set of functions reported object")
	}
	if !Array(Set(Nat), 2).Orderable() {
		t.Error("array of sets should be orderable")
	}
	if Var("a").Orderable() {
		t.Error("type variable should not be orderable")
	}
}

func TestUnify(t *testing.T) {
	var u Unifier
	// 'a * nat  ~  bool * 'b
	a, b := Var("a"), Var("b")
	if err := u.Unify(Tuple(a, Nat), Tuple(Bool, b)); err != nil {
		t.Fatalf("Unify: %v", err)
	}
	if got := Resolve(a); !Equal(got, Bool) {
		t.Errorf("'a = %s, want bool", got)
	}
	if got := Resolve(b); !Equal(got, Nat) {
		t.Errorf("'b = %s, want nat", got)
	}
}

func TestUnifyTransitive(t *testing.T) {
	var u Unifier
	a, b := Var("a"), Var("b")
	if err := u.Unify(a, b); err != nil {
		t.Fatal(err)
	}
	if err := u.Unify(b, Set(Nat)); err != nil {
		t.Fatal(err)
	}
	if got := Resolve(a); !Equal(got, Set(Nat)) {
		t.Errorf("'a = %s, want {nat}", got)
	}
}

func TestUnifyOccursCheck(t *testing.T) {
	var u Unifier
	a := Var("a")
	if err := u.Unify(a, Set(a)); err == nil {
		t.Error("expected occurs-check failure for 'a ~ {'a}")
	}
}

func TestUnifyMismatch(t *testing.T) {
	cases := [][2]*Type{
		{Nat, Bool},
		{Set(Nat), Bag(Nat)},
		{Array(Nat, 1), Array(Nat, 2)},
		{Tuple(Nat, Nat), Tuple(Nat, Nat, Nat)},
		{Base("a"), Base("b")},
	}
	for _, c := range cases {
		var u Unifier
		if err := u.Unify(c[0], c[1]); err == nil {
			t.Errorf("Unify(%s, %s) succeeded, want error", c[0], c[1])
		}
	}
}

// TestUnifyFailureUnlinks: a failed Unify leaves every variable unbound
// that it found unbound, so its error text and the types printed after it
// read as they were before the call.
func TestUnifyFailureUnlinks(t *testing.T) {
	var u Unifier
	a, b := Var("a"), Var("b")
	want := Tuple(a, b, Nat)
	err := u.Unify(want, Tuple(Bool, Set(Nat), Real))
	if err == nil {
		t.Fatal("Unify succeeded, want a mismatch")
	}
	const text = "cannot unify nat with real (while unifying 'a * 'b * nat with bool * {nat} * real)"
	if err.Error() != text {
		t.Errorf("error = %q, want %q", err, text)
	}
	if got := want.String(); got != "'a * 'b * nat" {
		t.Errorf("after the failure the type reads %s", got)
	}
}

// TestSubstApplyIdempotentOnGround: resolving a ground type returns it
// unchanged, the same pointer, as does renaming it.
func TestSubstApplyIdempotentOnGround(t *testing.T) {
	g := Array(Tuple(Real, Set(Bool)), 2)
	if Resolve(g) != g {
		t.Error("Resolve should return ground types unchanged (same pointer)")
	}
	var r Renamer
	if r.Apply(g, nil) != g {
		t.Error("Renamer.Apply should return ground types unchanged (same pointer)")
	}
}

// TestNumberedVarNames: a numbered variable prints, compares and renames
// as the variable of its formatted name.
func TestNumberedVarNames(t *testing.T) {
	v := NumberedVar("t", 12)
	if v.String() != "'t12" {
		t.Errorf("NumberedVar(t, 12) prints %s", v)
	}
	if !Equal(v, Var("t12")) || Equal(v, Var("t1")) {
		t.Error("a numbered variable compares by its formatted name")
	}
	n := 0
	var r Renamer
	got := r.Apply(Tuple(v, Set(Var("t12")), Var("a")), func() *Type { n++; return NumberedVar("u", n) })
	if got.String() != "'u1 * {'u1} * 'u2" {
		t.Errorf("renamed = %s, want 'u1 * {'u1} * 'u2", got)
	}
}

// genType builds a deterministic ground type from a seed; used by the
// property test below.
func genType(seed uint64, depth int) *Type {
	bases := []*Type{Bool, Nat, Real, String, Base("b0"), Base("b1")}
	if depth <= 0 {
		return bases[seed%uint64(len(bases))]
	}
	switch seed % 5 {
	case 0:
		return bases[(seed/5)%uint64(len(bases))]
	case 1:
		return Set(genType(seed/5, depth-1))
	case 2:
		return Bag(genType(seed/5, depth-1))
	case 3:
		return Array(genType(seed/5, depth-1), int(seed/7%3)+1)
	default:
		return Tuple(genType(seed/5, depth-1), genType(seed/11, depth-1))
	}
}

func TestPropParsePrintIdentity(t *testing.T) {
	f := func(seed uint64) bool {
		typ := genType(seed, 4)
		back, err := Parse(typ.String())
		return err == nil && Equal(typ, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropUnifyReflexive(t *testing.T) {
	f := func(seed uint64) bool {
		typ := genType(seed, 4)
		var u Unifier
		return u.Unify(typ, typ) == nil && len(u.trail) == 0 && Resolve(typ) == typ
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestFreeVars(t *testing.T) {
	typ := Func(Var("a"), Set(Tuple(Var("b"), Var("a"))))
	vars := map[string]bool{}
	typ.FreeVars(vars)
	if len(vars) != 2 || !vars["a"] || !vars["b"] {
		t.Errorf("FreeVars = %v, want {a, b}", vars)
	}
	if !strings.Contains(typ.String(), "'a") {
		t.Errorf("variable rendering missing quote: %s", typ)
	}
}

// TestParseUnicodeBase: a base type's name is an identifier, read as UTF-8.
func TestParseUnicodeBase(t *testing.T) {
	typ, err := Parse("é")
	if err != nil || !Equal(typ, Base("é")) {
		t.Fatalf(`Parse("é") = %v, %v; want base type é`, typ, err)
	}
	for name, want := range map[string]bool{"é": true, "temp": true, "nat": false, "int": false, "1x": false, "-": false, "": false} {
		if got := IsBaseName(name); got != want {
			t.Errorf("IsBaseName(%q) = %v, want %v", name, got, want)
		}
	}
}
