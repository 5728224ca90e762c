package object

import (
	"math"
	"math/rand"
	"testing"
)

func TestConstructors(t *testing.T) {
	if !Bool(true).B || Bool(false).B {
		t.Error("Bool payload wrong")
	}
	if Nat(5).N != 5 {
		t.Error("Nat payload wrong")
	}
	if Real(2.5).R != 2.5 {
		t.Error("Real payload wrong")
	}
	if String_("x").Str() != "x" {
		t.Error("String payload wrong")
	}
	if Tuple(Nat(1)).Kind != KNat {
		t.Error("1-ary tuple should collapse to its component")
	}
	if len(Tuple().Elems) != 0 || Tuple().Kind != KTuple {
		t.Error("0-ary tuple should be unit")
	}
}

func TestNatPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Nat(-1) should panic")
		}
	}()
	Nat(-1)
}

func TestBottom(t *testing.T) {
	b := Bottom("division by zero")
	if !b.IsBottom() {
		t.Error("IsBottom false")
	}
	if !Equal(b, Bottom("other message")) {
		t.Error("all bottoms should be equal as values")
	}
	if Nat(0).IsBottom() {
		t.Error("Nat(0) reported bottom")
	}
}

func TestSetCanonicalization(t *testing.T) {
	s := Set(Nat(3), Nat(1), Nat(3), Nat(2), Nat(1))
	if len(s.Elems) != 3 {
		t.Fatalf("set has %d elements, want 3", len(s.Elems))
	}
	for i, want := range []int64{1, 2, 3} {
		if s.Elems[i].N != want {
			t.Errorf("element %d = %d, want %d", i, s.Elems[i].N, want)
		}
	}
}

func TestSetEqualityIsExtensional(t *testing.T) {
	a := Set(Nat(1), Nat(2))
	b := Set(Nat(2), Nat(1), Nat(2))
	if !Equal(a, b) {
		t.Error("sets with same extension reported unequal")
	}
}

func TestBagPreservesMultiplicity(t *testing.T) {
	b := Bag(Nat(2), Nat(1), Nat(2))
	if len(b.Elems) != 3 {
		t.Fatalf("bag has %d elements, want 3", len(b.Elems))
	}
	if !Equal(b, Bag(Nat(1), Nat(2), Nat(2))) {
		t.Error("bags with same multiset reported unequal")
	}
	if Equal(b, Bag(Nat(1), Nat(2))) {
		t.Error("bags with different multiplicities reported equal")
	}
}

func TestUnion(t *testing.T) {
	a := Set(Nat(1), Nat(3))
	b := Set(Nat(2), Nat(3), Nat(4))
	u, err := Union(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(u, Set(Nat(1), Nat(2), Nat(3), Nat(4))) {
		t.Errorf("union = %s", u)
	}
	if _, err := Union(a, Nat(1)); err == nil {
		t.Error("union with non-set should error")
	}
}

func TestBagUnionAddsMultiplicities(t *testing.T) {
	a := Bag(Nat(1), Nat(2))
	b := Bag(Nat(2), Nat(3))
	u, err := BagUnion(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(u, Bag(Nat(1), Nat(2), Nat(2), Nat(3))) {
		t.Errorf("bag union = %s", u)
	}
}

func TestMember(t *testing.T) {
	s := Set(Nat(1), Nat(5), Nat(9))
	for _, tc := range []struct {
		n    int64
		want bool
	}{{1, true}, {5, true}, {9, true}, {0, false}, {4, false}, {10, false}} {
		got, err := Member(Nat(tc.n), s)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("Member(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	if got, _ := Member(Nat(1), EmptySet); got {
		t.Error("membership in empty set")
	}
}

func TestCompareTotalOrderProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	vals := make([]Value, 200)
	for i := range vals {
		vals[i] = randomValue(rng, 3)
	}
	for i := range vals {
		for j := range vals {
			cij, cji := Compare(vals[i], vals[j]), Compare(vals[j], vals[i])
			if cij != -cji {
				t.Fatalf("antisymmetry violated: %s vs %s: %d, %d", vals[i], vals[j], cij, cji)
			}
			if i == j && cij != 0 {
				t.Fatalf("reflexivity violated for %s", vals[i])
			}
		}
	}
	// Transitivity on triples.
	for n := 0; n < 2000; n++ {
		a, b, c := vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))]
		if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
			t.Fatalf("transitivity violated: %s <= %s <= %s but not a <= c", a, b, c)
		}
	}
}

// randomValue builds a random object of bounded depth for property tests.
func randomValue(rng *rand.Rand, depth int) Value {
	kinds := 5
	if depth > 0 {
		kinds = 8
	}
	switch rng.Intn(kinds) {
	case 0:
		return Bool(rng.Intn(2) == 0)
	case 1:
		return Nat(int64(rng.Intn(10)))
	case 2:
		return Real(float64(rng.Intn(100)) / 4)
	case 3:
		return String_(string(rune('a' + rng.Intn(4))))
	case 4:
		return Bottom("")
	case 5:
		n := rng.Intn(3)
		elems := make([]Value, n)
		for i := range elems {
			elems[i] = randomValue(rng, depth-1)
		}
		return Set(elems...)
	case 6:
		return Tuple(randomValue(rng, depth-1), randomValue(rng, depth-1))
	default:
		n := rng.Intn(4)
		elems := make([]Value, n)
		for i := range elems {
			elems[i] = randomValue(rng, depth-1)
		}
		return Vector(elems...)
	}
}

func TestArrayConstruction(t *testing.T) {
	a, err := Array([]int{2, 3}, []Value{Nat(0), Nat(1), Nat(2), Nat(3), Nat(4), Nat(5)})
	if err != nil {
		t.Fatal(err)
	}
	if a.Dims() != 2 || a.Size() != 6 {
		t.Errorf("dims=%d size=%d", a.Dims(), a.Size())
	}
	if _, err := Array([]int{2, 2}, []Value{Nat(0)}); err == nil {
		t.Error("shape/data mismatch should error")
	}
	if _, err := Array(nil, nil); err == nil {
		t.Error("0-dimensional array should error")
	}
	if _, err := Array([]int{-1}, nil); err == nil {
		t.Error("negative dimension should error")
	}
}

func TestSubscript(t *testing.T) {
	a := MustArray([]int{2, 3}, []Value{Nat(0), Nat(1), Nat(2), Nat(3), Nat(4), Nat(5)})
	// Row-major: a[i,j] = 3i + j.
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			v, err := Sub(a, []int{i, j})
			if err != nil {
				t.Fatal(err)
			}
			if v.N != int64(3*i+j) {
				t.Errorf("a[%d,%d] = %d, want %d", i, j, v.N, 3*i+j)
			}
		}
	}
	oob, err := Sub(a, []int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !oob.IsBottom() {
		t.Error("out-of-bounds subscript should yield bottom")
	}
	if _, err := Sub(a, []int{0}); err == nil {
		t.Error("arity mismatch should be an error, not bottom")
	}
}

func TestSubValue(t *testing.T) {
	v1 := NatVector(10, 20, 30)
	got, err := SubValue(v1, Nat(2))
	if err != nil || got.N != 30 {
		t.Errorf("v1[2] = %v, %v", got, err)
	}
	a := MustArray([]int{2, 2}, []Value{Nat(1), Nat(2), Nat(3), Nat(4)})
	got, err = SubValue(a, Tuple(Nat(1), Nat(0)))
	if err != nil || got.N != 3 {
		t.Errorf("a[1,0] = %v, %v", got, err)
	}
	if _, err := SubValue(a, Nat(0)); err == nil {
		t.Error("nat subscript into 2-d array should error")
	}
}

func TestDimValue(t *testing.T) {
	d, err := DimValue(NatVector(1, 2, 3))
	if err != nil || d.N != 3 {
		t.Errorf("len = %v, %v", d, err)
	}
	a := MustArray([]int{2, 5}, make([]Value, 10))
	d, err = DimValue(a)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(d, Tuple(Nat(2), Nat(5))) {
		t.Errorf("dim = %s", d)
	}
}

func TestTabulate(t *testing.T) {
	a, err := Tabulate([]int{3, 2}, func(idx []int) (Value, error) {
		return Nat(int64(10*idx[0] + idx[1])), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := MustArray([]int{3, 2}, []Value{Nat(0), Nat(1), Nat(10), Nat(11), Nat(20), Nat(21)})
	if !Equal(a, want) {
		t.Errorf("tabulate = %s, want %s", a, want)
	}
	empty, err := Tabulate([]int{0, 5}, func([]int) (Value, error) { return Nat(0), nil })
	if err != nil || empty.Size() != 0 {
		t.Errorf("empty tabulation: %v, %v", empty, err)
	}
}

func TestGraph(t *testing.T) {
	g, err := Graph(NatVector(7, 8))
	if err != nil {
		t.Fatal(err)
	}
	want := Set(Tuple(Nat(0), Nat(7)), Tuple(Nat(1), Nat(8)))
	if !Equal(g, want) {
		t.Errorf("graph = %s, want %s", g, want)
	}
	g2, err := Graph(MustArray([]int{1, 2}, []Value{Nat(5), Nat(6)}))
	if err != nil {
		t.Fatal(err)
	}
	want2 := Set(Tuple(Tuple(Nat(0), Nat(0)), Nat(5)), Tuple(Tuple(Nat(0), Nat(1)), Nat(6)))
	if !Equal(g2, want2) {
		t.Errorf("graph2 = %s, want %s", g2, want2)
	}
}

// TestIndexPaperExample checks the example from section 2:
// index({(1,"a"), (3,"b"), (1,"c")}) = [[{}, {"a","c"}, {}, {"b"}]].
func TestIndexPaperExample(t *testing.T) {
	s := Set(
		Tuple(Nat(1), String_("a")),
		Tuple(Nat(3), String_("b")),
		Tuple(Nat(1), String_("c")),
	)
	got, err := Index(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := Vector(EmptySet, Set(String_("a"), String_("c")), EmptySet, Set(String_("b")))
	if !Equal(got, want) {
		t.Errorf("index = %s, want %s", got, want)
	}
}

func TestIndexMultiDim(t *testing.T) {
	s := Set(
		Tuple(Tuple(Nat(0), Nat(1)), Nat(10)),
		Tuple(Tuple(Nat(1), Nat(0)), Nat(20)),
	)
	got, err := Index(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dims() != 2 || got.Shape[0] != 2 || got.Shape[1] != 2 {
		t.Fatalf("shape = %v, want [2 2]", got.Shape)
	}
	at := func(i, j int) Value {
		v, err := Sub(got, []int{i, j})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if !Equal(at(0, 1), Set(Nat(10))) || !Equal(at(1, 0), Set(Nat(20))) {
		t.Error("values misplaced")
	}
	if !Equal(at(0, 0), EmptySet) || !Equal(at(1, 1), EmptySet) {
		t.Error("holes not filled with {}")
	}
}

func TestIndexEmpty(t *testing.T) {
	got, err := Index(EmptySet, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != 0 {
		t.Errorf("index({}) has %d elements", got.Size())
	}
}

func TestStringFormat(t *testing.T) {
	tests := []struct {
		v    Value
		want string
	}{
		{Bool(true), "true"},
		{Nat(42), "42"},
		{Real(2.5), "2.5"},
		{Real(3), "3.0"},
		{String_("hi"), `"hi"`},
		{Tuple(Nat(1), Bool(false)), "(1, false)"},
		{Set(Nat(2), Nat(1)), "{1, 2}"},
		{Bag(Nat(1), Nat(1)), "{|1, 1|}"},
		{NatVector(1, 2, 3), "[[1, 2, 3]]"},
		{MustArray([]int{2, 2}, []Value{Nat(1), Nat(2), Nat(3), Nat(4)}), "[[2, 2; 1, 2, 3, 4]]"},
		{Bottom(""), "_|_"},
		{Base("temp", "hot"), `temp#"hot"`},
		{Bottom("a *) b (* c"), "_|_(* a * ) b ( * c *)"},
		// Reals at every boundary of the shortest %g form: where it turns
		// to an exponent, where an integral real needs its ".0", and the
		// values no exchange text can carry.
		{Real(1e-5), "1e-05"},
		{Real(1e-4), "0.0001"},
		{Real(1e5), "100000.0"},
		{Real(1e6), "1e+06"},
		{Real(123456), "123456.0"},
		{Real(1234567), "1.234567e+06"},
		{Real(1e20), "1e+20"},
		{Real(1e21), "1e+21"},
		{Real(0), "0.0"},
		{Real(-7), "-7.0"},
		{Real(1e15), "1e+15"},
		{Real(math.Copysign(0, -1)), "-0.0"},
		{Real(math.Inf(1)), "+Inf"},
		{Real(math.Inf(-1)), "-Inf"},
		{Real(math.NaN()), "NaN"},
	}
	for _, tt := range tests {
		if got := tt.v.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestPretty(t *testing.T) {
	months := NatVector(0, 31, 28, 31)
	got := months.Pretty(3)
	want := "[[(0):0, (1):31, (2):28, ...]]"
	if got != want {
		t.Errorf("Pretty = %q, want %q", got, want)
	}
	a := MustArray([]int{2, 2}, []Value{Nat(1), Nat(2), Nat(3), Nat(4)})
	got = a.Pretty(0)
	want = "[[(0,0):1, (0,1):2, (1,0):3, (1,1):4]]"
	if got != want {
		t.Errorf("Pretty 2d = %q, want %q", got, want)
	}
}

func TestAccessors(t *testing.T) {
	if _, err := Nat(1).AsBool(); err == nil {
		t.Error("AsBool on nat should error")
	}
	if f, err := Nat(3).AsReal(); err != nil || f != 3 {
		t.Error("nat should promote to real")
	}
	p, err := Tuple(Nat(1), Nat(2)).Proj(1)
	if err != nil || p.N != 2 {
		t.Errorf("Proj = %v, %v", p, err)
	}
	if _, err := Tuple(Nat(1), Nat(2)).Proj(5); err == nil {
		t.Error("out-of-range projection should error")
	}
	if _, err := Nat(0).Proj(0); err == nil {
		t.Error("projection from non-tuple should error")
	}
}

func TestCompareFunctionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("comparing functions should panic")
		}
	}()
	f := Func(func(v Value) (Value, error) { return v, nil })
	Compare(f, f)
}

func TestNumericCrossKindCompare(t *testing.T) {
	if Compare(Nat(2), Real(2.5)) != -1 {
		t.Error("2 < 2.5 expected")
	}
	if Compare(Real(2.0), Nat(2)) != 0 {
		t.Error("2.0 == 2 expected")
	}
}
