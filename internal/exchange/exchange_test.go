package exchange

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/aqldb/aql/internal/object"
)

func roundTrip(t *testing.T, v object.Value) {
	t.Helper()
	s, err := WriteString(v)
	if err != nil {
		t.Fatalf("write %s: %v", v, err)
	}
	back, err := ReadString(s)
	if err != nil {
		t.Fatalf("read %q: %v", s, err)
	}
	if !object.Equal(v, back) {
		t.Errorf("round trip: %s -> %q -> %s", v, s, back)
	}
}

func TestRoundTripScalars(t *testing.T) {
	for _, v := range []object.Value{
		object.True, object.False,
		object.Nat(0), object.Nat(12345),
		object.Real(0), object.Real(-2.5), object.Real(6.02e23),
		object.String_(""), object.String_("hello \"world\"\n"),
		object.Base("temp", "hot"), object.Base("é", "x"),
		object.Bottom(""),
	} {
		roundTrip(t, v)
	}
}

func TestRoundTripStructures(t *testing.T) {
	for _, v := range []object.Value{
		object.Unit,
		object.Tuple(object.Nat(1), object.Bool(true), object.String_("x")),
		object.EmptySet,
		object.Set(object.Nat(3), object.Nat(1)),
		object.EmptyBag,
		object.Bag(object.Nat(1), object.Nat(1)),
		object.Vector(),
		object.NatVector(1, 2, 3),
		object.MustArray([]int{2, 3}, []object.Value{
			object.Nat(0), object.Nat(1), object.Nat(2),
			object.Nat(3), object.Nat(4), object.Nat(5)}),
		object.Set(object.Tuple(object.Nat(1), object.Set(object.String_("a")))),
		object.Vector(object.EmptySet, object.Set(object.Nat(1))),
		// A ⊥ diagnostic is a comment, and comments nest.
		object.Tuple(object.Bottom("a *) b"), object.Nat(1)),
		object.Tuple(object.Bottom("x (* y"), object.Nat(1)),
		object.Vector(object.Bottom("(*)"), object.Bottom("*)(*"), object.Bottom("f(*x*)"), object.Bottom("(")),
	} {
		roundTrip(t, v)
	}
}

func TestReadPaperLiterals(t *testing.T) {
	tests := []struct {
		src  string
		want object.Value
	}{
		{"[[0,31,28,31,30,31,30,31,31,30,31,30]]",
			object.NatVector(0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30)},
		{"{25,27,28}", object.Set(object.Nat(25), object.Nat(27), object.Nat(28))},
		{"(67.3, true)", object.Tuple(object.Real(67.3), object.True)},
		{"[[2, 2; 1, 2, 3, 4]]", object.MustArray([]int{2, 2},
			[]object.Value{object.Nat(1), object.Nat(2), object.Nat(3), object.Nat(4)})},
		// A base-type name is read as UTF-8, like every AQL identifier.
		{`é#"x"`, object.Base("é", "x")},
	}
	for _, tt := range tests {
		got, err := ReadString(tt.src)
		if err != nil {
			t.Fatalf("Read(%q): %v", tt.src, err)
		}
		if !object.Equal(got, tt.want) {
			t.Errorf("Read(%q) = %s, want %s", tt.src, got, tt.want)
		}
	}
}

func TestReadWhitespaceAndComments(t *testing.T) {
	src := ` { (* the hot days *) 25 , (* another *) 27 } `
	got, err := ReadString(src)
	if err != nil {
		t.Fatal(err)
	}
	if !object.Equal(got, object.Set(object.Nat(25), object.Nat(27))) {
		t.Errorf("got %s", got)
	}
}

func TestReadErrors(t *testing.T) {
	bad := []string{
		"", "{1, 2", "[[1, 2", "(1,)", "{1 2}", "[[2; 1]]", "[[2, 2; 1, 2, 3]]",
		"-5", "1e", "foo", `"unterminated`, "1 2", "[[0; ]] extra",
		// Numbers are scan.Number's, and only a real takes a '-'.
		"1_000", "+3", "0x1p4", ".5", "3.", "-0", "1_0.5",
		// A base value's name is an identifier the type syntax reads as a
		// base type.
		`nat#"3"`, `1#"x"`, `-#"x"`, "\xe9#\"x\"",
		// White space is ASCII: NBSP and NEL bytes separate nothing.
		"{1,\xa02}", "{1,\x852}",
		// A header's shape is checked against the cells read, and
		// allocates nothing.
		"[[1000000000; 1]]",
	}
	for _, src := range bad {
		if v, err := ReadString(src); err == nil {
			t.Errorf("Read(%q) = %s, want error", src, v)
		}
	}
	deep := strings.Repeat("(", MaxDepth+1) + "1" + strings.Repeat(")", MaxDepth+1)
	var le *LimitError
	if _, err := ReadString(deep); !errors.As(err, &le) || le.Kind != "depth" {
		t.Errorf("%d-deep nesting: got %v, want a depth *LimitError", MaxDepth+1, err)
	}
}

func TestFunctionNotSerializable(t *testing.T) {
	f := object.Func(func(v object.Value) (object.Value, error) { return v, nil })
	if _, err := WriteString(f); err == nil {
		t.Error("serializing a function should error")
	}
	if _, err := WriteString(object.Set(object.Nat(1)).Elems[0]); err != nil {
		t.Errorf("unexpected: %v", err)
	}
}

func TestRealAlwaysRereadsAsReal(t *testing.T) {
	// A real with integral value must not come back as a nat.
	s, err := WriteString(object.Real(3))
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadString(s)
	if err != nil {
		t.Fatal(err)
	}
	if back.Kind != object.KReal {
		t.Errorf("Real(3) round-tripped to kind %s via %q", back.Kind, s)
	}
}

// randomObject builds a random serializable object for the property test.
func randomObject(rng *rand.Rand, depth int) object.Value {
	kinds := 5
	if depth > 0 {
		kinds = 9
	}
	switch rng.Intn(kinds) {
	case 0:
		return object.Bool(rng.Intn(2) == 0)
	case 1:
		return object.Nat(int64(rng.Intn(1000)))
	case 2:
		return object.Real(float64(rng.Intn(1000)) / 8)
	case 3:
		return object.String_(strings.Repeat("ab\"\\", rng.Intn(3)))
	case 4:
		return object.Base("b", "lit")
	case 5:
		return object.Tuple(randomObject(rng, depth-1), randomObject(rng, depth-1))
	case 6:
		n := rng.Intn(4)
		elems := make([]object.Value, n)
		for i := range elems {
			elems[i] = randomObject(rng, depth-1)
		}
		return object.Set(elems...)
	case 7:
		n := rng.Intn(4)
		elems := make([]object.Value, n)
		for i := range elems {
			elems[i] = randomObject(rng, depth-1)
		}
		return object.Bag(elems...)
	default:
		rows, cols := rng.Intn(3)+1, rng.Intn(3)
		data := make([]object.Value, rows*cols)
		for i := range data {
			data[i] = randomObject(rng, depth-1)
		}
		return object.MustArray([]int{rows, cols}, data)
	}
}

func TestPropRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := randomObject(rng, 3)
		s, err := WriteString(v)
		if err != nil {
			return false
		}
		back, err := ReadString(s)
		return err == nil && object.Equal(v, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestWriteAllocsIndependentOfSize pins the wire encoder's allocations: a
// vector's text is appended into one buffer, so a call allocates a handful
// of times whatever its cell count.
func TestWriteAllocsIndependentOfSize(t *testing.T) {
	for _, n := range []int{500, 5000} {
		cells := make([]object.Value, n)
		for i := range cells {
			cells[i] = object.Nat(int64(i))
		}
		v := object.Vector(cells...)
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := WriteString(v); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d cells: %.0f allocs per WriteString", n, allocs)
		if allocs > 8 {
			t.Errorf("WriteString of %d cells: %.0f allocs, want at most 8", n, allocs)
		}
	}
}
