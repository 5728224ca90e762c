package object_test

import (
	"bytes"
	"context"
	"testing"
	"unsafe"

	"github.com/aqldb/aql/internal/exchange"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/tile"
)

// The layout of object.Value is a performance contract: every eager array
// cell, frame slot, set element and boxed result of both engines is one,
// and the compiled engine's non-numeric nodes return it by value. (Numeric
// nodes return a 32-byte unboxed scalar instead: above 64 bytes Go copies a
// struct through runtime.duffcopy, and Value's exported Kind, N, R, Elems
// and Shape alone take 72.)

func TestValueSize(t *testing.T) {
	if sz := unsafe.Sizeof(object.Value{}); sz > 80 {
		t.Fatalf("unsafe.Sizeof(object.Value{}) = %d, want <= 80", sz)
	}
}

var (
	sinkValue object.Value
	sinkCells = make([]object.Value, 8)
)

func TestScalarsAllocateNothing(t *testing.T) {
	n := int64(1)
	for name, f := range map[string]func(){
		"Nat":        func() { n++; sinkValue = object.Nat(n) },
		"Real":       func() { n++; sinkValue = object.Real(float64(n)) },
		"Bool":       func() { n++; sinkValue = object.Bool(n&1 == 0) },
		`Bottom("")`: func() { sinkValue = object.Bottom("") },
		"Unit":       func() { sinkValue = object.Unit },
		"copy": func() {
			v := sinkValue
			for i := range sinkCells {
				sinkCells[i] = v
			}
		},
	} {
		if got := testing.AllocsPerRun(100, f); got != 0 {
			t.Errorf("%s: %v allocations per run, want 0", name, got)
		}
	}
}

// kindSamples is one value of every object kind (functions are not objects:
// they have no exchange form), with its golden text.
var kindSamples = []struct {
	v    object.Value
	text string
}{
	{object.Bottom(""), `_|_`},
	{object.Bottom("division by zero"), `_|_(* division by zero *)`},
	{object.True, `true`},
	{object.Nat(42), `42`},
	{object.Real(2.5), `2.5`},
	{object.String_("tokyo"), `"tokyo"`},
	{object.Base("date", "1996-06-04"), `date#"1996-06-04"`},
	{object.Unit, `()`},
	{object.Tuple(object.Nat(1), object.String_("a")), `(1, "a")`},
	{object.Set(object.Nat(3), object.Nat(1), object.Nat(3)), `{1, 3}`},
	{object.Bag(object.Nat(2), object.Nat(1), object.Nat(2)), `{|1, 2, 2|}`},
	{object.NatVector(7, 8, 9), `[[7, 8, 9]]`},
	{object.MustArray([]int{2, 2}, []object.Value{
		object.Real(0), object.Real(1), object.Real(2), object.Real(3)}), `[[2, 2; 0.0, 1.0, 2.0, 3.0]]`},
}

func TestKindsRoundTrip(t *testing.T) {
	cells := make([]object.Value, len(kindSamples))
	for i, s := range kindSamples {
		cells[i] = s.v
		if got := s.v.String(); got != s.text {
			t.Errorf("String() = %s, want %s", got, s.text)
		}
		if c := object.Compare(s.v, s.v); c != 0 {
			t.Errorf("Compare(%s, itself) = %d", s.text, c)
		}
		var buf bytes.Buffer
		if err := exchange.Write(&buf, s.v); err != nil {
			t.Fatalf("exchange.Write(%s): %v", s.text, err)
		}
		back, err := exchange.Read(&buf)
		if err != nil {
			t.Fatalf("exchange.Read(%s): %v", s.text, err)
		}
		// The exchange text drops ⊥ diagnostics; all bottoms are equal.
		if !object.Equal(back, s.v) || (!s.v.IsBottom() && back.String() != s.text) {
			t.Errorf("exchange round trip of %s = %s", s.text, back)
		}
	}
	// Distinct samples of one kind stay ordered by payload.
	if object.Compare(object.String_("a"), object.String_("b")) >= 0 ||
		object.Compare(object.Base("d", "1"), object.Base("e", "0")) >= 0 {
		t.Error("string / base payloads do not order")
	}

	// The spill codec keeps every kind, diagnostics included, as a cell.
	c := tile.New(tile.Config{TileCells: 4})
	defer c.Close()
	arr := object.Vector(cells...)
	spilled, err := c.SpillArray(context.Background(), arr)
	if err != nil {
		t.Fatal(err)
	}
	if !spilled.IsLazy() || spilled.Size() != len(cells) {
		t.Fatalf("spilled: lazy %v, size %d", spilled.IsLazy(), spilled.Size())
	}
	if got, want := spilled.String(), arr.String(); got != want {
		t.Errorf("spill round trip:\n got %s\nwant %s", got, want)
	}
}

// TestColdPayloads: what moved behind the pointer is reached through the
// accessors, and is absent (not a crash) on values that have none.
func TestColdPayloads(t *testing.T) {
	if object.Nat(1).Str() != "" || object.Nat(1).BaseType() != "" || object.Nat(1).Fn() != nil || object.Nat(1).Code() != nil {
		t.Error("a scalar reports a cold payload")
	}
	b := object.Base("date", "x")
	if b.BaseType() != "date" || b.Str() != "x" {
		t.Errorf("Base: %q %q", b.BaseType(), b.Str())
	}
	if object.Bottom("why").Str() != "why" {
		t.Error("Bottom diagnostic lost")
	}
	type rec struct{ n int }
	r := &rec{7}
	f := object.FuncWithCode(func(v object.Value) (object.Value, error) { return v, nil }, r)
	if got, _ := f.Fn()(object.Nat(3)); got.N != 3 {
		t.Errorf("Fn()(3) = %s", got)
	}
	if f.Code() != r || object.Func(f.Fn()).Code() != nil {
		t.Error("Code does not round-trip")
	}
}
