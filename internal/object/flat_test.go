package object

import (
	"fmt"
	"math"
	"testing"
	"unsafe"
)

// flatCells derives a run of cells from fuzz bytes. The first byte picks the
// population (all real, all nat, or any kind), the rest one cell each, so
// every storage form is reached, with ⊥ at any offset.
func flatCells(data []byte) []Value {
	if len(data) == 0 {
		return nil
	}
	mode, data := data[0]%3, data[1:]
	cells := make([]Value, 0, len(data))
	for i, b := range data {
		x, kind := int64(b>>3), b&7
		switch {
		case kind == 0:
			cells = append(cells, Bottom(fmt.Sprintf("⊥ %d at %d", x, i)))
		case kind == 1:
			cells = append(cells, Bottom(""))
		case mode == 0:
			cells = append(cells, Real(float64(x)/4-1))
		case mode == 1:
			cells = append(cells, Nat(x<<uint(i%50)))
		case kind == 2:
			cells = append(cells, Real(math.Inf(int(x)-16)))
		case kind == 3:
			cells = append(cells, Nat(x))
		case kind == 4:
			cells = append(cells, String_(string(data[:i%6])))
		case kind == 5:
			cells = append(cells, Tuple(Nat(x), Bool(x&1 == 0)))
		case kind == 6:
			cells = append(cells, Set(Nat(x), Nat(1), Base("date", "d")))
		default:
			cells = append(cells, Vector(Real(float64(x)), Bottom("inner")))
		}
	}
	return cells
}

// sameCell holds a cell read back from a packed run to the boxed original:
// kind, payload bits, ⊥ diagnostic, rendering and order.
func sameCell(got, want Value) bool {
	return got.Kind == want.Kind && got.N == want.N && got.B == want.B &&
		math.Float64bits(got.R) == math.Float64bits(want.R) &&
		got.Str() == want.Str() && got.String() == want.String() &&
		(want.Kind == KReal && math.IsNaN(want.R) || Compare(got, want) == 0)
}

func checkFlat(t *testing.T, cells []Value) {
	t.Helper()
	orig := append([]Value(nil), cells...)
	f := PackCells(cells)
	if f.Len() != len(cells) {
		t.Fatalf("Len = %d, want %d", f.Len(), len(cells))
	}
	forms := 0
	for _, set := range []bool{f.Reals != nil, f.Nats != nil, f.Boxed != nil} {
		if set {
			forms++
		}
	}
	if forms > 1 || (f.Boxed != nil && f.Bottoms != nil) {
		t.Fatalf("more than one storage form: %+v", f)
	}
	for i := range orig {
		if got := f.At(i); !sameCell(got, orig[i]) {
			t.Fatalf("At(%d) = %s, want %s", i, got, orig[i])
		}
	}
	// Every sub-range appends the same cells after whatever dst held.
	for lo := 0; lo <= len(orig); lo++ {
		for _, hi := range []int{lo, (lo + len(orig) + 1) / 2, len(orig)} {
			out := f.AppendTo([]Value{True}, lo, hi)
			if len(out) != 1+hi-lo || !out[0].B {
				t.Fatalf("AppendTo(%d, %d) returned %d cells", lo, hi, len(out))
			}
			for i, got := range out[1:] {
				if !sameCell(got, orig[lo+i]) {
					t.Fatalf("AppendTo(%d, %d)[%d] = %s, want %s", lo, hi, i, got, orig[lo+i])
				}
			}
		}
	}
}

func TestFlatRoundTrip(t *testing.T) {
	diag := Bottom("non-finite value in NetCDF data")
	for name, cells := range map[string][]Value{
		"empty":          {},
		"all real":       {Real(0), Real(-1.5), Real(math.MaxFloat64), Real(math.NaN()), Real(math.Inf(-1))},
		"all nat":        {Nat(0), Nat(1), Nat(math.MaxInt64)},
		"mixed scalars":  {Nat(1), Real(1)},
		"real then nat":  {Real(1), Bottom("x"), Nat(1)},
		"⊥ first":        {diag, Real(1), Real(2)},
		"⊥ last":         {Nat(1), Nat(2), Bottom("")},
		"⊥ first + last": {diag, Real(1), Bottom("other")},
		"only ⊥":         {Bottom(""), diag},
		"every kind": {Bottom("b"), True, Nat(42), Real(2.5), String_("s"), Base("date", "d"), Unit,
			Tuple(Nat(1), String_("a")), Set(Nat(3), Nat(1)), Bag(Nat(2), Nat(2)), NatVector(7, 8)},
	} {
		t.Run(name, func(t *testing.T) { checkFlat(t, cells) })
	}
}

func TestFlatForms(t *testing.T) {
	if f := PackCells([]Value{Real(1), Bottom("x"), Real(3)}); f.Reals == nil || len(f.Bottoms) != 1 || f.Bottoms[0] != (FlatBottom{1, "x"}) {
		t.Errorf("real run with a ⊥ packed as %+v", f)
	}
	if f := PackCells([]Value{Nat(1), Nat(2)}); f.Nats == nil || f.Bottoms != nil {
		t.Errorf("⊥-free nat run packed as %+v", f)
	}
	boxed := []Value{Nat(1), Real(2)}
	if f := PackCells(boxed); f.Boxed == nil || &f.Boxed[0] != &boxed[0] {
		t.Errorf("mixed run packed as %+v, want the slice retained", f)
	}

	// PackReals keeps the slice it is given and lists non-finite cells as ⊥.
	vals := []float64{math.NaN(), 1.5, math.Inf(1), 2.5, math.Inf(-1)}
	f := PackReals(vals, "bad")
	if &f.Reals[0] != &vals[0] {
		t.Error("PackReals copied its input")
	}
	want := []Value{Bottom("bad"), Real(1.5), Bottom("bad"), Real(2.5), Bottom("bad")}
	for i := range want {
		if got := f.At(i); !sameCell(got, want[i]) {
			t.Errorf("PackReals At(%d) = %s, want %s", i, got, want[i])
		}
	}
	if got := PackReals([]float64{1, 2}, "bad"); got.Bottoms != nil {
		t.Errorf("finite reals carry a side table: %+v", got)
	}
}

func TestFlatBytes(t *testing.T) {
	reals := make([]float64, 4096)
	if got := (&Flat{Reals: reals}).Bytes(); got != 4096*PackedCellBytes {
		t.Errorf("4096 reals = %d bytes", got)
	}
	if got := (&Flat{Nats: make([]int64, 10)}).Bytes(); got != 10*PackedCellBytes {
		t.Errorf("10 nats = %d bytes", got)
	}
	withBottom := Flat{Reals: reals, Bottoms: []FlatBottom{{Off: 3, Msg: "four"}}}
	if got, want := withBottom.Bytes(), int64(4096*PackedCellBytes)+int64(unsafe.Sizeof(FlatBottom{}))+4; got != want {
		t.Errorf("4096 reals with one ⊥ = %d bytes, want %d", got, want)
	}
	if got, want := (&Flat{Boxed: make([]Value, 7)}).Bytes(), 7*int64(unsafe.Sizeof(Value{})); got != want {
		t.Errorf("7 boxed cells = %d bytes, want %d", got, want)
	}
}

// FuzzFlatRoundTrip: whatever cells go in, the packed run reads back the same
// cells (At and AppendTo), in exactly one storage form.
func FuzzFlatRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 10, 18, 26})       // all real
	f.Add([]byte{1, 10, 18, 26})       // all nat
	f.Add([]byte{0, 8, 10, 18, 1})     // real, ⊥ at both ends
	f.Add([]byte{1, 1, 10, 18, 16})    // nat, ⊥ at both ends
	f.Add([]byte{2, 2, 3, 4, 5, 6, 7}) // every boxed kind
	f.Add([]byte{2, 2, 3})             // real + nat: boxed
	f.Add([]byte{0, 0, 1, 8})          // only ⊥
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64] // checkFlat is quadratic in the run length
		}
		checkFlat(t, flatCells(data))
	})
}
