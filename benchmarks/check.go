package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/aqldb/aql"
	"github.com/aqldb/aql/internal/object"
)

// The oracle side of every workload: expected results are computed natively
// in Go (or are hand-written closed forms) and compared cell by cell with
// what AQL returned. Neither engine produces an expected value.

func wantNat(v aql.Value, want int64) error {
	if v.Kind != object.KNat || v.N != want {
		return fmt.Errorf("got %s, want nat %d", v.String(), want)
	}
	return nil
}

func wantReal(v aql.Value, want float64) error {
	if v.Kind != object.KReal || !closeEnough(v.R, want) {
		return fmt.Errorf("got %s, want real %g", v.String(), want)
	}
	return nil
}

func closeEnough(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

func wantShape(v aql.Value, shape []int) ([]aql.Value, error) {
	if v.Kind != object.KArray || len(v.Shape) != len(shape) {
		return nil, fmt.Errorf("got %s of rank %d, want array of shape %v", v.Kind, len(v.Shape), shape)
	}
	for d := range shape {
		if v.Shape[d] != shape[d] {
			return nil, fmt.Errorf("got shape %v, want %v", v.Shape, shape)
		}
	}
	return v.Cells()
}

func wantNatArray(v aql.Value, shape []int, want []int64) error {
	cells, err := wantShape(v, shape)
	if err != nil {
		return err
	}
	for i, c := range cells {
		if c.Kind != object.KNat || c.N != want[i] {
			return fmt.Errorf("cell %d: got %s, want %d", i, c.String(), want[i])
		}
	}
	return nil
}

func wantRealArray(v aql.Value, shape []int, want []float64) error {
	cells, err := wantShape(v, shape)
	if err != nil {
		return err
	}
	for i, c := range cells {
		if c.Kind != object.KReal || !closeEnough(c.R, want[i]) {
			return fmt.Errorf("cell %d: got %s, want %g", i, c.String(), want[i])
		}
	}
	return nil
}

// wantPairVector checks a vector of (nat, nat) tuples.
func wantPairVector(v aql.Value, a, b []int64) error {
	cells, err := wantShape(v, []int{len(a)})
	if err != nil {
		return err
	}
	for i, c := range cells {
		if c.Kind != object.KTuple || len(c.Elems) != 2 ||
			c.Elems[0].Kind != object.KNat || c.Elems[0].N != a[i] ||
			c.Elems[1].Kind != object.KNat || c.Elems[1].N != b[i] {
			return fmt.Errorf("cell %d: got %s, want (%d, %d)", i, c.String(), a[i], b[i])
		}
	}
	return nil
}

// wantNatSet checks a set of naturals given in ascending order.
func wantNatSet(v aql.Value, want []int64) error {
	if v.Kind != object.KSet || len(v.Elems) != len(want) {
		return fmt.Errorf("got %s, want a set of %d naturals", v.String(), len(want))
	}
	for i, e := range v.Elems {
		if e.Kind != object.KNat || e.N != want[i] {
			return fmt.Errorf("element %d: got %s, want %d", i, e.String(), want[i])
		}
	}
	return nil
}

// expect is the closed-form answer of a generated query, checkable against a
// value (in-process workloads) or against exchange-format text (aqld).
type expect struct {
	kind  string // "nat", "array", "pairs" or "set"
	n     int64
	shape []int
	a, b  []int64
}

func (e expect) check(v aql.Value) error {
	switch e.kind {
	case "nat":
		return wantNat(v, e.n)
	case "array":
		return wantNatArray(v, e.shape, e.a)
	case "pairs":
		return wantPairVector(v, e.a, e.b)
	}
	return wantNatSet(v, e.a)
}

// text renders the answer in the exchange format, as aqld returns it.
func (e expect) text() string {
	var sb strings.Builder
	list := func(open, close string) {
		sb.WriteString(open)
		for i, x := range e.a {
			if i > 0 {
				sb.WriteString(", ")
			}
			if e.kind == "pairs" {
				fmt.Fprintf(&sb, "(%d, %d)", x, e.b[i])
			} else {
				sb.WriteString(strconv.FormatInt(x, 10))
			}
		}
		sb.WriteString(close)
	}
	switch e.kind {
	case "nat":
		return strconv.FormatInt(e.n, 10)
	case "set":
		list("{", "}")
	default:
		open := "[["
		if len(e.shape) > 1 {
			for i, n := range e.shape {
				if i > 0 {
					open += ", "
				}
				open += strconv.Itoa(n)
			}
			open += "; "
		}
		list(open, "]]")
	}
	return sb.String()
}

// natCells and realCells box native data as AQL cells for binding.
func natCells(xs []int64) []aql.Value {
	out := make([]aql.Value, len(xs))
	for i, x := range xs {
		out[i] = aql.Nat(x)
	}
	return out
}

func realCells(xs []float64) []aql.Value {
	out := make([]aql.Value, len(xs))
	for i, x := range xs {
		out[i] = aql.Real(x)
	}
	return out
}
