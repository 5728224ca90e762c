package object

import "fmt"

// Compare implements the total linear order <=_t on complex objects that the
// paper assumes on every object type (section 2; it cites [21] for the fact
// that orders on base types lift to all complex-object types). It returns
// -1, 0, or +1.
//
// Well-typed programs only ever compare values of the same type; across
// kinds, Compare falls back to ordering by kind tag so that it remains a
// total order on all values (useful for canonicalizing heterogeneous
// debugging data and for the property tests).
//
// ⊥ is ordered below every proper value. Function values are not orderable;
// comparing them panics, matching the type system's refusal to order
// function types. Compare never reads storage: a lazy array panics too; the
// engines materialize one before a comparison or collection (eval.Materialize).
func Compare(a, b Value) int {
	if a.Kind != b.Kind {
		// Numeric cross-kind comparison: nat vs real compares by magnitude,
		// supporting the surface language's numeric overloading.
		if (a.Kind == KNat && b.Kind == KReal) || (a.Kind == KReal && b.Kind == KNat) {
			af, _ := a.AsReal()
			bf, _ := b.AsReal()
			return cmpFloat(af, bf)
		}
		return cmpInt(int(a.Kind), int(b.Kind))
	}
	switch a.Kind {
	case KBottom:
		return 0
	case KBool:
		return cmpBool(a.B, b.B)
	case KNat:
		return cmpInt64(a.N, b.N)
	case KReal:
		return cmpFloat(a.R, b.R)
	case KString:
		return cmpString(a.Str(), b.Str())
	case KBase:
		if c := cmpString(a.BaseType(), b.BaseType()); c != 0 {
			return c
		}
		return cmpString(a.Str(), b.Str())
	case KTuple, KSet, KBag:
		// Tuples compare lexicographically. Sets and bags are canonical
		// (sorted), so lexicographic comparison of the element slices is a
		// linear order on them as well.
		return cmpSlices(a.Elems, b.Elems)
	case KArray:
		if c := cmpInts(a.Shape, b.Shape); c != 0 {
			return c
		}
		if a.IsLazy() || b.IsLazy() {
			panic("object.Compare: lazy arrays are not ordered until materialized")
		}
		return cmpSlices(a.Elems, b.Elems)
	case KFunc:
		panic("object.Compare: function values are not ordered")
	}
	panic(fmt.Sprintf("object.Compare: bad kind %d", a.Kind))
}

// Equal reports structural equality of two complex objects: Compare == 0.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

func cmpBool(a, b bool) int {
	switch {
	case a == b:
		return 0
	case !a:
		return -1
	default:
		return 1
	}
}

func cmpInt(a, b int) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpString(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpInts(a, b []int) int {
	if c := cmpInt(len(a), len(b)); c != 0 {
		return c
	}
	for i := range a {
		if c := cmpInt(a[i], b[i]); c != 0 {
			return c
		}
	}
	return 0
}

func cmpSlices(a, b []Value) int {
	if c := cmpInt(len(a), len(b)); c != 0 {
		return c
	}
	for i := range a {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return 0
}
