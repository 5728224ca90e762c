package object

import (
	"context"
	"fmt"
)

// Array returns a k-dimensional array object with the given shape and
// row-major data. len(data) must equal the product of the shape; shape must
// have at least one dimension and no negative lengths. The slices are
// retained (not copied); callers must not mutate them afterwards.
func Array(shape []int, data []Value) (Value, error) {
	if len(shape) == 0 {
		return Value{}, fmt.Errorf("object: array must have dimensionality >= 1")
	}
	size := 1
	for _, n := range shape {
		if n < 0 {
			return Value{}, fmt.Errorf("object: negative dimension length %d", n)
		}
		size *= n
	}
	if size != len(data) {
		return Value{}, fmt.Errorf("object: shape %v requires %d values, got %d", shape, size, len(data))
	}
	return Value{Kind: KArray, Shape: shape, Elems: data}, nil
}

// MustArray is Array that panics on error; for tests and static tables.
func MustArray(shape []int, data []Value) Value {
	v, err := Array(shape, data)
	if err != nil {
		panic(err)
	}
	return v
}

// Vector returns a one-dimensional array of the given values.
func Vector(data ...Value) Value { return Value{Kind: KArray, Shape: []int{len(data)}, Elems: data} }

// NatVector returns a one-dimensional array of naturals; a convenience for
// tests and drivers.
func NatVector(ns ...int64) Value {
	data := make([]Value, len(ns))
	for i, n := range ns {
		data[i] = Nat(n)
	}
	return Vector(data...)
}

// RealVector returns a one-dimensional array of reals.
func RealVector(fs ...float64) Value {
	data := make([]Value, len(fs))
	for i, f := range fs {
		data[i] = Real(f)
	}
	return Vector(data...)
}

// Dims returns the number of dimensions of an array value.
func (v Value) Dims() int { return len(v.Shape) }

// Size returns the total number of elements of an array value.
func (v Value) Size() int {
	if b := v.Backing(); b != nil {
		return b.Size()
	}
	return len(v.Elems)
}

// flatten converts a multi-index to a row-major offset, or reports an
// out-of-bounds error. idx must have len == len(shape).
func flatten(idx, shape []int) (int, bool) {
	off := 0
	for d, i := range idx {
		if i < 0 || i >= shape[d] {
			return 0, false
		}
		off = off*shape[d] + i
	}
	return off, true
}

// unflatten converts a row-major offset to a multi-index.
func unflatten(off int, shape []int) []int {
	idx := make([]int, len(shape))
	for d := len(shape) - 1; d >= 0; d-- {
		if shape[d] > 0 {
			idx[d] = off % shape[d]
			off /= shape[d]
		}
	}
	return idx
}

// Sub subscripts into an array: a[idx]. Out-of-bounds subscripts return ⊥,
// matching the paper's semantics (e1[e2] "is undefined otherwise").
// Subscripting a non-array is a kind error.
func Sub(a Value, idx []int) (Value, error) { return SubCtx(nil, a, idx) }

// OutOfBounds is the ⊥ of subscripting an array of the given shape at idx,
// out of bounds.
func OutOfBounds(idx, shape []int) Value {
	return Bottom(fmt.Sprintf("index %v out of bounds for shape %v", idx, shape))
}

// SubCtx is Sub with a context bounding lazy-array cell fetches.
func SubCtx(ctx context.Context, a Value, idx []int) (Value, error) {
	if a.Kind != KArray {
		return Value{}, kindError("subscript", a, KArray)
	}
	if len(idx) != len(a.Shape) {
		return Value{}, fmt.Errorf("object: subscript arity %d does not match dimensionality %d", len(idx), len(a.Shape))
	}
	off, ok := flatten(idx, a.Shape)
	if !ok {
		return OutOfBounds(idx, a.Shape), nil
	}
	return a.CellAtCtx(ctx, off)
}

// SubValue subscripts with a runtime index value: a nat for one-dimensional
// arrays, a tuple of nats for k-dimensional ones.
func SubValue(a, index Value) (Value, error) { return SubValueCtx(nil, a, index) }

// SubValueCtx is SubValue with a context bounding lazy-array cell fetches;
// the engines pass the query context so a cancelled request aborts an
// in-flight tile fetch.
func SubValueCtx(ctx context.Context, a, index Value) (Value, error) {
	if a.Kind != KArray {
		return Value{}, kindError("subscript", a, KArray)
	}
	idx, err := IndexOf(index, len(a.Shape))
	if err != nil {
		return Value{}, err
	}
	return SubCtx(ctx, a, idx)
}

// IndexOf converts a runtime index value (nat or tuple of nats) into a
// multi-index of the given arity.
func IndexOf(index Value, k int) ([]int, error) {
	if k == 1 {
		n, err := index.AsNat()
		if err != nil {
			return nil, fmt.Errorf("object: 1-dimensional subscript: %w", err)
		}
		return []int{int(n)}, nil
	}
	if index.Kind != KTuple || len(index.Elems) != k {
		return nil, fmt.Errorf("object: %d-dimensional subscript requires a %d-tuple of nats, got %s", k, k, index.Kind)
	}
	idx := make([]int, k)
	for d, e := range index.Elems {
		n, err := e.AsNat()
		if err != nil {
			return nil, fmt.Errorf("object: subscript component %d: %w", d+1, err)
		}
		idx[d] = int(n)
	}
	return idx, nil
}

// DimValue returns dim_k(a): the length for one-dimensional arrays, the
// k-tuple of lengths otherwise.
func DimValue(a Value) (Value, error) {
	if a.Kind != KArray {
		return Value{}, kindError("dim", a, KArray)
	}
	if len(a.Shape) == 1 {
		return Nat(int64(a.Shape[0])), nil
	}
	elems := make([]Value, len(a.Shape))
	for d, n := range a.Shape {
		elems[d] = Nat(int64(n))
	}
	return Tuple(elems...), nil
}

// Tabulate builds the k-dimensional array [[ f(i1,...,ik) | i1 < shape[0],
// ..., ik < shape[k-1] ]]. If f returns an error, tabulation stops and the
// error is returned. f receives the multi-index; it must not retain it.
func Tabulate(shape []int, f func(idx []int) (Value, error)) (Value, error) {
	size := 1
	for _, n := range shape {
		if n < 0 {
			return Value{}, fmt.Errorf("object: negative dimension length %d", n)
		}
		if n > 0 && size > int(^uint(0)>>1)/n {
			return Value{}, fmt.Errorf("object: tabulation shape %v overflows", shape)
		}
		size *= n
	}
	data := make([]Value, size)
	idx := make([]int, len(shape))
	for off := 0; off < size; off++ {
		v, err := f(idx)
		if err != nil {
			return Value{}, err
		}
		data[off] = v
		// Advance the multi-index in row-major order.
		for d := len(shape) - 1; d >= 0; d-- {
			idx[d]++
			if idx[d] < shape[d] {
				break
			}
			idx[d] = 0
		}
	}
	return Value{Kind: KArray, Shape: shape, Elems: data}, nil
}

// Graph returns graph_k(a) = { (i, a[i]) | i ∈ dom(a) } as a canonical set
// of (index, value) pairs, where the index is a nat (k = 1) or a nat tuple.
// It never reads storage: a lazy array is an error.
func Graph(a Value) (Value, error) {
	if a.Kind != KArray {
		return Value{}, kindError("graph", a, KArray)
	}
	if a.IsLazy() {
		return Value{}, fmt.Errorf("object: graph of an unmaterialized lazy array")
	}
	elems := make([]Value, len(a.Elems))
	for off, v := range a.Elems {
		idx := unflatten(off, a.Shape)
		ival := indexValue(idx)
		elems[off] = Tuple(ival, v)
	}
	return Set(elems...), nil
}

// indexValue converts a multi-index to its runtime value (nat or nat tuple).
func indexValue(idx []int) Value {
	if len(idx) == 1 {
		return Nat(int64(idx[0]))
	}
	elems := make([]Value, len(idx))
	for d, i := range idx {
		elems[d] = Nat(int64(i))
	}
	return Tuple(elems...)
}

// Index implements the index_k construct of figure 1: it converts a set of
// (key, value) pairs with keys in N^k into the k-dimensional array of sets
// whose j-th dimension runs to the maximum j-th key component, grouping all
// values with equal keys and filling holes with {}.
//
//	index({(1,"a"), (3,"b"), (1,"c")}) = [[{}, {"a","c"}, {}, {"b"}]]
//
// The input need not be the graph of a function; that is the point of the
// construct (section 2). Returns ⊥-free output or a kind error if the input
// is not a set of pairs with natural-number keys.
func Index(s Value, k int) (Value, error) { return IndexChecked(s, k, nil) }

// IndexChecked is Index with an allocation guard: when guard is non-nil it
// is called with the cell count of the result array BEFORE the array is
// allocated, and a guard error aborts the construction. The evaluator uses
// this to enforce cell budgets on index_k, whose result size is data-driven
// (a single pair {(10^9, x)} demands a billion-cell array).
func IndexChecked(s Value, k int, guard func(cells int64) error) (Value, error) {
	if s.Kind != KSet {
		return Value{}, kindError("index", s, KSet)
	}
	if k < 1 {
		return Value{}, fmt.Errorf("object: index dimensionality %d < 1", k)
	}
	// First pass: find the maximal key in each dimension.
	shape := make([]int, k)
	keys := make([][]int, len(s.Elems))
	for n, pair := range s.Elems {
		if pair.Kind != KTuple || len(pair.Elems) != 2 {
			return Value{}, fmt.Errorf("object: index element %d is not a (key, value) pair", n)
		}
		idx, err := IndexOf(pair.Elems[0], k)
		if err != nil {
			return Value{}, fmt.Errorf("object: index element %d: %w", n, err)
		}
		keys[n] = idx
		for d, i := range idx {
			if i+1 > shape[d] {
				shape[d] = i + 1
			}
		}
	}
	size := 1
	for _, n := range shape {
		if n > 0 && size > int(^uint(0)>>1)/n {
			return Value{}, fmt.Errorf("object: index shape %v overflows", shape)
		}
		size *= n
	}
	if guard != nil {
		if err := guard(int64(size)); err != nil {
			return Value{}, err
		}
	}
	// Second pass: group values by flattened key. The input set is
	// canonical, so the groups come out sorted and deduplicated for free.
	groups := make([][]Value, size)
	for n, pair := range s.Elems {
		off, _ := flatten(keys[n], shape)
		groups[off] = append(groups[off], pair.Elems[1])
	}
	data := make([]Value, size)
	for off, g := range groups {
		data[off] = SetFromSorted(g)
	}
	return Value{Kind: KArray, Shape: shape, Elems: data}, nil
}
