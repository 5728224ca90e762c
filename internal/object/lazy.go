package object

import (
	"context"
	"fmt"
)

// ArrayBacking supplies the cells of a lazy array on demand. Implementations
// (the tile cache in internal/tile) must be safe for concurrent use and must
// be deterministic: the same offset must always produce the same Value, so
// that lazy evaluation is observationally identical to materialized
// evaluation. Offsets are flat row-major positions in [0, Size()).
type ArrayBacking interface {
	// Cell fetches the value at flat row-major offset off. A nil ctx means
	// "not cancellable" (context.Background semantics).
	Cell(ctx context.Context, off int) (Value, error)
	// CellRange fetches the n cells from flat offset start into a fresh
	// slice: a tile, or the whole array, in one call.
	CellRange(ctx context.Context, start, n int) ([]Value, error)
	// Size returns the total number of cells.
	Size() int
}

// LazyArray returns a k-dimensional array whose cells are fetched on demand
// from backing. The shape must be non-empty with a cell count equal to
// backing.Size(). The value behaves exactly like the materialized array:
// subscripting reads through the backing, and an execution that needs the
// whole array (a comparison, a primitive, a writer, a set element) reads it
// under its own context first (eval.Materialize).
func LazyArray(shape []int, backing ArrayBacking) (Value, error) {
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
	if backing == nil {
		return Value{}, fmt.Errorf("object: lazy array requires a backing")
	}
	if size != backing.Size() {
		return Value{}, fmt.Errorf("object: shape %v requires %d cells, backing has %d", shape, size, backing.Size())
	}
	return Value{Kind: KArray, Shape: shape, c: &cold{lazy: backing}}, nil
}

// IsLazy reports whether v is a lazy (backing-store) array.
func (v Value) IsLazy() bool { return v.c != nil && v.c.lazy != nil }

// Backing returns the backing store of a lazy array, nil for every other
// value: the cost estimator probes it for a tile count, and the compiled
// engine's tile cursor reads cells from it. The receiver is a pointer so the
// check copies no Value.
func (v *Value) Backing() ArrayBacking {
	if v.c == nil {
		return nil
	}
	return v.c.lazy
}

// CellAtCtx returns the cell at flat row-major offset off, fetching through
// the backing for lazy arrays. off must be in range (callers bounds-check
// against Size/Shape first, as the eager paths do).
func (v Value) CellAtCtx(ctx context.Context, off int) (Value, error) {
	if b := v.Backing(); b != nil {
		return b.Cell(ctx, off)
	}
	return v.Elems[off], nil
}

// CellsCtx returns the full row-major cell slice: an eager array's own
// (which must not be mutated), or a lazy array's read through its backing
// under ctx into a fresh slice on every call.
func (v Value) CellsCtx(ctx context.Context) ([]Value, error) {
	b := v.Backing()
	if b == nil {
		return v.Elems, nil
	}
	cells, err := b.CellRange(ctx, 0, b.Size())
	if err != nil {
		return nil, err
	}
	if len(cells) != b.Size() {
		return nil, fmt.Errorf("object: backing returned %d cells, want %d", len(cells), b.Size())
	}
	return cells, nil
}

// Cells is CellsCtx outside any execution: a lazy array's reads count in no
// report and cannot be cancelled. It is a convenience for programs holding a
// result; primitives and writers are handed materialized arrays and read
// Elems.
func (v Value) Cells() ([]Value, error) { return v.CellsCtx(context.Background()) }
