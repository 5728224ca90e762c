package object

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
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
	// Size returns the total number of cells.
	Size() int
}

// RangeBacking is an optional fast path: backings that can deliver a
// contiguous run of cells in one call (a tile, or a whole variable) avoid
// per-cell dispatch during materialization.
type RangeBacking interface {
	CellRange(ctx context.Context, start, n int) ([]Value, error)
}

// lazyState is the shared mutable core of a lazy array. It is referenced by
// pointer from every copy of the Value, so materializing once serves all
// copies. Only a successful materialization is kept: data is written once,
// under mu, and read only after done is observed true. A failed one leaves
// the state as it was, so the next access reads through the backing again,
// as a failed tile fetch is retried by the next demand.
type lazyState struct {
	backing ArrayBacking
	size    int

	mu   sync.Mutex
	done atomic.Bool
	data []Value
}

// LazyArray returns a k-dimensional array whose cells are fetched on demand
// from backing. The shape must be non-empty with a cell count equal to
// backing.Size(). The value behaves exactly like the materialized array:
// subscripting reads through the backing, and operations that need the whole
// array (printing, comparison, graph, append) materialize it first.
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
	// The cold record and the state it points to are one allocation.
	lc := &struct {
		cold
		state lazyState
	}{state: lazyState{backing: backing, size: size}}
	lc.lazy = &lc.state
	return Value{Kind: KArray, Shape: shape, c: &lc.cold}, nil
}

// lazyState returns the backing state of a lazy array, nil for every other
// value (an eager array has no cold record at all).
func (v Value) lazyState() *lazyState {
	if v.c == nil {
		return nil
	}
	return v.c.lazy
}

// IsLazy reports whether v is a lazy (backing-store) array.
func (v Value) IsLazy() bool { return v.lazyState() != nil }

// Backing returns the backing store of a lazy array, or nil. Callers use it
// for interface probes (e.g. the cost estimator asking for a tile count); it
// must not be used to bypass the cell access paths. A reader that serves
// cells from the backing itself gets it from LazyBacking, which knows when
// the array has been materialized.
func (v Value) Backing() any {
	if ls := v.lazyState(); ls != nil {
		return ls.backing
	}
	return nil
}

// LazyBacking returns the backing that a cell read of *v goes to: nil for an
// eager array and for a lazy one that has been materialized, whose cells
// are read from the materialized slice. A reader that serves a cell from the
// backing itself (the compiled engine's tile cursor) is observationally a
// CellAtCtx. The receiver is a pointer so the check copies no Value.
func (v *Value) LazyBacking() ArrayBacking {
	if v.c == nil {
		return nil
	}
	if ls := v.c.lazy; ls != nil && !ls.done.Load() {
		return ls.backing
	}
	return nil
}

// CellAtCtx returns the cell at flat row-major offset off, fetching through
// the backing for lazy arrays. off must be in range (callers bounds-check
// against Size/Shape first, as the eager paths do).
func (v Value) CellAtCtx(ctx context.Context, off int) (Value, error) {
	ls := v.lazyState()
	if ls == nil {
		return v.Elems[off], nil
	}
	if ls.done.Load() {
		return ls.data[off], nil
	}
	return ls.backing.Cell(ctx, off)
}

// CellAt is CellAtCtx without cancellation.
func (v Value) CellAt(off int) (Value, error) { return v.CellAtCtx(nil, off) }

// CellsCtx returns the full row-major cell slice, materializing a lazy array
// (once it succeeds; the result is cached and shared by all copies of the
// value, and concurrent callers wait for one fetch). The returned slice must
// not be mutated.
func (v Value) CellsCtx(ctx context.Context) ([]Value, error) {
	ls := v.lazyState()
	if ls == nil {
		return v.Elems, nil
	}
	if ls.done.Load() {
		return ls.data, nil
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if !ls.done.Load() {
		data, err := fetchAll(ctx, ls.backing, ls.size)
		if err != nil {
			return nil, err
		}
		ls.data = data
		ls.done.Store(true)
	}
	return ls.data, nil
}

// Cells is CellsCtx without cancellation.
func (v Value) Cells() ([]Value, error) { return v.CellsCtx(nil) }

// MaterializeCtx returns an eager copy of v: same kind, shape and cells, no
// backing indirection. Non-lazy values are returned unchanged.
func (v Value) MaterializeCtx(ctx context.Context) (Value, error) {
	if !v.IsLazy() {
		return v, nil
	}
	cells, err := v.CellsCtx(ctx)
	if err != nil {
		return Value{}, err
	}
	return Value{Kind: KArray, Shape: v.Shape, Elems: cells}, nil
}

// Materialize is MaterializeCtx without cancellation.
func (v Value) Materialize() (Value, error) { return v.MaterializeCtx(nil) }

func fetchAll(ctx context.Context, b ArrayBacking, size int) ([]Value, error) {
	if rb, ok := b.(RangeBacking); ok {
		cells, err := rb.CellRange(ctx, 0, size)
		if err != nil {
			return nil, err
		}
		if len(cells) != size {
			return nil, fmt.Errorf("object: backing returned %d cells, want %d", len(cells), size)
		}
		return cells, nil
	}
	cells := make([]Value, size)
	for off := 0; off < size; off++ {
		c, err := b.Cell(ctx, off)
		if err != nil {
			return nil, err
		}
		cells[off] = c
	}
	return cells, nil
}

// MaterializeError is the panic payload used when a lazy array must be
// materialized inside an interface that has no error return (String,
// Pretty, Compare) and the backing fails. The session boundary recovers it
// and converts it back into an ordinary error.
type MaterializeError struct{ Err error }

func (e *MaterializeError) Error() string { return e.Err.Error() }
func (e *MaterializeError) Unwrap() error { return e.Err }

// mustCells is Cells for contexts without an error return; it panics with a
// *MaterializeError on backing failure.
func (v Value) mustCells() []Value {
	cells, err := v.Cells()
	if err != nil {
		panic(&MaterializeError{Err: err})
	}
	return cells
}

// mustCellAt is CellAt for contexts without an error return; it panics with
// a *MaterializeError on backing failure. Unlike mustCells it fetches one
// cell through the backing without memoizing the whole array, so renderers
// that only touch a prefix of a lazy array don't pin all of it in memory.
func (v Value) mustCellAt(off int) Value {
	c, err := v.CellAt(off)
	if err != nil {
		panic(&MaterializeError{Err: err})
	}
	return c
}
