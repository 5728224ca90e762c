package object

import (
	"slices"
	"unsafe"
)

// Flat is a packed run of array cells: the storage form of a tile, and the
// buffer dense real/nat results are meant to be written into. A run whose
// cells are all real (or all nat) keeps the 8-byte payloads contiguously in
// Reals (or Nats); its ⊥ cells, if any, are listed in Bottoms and hold zero
// in the payload. Any other run (tuples, strings, mixed kinds) stays Boxed.
// At most one of Reals, Nats and Boxed is non-nil. A boxed Value exists for a
// packed cell only while it is being read (At, AppendTo).
//
// Like a Value, a Flat is immutable once built and may be shared freely. Its
// methods take a pointer only because the header is four slices wide.
type Flat struct {
	Reals []float64
	Nats  []int64
	Boxed []Value
	// Bottoms is the ⊥ side table of a Reals or Nats run, sorted by Off;
	// nil in the ⊥-free common case, which therefore costs one nil check.
	Bottoms []FlatBottom
}

// FlatBottom records that the cell at offset Off of a packed run is ⊥ with
// diagnostic Msg (empty for the undiagnosed ⊥).
type FlatBottom struct {
	Off int
	Msg string
}

// PackedCellBytes is the accounted size of one packed real or nat cell.
const PackedCellBytes = 8

// PackCells packs a run of boxed cells: into Reals when every cell is a real
// or ⊥, into Nats when every cell is a nat or ⊥, otherwise the slice itself
// is retained as Boxed (callers must not mutate it afterwards).
// PackCells(cells).At(i) equals cells[i] for every i, ⊥ diagnostics included.
func PackCells(cells []Value) Flat {
	// The first cell that is not ⊥ decides what the run could pack as; one
	// pass then fills the payload, giving up at the first cell of another
	// kind.
	kind := KReal
	for i := range cells {
		if cells[i].Kind != KBottom {
			kind = cells[i].Kind
			break
		}
	}
	var f Flat
	switch kind {
	case KReal:
		f.Reals = make([]float64, len(cells))
	case KNat:
		f.Nats = make([]int64, len(cells))
	default:
		return Flat{Boxed: cells}
	}
	for i := range cells {
		switch c := &cells[i]; {
		case c.Kind == KBottom:
			f.Bottoms = append(f.Bottoms, FlatBottom{Off: i, Msg: c.Str()})
		case c.Kind != kind:
			return Flat{Boxed: cells}
		case kind == KReal:
			f.Reals[i] = c.R
		default:
			f.Nats[i] = c.N
		}
	}
	return f
}

// PackReals packs decoded external reals without copying them (vals is
// retained). A non-finite value has no place in the total order, so it
// becomes ⊥ with the given diagnostic, as drivers have always reported it.
func PackReals(vals []float64, nonFinite string) Flat {
	f := Flat{Reals: vals}
	for i, x := range vals {
		if !IsFinite(x) {
			f.Bottoms = append(f.Bottoms, FlatBottom{Off: i, Msg: nonFinite})
			vals[i] = 0
		}
	}
	return f
}

// Len returns the number of cells in the run.
func (f *Flat) Len() int { return len(f.Reals) + len(f.Nats) + len(f.Boxed) }

// Bytes is the accounted in-memory size of the run, the unit tile budgets
// are stated in: PackedCellBytes per packed cell plus the ⊥ side table, or
// the size of a Value per boxed cell.
func (f *Flat) Bytes() int64 {
	n := int64(len(f.Reals)+len(f.Nats))*PackedCellBytes + int64(len(f.Boxed))*int64(unsafe.Sizeof(Value{}))
	for i := range f.Bottoms {
		n += int64(unsafe.Sizeof(FlatBottom{})) + int64(len(f.Bottoms[i].Msg))
	}
	return n
}

// firstBottom returns the index in Bottoms of the first ⊥ at or after offset
// i, and whether that entry is for i itself.
func (f *Flat) firstBottom(i int) (int, bool) {
	return slices.BinarySearchFunc(f.Bottoms, i, func(b FlatBottom, i int) int { return b.Off - i })
}

// At boxes the cell at offset i, which must be in [0, Len()). The ⊥-free
// real run, the common case, is small enough to inline into the caller.
func (f *Flat) At(i int) Value {
	if f.Bottoms == nil && f.Reals != nil {
		return Value{Kind: KReal, R: f.Reals[i]}
	}
	return f.at(i)
}

func (f *Flat) at(i int) Value {
	if f.Boxed != nil {
		return f.Boxed[i]
	}
	if k, ok := f.firstBottom(i); ok {
		return Bottom(f.Bottoms[k].Msg)
	}
	if f.Reals != nil {
		return Value{Kind: KReal, R: f.Reals[i]}
	}
	return Value{Kind: KNat, N: f.Nats[i]}
}

// AppendTo appends the boxed cells [lo, hi) of the run to dst.
func (f *Flat) AppendTo(dst []Value, lo, hi int) []Value {
	if f.Boxed != nil {
		return append(dst, f.Boxed[lo:hi]...)
	}
	base := len(dst)
	dst = slices.Grow(dst, hi-lo)[:base+hi-lo]
	out := dst[base:]
	if f.Reals != nil {
		for i, x := range f.Reals[lo:hi] {
			out[i] = Value{Kind: KReal, R: x}
		}
	} else {
		for i, n := range f.Nats[lo:hi] {
			out[i] = Value{Kind: KNat, N: n}
		}
	}
	for k, _ := f.firstBottom(lo); k < len(f.Bottoms) && f.Bottoms[k].Off < hi; k++ {
		out[f.Bottoms[k].Off-lo] = Bottom(f.Bottoms[k].Msg)
	}
	return dst
}
