package netcdf

import (
	"context"
	"encoding/binary"
	"math"
)

// Slab is the result of a hyperslab read: a dense row-major block of
// numeric values. Char variables are returned as Text instead.
type Slab struct {
	Shape  []int
	Type   Type
	Values []float64 // numeric types, converted to float64
	Text   []byte    // Char only
}

// Size returns the number of elements in the slab.
func (s *Slab) Size() int {
	n := 1
	for _, d := range s.Shape {
		n *= d
	}
	return n
}

// ReadAll reads a variable's entire data.
func (f *File) ReadAll(varName string) (*Slab, error) {
	h, err := f.WholeVar(varName)
	if err != nil {
		return nil, err
	}
	return h.Slab()
}

// ReadSlab reads the hyperslab of the variable starting at the multi-index
// start with extent count in each dimension — the subslab operation the
// AQL NETCDF readers expose (section 4.1).
func (f *File) ReadSlab(varName string, start, count []int) (*Slab, error) {
	h, err := f.Hyperslab(varName, start, count)
	if err != nil {
		return nil, err
	}
	return h.Slab()
}

// Slab reads the whole hyperslab in one piece. It carries no context, so
// it cannot be cancelled and its I/O counts in no trace.Collector; readers
// that need either use ReadRange.
func (h *Hyperslab) Slab() (*Slab, error) {
	slab := &Slab{Shape: h.count, Type: h.v.Type}
	var ctx context.Context
	var err error
	if h.v.Type == Char {
		slab.Text = make([]byte, 0, min(h.size, maxPrealloc))
		err = h.read(ctx, 0, h.size, func(chunk []byte) { slab.Text = append(slab.Text, chunk...) })
	} else {
		slab.Values, err = h.ReadRange(ctx, 0, h.size)
	}
	if err != nil {
		return nil, err
	}
	return slab, nil
}

func decodeScalar(typ Type, b []byte) float64 {
	switch typ {
	case Byte:
		return float64(int8(b[0]))
	case Short:
		return float64(int16(binary.BigEndian.Uint16(b)))
	case Int:
		return float64(int32(binary.BigEndian.Uint32(b)))
	case Float:
		return float64(math.Float32frombits(binary.BigEndian.Uint32(b)))
	case Double:
		return math.Float64frombits(binary.BigEndian.Uint64(b))
	}
	return 0
}
