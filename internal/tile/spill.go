package tile

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"sync"

	"context"

	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/trace"
)

// spillFile is the cache's append-only temp file for spilled tiles.
// Segments are written once (at spill time) and read back on demand; there
// is no reclamation short of Close, matching the lifetime of a session's
// intermediates.
type spillFile struct {
	mu   sync.Mutex
	f    *os.File
	size int64
}

func (s *spillFile) append(b []byte) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		f, err := os.CreateTemp("", "aql-spill-*.dat")
		if err != nil {
			return 0, fmt.Errorf("tile: create spill file: %w", err)
		}
		s.f = f
	}
	off := s.size
	if _, err := s.f.WriteAt(b, off); err != nil {
		return 0, fmt.Errorf("tile: write spill: %w", err)
	}
	s.size += int64(len(b))
	return off, nil
}

func (s *spillFile) readAt(b []byte, off int64) error {
	s.mu.Lock()
	f := s.f
	s.mu.Unlock()
	if f == nil {
		return fmt.Errorf("tile: spill file not open")
	}
	_, err := f.ReadAt(b, off)
	return err
}

func (s *spillFile) close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	name := s.f.Name()
	err := s.f.Close()
	if rerr := os.Remove(name); err == nil {
		err = rerr
	}
	s.f = nil
	s.size = 0
	return err
}

type spillSeg struct {
	off   int64
	len   int64
	cells int
}

// SpillArray writes an eager array's tiles to the spill file and returns a
// lazy array reading them back on demand through the tile cache. It is the
// out-of-core path for oversized intermediates: the session spills a val
// binding whose accounted size exceeds the cache budget, so the binding's
// memory footprint drops to whatever tiles the budget admits. Counters are
// attributed to the collector in ctx, if any.
func (c *Cache) SpillArray(ctx context.Context, v object.Value) (object.Value, error) {
	if v.Kind != object.KArray {
		return object.Value{}, fmt.Errorf("tile: can only spill arrays, got %s", v.Kind)
	}
	cells, err := v.CellsCtx(ctx)
	if err != nil {
		return object.Value{}, err
	}
	size := len(cells)
	tc := c.cfg.tileCells()
	col := collectorFrom(ctx)
	var segs []spillSeg
	for start := 0; start < size; start += tc {
		end := start + tc
		if end > size {
			end = size
		}
		b, err := encodeTile(object.PackCells(cells[start:end]))
		if err != nil {
			return object.Value{}, err
		}
		off, err := c.spill.append(b)
		if err != nil {
			return object.Value{}, err
		}
		segs = append(segs, spillSeg{off: off, len: int64(len(b)), cells: end - start})
		c.count(col, &trace.IOCounters{SpillBytesWritten: int64(len(b))})
	}
	arr := c.NewFlatArray(size, func(ctx context.Context, start, n int) (object.Flat, error) {
		t := start / tc
		if t >= len(segs) || segs[t].cells != n || start != t*tc {
			return object.Flat{}, fmt.Errorf("tile: misaligned spill read [%d, %d)", start, start+n)
		}
		buf := make([]byte, segs[t].len)
		if err := c.spill.readAt(buf, segs[t].off); err != nil {
			return object.Flat{}, fmt.Errorf("tile: read spill tile %d: %w", t, err)
		}
		out, err := decodeTile(buf)
		if err != nil {
			return object.Flat{}, fmt.Errorf("tile: decode spill tile %d: %w", t, err)
		}
		c.count(collectorFrom(ctx), &trace.IOCounters{SpillBytesRead: segs[t].len})
		return out, nil
	})
	return object.LazyArray(v.Shape, arr)
}

// The spill codec is a self-describing binary encoding of a tile. exchange
// text is not used because it round-trips ⊥ without its diagnostic message
// (the message renders as a comment), and spilled values must be
// byte-identical on read-back — including error diagnostics. A tile is
// written in the form it is cached in, so a real or nat tile reads back
// straight into its packed payload:
//
//	tile  := form uvarint(n) payload
//	reals := n × 8-byte big-endian IEEE bits, then bottoms
//	nats  := n × uvarint, then bottoms
//	boxed := n × value
//	bottoms := uvarint(k) k × (uvarint(offset) string)
//
// Collections inside a boxed value are written in their canonical order, so
// reconstruction preserves canonical form without re-sorting.
//
// The decoder reads a file this process wrote, but every count it reads is
// still checked against the bytes that remain (no cell, element or side
// table entry takes less than one byte), and values nest at most
// maxSpillDepth deep, so a damaged spill file is a decode error
// (*CorruptSpillError), never an allocation the file's length cannot justify
// nor a recursion it cannot bound.

const (
	formBoxed byte = iota
	formReals
	formNats
)

// maxSpillDepth bounds how deeply the values of a spilled cell nest: the
// cell is at depth 1, each element of a tuple, set, bag or array one deeper
// than its container. The decoder recurses once per level; the encoder
// refuses a deeper value, which then stays in memory unspilled.
const maxSpillDepth = 256

// CorruptSpillError is a spill tile the decoder refuses: damaged or
// truncated bytes, or values nested past maxSpillDepth.
type CorruptSpillError struct{ msg string }

func (e *CorruptSpillError) Error() string { return e.msg }

func corrupt(format string, args ...any) error {
	return &CorruptSpillError{msg: fmt.Sprintf(format, args...)}
}

func encodeTile(f object.Flat) ([]byte, error) {
	var b []byte
	switch {
	case f.Boxed != nil:
		b = putUvarint(append(b, formBoxed), uint64(len(f.Boxed)))
		for i := range f.Boxed {
			var err error
			if b, err = encodeValue(b, f.Boxed[i], 1); err != nil {
				return nil, err
			}
		}
		return b, nil
	case f.Nats != nil:
		b = putUvarint(append(b, formNats), uint64(len(f.Nats)))
		for _, n := range f.Nats {
			b = putUvarint(b, uint64(n))
		}
	default:
		b = putUvarint(append(b, formReals), uint64(len(f.Reals)))
		for _, r := range f.Reals {
			b = binary.BigEndian.AppendUint64(b, math.Float64bits(r))
		}
	}
	b = putUvarint(b, uint64(len(f.Bottoms)))
	for _, bt := range f.Bottoms {
		b = putString(putUvarint(b, uint64(bt.Off)), bt.Msg)
	}
	return b, nil
}

// decodeCount reads a count of things that take at least unit bytes each,
// and rejects one the remaining bytes cannot hold.
func decodeCount(b []byte, pos, unit int) (int, int, error) {
	n, pos, err := decodeUvarint(b, pos)
	if err != nil {
		return 0, 0, err
	}
	if n > uint64(len(b)-pos)/uint64(unit) {
		return 0, 0, corrupt("tile: corrupt spill count %d with %d bytes left", n, len(b)-pos)
	}
	return int(n), pos, nil
}

func decodeTile(b []byte) (object.Flat, error) {
	if len(b) == 0 {
		return object.Flat{}, corrupt("tile: empty spill tile")
	}
	form, unit := b[0], 1
	if form == formReals {
		unit = 8
	}
	n, pos, err := decodeCount(b, 1, unit)
	if err != nil {
		return object.Flat{}, err
	}
	var f object.Flat
	switch form {
	case formBoxed:
		f.Boxed = make([]object.Value, n)
		for i := range f.Boxed {
			if f.Boxed[i], pos, err = decodeValue(b, pos, 1); err != nil {
				return object.Flat{}, err
			}
		}
	case formReals:
		f.Reals = make([]float64, n)
		for i := range f.Reals {
			f.Reals[i] = math.Float64frombits(binary.BigEndian.Uint64(b[pos:]))
			pos += 8
		}
	case formNats:
		f.Nats = make([]int64, n)
		for i := range f.Nats {
			if f.Nats[i], pos, err = decodeNat(b, pos); err != nil {
				return object.Flat{}, err
			}
		}
	default:
		return object.Flat{}, corrupt("tile: corrupt spill tile form %d", form)
	}
	if form != formBoxed {
		if f.Bottoms, pos, err = decodeBottoms(b, pos, n); err != nil {
			return object.Flat{}, err
		}
	}
	if pos != len(b) {
		return object.Flat{}, corrupt("tile: %d trailing bytes in spill tile", len(b)-pos)
	}
	return f, nil
}

// decodeBottoms reads the ⊥ side table of an n-cell packed run: offsets
// strictly increasing and inside the run, nil when there are none.
func decodeBottoms(b []byte, pos, n int) ([]object.FlatBottom, int, error) {
	k, pos, err := decodeCount(b, pos, 2)
	if err != nil {
		return nil, 0, err
	}
	var out []object.FlatBottom
	for next := uint64(0); k > 0; k-- {
		off, p, err := decodeUvarint(b, pos)
		if err != nil {
			return nil, 0, err
		}
		if off < next || off >= uint64(n) {
			return nil, 0, corrupt("tile: corrupt spill ⊥ offset %d", off)
		}
		msg, p, err := decodeString(b, p)
		if err != nil {
			return nil, 0, err
		}
		out = append(out, object.FlatBottom{Off: int(off), Msg: msg})
		next, pos = off+1, p
	}
	return out, pos, nil
}

func putUvarint(b []byte, x uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], x)
	return append(b, tmp[:n]...)
}

func putString(b []byte, s string) []byte {
	b = putUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// encodeValue appends v, at nesting depth depth, to b.
func encodeValue(b []byte, v object.Value, depth int) ([]byte, error) {
	if depth > maxSpillDepth {
		return nil, fmt.Errorf("tile: cannot spill a value nested deeper than %d", maxSpillDepth)
	}
	b = append(b, byte(v.Kind))
	switch v.Kind {
	case object.KBottom:
		return putString(b, v.Str()), nil
	case object.KBool:
		if v.B {
			return append(b, 1), nil
		}
		return append(b, 0), nil
	case object.KNat:
		return putUvarint(b, uint64(v.N)), nil
	case object.KReal:
		var tmp [8]byte
		binary.BigEndian.PutUint64(tmp[:], math.Float64bits(v.R))
		return append(b, tmp[:]...), nil
	case object.KString:
		return putString(b, v.Str()), nil
	case object.KBase:
		return putString(putString(b, v.BaseType()), v.Str()), nil
	case object.KTuple, object.KSet, object.KBag:
		b = putUvarint(b, uint64(len(v.Elems)))
		for _, e := range v.Elems {
			var err error
			b, err = encodeValue(b, e, depth+1)
			if err != nil {
				return nil, err
			}
		}
		return b, nil
	case object.KArray:
		cells, err := v.Cells()
		if err != nil {
			return nil, err
		}
		b = putUvarint(b, uint64(len(v.Shape)))
		for _, d := range v.Shape {
			b = putUvarint(b, uint64(d))
		}
		for _, e := range cells {
			b, err = encodeValue(b, e, depth+1)
			if err != nil {
				return nil, err
			}
		}
		return b, nil
	}
	return nil, fmt.Errorf("tile: cannot spill %s value", v.Kind)
}

func decodeUvarint(b []byte, pos int) (uint64, int, error) {
	x, n := binary.Uvarint(b[pos:])
	if n <= 0 {
		return 0, 0, corrupt("tile: corrupt spill varint")
	}
	return x, pos + n, nil
}

// decodeNat reads a natural number, which fits an int64.
func decodeNat(b []byte, pos int) (int64, int, error) {
	x, pos, err := decodeUvarint(b, pos)
	if err != nil {
		return 0, 0, err
	}
	if x > math.MaxInt64 {
		return 0, 0, corrupt("tile: corrupt spill nat %d", x)
	}
	return int64(x), pos, nil
}

func decodeString(b []byte, pos int) (string, int, error) {
	n, pos, err := decodeUvarint(b, pos)
	if err != nil {
		return "", 0, err
	}
	if uint64(len(b)-pos) < n {
		return "", 0, corrupt("tile: corrupt spill string")
	}
	return string(b[pos : pos+int(n)]), pos + int(n), nil
}

// decodeValue reads the value at b[pos:], at nesting depth depth.
func decodeValue(b []byte, pos, depth int) (object.Value, int, error) {
	if depth > maxSpillDepth {
		return object.Value{}, 0, corrupt("tile: corrupt spill value nested deeper than %d", maxSpillDepth)
	}
	if pos >= len(b) {
		return object.Value{}, 0, corrupt("tile: truncated spill value")
	}
	kind := object.Kind(b[pos])
	pos++
	switch kind {
	case object.KBottom:
		s, pos, err := decodeString(b, pos)
		if err != nil {
			return object.Value{}, 0, err
		}
		return object.Bottom(s), pos, nil
	case object.KBool:
		if pos >= len(b) {
			return object.Value{}, 0, corrupt("tile: truncated spill bool")
		}
		return object.Bool(b[pos] != 0), pos + 1, nil
	case object.KNat:
		n, pos, err := decodeNat(b, pos)
		if err != nil {
			return object.Value{}, 0, err
		}
		return object.Nat(n), pos, nil
	case object.KReal:
		if len(b)-pos < 8 {
			return object.Value{}, 0, corrupt("tile: truncated spill real")
		}
		r := math.Float64frombits(binary.BigEndian.Uint64(b[pos:]))
		return object.Real(r), pos + 8, nil
	case object.KString:
		s, pos, err := decodeString(b, pos)
		if err != nil {
			return object.Value{}, 0, err
		}
		return object.String_(s), pos, nil
	case object.KBase:
		base, pos, err := decodeString(b, pos)
		if err != nil {
			return object.Value{}, 0, err
		}
		lit, pos, err := decodeString(b, pos)
		if err != nil {
			return object.Value{}, 0, err
		}
		return object.Base(base, lit), pos, nil
	case object.KTuple, object.KSet, object.KBag:
		n, pos, err := decodeCount(b, pos, 1)
		if err != nil {
			return object.Value{}, 0, err
		}
		elems := make([]object.Value, n)
		for i := range elems {
			elems[i], pos, err = decodeValue(b, pos, depth+1)
			if err != nil {
				return object.Value{}, 0, err
			}
		}
		return object.Value{Kind: kind, Elems: elems}, pos, nil
	case object.KArray:
		rank, pos, err := decodeCount(b, pos, 1)
		if err != nil {
			return object.Value{}, 0, err
		}
		shape := make([]int, rank)
		for i := range shape {
			d, p, err := decodeUvarint(b, pos)
			if err != nil {
				return object.Value{}, 0, err
			}
			if d > math.MaxInt32 {
				return object.Value{}, 0, corrupt("tile: corrupt spill dimension %d", d)
			}
			shape[i] = int(d)
			pos = p
		}
		// The cells follow the whole shape, so the product is held to the
		// bytes left after it; a zero dimension makes any shape empty.
		size, left := 1, len(b)-pos
		for _, d := range shape {
			if size *= d; size > left {
				size = left + 1
			}
		}
		if size > left {
			return object.Value{}, 0, corrupt("tile: corrupt spill array shape %v with %d bytes left", shape, left)
		}
		data := make([]object.Value, size)
		for i := range data {
			data[i], pos, err = decodeValue(b, pos, depth+1)
			if err != nil {
				return object.Value{}, 0, err
			}
		}
		v, err := object.Array(shape, data)
		if err != nil {
			return object.Value{}, 0, err
		}
		return v, pos, nil
	}
	return object.Value{}, 0, corrupt("tile: corrupt spill kind %d", kind)
}
