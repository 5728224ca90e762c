package tile

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"sync"

	"context"

	"github.com/aqldb/aql/internal/object"
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
	var segs []spillSeg
	for start := 0; start < size; start += tc {
		end := start + tc
		if end > size {
			end = size
		}
		b, err := encodeCells(cells[start:end])
		if err != nil {
			return object.Value{}, err
		}
		off, err := c.spill.append(b)
		if err != nil {
			return object.Value{}, err
		}
		segs = append(segs, spillSeg{off: off, len: int64(len(b)), cells: end - start})
		c.each(ctx, func(s *counters) { s.spillWritten.Add(int64(len(b))) })
	}
	arr := c.NewArray(size, func(ctx context.Context, start, n int) ([]object.Value, error) {
		t := start / tc
		if t >= len(segs) || segs[t].cells != n || start != t*tc {
			return nil, fmt.Errorf("tile: misaligned spill read [%d, %d)", start, start+n)
		}
		buf := make([]byte, segs[t].len)
		if err := c.spill.readAt(buf, segs[t].off); err != nil {
			return nil, fmt.Errorf("tile: read spill tile %d: %w", t, err)
		}
		out, err := decodeCells(buf, n)
		if err != nil {
			return nil, fmt.Errorf("tile: decode spill tile %d: %w", t, err)
		}
		c.each(ctx, func(s *counters) { s.spillRead.Add(segs[t].len) })
		return out, nil
	})
	return object.LazyArray(v.Shape, arr)
}

// The spill codec is a self-describing binary encoding of complex objects.
// exchange text is not used because it round-trips ⊥ without its diagnostic
// message (the message renders as a comment), and spilled values must be
// byte-identical on read-back — including error diagnostics. Collections
// are written in their canonical order, so reconstruction preserves
// canonical form without re-sorting.

func encodeCells(cells []object.Value) ([]byte, error) {
	var b []byte
	for i := range cells {
		var err error
		b, err = encodeValue(b, cells[i])
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}

func decodeCells(b []byte, n int) ([]object.Value, error) {
	out := make([]object.Value, n)
	pos := 0
	for i := 0; i < n; i++ {
		v, next, err := decodeValue(b, pos)
		if err != nil {
			return nil, err
		}
		out[i] = v
		pos = next
	}
	if pos != len(b) {
		return nil, fmt.Errorf("tile: %d trailing bytes in spill tile", len(b)-pos)
	}
	return out, nil
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

func encodeValue(b []byte, v object.Value) ([]byte, error) {
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
			b, err = encodeValue(b, e)
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
			b, err = encodeValue(b, e)
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
		return 0, 0, fmt.Errorf("tile: corrupt spill varint")
	}
	return x, pos + n, nil
}

func decodeString(b []byte, pos int) (string, int, error) {
	n, pos, err := decodeUvarint(b, pos)
	if err != nil {
		return "", 0, err
	}
	if uint64(len(b)-pos) < n {
		return "", 0, fmt.Errorf("tile: corrupt spill string")
	}
	return string(b[pos : pos+int(n)]), pos + int(n), nil
}

func decodeValue(b []byte, pos int) (object.Value, int, error) {
	if pos >= len(b) {
		return object.Value{}, 0, fmt.Errorf("tile: truncated spill value")
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
			return object.Value{}, 0, fmt.Errorf("tile: truncated spill bool")
		}
		return object.Bool(b[pos] != 0), pos + 1, nil
	case object.KNat:
		x, pos, err := decodeUvarint(b, pos)
		if err != nil {
			return object.Value{}, 0, err
		}
		return object.Nat(int64(x)), pos, nil
	case object.KReal:
		if len(b)-pos < 8 {
			return object.Value{}, 0, fmt.Errorf("tile: truncated spill real")
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
		n, pos, err := decodeUvarint(b, pos)
		if err != nil {
			return object.Value{}, 0, err
		}
		elems := make([]object.Value, n)
		for i := range elems {
			elems[i], pos, err = decodeValue(b, pos)
			if err != nil {
				return object.Value{}, 0, err
			}
		}
		return object.Value{Kind: kind, Elems: elems}, pos, nil
	case object.KArray:
		rank, pos, err := decodeUvarint(b, pos)
		if err != nil {
			return object.Value{}, 0, err
		}
		shape := make([]int, rank)
		size := 1
		for i := range shape {
			d, p, err := decodeUvarint(b, pos)
			if err != nil {
				return object.Value{}, 0, err
			}
			shape[i] = int(d)
			size *= int(d)
			pos = p
		}
		data := make([]object.Value, size)
		for i := range data {
			data[i], pos, err = decodeValue(b, pos)
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
	return object.Value{}, 0, fmt.Errorf("tile: corrupt spill kind %d", kind)
}
