package netcdf

import (
	"context"
	"fmt"

	"github.com/aqldb/aql/internal/trace"
)

// Hyperslab is a validated (start, count) block of one variable. It is the
// one place that knows how cells map to file bytes: the slab's flat
// row-major cell space decomposes into contiguous byte runs, and any
// sub-range [off, off+n) of that cell space can be read on its own — which
// is what makes a tile (a contiguous piece of the flattened slab) the unit
// of out-of-core fetch. ReadSlab, ReadCellRangeCtx and the session's lazy
// readers are all "build a Hyperslab, read a range of it".
type Hyperslab struct {
	f     *File
	v     *Var
	count []int
	size  int   // cells in the slab
	tsize int64 // external bytes per cell

	// The slab's trailing dimensions [split, rank) form one contiguous run
	// of run cells in the file; the leading dimensions [0, split) are
	// walked run by run, dimension d advancing stride[d] bytes per index.
	// Record interleaving is nothing more than stride[0] = recSize.
	split  int
	run    int
	stride []int64
	base   int64 // byte offset of the slab's first cell
}

// Hyperslab validates the hyperslab of the variable starting at multi-index
// start with extent count in each dimension, without reading any data.
func (f *File) Hyperslab(varName string, start, count []int) (*Hyperslab, error) {
	v, err := f.Var(varName)
	if err != nil {
		return nil, err
	}
	shape := f.Shape(v)
	rank := len(shape)
	if len(start) != rank || len(count) != rank {
		return nil, fmt.Errorf("netcdf: %s has rank %d; start/count have rank %d/%d",
			varName, rank, len(start), len(count))
	}
	h := &Hyperslab{f: f, v: v, count: append([]int(nil), count...),
		size: 1, tsize: int64(v.Type.Size()), split: rank, run: 1, stride: make([]int64, rank), base: v.begin}
	for d := range shape {
		if start[d] < 0 || count[d] < 0 || start[d]+count[d] > shape[d] {
			return nil, fmt.Errorf("netcdf: %s: slab [%d, %d) exceeds dimension %d of length %d",
				varName, start[d], start[d]+count[d], d, shape[d])
		}
		h.size *= count[d]
	}
	for d, s := rank-1, h.tsize; d >= 0; d-- {
		h.stride[d] = s
		s *= int64(shape[d])
	}
	// A record variable's outermost dimension steps over the records of
	// every record variable, so it never joins a contiguous run.
	outermost := 0
	if f.isRecord(v) {
		h.stride[0] = f.recSize
		outermost = 1
	}
	for d := range shape {
		h.base += int64(start[d]) * h.stride[d]
	}
	// A dimension extends the run while everything inside it is full width.
	for h.split > outermost && (h.split == rank || count[h.split] == shape[h.split]) {
		h.split--
		h.run *= count[h.split]
	}
	// When the data source's size is known, reject slabs that extend past
	// end-of-file before allocating or reading anything: a header may be
	// intact while the data region is truncated or the declared shapes are
	// corrupt, and the failure must be a descriptive error up front (at
	// readval, for a session), not an EOF deep in a read loop mid-query.
	if f.fsize >= 0 && h.size > 0 {
		if end := h.offset(h.size-1) + h.tsize; end > f.fsize {
			return nil, fmt.Errorf("netcdf: %s: slab ends at byte %d but file has only %d bytes (truncated?)",
				varName, end, f.fsize)
		}
	}
	return h, nil
}

// WholeVar is the hyperslab covering all of a variable.
func (f *File) WholeVar(varName string) (*Hyperslab, error) {
	v, err := f.Var(varName)
	if err != nil {
		return nil, err
	}
	shape := f.Shape(v)
	return f.Hyperslab(varName, make([]int, len(shape)), shape)
}

// Shape returns the slab's extents; callers must not modify it.
func (h *Hyperslab) Shape() []int { return h.count }

// Size returns the number of cells in the slab.
func (h *Hyperslab) Size() int { return h.size }

// Type returns the external type of the slab's variable.
func (h *Hyperslab) Type() Type { return h.v.Type }

// offset returns the byte offset of slab cell p.
func (h *Hyperslab) offset(p int) int64 {
	off := h.base + int64(p%h.run)*h.tsize
	p /= h.run
	for d := h.split - 1; d >= 0; d-- {
		off += int64(p%h.count[d]) * h.stride[d]
		p /= h.count[d]
	}
	return off
}

// ReadRange reads cells [off, off+n) of the slab's flat row-major cell
// space, decoded to float64. A non-nil ctx is checked between chunk reads
// and passed to readers that support per-call cancellation
// (RetryingReaderAt).
func (h *Hyperslab) ReadRange(ctx context.Context, off, n int) ([]float64, error) {
	if h.v.Type == Char {
		return nil, fmt.Errorf("netcdf: %s: cell-range reads are for numeric variables, not char", h.v.Name)
	}
	if off < 0 || n < 0 || off+n > h.size {
		return nil, fmt.Errorf("netcdf: %s: cell range [%d, %d) exceeds size %d", h.v.Name, off, off+n, h.size)
	}
	out := make([]float64, 0, min(n, maxPrealloc))
	err := h.read(ctx, off, n, func(chunk []byte) {
		for ; len(chunk) > 0; chunk = chunk[h.tsize:] {
			out = append(out, decodeScalar(h.v.Type, chunk))
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// maxPrealloc caps up-front result allocations: with a data source of
// unknown size a corrupt header can claim billions of cells, and the first
// read past EOF fails long before that much data exists. Growth beyond the
// cap is incremental.
const maxPrealloc = 1 << 20

// read walks the in-range cells [off, off+n) run by run in row-major order
// and hands the raw external bytes to sink. It counts one SlabRead and the
// bytes delivered, in the trace.Collector of ctx.
func (h *Hyperslab) read(ctx context.Context, off, n int, sink func(chunk []byte)) error {
	if n == 0 {
		return nil
	}
	d := trace.IOCounters{SlabReads: 1}
	// Runs are read in bounded chunks so neither a corrupt header nor a
	// huge tile size can force a matching buffer allocation.
	const maxRunBytes = 1 << 22
	buf := make([]byte, min(int64(min(h.run, n))*h.tsize, maxRunBytes))
	var err error
	for end := off + n; off < end && err == nil; {
		cells := min(h.run-off%h.run, end-off)
		err = h.readRun(ctx, h.offset(off), cells, buf, sink, &d.BytesRead)
		off += cells
	}
	trace.CollectorFrom(ctx).Add(&d)
	return err
}

// readRun reads one contiguous run of count cells at byte offset base, one
// ReadAt per buf-sized chunk, with a ctx check before each, adding the bytes
// it delivers to *bytes.
func (h *Hyperslab) readRun(ctx context.Context, base int64, count int, buf []byte, sink func(chunk []byte), bytes *int64) error {
	for left := int64(count) * h.tsize; left > 0; {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("netcdf: %s: read cancelled: %w", h.v.Name, err)
			}
		}
		chunk := buf[:min(left, int64(len(buf)))]
		if _, err := h.f.readAtCtx(ctx, chunk, base); err != nil {
			return fmt.Errorf("netcdf: %s: read at %d: %w", h.v.Name, base, err)
		}
		*bytes += int64(len(chunk))
		sink(chunk)
		base += int64(len(chunk))
		left -= int64(len(chunk))
	}
	return nil
}

// ReadCellRangeCtx reads n cells of a numeric variable starting at flat
// row-major cell index start: the whole-variable hyperslab's ReadRange. It
// is the fetch primitive for callers that tile a variable themselves.
func (f *File) ReadCellRangeCtx(ctx context.Context, varName string, start, n int) ([]float64, error) {
	h, err := f.WholeVar(varName)
	if err != nil {
		return nil, err
	}
	return h.ReadRange(ctx, start, n)
}

// ctxReaderAt is implemented by readers that accept a per-call context
// (RetryingReaderAt); readAtCtx routes through it when available so query
// cancellation aborts in-flight fetches mid-backoff.
type ctxReaderAt interface {
	ReadAtCtx(ctx context.Context, p []byte, off int64) (int, error)
}

func (f *File) readAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	if ctx != nil {
		if rc, ok := f.r.(ctxReaderAt); ok {
			return rc.ReadAtCtx(ctx, p, off)
		}
	}
	return f.r.ReadAt(p, off)
}
