package netcdf

import "io"

// IOStats aggregates the I/O behaviour of one File: what the slab reader
// asked for, and what the reader-wrapper stack underneath it did to serve
// those requests.
type IOStats struct {
	// SlabReads counts non-empty hyperslab range reads served (ReadSlab /
	// ReadAll / Hyperslab.ReadRange).
	SlabReads int64
	// BytesRead counts external data bytes delivered to slab decoding
	// (header parsing is not counted).
	BytesRead int64
	// Retries counts transient-failure re-reads by any RetryingReaderAt
	// in the stack.
	Retries int64
	// Faults counts injected faults observed by any FaultyReaderAt in the
	// stack (fault-injection tests and soak runs).
	Faults int64
}

// Add accumulates other into s.
func (s *IOStats) Add(other IOStats) {
	s.SlabReads += other.SlabReads
	s.BytesRead += other.BytesRead
	s.Retries += other.Retries
	s.Faults += other.Faults
}

// unwrapper is implemented by the reader wrappers of this package so
// IOStats can walk an arbitrarily layered stack (e.g. retrying over faulty
// over file).
type unwrapper interface {
	Underlying() io.ReaderAt
}

// Underlying returns the reader the retry layer wraps.
func (r *RetryingReaderAt) Underlying() io.ReaderAt { return r.r }

// Underlying returns the reader the fault injector wraps.
func (f *FaultyReaderAt) Underlying() io.ReaderAt { return f.r }

// IOStats reports the file's cumulative I/O counters: the slab reads and
// bytes this File served, plus retry/fault counters collected by
// walking the reader-wrapper stack. Sessions read it after each NetCDF
// readval to attribute I/O to the query that caused it.
func (f *File) IOStats() IOStats {
	s := IOStats{
		SlabReads: f.stats.slabReads.Load(),
		BytesRead: f.stats.bytesRead.Load(),
	}
	r := f.r
	for depth := 0; r != nil && depth < 16; depth++ {
		switch v := r.(type) {
		case *RetryingReaderAt:
			s.Retries += v.Retries()
		case *FaultyReaderAt:
			s.Faults += v.Injected()
		}
		u, ok := r.(unwrapper)
		if !ok {
			break
		}
		r = u.Underlying()
	}
	return s
}
