package netcdf

import (
	"bytes"
	"testing"
)

// FuzzRead asserts the header parser never panics or over-allocates on
// arbitrary bytes (truncations, corrupt counts, bad tags).
func FuzzRead(f *testing.F) {
	// Seed with a valid file and mutations of it.
	b := NewBuilder()
	d, _ := b.AddDim("x", 3)
	_ = b.AddVar("v", Int, []int{d}, nil, []float64{1, 2, 3})
	var buf bytes.Buffer
	if err := b.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	for cut := 1; cut < len(valid); cut += 7 {
		f.Add(valid[:cut])
	}
	corrupt := append([]byte(nil), valid...)
	corrupt[8] = 0xFF // implausible list count
	f.Add(corrupt)
	f.Add([]byte("CDF\x01"))
	f.Add([]byte("CDF\x02\x00\x00\x00\x00"))
	f.Add([]byte("not netcdf"))

	// A richer seed: attributes, a record dimension and an interleaved
	// record variable exercise the header paths plain files miss.
	rb := NewBuilder()
	rb.AddGlobalAttr(Attr{Name: "title", Type: Char, Values: "fuzz corpus"})
	rb.AddGlobalAttr(Attr{Name: "version", Type: Int, Values: []int32{2}})
	rec, _ := rb.AddRecordDim("t", 3)
	rx, _ := rb.AddDim("y", 2)
	_ = rb.AddVar("fv", Double, []int{rx},
		[]Attr{{Name: "units", Type: Char, Values: "degF"}}, []float64{1.5, -2.5})
	_ = rb.AddVar("rv", Short, []int{rec, rx}, nil, []float64{1, 2, 3, 4, 5, 6})
	_ = rb.AddCharVar("name", []int{rx}, nil, []byte("ab"))
	var rbuf bytes.Buffer
	if err := rb.Encode(&rbuf); err != nil {
		f.Fatal(err)
	}
	rich := rbuf.Bytes()
	f.Add(rich)
	// Truncated variants: every prefix stride hits a different parser stage.
	for cut := 1; cut < len(rich); cut += 5 {
		f.Add(rich[:cut])
	}
	// Truncated inside the data region: the header parses but cell-range
	// reads (the tile fetch path) run against a short file.
	f.Add(rich[:len(rich)-4])
	f.Add(rich[:len(rich)-9])
	// Single-bit flips across the header region.
	for off := 0; off < len(rich) && off < 96; off += 3 {
		flipped := append([]byte(nil), rich...)
		flipped[off] ^= 0x80
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		nc, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A file the parser accepts must tolerate slab reads and
		// tile-style cell-range reads of every variable without panicking.
		for _, v := range nc.Vars {
			shape := nc.Shape(&v)
			start := make([]int, len(shape))
			_, _ = nc.ReadSlab(v.Name, start, shape)
			size := 1
			for _, d := range shape {
				size *= d
			}
			_, _ = nc.ReadCellRangeCtx(nil, v.Name, 0, size)
			// Misaligned sub-ranges exercise the record-run decomposition.
			if size > 2 {
				_, _ = nc.ReadCellRangeCtx(nil, v.Name, 1, size-2)
			}
		}
	})
}
