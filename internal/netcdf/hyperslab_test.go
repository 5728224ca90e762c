package netcdf

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"testing"
)

// slabVar is one variable of the slab-range test file with its cell values
// in row-major order, the independent oracle range reads are held to.
type slabVar struct {
	name   string
	shape  []int
	record bool
	data   []float64
}

// slabRangeFile builds a file holding, for every numeric type, fixed and
// record variables of rank 1 to 4 (so record variables of five widths
// interleave in each record), plus one char variable.
func slabRangeFile(t testing.TB) ([]byte, []slabVar) {
	t.Helper()
	b := NewBuilder()
	rec, _ := b.AddRecordDim("t", 3)
	fixed := make([]int, 4)
	lens := []int{4, 3, 2, 5}
	for d, n := range lens {
		fixed[d], _ = b.AddDim(fmt.Sprintf("d%d", d), n)
	}
	var vars []slabVar
	for ti, typ := range []Type{Byte, Short, Int, Float, Double} {
		for rank := 1; rank <= 4; rank++ {
			for _, record := range []bool{false, true} {
				dims := append([]int(nil), fixed[:rank]...)
				shape := append([]int(nil), lens[:rank]...)
				name := fmt.Sprintf("%s_fix%d", typ, rank)
				if record {
					dims[0], shape[0] = rec, 3
					name = fmt.Sprintf("%s_rec%d", typ, rank)
				}
				size := 1
				for _, n := range shape {
					size *= n
				}
				data := make([]float64, size)
				for i := range data {
					data[i] = float64((i*7+ti*13+rank)%120 - 60) // fits an int8
				}
				if err := b.AddVar(name, typ, dims, nil, data); err != nil {
					t.Fatal(err)
				}
				vars = append(vars, slabVar{name, shape, record, data})
			}
		}
	}
	if err := b.AddCharVar("label", fixed[:2], nil, []byte("abcdefghijkl")); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := b.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), vars
}

// countingReader counts ReadAt calls on the data source.
type countingReader struct {
	r     *bytes.Reader
	calls int
}

func (c *countingReader) ReadAt(p []byte, off int64) (int, error) {
	c.calls++
	return c.r.ReadAt(p, off)
}
func (c *countingReader) Size() int64 { return c.r.Size() }

var _ io.ReaderAt = (*countingReader)(nil)

// FuzzSlabRanges is the slab primitive's property: for any in-bounds
// (start, count) of any variable and any cut of the slab's flat cell space
// into consecutive ranges, the concatenated range reads equal both the
// source data at those multi-indices and what ReadSlab returns, and a
// range never costs more ReadAt calls than the innermost-dimension rows it
// touches (single cells, for a rank-1 record variable). The seed corpus is
// the fixed table plain `go test` runs.
func FuzzSlabRanges(f *testing.F) {
	file, vars := slabRangeFile(f)
	geoms := [][]byte{
		{0, 255, 0, 255, 0, 255, 0, 255}, // whole variable
		{1, 2, 1, 1, 0, 255, 2, 2},       // interior block, one full-width dimension
		{0, 255, 1, 1, 1, 0, 3, 1},       // full rows of one column
		{2, 0, 0, 255, 0, 255, 0, 255},   // empty
	}
	cuts := [][]byte{nil, {1, 1, 1}, {5, 0, 7, 2}, {255, 3}}
	for v := range vars {
		for g, geom := range geoms {
			f.Add(uint8(v), geom, cuts[(v+g)%len(cuts)])
		}
	}
	f.Fuzz(func(t *testing.T, varIdx uint8, geom, cuts []byte) {
		v := vars[int(varIdx)%len(vars)]
		at := func(i int) int {
			if i < len(geom) {
				return int(geom[i])
			}
			return 0
		}
		rank := len(v.shape)
		start, count := make([]int, rank), make([]int, rank)
		for d, n := range v.shape {
			start[d] = at(2*d) % n
			count[d] = min(at(2*d+1), n-start[d])
		}

		src := &countingReader{r: bytes.NewReader(file)}
		nc, err := Read(src)
		if err != nil {
			t.Fatal(err)
		}
		h, err := nc.Hyperslab(v.name, start, count)
		if err != nil {
			t.Fatalf("%s %v+%v: %v", v.name, start, count, err)
		}
		want := make([]float64, 0, h.Size())
		idx := make([]int, rank)
		for p := 0; p < h.Size(); p++ {
			lin := 0
			for d := range idx {
				lin = lin*v.shape[d] + start[d] + idx[d]
			}
			want = append(want, v.data[lin])
			for d := rank - 1; d >= 0; d-- {
				if idx[d]++; idx[d] < count[d] {
					break
				}
				idx[d] = 0
			}
		}

		inner := max(count[rank-1], 1)
		if v.record && rank == 1 {
			inner = 1
		}
		var got []float64
		for off, i := 0, 0; off < h.Size(); i++ {
			n := h.Size() - off
			if i < len(cuts) {
				n = int(cuts[i]) % (n + 1)
			}
			before := src.calls
			part, err := h.ReadRange(context.Background(), off, n)
			if err != nil {
				t.Fatalf("%s %v+%v range [%d,%d): %v", v.name, start, count, off, off+n, err)
			}
			if n > 0 {
				if reads, rows := src.calls-before, (off+n-1)/inner-off/inner+1; reads > rows {
					t.Errorf("%s %v+%v range [%d,%d): %d ReadAt calls for %d rows", v.name, start, count, off, off+n, reads, rows)
				}
			}
			got = append(got, part...)
			off += n
		}
		slab, err := nc.ReadSlab(v.name, start, count)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) || fmt.Sprint(slab.Values) != fmt.Sprint(want) {
			t.Errorf("%s %v+%v cuts %v:\nranges %v\nslab   %v\nwant   %v", v.name, start, count, cuts, got, slab.Values, want)
		}
	})
}

// TestHyperslabRejects checks that bad requests fail when the slab is
// built, before any read, with the text ReadSlab reports.
func TestHyperslabRejects(t *testing.T) {
	file, _ := slabRangeFile(t)
	nc, err := Read(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	last, err := nc.Var("double_rec4")
	if err != nil {
		t.Fatal(err)
	}
	cut, err := Read(bytes.NewReader(file[:last.begin+8]))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		f            *File
		name         string
		start, count []int
		want         string
	}{
		{nc, "nope", []int{0}, []int{1}, `no variable "nope"`},
		{nc, "int_fix2", []int{0}, []int{1}, "has rank 2; start/count have rank 1/1"},
		{nc, "int_fix2", []int{0, 0}, []int{1}, "has rank 2; start/count have rank 2/1"},
		{nc, "int_fix2", []int{0, 2}, []int{4, 2}, "slab [2, 4) exceeds dimension 1 of length 3"},
		{nc, "int_rec2", []int{3, 0}, []int{1, 1}, "slab [3, 4) exceeds dimension 0 of length 3"},
		{nc, "int_fix2", []int{-1, 0}, []int{1, 1}, "slab [-1, 0) exceeds dimension 0"},
		{nc, "int_fix2", []int{0, 0}, []int{1, -1}, "slab [0, -1) exceeds dimension 1"},
		{cut, "double_rec4", []int{0, 0, 0, 0}, []int{3, 3, 2, 5}, "(truncated?)"},
		{cut, "double_rec4", []int{2, 0, 0, 0}, []int{1, 1, 1, 1}, "(truncated?)"},
	} {
		_, herr := tc.f.Hyperslab(tc.name, tc.start, tc.count)
		_, serr := tc.f.ReadSlab(tc.name, tc.start, tc.count)
		if herr == nil || !strings.Contains(herr.Error(), tc.want) {
			t.Errorf("Hyperslab(%s, %v, %v) = %v, want %q", tc.name, tc.start, tc.count, herr, tc.want)
		}
		if herr != nil && (serr == nil || serr.Error() != herr.Error()) {
			t.Errorf("ReadSlab(%s, %v, %v) = %v, want the Hyperslab text %v", tc.name, tc.start, tc.count, serr, herr)
		}
	}
	// The intact prefix of the truncated file still reads.
	if _, err := cut.Hyperslab("double_rec4", []int{0, 0, 0, 0}, []int{1, 1, 1, 1}); err != nil {
		t.Errorf("in-file cell of a truncated variable: %v", err)
	}

	// A char slab is a valid request (ReadSlab returns its Text); what it
	// cannot do is decode to numbers.
	h, err := nc.Hyperslab("label", []int{1, 0}, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.ReadRange(context.Background(), 0, 2); err == nil || !strings.Contains(err.Error(), "not char") {
		t.Errorf("numeric range read of a char slab = %v", err)
	}
	slab, err := h.Slab()
	if err != nil || string(slab.Text) != "defghi" || slab.Values != nil {
		t.Errorf("char slab = %q, %v, %v", slab.Text, slab.Values, err)
	}
	if _, err := nc.WholeVar("int_fix2"); err != nil {
		t.Fatal(err)
	}
	h, _ = nc.Hyperslab("int_fix2", []int{1, 1}, []int{2, 2})
	if _, err := h.ReadRange(context.Background(), 3, 2); err == nil || !strings.Contains(err.Error(), "cell range [3, 5) exceeds size 4") {
		t.Errorf("range past the slab = %v", err)
	}
}
