package repl

import (
	"fmt"
	"io"
	"os"

	"context"

	"github.com/aqldb/aql/internal/env"
	"github.com/aqldb/aql/internal/exchange"
	"github.com/aqldb/aql/internal/netcdf"
	"github.com/aqldb/aql/internal/object"
)

// registerNetCDF registers the NetCDF readers of section 4.1: NETCDF1,
// NETCDF2, NETCDF3 and NETCDF4 input k-dimensional subslabs. Each takes
// (filename, variable, lower, upper) where lower and upper are inclusive
// index bounds — a nat for k = 1, k-tuples of nats otherwise — exactly as
// the session example uses NETCDF3. A fifth reader, NETCDF, reads a whole
// variable at its natural rank.
//
// Files open through the session's per-path handle cache and stay open for
// the session (Session.Close releases them), so repeated reads of one
// dataset parse the header once. The readers are lazy: they validate the
// request against the header and bind a tiled array that fetches cells on
// demand through the session's tile cache — queries over variables larger
// than RAM touch only the tiles they subscript.
func (s *Session) registerNetCDF() {
	for k := 1; k <= 4; k++ {
		s.Env.RegisterReader(fmt.Sprintf("NETCDF%d", k), s.netcdfSlabReader(k))
	}
	s.Env.RegisterReader("NETCDF", s.netcdfWholeReader())
}

var errCharVariable = fmt.Errorf("netcdf: char variables have no array representation; read them as attributes")

// netcdfSlabReader builds the k-dimensional subslab reader.
func (s *Session) netcdfSlabReader(k int) env.Reader {
	return func(arg object.Value) (object.Value, error) {
		if arg.Kind != object.KTuple || len(arg.Elems) != 4 {
			return object.Value{}, fmt.Errorf("NETCDF%d: expected (file, variable, lower, upper)", k)
		}
		if arg.Elems[0].Kind != object.KString || arg.Elems[1].Kind != object.KString {
			return object.Value{}, fmt.Errorf("NETCDF%d: file and variable must be strings", k)
		}
		path, varName := arg.Elems[0].Str(), arg.Elems[1].Str()
		lower, err := object.IndexOf(arg.Elems[2], k)
		if err != nil {
			return object.Value{}, fmt.Errorf("NETCDF%d: lower bound: %w", k, err)
		}
		upper, err := object.IndexOf(arg.Elems[3], k)
		if err != nil {
			return object.Value{}, fmt.Errorf("NETCDF%d: upper bound: %w", k, err)
		}
		f, err := s.io.open(path)
		if err != nil {
			return object.Value{}, err
		}
		v, err := f.Var(varName)
		if err != nil {
			return object.Value{}, err
		}
		if len(v.Dims) != k {
			return object.Value{}, fmt.Errorf("NETCDF%d: variable %q has rank %d", k, varName, len(v.Dims))
		}
		start := make([]int, k)
		count := make([]int, k)
		for d := 0; d < k; d++ {
			if upper[d] < lower[d] {
				return object.Value{}, fmt.Errorf("NETCDF%d: empty bound range in dimension %d", k, d+1)
			}
			start[d] = lower[d]
			count[d] = upper[d] - lower[d] + 1
		}
		h, err := f.Hyperslab(varName, start, count)
		if err != nil {
			return object.Value{}, err
		}
		return s.lazySlab(h)
	}
}

// netcdfWholeReader builds the reader for (file, variable) in full.
func (s *Session) netcdfWholeReader() env.Reader {
	return func(arg object.Value) (object.Value, error) {
		if arg.Kind != object.KTuple || len(arg.Elems) != 2 ||
			arg.Elems[0].Kind != object.KString || arg.Elems[1].Kind != object.KString {
			return object.Value{}, fmt.Errorf("NETCDF: expected (file, variable)")
		}
		path, varName := arg.Elems[0].Str(), arg.Elems[1].Str()
		f, err := s.io.open(path)
		if err != nil {
			return object.Value{}, err
		}
		h, err := f.WholeVar(varName)
		if err != nil {
			return object.Value{}, err
		}
		return s.lazySlab(h)
	}
}

// lazySlab binds a lazy array over a hyperslab, whose construction has
// already checked the request against the header and file size (so a bad or
// truncated request fails the readval, not a tile fetch mid-query). Tiles
// are ranges of the slab's flat cell space.
func (s *Session) lazySlab(h *netcdf.Hyperslab) (object.Value, error) {
	if h.Type() == netcdf.Char {
		return object.Value{}, errCharVariable
	}
	// A tile is the decoded []float64 itself: cells are boxed one at a time
	// as queries read them, not 4096 at a time when the tile arrives.
	fetch := func(ctx context.Context, off, n int) (object.Flat, error) {
		vals, err := h.ReadRange(ctx, off, n)
		if err != nil {
			return object.Flat{}, err
		}
		return object.PackReals(vals, nonFiniteDiag), nil
	}
	// A scalar variable is a [1]-shaped array over a one-cell tile.
	shape := h.Shape()
	if len(shape) == 0 {
		shape = []int{1}
	}
	return object.LazyArray(shape, s.TileCache().NewFlatArray(h.Size(), fetch))
}

// nonFiniteDiag is the diagnostic of the ⊥ a non-finite NetCDF value reads as.
const nonFiniteDiag = "non-finite value in NetCDF data"

// RegisterNetCDFWriter registers the NETCDF writer: `writeval E using
// NETCDF at (file, variable)` writes a k-dimensional array of reals (or
// nats) as a double variable in a new classic-format file, with dimensions
// named dim1..dimk. Together with the readers this closes the loop: AQL
// results can feed other NetCDF tools.
func RegisterNetCDFWriter(e *env.Env) {
	e.RegisterWriter("NETCDF", func(arg, data object.Value) error {
		if arg.Kind != object.KTuple || len(arg.Elems) != 2 ||
			arg.Elems[0].Kind != object.KString || arg.Elems[1].Kind != object.KString {
			return fmt.Errorf("NETCDF writer: expected (file, variable)")
		}
		if data.Kind != object.KArray {
			return fmt.Errorf("NETCDF writer: expected an array, got %s", data.Kind)
		}
		vals := make([]float64, len(data.Elems))
		for i, v := range data.Elems {
			f, err := v.AsReal()
			if err != nil {
				return fmt.Errorf("NETCDF writer: element %d: %w", i, err)
			}
			vals[i] = f
		}
		b := netcdf.NewBuilder()
		dims := make([]int, len(data.Shape))
		for d, n := range data.Shape {
			id, err := b.AddDim(fmt.Sprintf("dim%d", d+1), n)
			if err != nil {
				return fmt.Errorf("NETCDF writer: %w", err)
			}
			dims[d] = id
		}
		if err := b.AddVar(arg.Elems[1].Str(), netcdf.Double, dims, nil, vals); err != nil {
			return fmt.Errorf("NETCDF writer: %w", err)
		}
		return b.WriteFile(arg.Elems[0].Str())
	})
}

// RegisterPrint registers the PRINT writer: `writeval E using PRINT at
// label` pretty-prints the value to w with the given label.
func RegisterPrint(e *env.Env, w io.Writer) {
	e.RegisterWriter("PRINT", func(arg, data object.Value) error {
		label := ""
		if arg.Kind == object.KString {
			label = arg.Str() + " = "
		}
		_, err := fmt.Fprintf(w, "%s%s\n", label, data.Pretty(24))
		return err
	})
}

// RegisterExchange registers the EXCHANGE reader and writer for the
// complex-object data exchange format of section 3: any driver that
// produces this format can feed the system (section 4.1).
func RegisterExchange(e *env.Env) {
	e.RegisterReader("EXCHANGE", func(arg object.Value) (object.Value, error) {
		if arg.Kind != object.KString {
			return object.Value{}, fmt.Errorf("EXCHANGE: expected a file name")
		}
		f, err := os.Open(arg.Str())
		if err != nil {
			return object.Value{}, err
		}
		defer f.Close()
		return exchange.Read(f)
	})
	e.RegisterWriter("EXCHANGE", func(arg, data object.Value) error {
		if arg.Kind != object.KString {
			return fmt.Errorf("EXCHANGE: expected a file name")
		}
		f, err := os.Create(arg.Str())
		if err != nil {
			return err
		}
		if err := exchange.Write(f, data); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	})
}
