package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/aqldb/aql/internal/netcdf"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/repl"
	"github.com/aqldb/aql/internal/trace"
	"github.com/aqldb/aql/internal/types"
)

// bindFaultySeries binds V and W to two lazy arrays over one 64-cell NetCDF
// series, read through a fault injector and the session's tile cache of
// 16-cell tiles without prefetch: reading one of them whole is 4 tile misses
// and 4 slab reads of 128 bytes.
func bindFaultySeries(t *testing.T, s *Server) *netcdf.FaultyReaderAt {
	t.Helper()
	b := netcdf.NewBuilder()
	d0, _ := b.AddDim("x", 64)
	data := make([]float64, 64)
	for i := range data {
		data[i] = float64(i) * 0.5
	}
	if err := b.AddVar("series", netcdf.Double, []int{d0}, nil, data); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "series.nc")
	if err := b.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	osf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { osf.Close() })
	faulty := netcdf.NewFaultyReaderAt(osf)
	f, err := netcdf.Read(faulty)
	if err != nil {
		t.Fatal(err)
	}
	h, err := f.WholeVar("series")
	if err != nil {
		t.Fatal(err)
	}
	fetch := func(ctx context.Context, off, n int) (object.Flat, error) {
		vals, err := h.ReadRange(ctx, off, n)
		if err != nil {
			return object.Flat{}, err
		}
		return object.PackReals(vals, "non-finite"), nil
	}
	s.sess.SetTileConfig(16, 0, true)
	for _, name := range []string{"V", "W"} {
		lazy, err := object.LazyArray(h.Shape(), s.sess.TileCache().NewFlatArray(h.Size(), fetch))
		if err != nil {
			t.Fatal(err)
		}
		s.sess.Env.SetVal(name, lazy, types.MustParse("[[real]]"))
	}
	return faulty
}

// TestEveryBoundaryReadsUnderItsExecution holds every place an execution
// hands a lazy array to code that needs it whole — a primitive, a writer, a
// comparison, a set or bag element, the server's result — to one rule: the
// array is read through the tile cache under the execution's context. With
// no fault the execution's report has exactly those reads; with a persistent
// fault the execution fails with the typed I/O error, and nothing panics.
// POST /query runs the compiled engine only, as the server does.
func TestEveryBoundaryReadsUnderItsExecution(t *testing.T) {
	out := t.TempDir()
	rows := []struct {
		name  string
		src   string
		whole int64 // lazy arrays the execution reads whole
		http  bool
	}{
		{"primitive", `total!W;`, 1, false},
		{"NETCDF writer", fmt.Sprintf(`writeval W using NETCDF at (%q, "v");`, filepath.Join(out, "w.nc")), 1, false},
		{"EXCHANGE writer", fmt.Sprintf(`writeval W using EXCHANGE at %q;`, filepath.Join(out, "w.co")), 1, false},
		{"PRINT writer", `writeval W using PRINT at "w";`, 1, false},
		{"=", `W = V;`, 2, false},
		{"union", `{W} union {V};`, 2, false},
		{"bag union", `{|W|} uplus {|V|};`, 2, false},
		{"member!", `member!(W, {V});`, 2, false},
		{"tuple in a set", `{(W, 1)};`, 1, false},
		{"POST /query", `W`, 1, true},
	}
	for _, row := range rows {
		engines := []string{repl.EngineCompiled, repl.EngineInterp}
		if row.http {
			engines = engines[:1]
		}
		for _, engine := range engines {
			for _, broken := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/fault=%v", row.name, engine, broken)
				t.Run(name, func(t *testing.T) {
					s, ts := newTestServer(t, Config{})
					s.sess.Engine = engine
					repl.RegisterPrint(s.sess.Env, io.Discard)
					if err := s.sess.Env.RegisterPrimitive("total", func(v object.Value) (object.Value, error) {
						if v.IsLazy() {
							return object.Value{}, errors.New("total: handed an unmaterialized lazy array")
						}
						sum := 0.0
						for _, c := range v.Elems {
							sum += c.R
						}
						return object.Real(sum), nil
					}, types.MustParse("[[real]] -> real")); err != nil {
						t.Fatal(err)
					}
					faulty := bindFaultySeries(t, s)
					if broken {
						persistent := make([]netcdf.Fault, 64)
						for i := range persistent {
							persistent[i] = netcdf.Fault{Err: netcdf.ErrInjected}
						}
						faulty.SetSchedule(0, persistent...)
					}

					var rep trace.QueryReport
					if row.http {
						qr, status, err := postQuery(ts, QueryRequest{Query: row.src})
						if broken {
							if status != http.StatusUnprocessableEntity || err == nil || !strings.Contains(err.Error(), "injected") {
								t.Fatalf("POST /query under a fault = %d, %v; want 422 with the injected I/O error", status, err)
							}
							return
						}
						if err != nil {
							t.Fatal(err)
						}
						if !strings.HasPrefix(qr.Value, "[[0.0, 0.5, 1.0") {
							t.Errorf("value = %.40s, want W's cells", qr.Value)
						}
						rep = lastReport(t, ts)
					} else {
						var err error
						func() {
							defer func() {
								if r := recover(); r != nil {
									t.Fatalf("Exec panicked: %v", r)
								}
							}()
							_, err = s.sess.Exec(row.src)
						}()
						if broken {
							var pe *repl.PanicError
							if !errors.Is(err, netcdf.ErrInjected) || errors.As(err, &pe) {
								t.Fatalf("under a fault: err = %v, want the injected I/O error", err)
							}
							return
						}
						if err != nil {
							t.Fatal(err)
						}
						rep = *s.sess.LastReport()
					}
					tiles := 4 * row.whole
					if io := rep.IO; io.TileMisses != tiles || io.SlabReads != tiles || io.BytesRead != 128*tiles {
						t.Errorf("report IO: %d tile misses, %d slab reads, %d bytes read; want %d, %d, %d",
							io.TileMisses, io.SlabReads, io.BytesRead, tiles, tiles, 128*tiles)
					}
				})
			}
		}
	}
}
