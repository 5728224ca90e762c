package repl

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"unsafe"

	"github.com/aqldb/aql/internal/netcdf"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/tile"
)

// scanGrid is the shape of an out-of-core scan: a rows x cols double
// variable read through tiles of tileCells cells, the three statement shapes
// of the ooc_scan workload over it — a full Σ scan, window x window
// sub-slab tabulations at $r, $c, and a walk down walkCols columns from $c
// reading every stepRows-th row.
type scanGrid struct {
	rows, cols, tileCells      int
	window, stepRows, walkCols int
}

// ooc is the ooc_scan workload's grid; oocSmall one a test runs in
// milliseconds, with four rows to a tile so the walk reads one cell every
// other tile, as the workload's does.
var (
	ooc      = scanGrid{rows: 384, cols: 512, tileCells: 4096, window: 32, stepRows: 16, walkCols: 4}
	oocSmall = scanGrid{rows: 48, cols: 64, tileCells: 256, window: 8, stepRows: 8, walkCols: 4}
)

// budget is the workload's tile-cache budget: an eighth of the variable's
// boxed size, which holds every packed tile.
func (g scanGrid) budget() int64 {
	return int64(g.rows*g.cols) * int64(unsafe.Sizeof(object.Value{})) / 8
}

// write writes the variable, v[i, j] = ((i*cols + j) % 1000) / 8, so every
// sum is exact, and returns its path.
func (g scanGrid) write(tb testing.TB, dir string) string {
	tb.Helper()
	b := netcdf.NewBuilder()
	d0, _ := b.AddDim("y", g.rows)
	d1, _ := b.AddDim("x", g.cols)
	data := make([]float64, g.rows*g.cols)
	for i := range data {
		data[i] = float64(i%1000) / 8
	}
	if err := b.AddVar("v", netcdf.Double, []int{d0, d1}, nil, data); err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("grid-%dx%d.nc", g.rows, g.cols))
	if err := b.WriteFile(path); err != nil {
		tb.Fatal(err)
	}
	return path
}

// scanStmt is one statement shape, with the arguments of its i-th execution.
type scanStmt struct {
	name, text string
	args       func(i int) map[string]object.Value
}

func (g scanGrid) stmts() []scanStmt {
	origin := func(i, span int) object.Value { return object.Nat(int64(i * 37 % span)) }
	return []scanStmt{
		{"seq", fmt.Sprintf(`summap(fn \i => summap(fn \j => W[i,j])!(gen!%d))!(gen!%d)`, g.cols, g.rows),
			func(int) map[string]object.Value { return nil }},
		{"slab", fmt.Sprintf(`[[ W[$r + i, $c + j] | \i < %d, \j < %d ]]`, g.window, g.window),
			func(i int) map[string]object.Value {
				return map[string]object.Value{"r": origin(i, g.rows-g.window+1), "c": origin(i+5, g.cols-g.window+1)}
			}},
		{"strided", fmt.Sprintf(`summap(fn \k => summap(fn \i => W[i*%d, $c + k])!(gen!%d))!(gen!%d)`, g.stepRows, g.rows/g.stepRows, g.walkCols),
			func(i int) map[string]object.Value {
				return map[string]object.Value{"c": origin(i, g.cols-g.walkCols+1)}
			}},
	}
}

// session opens a session with the variable at path bound lazily as W over
// a tile cache of the grid's tile size and the given budget.
func (g scanGrid) session(tb testing.TB, path string, budget int64, noPrefetch bool) *Session {
	tb.Helper()
	s, err := New()
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	s.SetTileConfig(g.tileCells, budget, noPrefetch)
	if _, err := s.Exec(fmt.Sprintf(`readval \W using NETCDF at (%q, "v");`, path)); err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestLazyIOCompiledMatchesInterp holds the compiled engine, which reads a
// lazy array through one tile cursor per subscript site, to the
// interpreter's cell-by-cell reads on every I/O counter of every execution
// of the three ooc_scan shapes, and of a window read at two sites whose
// tiles differ: with a budget that holds every tile, and with room for one
// tile and no readahead, where every tile change evicts and the two sites
// evict each other's tile at every read.
func TestLazyIOCompiledMatchesInterp(t *testing.T) {
	g := oocSmall
	path := g.write(t, t.TempDir())
	slab := g.stmts()[1]
	pair := fmt.Sprintf(`[[ W[i, $c + j] + W[$r + i, $c + j] | \i < %d, \j < %d ]]`, g.window, g.window)
	stmts := append(g.stmts(), scanStmt{"pair", pair, slab.args})
	for _, cfg := range []struct {
		name       string
		budget     int64
		noPrefetch bool
	}{
		{"fits", g.budget(), false},
		{"one tile", tile.RealTileBytes(g.tileCells), true},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			var outcomes [2][]string
			for e, engine := range []string{EngineInterp, EngineCompiled} {
				s := g.session(t, path, cfg.budget, cfg.noPrefetch)
				s.Engine = engine
				for _, st := range stmts {
					p, err := s.Prepare(st.text)
					if err != nil {
						t.Fatal(err)
					}
					for i := 0; i < 3; i++ {
						v, err := p.Exec(context.Background(), st.args(i))
						if err != nil {
							t.Fatalf("%s %s #%d: %v", engine, st.name, i, err)
						}
						io := s.LastReport().IO
						if io.BytesReturned == 0 {
							t.Fatalf("%s %s #%d read no cells", engine, st.name, i)
						}
						outcomes[e] = append(outcomes[e], fmt.Sprintf("%s #%d: %.60s io %+v", st.name, i, v, io))
					}
				}
			}
			for i := range outcomes[0] {
				if outcomes[1][i] != outcomes[0][i] {
					t.Errorf("compiled diverges from interp:\n got: %s\nwant: %s", outcomes[1][i], outcomes[0][i])
				}
			}
		})
	}
}

// TestLazyScanAllocs: a full scan of a resident lazy array allocates per
// execution, not per cell or per tile: the same number of times over one
// tile (64x64) as over the workload's 48 (384x512).
func TestLazyScanAllocs(t *testing.T) {
	dir := t.TempDir()
	allocs := func(g scanGrid) float64 {
		s := g.session(t, g.write(t, dir), g.budget(), false)
		p, err := s.Prepare(g.stmts()[0].text)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := p.Exec(context.Background(), nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := ooc
	small.rows, small.cols = 64, 64
	one, many := allocs(small), allocs(ooc)
	t.Logf("resident full scan: %.0f allocations per Exec over 64x64, %.0f over 384x512", one, many)
	if one != many {
		t.Errorf("a resident full scan allocates %.0f times over 64x64 but %.0f over 384x512", one, many)
	}
}

// BenchmarkLazyScan runs the ooc_scan workload's three statements, one
// execution per op, over the workload's 384x512 variable, tiles and budget,
// with every tile made resident by a full scan before timing starts.
func BenchmarkLazyScan(b *testing.B) {
	g := ooc
	path := g.write(b, b.TempDir())
	stmts := g.stmts()
	for _, st := range stmts {
		b.Run(st.name, func(b *testing.B) {
			s := g.session(b, path, g.budget(), false)
			if _, _, err := s.Query(stmts[0].text); err != nil {
				b.Fatal(err)
			}
			p, err := s.Prepare(st.text)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.Exec(context.Background(), st.args(0)); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Exec(context.Background(), st.args(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
