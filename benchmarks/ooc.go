package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"
	"unsafe"

	"github.com/aqldb/aql"
	"github.com/aqldb/aql/internal/netcdf"
	"github.com/aqldb/aql/internal/object"
)

// ooc_scan: tile plus netcdf do most of the work. A seeded double variable
// on disk is bound lazily with `readval ... using NETCDF` under a tile
// cache an eighth of its boxed size (the larger-than-cache case). One
// operation is a round of three steps: a full sequential scan, a set of
// seeded square sub-slab windows (section 4.1), and a column walk that
// touches one cell per tile with the prefetcher useless. Sequential against
// strided access is the same layer used two ways.

type oocSizes struct {
	rows, cols int
	tileCells  int
	window     int // windows are window x window
	windows    int // per round
	stepRows   int // the column walk reads every stepRows-th row: two tiles apart
	walkCols   int // columns walked per round
}

// The issue's variable is 1024x512; it is 384x512 here so that a round costs
// about 110 ms on the seed commit in this sandbox and a 20 s run holds well
// over 100 rounds.
var (
	oocFull  = oocSizes{rows: 384, cols: 512, tileCells: 4096, window: 32, windows: 16, stepRows: 16, walkCols: 4}
	oocQuick = oocSizes{rows: 128, cols: 128, tileCells: 256, window: 8, windows: 16, stepRows: 4, walkCols: 4}
)

var oocClasses = []string{"seq", "slab", "strided"}

// cellBytes is the in-memory size of one boxed cell, which is what the tile
// cache charges against its budget.
const cellBytes = int64(unsafe.Sizeof(object.Value{}))

type oocWorkload struct {
	sz      oocSizes
	seed    int64
	workdir string
	data    []float64 // row-major; multiples of 1/8, so every sum is exact
	wantSeq float64
	texts   [3]string
	ihash   string
}

func newOOC(cfg config) *oocWorkload {
	w := &oocWorkload{sz: oocFull, seed: cfg.seed, workdir: cfg.workdir}
	if cfg.quick {
		w.sz = oocQuick
	}
	r := newRNG(cfg.seed, "ooc_scan.data")
	w.data = make([]float64, w.sz.rows*w.sz.cols)
	for i := range w.data {
		w.data[i] = float64(r.intn(8000)) / 8
		w.wantSeq += w.data[i]
	}
	sz := w.sz
	w.texts = [3]string{
		fmt.Sprintf(`summap(fn \i => summap(fn \j => W[i,j])!(gen!%d))!(gen!%d)`, sz.cols, sz.rows),
		fmt.Sprintf(`[[ W[$r + i, $c + j] | \i < %d, \j < %d ]]`, sz.window, sz.window),
		fmt.Sprintf(`summap(fn \k => summap(fn \i => W[i*%d, $c + k])!(gen!%d))!(gen!%d)`,
			sz.stepRows, sz.rows/sz.stepRows, sz.walkCols),
	}
	h := newInputHash()
	h.floats(w.data)
	for _, t := range w.texts {
		h.str(t)
	}
	for _, o := range w.origins(newRNG(cfg.seed, "ooc_scan.ops"), 64) {
		h.ints([]int64{int64(o.r), int64(o.c)})
	}
	w.ihash = h.sum()
	return w
}

func (w *oocWorkload) name() string { return "ooc_scan" }
func (w *oocWorkload) hash() string { return w.ihash }

func (w *oocWorkload) cellsPerOp() int {
	sz := w.sz
	return sz.rows*sz.cols + sz.windows*sz.window*sz.window + sz.walkCols*(sz.rows/sz.stepRows)
}

// budget is the tile-cache budget of the larger-than-cache case: an eighth
// of the boxed variable.
func (w *oocWorkload) budget() int64 {
	return int64(w.sz.rows*w.sz.cols) * cellBytes / 8
}

type origin struct{ r, c int }

// origins draws n window origins (the last is also used as a walk column).
func (w *oocWorkload) origins(r *rng, n int) []origin {
	out := make([]origin, n)
	for i := range out {
		out[i] = origin{r.intn(w.sz.rows - w.sz.window + 1), r.intn(w.sz.cols - w.sz.window + 1)}
	}
	return out
}

// writeFile writes the variable as a NetCDF classic file.
func (w *oocWorkload) writeFile(path string) error {
	nb := netcdf.NewBuilder()
	d0, err := nb.AddDim("y", w.sz.rows)
	if err != nil {
		return err
	}
	d1, err := nb.AddDim("x", w.sz.cols)
	if err != nil {
		return err
	}
	if err := nb.AddVar("v", netcdf.Double, []int{d0, d1}, nil, w.data); err != nil {
		return err
	}
	return nb.WriteFile(path)
}

func (w *oocWorkload) wantWindow(o origin) []float64 {
	n := w.sz.window
	out := make([]float64, 0, n*n)
	for i := 0; i < n; i++ {
		row := (o.r + i) * w.sz.cols
		out = append(out, w.data[row+o.c:row+o.c+n]...)
	}
	return out
}

func (w *oocWorkload) wantWalk(c int) float64 {
	sum := 0.0
	for k := 0; k < w.sz.walkCols; k++ {
		for i := 0; i < w.sz.rows/w.sz.stepRows; i++ {
			sum += w.data[i*w.sz.stepRows*w.sz.cols+c+k]
		}
	}
	return sum
}

type oocInstance struct {
	w     *oocWorkload
	s     *aql.Session
	stmts [3]*aql.Stmt
	r     *rng
}

func (w *oocWorkload) setup() (instance, error) {
	path := filepath.Join(w.workdir, "ooc.nc")
	if err := w.writeFile(path); err != nil {
		return nil, err
	}
	s, err := aql.NewSession()
	if err != nil {
		return nil, err
	}
	s.SetTileConfig(w.sz.tileCells, w.budget())
	if _, err := s.Exec(fmt.Sprintf(`readval \W using NETCDF at (%q, "v");`, path)); err != nil {
		return nil, err
	}
	inst := &oocInstance{w: w, s: s, r: newRNG(w.seed, "ooc_scan.ops")}
	for c, text := range w.texts {
		if inst.stmts[c], err = s.Prepare(text); err != nil {
			return nil, fmt.Errorf("prepare %s: %w", oocClasses[c], err)
		}
	}
	if _, err := inst.op(context.Background(), 0); err != nil {
		return nil, err
	}
	return inst, nil
}

func (in *oocInstance) op(ctx context.Context, _ int) (time.Duration, error) {
	w := in.w
	var total time.Duration
	timed := func(class int, args map[string]any, check func(aql.Value) error) error {
		t0 := time.Now()
		v, err := in.stmts[class].Exec(ctx, args)
		total += time.Since(t0)
		if err != nil {
			return fmt.Errorf("%s: %w", oocClasses[class], err)
		}
		if err := check(v); err != nil {
			return fmt.Errorf("%s: wrong answer: %w", oocClasses[class], err)
		}
		return nil
	}
	if err := timed(0, nil, func(v aql.Value) error { return wantReal(v, w.wantSeq) }); err != nil {
		return 0, err
	}
	origins := w.origins(in.r, w.sz.windows)
	for _, o := range origins {
		want := w.wantWindow(o)
		err := timed(1, map[string]any{"r": o.r, "c": o.c}, func(v aql.Value) error {
			return wantRealArray(v, []int{w.sz.window, w.sz.window}, want)
		})
		if err != nil {
			return 0, err
		}
	}
	c := origins[len(origins)-1].c
	err := timed(2, map[string]any{"c": c}, func(v aql.Value) error { return wantReal(v, w.wantWalk(c)) })
	return total, err
}

func (in *oocInstance) close() { in.s.Close() }
