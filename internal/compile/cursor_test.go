package compile

import (
	"context"
	"errors"
	"testing"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/tile"
	"github.com/aqldb/aql/internal/trace"
)

// lazyReals binds W to a lazy real array of n cells, W[i] = i, over a fresh
// tile cache of tc-cell tiles that holds them all, without readahead, and
// returns the cache too.
func lazyReals(t *testing.T, n, tc int) (map[string]object.Value, *tile.Cache) {
	t.Helper()
	c := tile.New(tile.Config{TileCells: tc, NoPrefetch: true})
	t.Cleanup(func() { c.Close() })
	arr := c.NewArray(n, func(_ context.Context, start, n int) ([]object.Value, error) {
		out := make([]object.Value, n)
		for i := range out {
			out[i] = object.Real(float64(start + i))
		}
		return out, nil
	})
	w, err := object.LazyArray([]int{n}, arr)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]object.Value{"W": w}, c
}

// lazyRun is what one engine's evaluation over the lazy array did: its
// error and the I/O its collector recorded.
type lazyRun struct {
	err error
	io  trace.IOCounters
}

// lazyIO runs expr under each engine on its own copy of the lazy array.
func lazyIO(t *testing.T, expr ast.Expr, n, tc int, limits eval.Limits, opts ExecOpts) map[string]lazyRun {
	t.Helper()
	out := map[string]lazyRun{}
	for name, mk := range map[string]func(map[string]object.Value) evaluator{
		"interp": func(g map[string]object.Value) evaluator {
			ev := eval.New(g)
			ev.Limits = limits
			return ev
		},
		"compiled": func(g map[string]object.Value) evaluator {
			return &engine{globals: g, limits: limits, opts: opts}
		},
	} {
		ctx, col := tile.WithCollector(context.Background())
		globals, _ := lazyReals(t, n, tc)
		_, err := mk(globals).EvalExpr(ctx, expr)
		out[name] = lazyRun{err, col.Snapshot()}
	}
	return out
}

// TestCursorCountsStoppedScan: a Σ scan over a lazy array that a step
// budget stops in the middle of a tile reports every read its cursor served
// from the pinned tile, as the interpreter's cell-by-cell reads do.
func TestCursorCountsStoppedScan(t *testing.T) {
	const n, tc = 64, 16
	scan := &ast.Sum{Head: &ast.Subscript{Arr: v("W"), Index: v("x")}, Var: "x", Over: &ast.Gen{N: nat(n)}}
	got := lazyIO(t, scan, n, tc, eval.Limits{MaxSteps: 110}, ExecOpts{})
	ref, com := got["interp"], got["compiled"]
	var re *eval.ResourceError
	if !errors.As(com.err, &re) || re.Kind != eval.ResourceSteps || ref.err == nil || com.err.Error() != ref.err.Error() {
		t.Fatalf("compiled err = %v, interp err = %v; want the same step budget error", com.err, ref.err)
	}
	reads := com.io.BytesReturned / 8
	if reads <= tc || reads%tc == 0 {
		t.Fatalf("the scan stopped after %d reads; the test wants a stop inside a tile after the first", reads)
	}
	if com.io != ref.io || com.io.TileHits != reads-com.io.TileMisses {
		t.Errorf("compiled I/O %+v, interp I/O %+v: want equal, a hit for every read served", com.io, ref.io)
	}
}

// TestCursorPerWorkerCounts: a tabulation fanned out over workers, each
// reading through cursors of its own machine, counts every read once: the
// same I/O as the interpreter's serial cell-by-cell reads.
func TestCursorPerWorkerCounts(t *testing.T) {
	const n, tc = 3 * minChunk, 64
	// [[ W[i] + W[n-1-i] | i < n ]]
	tab := &ast.ArrayTab{
		Head: &ast.Arith{
			Op: ast.OpAdd,
			L:  &ast.Subscript{Arr: v("W"), Index: v("i")},
			R:  &ast.Subscript{Arr: v("W"), Index: &ast.Arith{Op: ast.OpSub, L: nat(n - 1), R: v("i")}},
		},
		Idx:    []string{"i"},
		Bounds: []ast.Expr{nat(n)},
	}
	got := lazyIO(t, tab, n, tc, eval.Limits{}, ExecOpts{Threshold: 1, Workers: 3})
	ref, com := got["interp"], got["compiled"]
	if ref.err != nil || com.err != nil {
		t.Fatalf("interp err = %v, compiled err = %v", ref.err, com.err)
	}
	if com.io != ref.io || ref.io.BytesReturned != 2*n*8 || ref.io.TileMisses != n/tc {
		t.Errorf("compiled I/O %+v, interp I/O %+v: want equal, %d reads and one miss per tile", com.io, ref.io, 2*n)
	}
}

// TestCursorCountsClosureEnteredFromOutside: a compiled function called by
// Go code (through Fn, on a machine of its own) counts the reads its
// cursors served when the call returns.
func TestCursorCountsClosureEnteredFromOutside(t *testing.T) {
	const n, tc = 64, 16
	globals, cache := lazyReals(t, n, tc)
	// λk. Σ{ W[x] | x ∈ gen!k }
	fn := &ast.Lam{Param: "k", Body: &ast.Sum{Head: &ast.Subscript{Arr: v("W"), Index: v("x")}, Var: "x", Over: &ast.Gen{N: v("k")}}}
	f := run(t, &engine{globals: globals}, fn)
	sum, err := f.Fn()(object.Nat(n))
	if err != nil || sum.R != n*(n-1)/2 {
		t.Fatalf("Σ W[x] over gen!%d = %v, %v", n, sum, err)
	}
	if st := cache.Stats(); st.TileHits+st.TileMisses != n || st.BytesReturned != n*8 {
		t.Errorf("cache counted %+v after the call: want %d reads, each a hit or a miss", st, n)
	}
}

// TestCursorCountsExecuteRange: one shard of a tabulation over a lazy array
// counts every read of its range when ExecuteRange returns.
func TestCursorCountsExecuteRange(t *testing.T) {
	const n, tc, lo, hi = 64, 16, 5, 40
	globals, _ := lazyReals(t, n, tc)
	tab := &ast.ArrayTab{Head: &ast.Subscript{Arr: v("W"), Index: v("i")}, Idx: []string{"i"}, Bounds: []ast.Expr{nat(n)}}
	ctx, col := tile.WithCollector(context.Background())
	res, err := NewProgram(tab, globals, eval.Limits{}).ExecuteRange(ctx, ExecOpts{Threshold: -1}, []int{n}, lo, hi)
	if err != nil || len(res.Values) != hi-lo || res.Values[0].R != lo {
		t.Fatalf("ExecuteRange = %v, %v", res, err)
	}
	if io := col.Snapshot(); io.TileHits+io.TileMisses != hi-lo || io.BytesReturned != (hi-lo)*8 {
		t.Errorf("collector counted %+v: want %d reads, each a hit or a miss", io, hi-lo)
	}
}
