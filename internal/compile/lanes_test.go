package compile

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/object"
)

// laneN is the length of the loops the block-form tests scan: four blocks
// of blockLanes, split into two chunks of 500 elements (a Σ's, 512) by a
// 2-worker fan-out.
const laneN = 1000

// laneSource is a way for one lane of a block-eligible head to go wrong: a
// head over i and the globals it reads, built so that element at alone is ⊥
// or a kind surprise (the block must rerun on closures) and every other
// element is a number.
type laneSource struct {
	name string
	make func(at int) (head ast.Expr, globals map[string]object.Value)
}

// natVec is the nat vector x[i] = f(i) of laneN cells, cell at replaced by
// planted.
func natVec(f func(i int) int64, at int, planted object.Value) object.Value {
	cells := make([]object.Value, laneN)
	for i := range cells {
		cells[i] = object.Nat(f(i))
	}
	cells[at] = planted
	return object.Vector(cells...)
}

func sub1(arr, idx ast.Expr) ast.Expr { return &ast.Subscript{Arr: arr, Index: idx} }

var laneSources = []laneSource{
	{"out of bounds", func(at int) (ast.Expr, map[string]object.Value) {
		x := natVec(func(i int) int64 { return int64(i) }, at, object.Nat(laneN+5))
		a := natVec(func(i int) int64 { return int64(i % 7) }, 0, object.Nat(3))
		return sub1(v("A"), sub1(v("X"), v("i"))), map[string]object.Value{"A": a, "X": x}
	}},
	{"nat overflow", func(at int) (ast.Expr, map[string]object.Value) {
		x := natVec(func(i int) int64 { return int64(i % 100) }, at, object.Nat(1<<40))
		return arith(ast.OpMul, sub1(v("X"), v("i")), nat(1<<33)), map[string]object.Value{"X": x}
	}},
	{"division by zero", func(at int) (ast.Expr, map[string]object.Value) {
		x := natVec(func(i int) int64 { return int64(i%9 + 1) }, at, object.Nat(0))
		return arith(ast.OpDiv, nat(1000), sub1(v("X"), v("i"))), map[string]object.Value{"X": x}
	}},
	{"modulus by zero", func(at int) (ast.Expr, map[string]object.Value) {
		x := natVec(func(i int) int64 { return int64(i%9 + 1) }, at, object.Nat(0))
		return arith(ast.OpMod, nat(1000), sub1(v("X"), v("i"))), map[string]object.Value{"X": x}
	}},
	{"non-finite real", func(at int) (ast.Expr, map[string]object.Value) {
		cells := make([]object.Value, laneN)
		for i := range cells {
			cells[i] = object.Real(float64(i%13) / 8)
		}
		cells[at] = object.Real(1e10)
		return arith(ast.OpMul, sub1(v("Y"), v("i")), &ast.RealLit{Val: 1e300}), map[string]object.Value{"Y": object.Vector(cells...)}
	}},
	{"⊥ input cell", func(at int) (ast.Expr, map[string]object.Value) {
		x := natVec(func(i int) int64 { return int64(i % 50) }, at, object.Bottom(fmt.Sprintf("planted at %d", at)))
		return arith(ast.OpAdd, sub1(v("X"), v("i")), v("i")), map[string]object.Value{"X": x}
	}},
	{"real cell in a nat array", func(at int) (ast.Expr, map[string]object.Value) {
		x := natVec(func(i int) int64 { return int64(i % 50) }, at, object.Real(2.5))
		return arith(ast.OpAdd, sub1(v("X"), v("i")), v("i")), map[string]object.Value{"X": x}
	}},
}

// laneAts are the offsets a source goes wrong at: the first lane, mid-block,
// the last lane of a block, and either side of the 2-worker fan-out's chunk
// edge (500 for a tabulation, 512 for a Σ, whose chunks are whole
// eval.SumBlock blocks).
var laneAts = []int{0, 100, blockLanes - 1, 499, 500, 511, 512}

// checkLaneRun runs e on the interpreter and, compiled, serially and on a
// 2-worker fan-out, and holds the three to one outcome — the value's bits,
// the ⊥ diagnostic, the error text — and the same five counters. Under a
// step budget it runs e serially only: a fanned-out tabulation trips a
// step budget within the workers' unpublished steps of the serial step.
func checkLaneRun(t *testing.T, e ast.Expr, globals map[string]object.Value, lim eval.Limits) {
	t.Helper()
	ctx := context.Background()
	in := eval.New(globals)
	in.Limits = lim
	want := sumOutcome(in.EvalExpr(ctx, e))
	p := NewProgram(e, globals, lim)
	runs := []ExecOpts{{Threshold: -1}, {Threshold: 1, Workers: 2}}
	if lim.MaxSteps > 0 {
		runs = runs[:1]
	}
	for _, opts := range runs {
		v, counters, err := p.Execute(ctx, opts)
		if got := sumOutcome(v, err); got != want {
			t.Fatalf("workers %d: %s, interpreter %s", opts.Workers, got, want)
		}
		if counters != in.Counters() {
			t.Fatalf("workers %d: counters %+v, interpreter %+v", opts.Workers, counters, in.Counters())
		}
	}
}

// TestLaneBlockEdges: a ⊥ or a kind surprise at the first lane, mid-block,
// the last lane and a fan-out chunk edge, from each source, gives the
// interpreter's outcome and counters, in a tabulation and in a Σ. A
// tabulation's cells are also each the interpreter's, ⊥ or not, in every
// shard ExecuteRange scans: a block that fails keeps none of its lanes.
func TestLaneBlockEdges(t *testing.T) {
	for _, src := range laneSources {
		for _, at := range laneAts {
			head, globals := src.make(at)
			t.Run(fmt.Sprintf("%s/at=%d", src.name, at), func(t *testing.T) {
				tab := &ast.ArrayTab{Head: head, Idx: []string{"i"}, Bounds: []ast.Expr{nat(laneN)}}
				checkLaneRun(t, tab, globals, eval.Limits{})
				checkLaneRun(t, &ast.Sum{Var: "i", Over: &ast.Gen{N: nat(laneN)}, Head: head}, globals, eval.Limits{})
				checkLaneCells(t, tab, head, globals)
			})
		}
	}
}

// checkLaneCells holds each cell ExecuteRange computes for tab, over shards
// cut off the block grid, to the interpreter's value of head at that cell.
func checkLaneCells(t *testing.T, tab, head ast.Expr, globals map[string]object.Value) {
	t.Helper()
	ctx := context.Background()
	in := eval.New(globals)
	p := NewProgram(tab, globals, eval.Limits{})
	plan, err := p.PlanShards(ctx, ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rg := range [][2]int64{{0, 300}, {300, 777}, {777, laneN}} {
		res, err := p.ExecuteRange(ctx, ExecOpts{Threshold: -1}, plan.Shape, rg[0], rg[1])
		if err != nil {
			t.Fatal(err)
		}
		for k, got := range res.Values {
			off := rg[0] + int64(k)
			want, err := in.EvalExpr(ctx, &ast.App{Fn: &ast.Lam{Param: "i", Body: head}, Arg: nat(off)})
			if err != nil {
				t.Fatal(err)
			}
			if sumOutcome(got, nil) != sumOutcome(want, nil) {
				t.Fatalf("cell %d: %s, interpreter %s", off, sumOutcome(got, nil), sumOutcome(want, nil))
			}
		}
	}
}

// TestLaneSumOverMembers: a Σ whose member is the lane reads a set's
// elements, nats or reals, or a range's nats; a member of another kind
// than the block's first sends the block back to the closures.
func TestLaneSumOverMembers(t *testing.T) {
	head := arith(ast.OpAdd, arith(ast.OpMul, v("x"), nat(3)), v("c"))
	reals := make([]object.Value, laneN)
	mixed := make([]object.Value, laneN)
	for i := range reals {
		reals[i] = object.Real(float64(i) / 7)
		mixed[i] = object.Nat(int64(i))
	}
	mixed[300] = object.Real(0.5)
	for name, over := range map[string]object.Value{
		"nat set":   eval.GenSet(laneN),
		"real set":  object.SetFromSorted(reals),
		"mixed bag": object.Bag(mixed...),
	} {
		t.Run(name, func(t *testing.T) {
			globals := map[string]object.Value{"S": over, "c": object.Nat(2)}
			checkLaneRun(t, &ast.Sum{Var: "x", Over: v("S"), Head: head}, globals, eval.Limits{})
		})
	}
	t.Run("gen", func(t *testing.T) {
		checkLaneRun(t, &ast.Sum{Var: "x", Over: &ast.Gen{N: nat(laneN)}, Head: head},
			map[string]object.Value{"c": object.Real(0.25)}, eval.Limits{})
	})
}

// TestLaneStepBudget: a step budget that runs out inside a block trips at
// the interpreter's step, with its counters: the block runs on closures.
func TestLaneStepBudget(t *testing.T) {
	head, globals := laneSources[2].make(laneN - 1) // 1000 / X[i]: 4 steps a cell
	for _, e := range []ast.Expr{
		&ast.ArrayTab{Head: head, Idx: []string{"i"}, Bounds: []ast.Expr{nat(laneN)}},
		&ast.Sum{Var: "i", Over: &ast.Gen{N: nat(laneN)}, Head: head},
	} {
		for _, budget := range []int64{3 + 4*blockLanes/2, 3 + 4*blockLanes, 3 + 4*(blockLanes+1), 4 * laneN} {
			t.Run(fmt.Sprintf("%s/%d", ast.NodeName(e), budget), func(t *testing.T) {
				checkLaneRun(t, e, globals, eval.Limits{MaxSteps: budget})
			})
		}
	}
}

// TestLaneDepthBudget: a depth budget the head's nesting would cross trips
// as the interpreter's does; one it reaches exactly does not.
func TestLaneDepthBudget(t *testing.T) {
	head, globals := laneSources[0].make(laneN - 1) // A[X[i]]: 3 deep below the tabulation
	for _, e := range []ast.Expr{
		&ast.ArrayTab{Head: head, Idx: []string{"i"}, Bounds: []ast.Expr{nat(laneN)}},
		&ast.Sum{Var: "i", Over: &ast.Gen{N: nat(laneN)}, Head: head},
	} {
		for depth := 2; depth <= 5; depth++ {
			t.Run(fmt.Sprintf("%s/%d", ast.NodeName(e), depth), func(t *testing.T) {
				checkLaneRun(t, e, globals, eval.Limits{MaxDepth: depth})
			})
		}
	}
}

// TestLaneCancellation: a blocked scan sees its context's cancellation at
// the first InterruptInterval multiple its blocks cross: a Σ started under
// a cancelled context charges at most one block and InterruptInterval
// steps, and one cancelled mid-scan stops long before the scan's end.
func TestLaneCancellation(t *testing.T) {
	head := arith(ast.OpMod, arith(ast.OpMul, v("i"), nat(7)), nat(13)) // 5 steps a member

	// Over a set, nothing before the scan polls: the first block's steps
	// cross the first InterruptInterval multiple and see the cancellation.
	small := &ast.Sum{Var: "i", Over: v("S"), Head: head}
	q := NewProgram(small, map[string]object.Value{"S": eval.GenSet(4 * blockLanes)}, eval.Limits{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, counters, err := q.Execute(ctx, ExecOpts{Threshold: -1})
	var re *eval.ResourceError
	if !errors.As(err, &re) || re.Kind != eval.ResourceCancelled {
		t.Fatalf("set Σ: err = %v, want a cancellation", err)
	}
	if max := int64(2 + 5*blockLanes + eval.InterruptInterval); counters.Steps > max {
		t.Errorf("set Σ: steps at cancellation = %d, want at most one block and InterruptInterval, %d", counters.Steps, max)
	}

	// A Σ of 10^9 members, some seconds of blocks, cancelled mid-scan.
	sum := &ast.Sum{Var: "i", Over: &ast.Gen{N: nat(1_000_000_000)}, Head: head}
	p := NewProgram(sum, nil, eval.Limits{})
	for _, opts := range []ExecOpts{{Threshold: -1}, {Threshold: 1, Workers: 2}} {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		start := time.Now()
		_, _, err = p.Execute(ctx, opts)
		cancel()
		if !errors.As(err, &re) || re.Kind != eval.ResourceCancelled && re.Kind != eval.ResourceTimeout {
			t.Fatalf("workers %d: err = %v, want a cancellation", opts.Workers, err)
		}
		if took := time.Since(start); took > time.Second {
			t.Errorf("workers %d: a cancellation 20ms in stopped the scan after %v", opts.Workers, took)
		}
	}
}

// TestLaneRealSumBits: a Σ of real lanes is bit for bit the interpreter's
// on terms whose sum depends on the order, over several blocks.
func TestLaneRealSumBits(t *testing.T) {
	cells := make([]object.Value, laneN)
	for i := range cells {
		cells[i] = object.Real(math.Pow(10, float64(i%31-15)) * float64(1-2*(i%2)))
	}
	globals := map[string]object.Value{"Y": object.Vector(cells...)}
	checkLaneRun(t, &ast.Sum{Var: "i", Over: &ast.Gen{N: nat(laneN)}, Head: sub1(v("Y"), v("i"))}, globals, eval.Limits{})
}
