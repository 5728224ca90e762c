package compile

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/object"
)

// bigTab is [[ (i*7 + j*3 + 1) % 93 | i < rows, j < cols ]] — a cheap head
// over enough cells that a parallel run actually fans out.
func bigTab(rows, cols int64) ast.Expr {
	mul := func(a ast.Expr, k int64) ast.Expr {
		return &ast.Arith{Op: ast.OpMul, L: a, R: nat(k)}
	}
	head := &ast.Arith{
		Op: ast.OpMod,
		L: &ast.Arith{
			Op: ast.OpAdd,
			L:  &ast.Arith{Op: ast.OpAdd, L: mul(v("i"), 7), R: mul(v("j"), 3)},
			R:  nat(1),
		},
		R: nat(93),
	}
	return &ast.ArrayTab{Head: head, Idx: []string{"i", "j"}, Bounds: []ast.Expr{nat(rows), nat(cols)}}
}

// engines returns the three configurations whose observable behavior must
// be identical: the reference interpreter, the compiled engine forced
// serial, and the compiled engine forced parallel.
func engines(globals map[string]object.Value) map[string]evaluator {
	return map[string]evaluator{
		"interp":            eval.New(globals),
		"compiled/serial":   &engine{globals: globals, opts: ExecOpts{Threshold: -1}},
		"compiled/parallel": &engine{globals: globals, opts: ExecOpts{Threshold: 1, Workers: 8}},
	}
}

// TestParallelTabulationParity tabulates a 1e6-cell array under all three
// configurations and requires byte-identical values AND exactly equal
// counters — the parallel kernel's forked worker machines must flush their
// counts so the join total matches a serial run to the step. Run under
// -race this also exercises the disjoint-write claim of the fan-out.
func TestParallelTabulationParity(t *testing.T) {
	expr := bigTab(1000, 1000)
	type outcome struct {
		val      object.Value
		counters eval.Counters
	}
	results := map[string]outcome{}
	for name, e := range engines(nil) {
		v, err := e.EvalExpr(context.Background(), expr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		results[name] = outcome{v, e.Counters()}
	}
	ref := results["interp"]
	if ref.counters.Cells < 1_000_000 {
		t.Fatalf("interp charged %d cells, want >= 1e6 (workload too small to test anything)", ref.counters.Cells)
	}
	for name, got := range results {
		if !object.Equal(got.val, ref.val) {
			t.Errorf("%s: value differs from interp", name)
		}
		if got.counters != ref.counters {
			t.Errorf("%s counters = %+v, want interp's %+v", name, got.counters, ref.counters)
		}
	}
}

// TestParallelFirstBottomDeterministic: when elements past a point are ⊥
// with offset-dependent payloads, the tabulation's result is the first ⊥ in
// row-major order — regardless of which worker computed it or finished
// first. A[i] over a vector shorter than the iteration space produces a
// distinct out-of-bounds ⊥ per offset, so a wrong winner is visible in the
// message.
func TestParallelFirstBottomDeterministic(t *testing.T) {
	const valid, total = 120_000, 200_000
	data := make([]object.Value, valid)
	for i := range data {
		data[i] = object.Nat(int64(i))
	}
	globals := map[string]object.Value{"A": object.Vector(data...)}
	expr := &ast.ArrayTab{
		Head:   &ast.Subscript{Arr: v("A"), Index: v("i")},
		Idx:    []string{"i"},
		Bounds: []ast.Expr{nat(total)},
	}

	want, err := eval.New(globals).EvalExpr(context.Background(), expr)
	if err != nil {
		t.Fatal(err)
	}
	if !want.IsBottom() {
		t.Fatalf("interp result = %s, want ⊥ (first OOB at offset %d)", want.Kind, valid)
	}
	for name, e := range engines(globals) {
		got, err := e.EvalExpr(context.Background(), expr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.String() != want.String() {
			t.Errorf("%s: ⊥ = %s, want %s", name, got, want)
		}
	}
}

// TestParallelCancellation: a cancelled context aborts a parallel
// tabulation with a cancellation ResourceError instead of completing the
// scan; the resource-error early-exit path stops sibling workers.
func TestParallelCancellation(t *testing.T) {
	e := &engine{opts: ExecOpts{Threshold: 1, Workers: 8}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.EvalExpr(ctx, bigTab(1000, 1000))
	var re *eval.ResourceError
	if !errors.As(err, &re) || re.Kind != eval.ResourceCancelled {
		t.Fatalf("err = %v, want a cancellation ResourceError", err)
	}
}

// TestParallelStepBudget: a step budget trips inside a parallel region with
// the same error Kind as serial execution; the budget overshoot is bounded
// by workers x InterruptInterval, so the reported Used stays near the limit.
func TestParallelStepBudget(t *testing.T) {
	e := &engine{opts: ExecOpts{Threshold: 1, Workers: 8, Limits: eval.Limits{MaxSteps: 100_000}}}
	_, err := e.EvalExpr(context.Background(), bigTab(1000, 1000))
	var re *eval.ResourceError
	if !errors.As(err, &re) || re.Kind != eval.ResourceSteps {
		t.Fatalf("err = %v, want a steps ResourceError", err)
	}
	slack := int64(8 * eval.InterruptInterval)
	if re.Used > re.Limit+slack+1 {
		t.Errorf("Used = %d, want <= Limit %d + workers*InterruptInterval %d", re.Used, re.Limit, slack)
	}
}

// TestMaxDepthForcesSerial: depth tracking is serial-only, so a MaxDepth
// limit must disable the parallel kernel even below threshold — the run
// still succeeds and counts exactly like the interpreter with the same
// limit.
func TestMaxDepthForcesSerial(t *testing.T) {
	lim := eval.Limits{MaxDepth: 10_000}
	c := &engine{limits: lim, opts: ExecOpts{Threshold: 1, Workers: 8}}
	i := eval.New(nil)
	i.Limits = lim

	expr := bigTab(200, 200)
	cv, err := c.EvalExpr(context.Background(), expr)
	if err != nil {
		t.Fatal(err)
	}
	iv, err := i.EvalExpr(context.Background(), expr)
	if err != nil {
		t.Fatal(err)
	}
	if !object.Equal(cv, iv) {
		t.Error("values differ under MaxDepth")
	}
	if cc, ic := c.Counters(), i.Counters(); cc != ic {
		t.Errorf("counters differ under MaxDepth: compiled %+v, interp %+v", cc, ic)
	}
}

// TestWorkerPanicReraised: a head that panics on a fan-out goroutine does
// not take the process down. The fan-out captures each worker's panic with
// its offset and stack and re-raises the lowest-offset one on the calling
// goroutine, where the session-boundary recovers live. The primitive here
// panics at offsets 4999, 9999, ...: one per 5000-cell worker chunk.
func TestWorkerPanicReraised(t *testing.T) {
	explode := object.Func(func(x object.Value) (object.Value, error) {
		if x.N%5000 == 4999 {
			panic("internal invariant violated")
		}
		return x, nil
	})
	tab := &ast.ArrayTab{
		Head:   &ast.App{Fn: v("explode"), Arg: v("i")},
		Idx:    []string{"i"},
		Bounds: []ast.Expr{nat(20000)},
	}
	globals := map[string]object.Value{"explode": explode}
	ctx := context.Background()
	p := NewProgram(tab, globals, eval.Limits{})
	e := &engine{globals: globals, opts: ExecOpts{Workers: 4}}

	for name, run := range map[string]func(){
		"Execute":      func() { p.Execute(ctx, ExecOpts{Workers: 4}) },
		"ExecuteRange": func() { p.ExecuteRange(ctx, ExecOpts{Workers: 4}, []int{20000}, 3000, 20000) },
		"EvalExpr":     func() { e.EvalExpr(ctx, tab) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				r := recover()
				wp, ok := r.(*workerPanic)
				if !ok {
					t.Fatalf("recovered %T (%v), want *workerPanic", r, r)
				}
				if wp.Off != 4999 || wp.Val != "internal invariant violated" {
					t.Errorf("re-raised panic %q at offset %d, want the one at 4999", wp.Val, wp.Off)
				}
				if !strings.Contains(string(wp.Stack), "TestWorkerPanicReraised") {
					t.Errorf("worker stack does not show the panicking primitive:\n%s", wp.Stack)
				}
			}()
			run()
		})
	}

	// The machine's counters were still flushed: every worker ran to its
	// own panic, so the execution reports the work done up to them.
	if got := e.Counters().Steps; got < 4*4999 {
		t.Errorf("steps after worker panics = %d, want at least %d", got, 4*4999)
	}
}

// TestEventBeforePanicWins: a worker panic is re-raised only when no
// earlier offset stopped the run, because a serial scan stops there and
// never reaches the panic: a Σ's ⊥ or a tabulation's error in the first
// chunk is the result although a later chunk panicked. The stopping
// primitive waits for the panic, so the later worker does reach it.
func TestEventBeforePanicWins(t *testing.T) {
	for _, tc := range []struct {
		name string
		loop func(head ast.Expr) ast.Expr
		stop func() (object.Value, error)
		want string
	}{
		{"Σ stopped by ⊥", func(head ast.Expr) ast.Expr {
			return &ast.Sum{Var: "i", Over: &ast.Gen{N: nat(20000)}, Head: head}
		}, func() (object.Value, error) { return object.Bottom("stop"), nil }, object.Bottom("stop").String()},
		{"tabulation stopped by an error", func(head ast.Expr) ast.Expr {
			return &ast.ArrayTab{Head: head, Idx: []string{"i"}, Bounds: []ast.Expr{nat(20000)}}
		}, func() (object.Value, error) { return object.Value{}, errors.New("stop") }, "error stop"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			panicked := make(chan struct{})
			globals := map[string]object.Value{"f": object.Func(func(x object.Value) (object.Value, error) {
				switch x.N {
				case 100:
					select {
					case <-panicked:
					case <-time.After(5 * time.Second):
					}
					return tc.stop()
				case 15000:
					close(panicked)
					panic("internal invariant violated")
				}
				return x, nil
			})}
			e := &engine{globals: globals, opts: ExecOpts{Threshold: 1, Workers: 4}}
			v, err := e.EvalExpr(context.Background(), tc.loop(&ast.App{Fn: v("f"), Arg: v("i")}))
			got := v.String()
			if err != nil {
				got = "error " + err.Error()
			}
			if got != tc.want {
				t.Fatalf("got %s, want %s", got, tc.want)
			}
			select {
			case <-panicked:
			default:
				t.Fatal("the later chunk never reached its panic")
			}
		})
	}
}

// TestFanOutLeavesNoGoroutines: every worker of a fan-out has exited once
// the execution returns, however the fan-out ends — cancelled mid-scan,
// over its step or cell budget, or re-raising a worker's panic — for a
// tabulation and a Σ alike. The panicking tabulation fans out only because
// the program's first, complete execution measured its head's steps: 2,000
// cells are under the 8,192 that fan out unmeasured.
func TestFanOutLeavesNoGoroutines(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sumCtx, cancelSum := context.WithCancel(context.Background())
	defer cancelSum()
	var armed atomic.Bool
	globals := map[string]object.Value{
		"cancelAt": object.Func(func(x object.Value) (object.Value, error) {
			if x.N == 6000 {
				cancel()
			}
			return x, nil
		}),
		"cancelSumAt": object.Func(func(x object.Value) (object.Value, error) {
			if x.N == 6000 {
				cancelSum()
			}
			return x, nil
		}),
		"explode": object.Func(func(x object.Value) (object.Value, error) {
			if armed.Load() && x.N == 4500 {
				panic("internal invariant violated")
			}
			return x, nil
		}),
	}
	cancelled := &ast.ArrayTab{Head: &ast.App{Fn: v("cancelAt"), Arg: v("i")}, Idx: []string{"i"}, Bounds: []ast.Expr{nat(20000)}}
	heavy := &ast.ArrayTab{
		Head: &ast.Sum{Var: "k", Over: &ast.Gen{N: nat(64)},
			Head: &ast.App{Fn: v("explode"), Arg: &ast.Arith{Op: ast.OpMul, L: v("i"), R: v("k")}}},
		Idx: []string{"i"}, Bounds: []ast.Expr{nat(2000)},
	}
	sumOf := func(head ast.Expr) ast.Expr { return &ast.Sum{Var: "i", Over: &ast.Gen{N: nat(20000)}, Head: head} }
	measured := NewProgram(heavy, globals, eval.Limits{})
	if _, _, err := measured.Execute(context.Background(), ExecOpts{Workers: 4}); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		run  func() error
		want eval.ResourceKind // "" for a re-raised worker panic
	}{
		{"cancelled", func() error {
			_, err := (&engine{globals: globals, opts: ExecOpts{Threshold: 1, Workers: 4}}).EvalExpr(ctx, cancelled)
			return err
		}, eval.ResourceCancelled},
		{"step budget", func() error {
			_, err := (&engine{opts: ExecOpts{Threshold: 1, Workers: 4, Limits: eval.Limits{MaxSteps: 100_000}}}).EvalExpr(context.Background(), bigTab(1000, 1000))
			return err
		}, eval.ResourceSteps},
		{"worker panic, fanned out by measured steps", func() (err error) {
			armed.Store(true)
			defer func() {
				if _, ok := recover().(*workerPanic); !ok {
					err = errors.New("no worker panic re-raised: the tabulation did not fan out")
				}
			}()
			_, _, err = measured.Execute(context.Background(), ExecOpts{Workers: 4})
			return err
		}, ""},
		{"Σ cancelled", func() error {
			_, err := (&engine{globals: globals, opts: ExecOpts{Threshold: 1, Workers: 4}}).EvalExpr(sumCtx, sumOf(&ast.App{Fn: v("cancelSumAt"), Arg: v("i")}))
			return err
		}, eval.ResourceCancelled},
		{"Σ over its cell budget", func() error {
			inner := &ast.Sum{Var: "k", Over: &ast.Gen{N: nat(100)}, Head: v("k")}
			_, err := (&engine{opts: ExecOpts{Threshold: 1, Workers: 4, Limits: eval.Limits{MaxCells: 10_000}}}).EvalExpr(context.Background(), sumOf(inner))
			return err
		}, eval.ResourceCells},
		{"Σ worker panic", func() (err error) {
			armed.Store(true)
			defer func() {
				if _, ok := recover().(*workerPanic); !ok {
					err = errors.New("no worker panic re-raised: the Σ did not fan out")
				}
			}()
			_, err = (&engine{globals: globals, opts: ExecOpts{Threshold: 1, Workers: 4}}).EvalExpr(context.Background(), sumOf(&ast.App{Fn: v("explode"), Arg: v("i")}))
			return err
		}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			err := tc.run()
			var re *eval.ResourceError
			switch {
			case tc.want == "" && err != nil:
				t.Fatal(err)
			case tc.want != "" && (!errors.As(err, &re) || re.Kind != tc.want):
				t.Fatalf("err = %v, want a %s ResourceError", err, tc.want)
			}
			for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines after the fan-out, %d before:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
				}
			}
		})
	}
}

// TestMayFanOutWeighsMeasuredSteps pins the fan-out rule, n × max(steps, 8)
// ≥ 8 × threshold: a site that has not run (or measured under 8 steps a
// cell) fans out at exactly threshold cells, a measured one by its work;
// one worker, a worker machine or a threshold of maxInt64 never fans out.
func TestMayFanOutWeighsMeasuredSteps(t *testing.T) {
	root := &machine{config: config{workers: 2, threshold: DefaultThreshold}}
	worker := &machine{config: root.config, parent: root}
	serial := &machine{config: config{workers: 2, threshold: math.MaxInt64}}
	alone := &machine{config: config{workers: 1, threshold: DefaultThreshold}}
	for _, tc := range []struct {
		m     *machine
		n     int
		steps int64
		want  bool
	}{
		{root, DefaultThreshold - 1, 0, false},
		{root, DefaultThreshold, 0, true},
		{root, DefaultThreshold - 1, 7, false},
		{root, DefaultThreshold, 7, true},
		{root, 5000, 11, false}, // serve_mixed's template: 55,000 steps
		{root, 2304, 530, true}, // the 48x48 matmul
		{root, 2, math.MaxInt64, true},
		{worker, 1 << 20, 530, false},
		{serial, 1 << 20, math.MaxInt64, false},
		{alone, 1 << 20, 530, false},
	} {
		if got := tc.m.mayFanOut(tc.n, tc.steps); got != tc.want {
			t.Errorf("workers %d, threshold %d, parent %v: mayFanOut(%d, %d) = %v, want %v",
				tc.m.workers, tc.m.threshold, tc.m.parent != nil, tc.n, tc.steps, got, tc.want)
		}
	}
}
