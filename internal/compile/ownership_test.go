package compile

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/object"
)

// Counter ownership: a function body charges the machine of the goroutine
// that applies it, and a fan-out's forks are summed by the calling goroutine
// after the join. Whatever mix of goroutines ran the bodies, the totals are a
// serial run's, which are pinned here (they are also the serial totals of
// the engine before bodies moved off their maker's machine). Run under
// -race these are also the proof that no machine has two writers.

func arith(op ast.ArithOp, l, r ast.Expr) ast.Expr { return &ast.Arith{Op: op, L: l, R: r} }
func let(name string, bound, body ast.Expr) ast.Expr {
	return &ast.App{Fn: &ast.Lam{Param: name, Body: body}, Arg: bound}
}
func tab1(idx string, n int64, head ast.Expr) ast.Expr {
	return &ast.ArrayTab{Head: head, Idx: []string{idx}, Bounds: []ast.Expr{nat(n)}}
}

// letFnTab is let f = λx. body in [[ f!(i % 1000) | i < n ]]: one closure,
// made on the root machine, applied by every worker.
func letFnTab(n int64, body ast.Expr) ast.Expr {
	return let("f", &ast.Lam{Param: "x", Body: body},
		tab1("i", n, &ast.App{Fn: v("f"), Arg: arith(ast.OpMod, v("i"), nat(1000))}))
}

// closureArray is [[ λy. y*i + 1 | i < n ]]: one closure per cell, each made
// on whichever worker tabulated it.
func closureArray(n int64) ast.Expr {
	return tab1("i", n, &ast.Lam{Param: "y", Body: arith(ast.OpAdd, arith(ast.OpMul, v("y"), v("i")), nat(1))})
}

var ownershipCases = []struct {
	name string
	expr ast.Expr
	// want is the serial run's outcome: the value's kind (the value itself
	// is compared against the serial run's), or the error text.
	wantKind object.Kind
	wantErr  string
	want     eval.Counters
}{
	{
		name:     "let-bound fn in a 1e6-cell tabulation",
		expr:     letFnTab(1_000_000, arith(ast.OpAdd, arith(ast.OpMul, v("x"), v("x")), nat(1))),
		wantKind: object.KArray,
		want:     eval.Counters{Steps: 10_000_005, Cells: 1_000_000, Tabulations: 1},
	},
	{
		// 7 / (500 - x) is ⊥ from x = 500 on (monus): the first ⊥ in
		// row-major order is the tabulation's value, every cell still runs.
		name:     "let-bound fn whose body goes ⊥",
		expr:     letFnTab(1_000_000, arith(ast.OpDiv, nat(7), arith(ast.OpSub, nat(500), v("x")))),
		wantKind: object.KBottom,
		want:     eval.Counters{Steps: 10_000_005, Cells: 1_000_000, Tabulations: 1},
	},
	{
		// A kind error from x = 999 on, so first at offset 999, where the
		// serial scan stops; every worker's chunk hits one too, and the
		// lowest offset's must be the one reported.
		name: "let-bound fn whose body errors",
		expr: letFnTab(1_000_000, &ast.If{Cond: &ast.Cmp{Op: ast.OpLt, L: v("x"), R: nat(999)}, Then: v("x"),
			Else: arith(ast.OpAdd, v("x"), &ast.BoolLit{Val: true})}),
		wantErr: "eval: arithmetic: expected real, got bool",
	},
	{
		name: "array of closures applied by a second fan-out",
		expr: let("F", closureArray(8200),
			tab1("k", 8200, &ast.App{Fn: &ast.Subscript{Arr: v("F"), Index: v("k")}, Arg: v("k")})),
		wantKind: object.KArray,
		want:     eval.Counters{Steps: 90_206, Cells: 16_400, Tabulations: 2},
	},
	{
		name: "array of closures applied serially after the join",
		expr: let("F", closureArray(8200),
			&ast.Sum{Var: "k", Over: &ast.Gen{N: nat(8200)},
				Head: &ast.App{Fn: &ast.Subscript{Arr: v("F"), Index: v("k")}, Arg: v("k")}}),
		wantKind: object.KNat,
		want:     eval.Counters{Steps: 90_207, Cells: 16_400, Tabulations: 1, SetOps: 1, Iterations: 8200},
	},
}

func TestCounterOwnership(t *testing.T) {
	ctx := context.Background()
	for _, tc := range ownershipCases {
		t.Run(tc.name, func(t *testing.T) {
			serial := &engine{opts: ExecOpts{Threshold: -1}}
			sv, serr := serial.EvalExpr(ctx, tc.expr)
			par := &engine{opts: ExecOpts{Threshold: 1024, Workers: 4}}
			pv, perr := par.EvalExpr(ctx, tc.expr)

			if tc.wantErr != "" {
				if serr == nil || serr.Error() != tc.wantErr {
					t.Fatalf("serial error = %v, want %q", serr, tc.wantErr)
				}
				if perr == nil || perr.Error() != tc.wantErr {
					t.Errorf("fanned-out error = %v, want %q", perr, tc.wantErr)
				}
				return
			}
			if serr != nil || perr != nil {
				t.Fatalf("errors: serial %v, fanned out %v", serr, perr)
			}
			if sv.Kind != tc.wantKind {
				t.Fatalf("serial value is %s, want %s", sv.Kind, tc.wantKind)
			}
			if got := serial.Counters(); got != tc.want {
				t.Errorf("serial counters = %+v, pinned %+v", got, tc.want)
			}
			if ps, ss := pv.String(), sv.String(); ps != ss {
				t.Errorf("fanned-out value differs from serial (%d vs %d bytes of text)", len(ps), len(ss))
			}
			if got := par.Counters(); got != tc.want {
				t.Errorf("fanned-out counters = %+v, want serial's %+v", got, tc.want)
			}
		})
	}
}

// TestStepBudgetInsideAppliedBodies: the steps that trip a budget are spent
// inside function bodies running on worker machines; the worker → root
// publication must still bound the overshoot by workers × InterruptInterval.
func TestStepBudgetInsideAppliedBodies(t *testing.T) {
	const workers = 4
	e := &engine{opts: ExecOpts{Threshold: 1024, Workers: workers, MaxSteps: 500_000}}
	_, err := e.EvalExpr(context.Background(), ownershipCases[0].expr)
	var re *eval.ResourceError
	if !errors.As(err, &re) || re.Kind != eval.ResourceSteps {
		t.Fatalf("err = %v, want a steps ResourceError", err)
	}
	if slack := int64(workers * eval.InterruptInterval); re.Used > re.Limit+slack+1 {
		t.Errorf("Used = %d, want <= Limit %d + workers*InterruptInterval %d", re.Used, re.Limit, slack)
	}
}

// TestFunctionEnteredThroughFn: Go code (and the interpreter) holding a
// compiled function value enters it through Fn from any goroutine, long
// after the execution that made it returned; each call runs on a machine of
// its own and leaves the maker's reported counters alone.
func TestFunctionEnteredThroughFn(t *testing.T) {
	e := &engine{}
	f := run(t, e, &ast.Lam{Param: "n", Body: tab1("i", 20_000, arith(ast.OpAdd, v("i"), v("n")))})
	made := e.Counters()
	done := make(chan string, 2)
	for g := 0; g < 2; g++ {
		go func() {
			for n := int64(0); n < 20; n++ {
				got, err := f.Fn()(object.Nat(n))
				if err != nil {
					done <- err.Error()
					return
				}
				if c, _ := got.CellAt(19_999); c.N != 19_999+n {
					done <- "wrong cell " + c.String()
					return
				}
			}
			done <- ""
		}()
	}
	for g := 0; g < 2; g++ {
		if msg := <-done; msg != "" {
			t.Error(msg)
		}
	}
	if got := e.Counters(); got != made {
		t.Errorf("maker's counters moved from %+v to %+v", made, got)
	}
}

// valFn evaluates lam in an execution of its own and returns the function:
// what a `val f = fn …` statement leaves in the globals for later queries.
func valFn(t *testing.T, lim eval.Limits, lam ast.Expr) object.Value {
	t.Helper()
	return run(t, &engine{limits: lim}, lam)
}

// TestValBoundBodyIsBudgeted: the body of a val-bound function runs on the
// applying machine, so it is in the applying query's counters and held to
// its budgets and context; entered through Fn it is held to the budgets its
// maker ran under.
func TestValBoundBodyIsBudgeted(t *testing.T) {
	ctx := context.Background()
	globals := map[string]object.Value{
		// big!n = [[ i | i < n ]], spin!n = Σ_{i < n} i + n,
		// wide!n = [[ i + n | i < 1e6 ]] (fans out from the body).
		"big":  valFn(t, eval.Limits{}, &ast.Lam{Param: "n", Body: &ast.ArrayTab{Head: v("i"), Idx: []string{"i"}, Bounds: []ast.Expr{v("n")}}}),
		"spin": valFn(t, eval.Limits{}, &ast.Lam{Param: "n", Body: &ast.Sum{Var: "i", Over: &ast.Gen{N: v("n")}, Head: arith(ast.OpAdd, v("i"), v("n"))}}),
		"wide": valFn(t, eval.Limits{}, &ast.Lam{Param: "n", Body: tab1("i", 1_000_000, arith(ast.OpAdd, v("i"), v("n")))}),
	}
	resource := func(t *testing.T, err error, kind eval.ResourceKind, limit int64) *eval.ResourceError {
		t.Helper()
		var re *eval.ResourceError
		if !errors.As(err, &re) || re.Kind != kind || re.Limit != limit {
			t.Fatalf("err = %v, want a %s ResourceError at limit %d", err, kind, limit)
		}
		return re
	}
	t.Run("cells", func(t *testing.T) {
		e := &engine{globals: globals, limits: eval.Limits{MaxCells: 1000}}
		_, err := e.EvalExpr(ctx, &ast.App{Fn: v("big"), Arg: nat(50_000)})
		resource(t, err, eval.ResourceCells, 1000)
	})
	t.Run("steps", func(t *testing.T) {
		e := &engine{globals: globals, limits: eval.Limits{MaxSteps: 100_000}}
		_, err := e.EvalExpr(ctx, &ast.App{Fn: v("spin"), Arg: nat(3_000_000)})
		if re := resource(t, err, eval.ResourceSteps, 100_000); re.Used != 100_001 {
			t.Errorf("Used = %d, want 100001", re.Used)
		}
		// The body's steps are the query's: it reports what tripped.
		if got := e.Counters().Steps; got != 100_001 {
			t.Errorf("query steps = %d, want 100001", got)
		}
	})
	t.Run("steps inside the body's own fan-out", func(t *testing.T) {
		const workers = 4
		e := &engine{globals: globals, opts: ExecOpts{Threshold: 1024, Workers: workers, MaxSteps: 500_000}}
		_, err := e.EvalExpr(ctx, &ast.App{Fn: v("wide"), Arg: nat(1)})
		re := resource(t, err, eval.ResourceSteps, 500_000)
		if slack := int64(workers * eval.InterruptInterval); re.Used > re.Limit+slack+1 {
			t.Errorf("Used = %d, want <= Limit %d + workers*InterruptInterval %d", re.Used, re.Limit, slack)
		}
	})
	t.Run("cancellation", func(t *testing.T) {
		cctx, cancel := context.WithCancel(ctx)
		cancel()
		_, err := (&engine{globals: globals}).EvalExpr(cctx, &ast.App{Fn: v("spin"), Arg: nat(3_000_000)})
		resource(t, err, eval.ResourceCancelled, 0)
	})
	t.Run("through Fn, the maker's budgets", func(t *testing.T) {
		big := valFn(t, eval.Limits{MaxCells: 1000}, &ast.Lam{Param: "n", Body: &ast.ArrayTab{Head: v("i"), Idx: []string{"i"}, Bounds: []ast.Expr{v("n")}}})
		_, err := big.Fn()(object.Nat(50_000))
		resource(t, err, eval.ResourceCells, 1000)
		if _, err := big.Fn()(object.Nat(1000)); err != nil {
			t.Errorf("a call inside the budget: %v (budgets are per call)", err)
		}
	})
}

// TestValBoundFnFansOut: a tabulation inside a val-bound function fans out
// from the applying machine, and both its own work and that of a function of
// the applying query that the workers apply charge that query, as in a
// serial run.
func TestValBoundFnFansOut(t *testing.T) {
	var inFlight, peak atomic.Int64
	globals := map[string]object.Value{
		// probe!x = x, recording how many calls overlap.
		"probe": object.Func(func(x object.Value) (object.Value, error) {
			n := inFlight.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			runtime.Gosched()
			inFlight.Add(-1)
			return x, nil
		}),
	}
	// mapN!h = [[ h!(probe!i) | i < 8200 ]]
	globals["mapN"] = run(t, &engine{globals: globals}, &ast.Lam{Param: "h", Body: tab1("i", 8200,
		&ast.App{Fn: v("h"), Arg: &ast.App{Fn: v("probe"), Arg: v("i")}})})
	query := &ast.App{Fn: v("mapN"), Arg: &ast.Lam{Param: "y", Body: arith(ast.OpMul, v("y"), nat(3))}}

	serial := &engine{globals: globals, opts: ExecOpts{Threshold: -1}}
	sv := run(t, serial, query)
	// App, mapN, the fn; mapN's tabulation and its bound; per cell
	// h!(probe!i) and the fn's body, y * 3.
	if want := (eval.Counters{Steps: 3 + 2 + (5+3)*8200, Cells: 8200, Tabulations: 1}); serial.Counters() != want {
		t.Errorf("serial counters = %+v, pinned %+v", serial.Counters(), want)
	}
	if peak.Load() != 1 {
		t.Fatalf("serial run overlapped %d probe calls", peak.Load())
	}
	par := &engine{globals: globals, opts: ExecOpts{Threshold: 1024, Workers: 4}}
	pv := run(t, par, query)
	if peak.Load() < 2 {
		t.Error("the val-bound fn's tabulation did not fan out")
	}
	if pv.String() != sv.String() {
		t.Error("fanned-out value differs from serial")
	}
	if par.Counters() != serial.Counters() {
		t.Errorf("fanned-out counters = %+v, want serial's %+v", par.Counters(), serial.Counters())
	}
}
