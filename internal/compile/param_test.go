package compile

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/object"
)

func param(name string) ast.Expr { return &ast.Param{Name: name} }

// paramTab builds [[ (i*i + $a*i + $b) % 97 | i < n ]] — the templated
// workload shape: one plan, per-execution coefficients.
func paramTab(n int64) *ast.ArrayTab {
	return &ast.ArrayTab{
		Head: &ast.Arith{
			Op: ast.OpMod,
			L: &ast.Arith{Op: ast.OpAdd,
				L: &ast.Arith{Op: ast.OpMul, L: v("i"), R: v("i")},
				R: &ast.Arith{Op: ast.OpAdd,
					L: &ast.Arith{Op: ast.OpMul, L: param("a"), R: v("i")},
					R: param("b")}},
			R: nat(97),
		},
		Idx:    []string{"i"},
		Bounds: []ast.Expr{nat(n)},
	}
}

// litTab is paramTab with the arguments substituted as literals — the
// counter-identity reference: a placeholder read must cost exactly what a
// literal leaf costs.
func litTab(n, a, b int64) *ast.ArrayTab {
	return &ast.ArrayTab{
		Head: &ast.Arith{
			Op: ast.OpMod,
			L: &ast.Arith{Op: ast.OpAdd,
				L: &ast.Arith{Op: ast.OpMul, L: v("i"), R: v("i")},
				R: &ast.Arith{Op: ast.OpAdd,
					L: &ast.Arith{Op: ast.OpMul, L: nat(a), R: v("i")},
					R: nat(b)}},
			R: nat(97),
		},
		Idx:    []string{"i"},
		Bounds: []ast.Expr{nat(n)},
	}
}

// TestParamVsLiteralIdentity: one parameterized Program executed with an
// argument frame is byte-identical — value and all five counters — to a
// fresh program with the arguments baked in as literals.
func TestParamVsLiteralIdentity(t *testing.T) {
	ctx := context.Background()
	pp := NewProgram(paramTab(500), nil, eval.Limits{})
	for _, c := range [][2]int64{{3, 5}, {11, 0}, {0, 96}} {
		args := map[string]object.Value{"a": object.Nat(c[0]), "b": object.Nat(c[1])}
		gv, gc, err := pp.Execute(ctx, ExecOpts{Args: args})
		if err != nil {
			t.Fatalf("param execute(%v): %v", c, err)
		}
		lp := NewProgram(litTab(500, c[0], c[1]), nil, eval.Limits{})
		wv, wc, err := lp.Execute(ctx, ExecOpts{})
		if err != nil {
			t.Fatalf("literal execute(%v): %v", c, err)
		}
		if gv.String() != wv.String() {
			t.Errorf("args %v: value differs:\nparam   %.120s\nliteral %.120s", c, gv, wv)
		}
		if gc != wc {
			t.Errorf("args %v: counters differ:\nparam   %+v\nliteral %+v", c, gc, wc)
		}
	}
}

// TestParamNames: slot assignment is first-use order and ParamNames reports
// every placeholder the program reads.
func TestParamNames(t *testing.T) {
	p := NewProgram(paramTab(10), nil, eval.Limits{})
	names := p.ParamNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("ParamNames = %v, want [a b]", names)
	}
	if n := NewProgram(litTab(10, 1, 2), nil, eval.Limits{}).ParamNames(); n != nil {
		t.Fatalf("literal program ParamNames = %v, want nil", n)
	}
}

// TestParamUnbound: executing without a required argument is a lazy,
// deterministic evaluation error naming the placeholder.
func TestParamUnbound(t *testing.T) {
	p := NewProgram(paramTab(10), nil, eval.Limits{})
	_, _, err := p.Execute(context.Background(), ExecOpts{
		Args: map[string]object.Value{"a": object.Nat(1)},
	})
	if err == nil || !strings.Contains(err.Error(), "unbound parameter $b") {
		t.Fatalf("err = %v, want unbound parameter $b", err)
	}
}

// TestParamConcurrentExec: one immutable Program, many concurrent
// executions with distinct argument frames — each must see exactly its own
// frame (run under -race). This is the property that lets a server serve
// every argument set of a template from a single cached plan.
func TestParamConcurrentExec(t *testing.T) {
	ctx := context.Background()
	pp := NewProgram(paramTab(200), nil, eval.Limits{})
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			a, b := int64(g*2+1), int64(g*3)
			args := map[string]object.Value{"a": object.Nat(a), "b": object.Nat(b)}
			for iter := 0; iter < 20; iter++ {
				gv, _, err := pp.Execute(ctx, ExecOpts{Args: args})
				if err != nil {
					errs[g] = err
					return
				}
				wv, _, err := NewProgram(litTab(200, a, b), nil, eval.Limits{}).Execute(ctx, ExecOpts{})
				if err != nil {
					errs[g] = err
					return
				}
				if gv.String() != wv.String() {
					errs[g] = fmt.Errorf("goroutine %d: cross-talk: param result != literal result", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// letsOver wraps core in a chain of let bindings, outermost first, in the
// desugared form let produces: App{Lam{x, body}, bound}.
func letsOver(core ast.Expr, lets ...[2]any) ast.Expr {
	e := core
	for i := len(lets) - 1; i >= 0; i-- {
		e = &ast.App{
			Fn:  &ast.Lam{Param: lets[i][0].(string), Body: e},
			Arg: lets[i][1].(ast.Expr),
		}
	}
	return e
}

// TestPlanShardsThroughLets: a tabulation under a chain of top-level let
// bindings — the shape the optimizer's loop-invariant hoisting produces —
// stays range-partitionable, and PlanShards + ExecuteRange over any
// partition reassembles to byte-identical values and exactly the counters
// of a whole-program Execute.
func TestPlanShardsThroughLets(t *testing.T) {
	ctx := context.Background()
	// let c = 6*7 in let d = c+3 in [[ (i*c + d) % 101 | i < 300 ]]
	tab := &ast.ArrayTab{
		Head: &ast.Arith{Op: ast.OpMod,
			L: &ast.Arith{Op: ast.OpAdd,
				L: &ast.Arith{Op: ast.OpMul, L: v("i"), R: v("c")},
				R: v("d")},
			R: nat(101)},
		Idx:    []string{"i"},
		Bounds: []ast.Expr{nat(300)},
	}
	expr := letsOver(tab,
		[2]any{"c", ast.Expr(&ast.Arith{Op: ast.OpMul, L: nat(6), R: nat(7)})},
		[2]any{"d", ast.Expr(&ast.Arith{Op: ast.OpAdd, L: v("c"), R: nat(3)})},
	)
	p := NewProgram(expr, nil, eval.Limits{})
	if !p.Rangeable() {
		t.Fatal("let-wrapped tabulation is not rangeable")
	}

	want, wantCnt, err := p.Execute(ctx, ExecOpts{})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}

	for _, nshards := range []int{1, 2, 7} {
		t.Run(fmt.Sprintf("shards=%d", nshards), func(t *testing.T) {
			plan, err := p.PlanShards(ctx, ExecOpts{})
			if err != nil {
				t.Fatalf("PlanShards: %v", err)
			}
			if plan.Size != 300 {
				t.Fatalf("plan size = %d, want 300", plan.Size)
			}
			merged := plan.Counters
			data := make([]object.Value, plan.Size)
			for _, r := range splitRange(plan.Size, nshards) {
				res, err := p.ExecuteRange(ctx, ExecOpts{}, plan.Shape, r[0], r[1])
				if err != nil {
					t.Fatalf("ExecuteRange[%d,%d): %v", r[0], r[1], err)
				}
				copy(data[r[0]:r[1]], res.Values)
				merged.Steps += res.Counters.Steps
				merged.Cells += res.Counters.Cells
				merged.Tabulations += res.Counters.Tabulations
				merged.SetOps += res.Counters.SetOps
				merged.Iterations += res.Counters.Iterations
			}
			got := object.Value{Kind: object.KArray, Shape: plan.Shape, Elems: data}
			if got.String() != want.String() {
				t.Errorf("merged value differs:\n got %.120s\nwant %.120s", got, want)
			}
			if merged != wantCnt {
				t.Errorf("merged counters = %+v, want %+v", merged, wantCnt)
			}
		})
	}
}

// TestPlanShardsLetsAndParams: lets and placeholders compose — the bound
// expressions may read the argument frame, and the range path must still
// reassemble exactly.
func TestPlanShardsLetsAndParams(t *testing.T) {
	ctx := context.Background()
	// let c = $a * 7 in [[ (i*c + $b) % 89 | i < 120 ]]
	tab := &ast.ArrayTab{
		Head: &ast.Arith{Op: ast.OpMod,
			L: &ast.Arith{Op: ast.OpAdd,
				L: &ast.Arith{Op: ast.OpMul, L: v("i"), R: v("c")},
				R: param("b")},
			R: nat(89)},
		Idx:    []string{"i"},
		Bounds: []ast.Expr{nat(120)},
	}
	expr := letsOver(tab,
		[2]any{"c", ast.Expr(&ast.Arith{Op: ast.OpMul, L: param("a"), R: nat(7)})},
	)
	p := NewProgram(expr, nil, eval.Limits{})
	if !p.Rangeable() {
		t.Fatal("let-wrapped parameterized tabulation is not rangeable")
	}
	opts := ExecOpts{Args: map[string]object.Value{"a": object.Nat(2), "b": object.Nat(31)}}

	want, wantCnt, err := p.Execute(ctx, opts)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	plan, err := p.PlanShards(ctx, opts)
	if err != nil {
		t.Fatalf("PlanShards: %v", err)
	}
	merged := plan.Counters
	data := make([]object.Value, plan.Size)
	for _, r := range splitRange(plan.Size, 3) {
		res, err := p.ExecuteRange(ctx, opts, plan.Shape, r[0], r[1])
		if err != nil {
			t.Fatalf("ExecuteRange[%d,%d): %v", r[0], r[1], err)
		}
		copy(data[r[0]:r[1]], res.Values)
		merged.Steps += res.Counters.Steps
		merged.Cells += res.Counters.Cells
		merged.Tabulations += res.Counters.Tabulations
		merged.SetOps += res.Counters.SetOps
		merged.Iterations += res.Counters.Iterations
	}
	got := object.Value{Kind: object.KArray, Shape: plan.Shape, Elems: data}
	if got.String() != want.String() {
		t.Errorf("merged value differs:\n got %.120s\nwant %.120s", got, want)
	}
	if merged != wantCnt {
		t.Errorf("merged counters = %+v, want %+v", merged, wantCnt)
	}
}

// TestPlanShardsBottomLet: a ⊥ let binding decides the query during
// planning, exactly as a ⊥ bound does.
func TestPlanShardsBottomLet(t *testing.T) {
	tab := &ast.ArrayTab{
		Head:   v("c"),
		Idx:    []string{"i"},
		Bounds: []ast.Expr{nat(10)},
	}
	expr := letsOver(tab,
		[2]any{"c", ast.Expr(&ast.Arith{Op: ast.OpDiv, L: nat(1), R: nat(0)})},
	)
	p := NewProgram(expr, nil, eval.Limits{})
	plan, err := p.PlanShards(context.Background(), ExecOpts{})
	if err != nil {
		t.Fatalf("PlanShards: %v", err)
	}
	if !plan.Bottom.IsBottom() {
		t.Fatalf("plan.Bottom = %s, want ⊥", plan.Bottom)
	}
	// The whole-program path must agree.
	want, _, err := p.Execute(context.Background(), ExecOpts{})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if plan.Bottom.String() != want.String() {
		t.Errorf("plan ⊥ %s != execute ⊥ %s", plan.Bottom, want)
	}
}
