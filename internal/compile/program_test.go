package compile

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/trace"
)

// progExpr builds (λT. Σ{ T[x] | x ∈ gen!n }) [[ (i*i+7) % 93 | i < n ]]:
// one tabulation (parallel-eligible at the default threshold) plus a
// summation of n subscripts — enough work to make data races between
// concurrent executions likely to surface under -race, with a
// closed-form-checkable result.
func progExpr(n int64) ast.Expr {
	tab := &ast.ArrayTab{
		Head: &ast.Arith{
			Op: ast.OpMod,
			L:  &ast.Arith{Op: ast.OpAdd, L: &ast.Arith{Op: ast.OpMul, L: v("i"), R: v("i")}, R: nat(7)},
			R:  nat(93),
		},
		Idx:    []string{"i"},
		Bounds: []ast.Expr{nat(n)},
	}
	sum := &ast.Sum{
		Head: &ast.Subscript{Arr: v("T"), Index: v("x")},
		Var:  "x",
		Over: &ast.Gen{N: nat(n)},
	}
	return &ast.App{Fn: &ast.Lam{Param: "T", Body: sum}, Arg: tab}
}

// progWant computes the expected summation value in Go.
func progWant(n int64) int64 {
	var total int64
	for i := int64(0); i < n; i++ {
		total += (i*i + 7) % 93
	}
	return total
}

// spanShape renders a span tree's structure — operators, nesting and
// invocation counts, no timings.
func spanShape(n *trace.SpanNode) string {
	var b strings.Builder
	var walk func(n *trace.SpanNode, depth int)
	walk = func(n *trace.SpanNode, depth int) {
		fmt.Fprintf(&b, "%s%s inv=%d\n", strings.Repeat(" ", depth), n.Op, n.Invocations)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(n, 0)
	return b.String()
}

// TestProgramConcurrentExecutions is the race audit required by the plan
// cache: one compiled Program executed from 8 goroutines simultaneously
// (run under -race in CI), unprofiled and then at ProfFull. Each execution
// must see the correct value and exactly the counters of a solo run —
// counters are per-execution machines, never shared across requests — and
// at full its own span tree: self counters summing to its own flat
// counters, in the serial execution's shape. The span plan is the
// program's, shared; the slots the tree folds from are the execution's.
func TestProgramConcurrentExecutions(t *testing.T) {
	const n = 20000
	ctx := context.Background()
	p := NewProgram(progExpr(n), nil, eval.Limits{})

	// Reference runs for value, counters and span shape.
	wantVal, wantCounters, err := p.Execute(ctx, ExecOpts{})
	if err != nil {
		t.Fatalf("reference Execute: %v", err)
	}
	if !object.Equal(wantVal, object.Nat(progWant(n))) {
		t.Fatalf("reference value = %s, want %d", wantVal, progWant(n))
	}
	var serial Outcome
	if _, err := p.Run(ctx, ExecOpts{Level: eval.ProfFull, Threshold: -1}, &serial); err != nil {
		t.Fatalf("reference Run at full: %v", err)
	}
	wantShape := spanShape(serial.Spans)

	for _, level := range []eval.ProfLevel{eval.ProfOff, eval.ProfFull} {
		const goroutines = 8
		var wg sync.WaitGroup
		errs := make([]error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				// Half the goroutines force serial execution so serial and
				// parallel tabulation paths interleave on the same Program.
				opts := ExecOpts{Level: level}
				if g%2 == 0 {
					opts.Threshold = -1
				}
				var out Outcome
				v, err := p.Run(ctx, opts, &out)
				switch {
				case err != nil:
					errs[g] = err
				case !object.Equal(v, wantVal):
					errs[g] = errors.New("value diverged: " + v.String())
				case out.Counters != wantCounters:
					errs[g] = errors.New("counters diverged from solo run")
				case level == eval.ProfOff && out.Spans != nil:
					errs[g] = errors.New("span tree recorded at off")
				case level == eval.ProfFull && out.Spans.CumCounters() != out.Counters:
					errs[g] = fmt.Errorf("span self counters sum to %+v, flat counters %+v", out.Spans.CumCounters(), out.Counters)
				case level == eval.ProfFull && spanShape(out.Spans) != wantShape:
					errs[g] = fmt.Errorf("span tree:\n%s\nserial execution's:\n%s", spanShape(out.Spans), wantShape)
				}
			}(g)
		}
		wg.Wait()
		for g, err := range errs {
			if err != nil {
				t.Errorf("%s, goroutine %d: %v", level, g, err)
			}
		}
	}
}

// TestProgramPerExecutionBudgets: budgets are per Execute call, so a
// strict-budget execution must fail while concurrent unlimited executions
// of the same Program succeed, and the failure must be the typed resource
// error.
func TestProgramPerExecutionBudgets(t *testing.T) {
	const n = 5000
	p := NewProgram(progExpr(n), nil, eval.Limits{})

	var wg sync.WaitGroup
	results := make([]error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			opts := ExecOpts{}
			if g == 0 {
				opts.Limits = eval.Limits{MaxSteps: 100}
			}
			_, _, err := p.Execute(context.Background(), opts)
			results[g] = err
		}(g)
	}
	wg.Wait()

	var re *eval.ResourceError
	if !errors.As(results[0], &re) || re.Kind != eval.ResourceSteps {
		t.Errorf("budgeted execution: got %v, want steps ResourceError", results[0])
	}
	for g := 1; g < 4; g++ {
		if results[g] != nil {
			t.Errorf("unlimited execution %d failed: %v", g, results[g])
		}
	}
}

// TestProgramPerExecutionCancellation: cancelling one execution's context
// must abort only that execution.
func TestProgramPerExecutionCancellation(t *testing.T) {
	const n = 200_000
	p := NewProgram(progExpr(n), nil, eval.Limits{})

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the first interrupt check must trip
	_, _, err := p.Execute(ctx, ExecOpts{})
	var re *eval.ResourceError
	if !errors.As(err, &re) || re.Kind != eval.ResourceCancelled {
		t.Fatalf("cancelled execution: got %v, want cancelled ResourceError", err)
	}

	// And an uncancelled run of the same Program still succeeds.
	if _, _, err := p.Execute(context.Background(), ExecOpts{Limits: eval.Limits{MaxSteps: 0}}); err != nil {
		t.Fatalf("fresh execution after a cancelled one: %v", err)
	}
}

// TestProgramMatchesEngine: a Program and the reference interpreter must
// agree on value and counters for the same expression and globals.
func TestProgramMatchesEngine(t *testing.T) {
	globals := map[string]object.Value{"base": object.Nat(3)}
	expr := &ast.Arith{Op: ast.OpAdd, L: progExpr(1000), R: v("base")}

	eng := eval.New(globals)
	ev, eerr := eng.EvalExpr(context.Background(), expr)
	if eerr != nil {
		t.Fatalf("Evaluator.EvalExpr: %v", eerr)
	}
	p := NewProgram(expr, globals, eval.Limits{})
	pv, pc, perr := p.Execute(context.Background(), ExecOpts{})
	if perr != nil {
		t.Fatalf("Program.Execute: %v", perr)
	}
	if !object.Equal(ev, pv) {
		t.Errorf("values diverge: interpreter %s, program %s", ev, pv)
	}
	if ec := eng.Counters(); ec != pc {
		t.Errorf("counters diverge: interpreter %+v, program %+v", ec, pc)
	}
}

// TestEstimatesShareTheFullPlan: a program builds one full-level span plan.
// Its estimates are rows of that plan's span ids, and the ProfFull lowering
// records against the same plan, whichever of the two is built first.
func TestEstimatesShareTheFullPlan(t *testing.T) {
	for _, estFirst := range []bool{true, false} {
		p := NewProgram(progExpr(100), nil, eval.Limits{})
		if p.full != nil {
			t.Fatal("NewProgram built the full-level span plan")
		}
		var est *trace.Estimates
		if estFirst {
			est = p.Estimates()
		}
		spans := p.lowered(eval.ProfFull).spans
		if !estFirst {
			est = p.Estimates()
		}
		if spans == nil || spans != p.full {
			t.Fatalf("estimates first=%v: the ProfFull lowering records against %p, the program's plan is %p", estFirst, spans, p.full)
		}
		if len(est.Rows) != spans.Len() {
			t.Fatalf("estimates first=%v: %d estimate rows for %d spans", estFirst, len(est.Rows), spans.Len())
		}
		for id, row := range est.Rows {
			if op, _, _ := spans.Span(id); row.Op != op {
				t.Fatalf("estimates first=%v: row %d is %s, span %d is %s", estFirst, id, row.Op, id, op)
			}
		}
	}
}
