package eval

import (
	"context"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/object"
)

// Counters is the work an engine charges while evaluating a query. Both
// engines charge on identical events, so the numbers are comparable across
// engines and stable under parallel execution.
//
// Steps counts evaluated nodes. Cells counts collection/array cells charged
// by constructors, tabulation, gen and index. Tabs counts array tabulations
// performed (ArrayTab evaluations) — the materializations the section 5
// array rules exist to avoid. SetOps counts set/bag algebra operations:
// unions, big unions, ranked unions, gen and index. Iters counts
// comprehension loop-body evaluations (big unions, ranked unions, summation)
// — the intermediate-collection traffic of a query, on the same terms the
// paper's section 5 measurements used.
type Counters struct {
	Steps  int64
	Cells  int64
	Tabs   int64
	SetOps int64
	Iters  int64
}

// Add returns the fieldwise sum c + o: disjoint pieces of one evaluation
// (a plan prologue and its shards) add up to the whole.
func (c Counters) Add(o Counters) Counters {
	return Counters{c.Steps + o.Steps, c.Cells + o.Cells, c.Tabs + o.Tabs, c.SetOps + o.SetOps, c.Iters + o.Iters}
}

// Sub returns the fieldwise difference c - o: the work charged since the
// snapshot o.
func (c Counters) Sub(o Counters) Counters {
	return Counters{c.Steps - o.Steps, c.Cells - o.Cells, c.Tabs - o.Tabs, c.SetOps - o.SetOps, c.Iters - o.Iters}
}

// Name identifies the tree-walking interpreter in reports ("interp").
func (ev *Evaluator) Name() string { return "interp" }

// EvalExpr evaluates e with no local bindings. When span profiling is
// enabled it builds the evaluation's span plan first and folds the
// accumulated tree on the way out (even on error), so SpanTree reflects
// partial evaluations too.
func (ev *Evaluator) EvalExpr(ctx context.Context, e ast.Expr) (object.Value, error) {
	if ev.profLevel == ProfOff {
		ev.lastSpans = nil
		return ev.EvalCtx(ctx, e, nil)
	}
	ev.Prof = NewProfCtx(NewSpanPlan(e, ev.profLevel))
	defer func() {
		ev.lastSpans = ev.Prof.Fold()
		ev.Prof = nil
	}()
	return ev.EvalCtx(ctx, e, nil)
}

// Counters snapshots the interpreter's work counters.
func (ev *Evaluator) Counters() Counters { return ev.Used }
