package eval

import (
	"context"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/trace"
)

// Counters is trace.EvalCounters, the one record of an evaluation's work;
// the name stays because the frozen benchmark harness (benchmarks/) uses it.
type Counters = trace.EvalCounters

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
func (ev *Evaluator) Counters() trace.EvalCounters { return ev.Used }
