package eval

import (
	"context"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/object"
)

// Counters is a snapshot of the work counters an engine charges while
// evaluating a query: steps (nodes executed), cells (collection/array cells
// allocated), tabulations, set-algebra operations and comprehension
// iterations. Both engines charge on identical events, so the numbers are
// comparable across engines and stable under parallel execution.
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

// Engine executes core-calculus expressions. Two implementations exist: the
// reference tree-walking interpreter in this package (*Evaluator) and the
// compiled engine in internal/compile, which lowers the AST to slot-resolved
// Go closures. Both implement the same operational semantics bit for bit —
// the differential test suite at the module root holds them to byte-identical
// exchange-format output, identical ⊥ diagnostics and identical counters.
type Engine interface {
	// Name identifies the engine ("interp" or "compiled") for reports.
	Name() string
	// EvalExpr evaluates a closed core expression under ctx, honoring the
	// engine's configured step/cell/depth/timeout limits.
	EvalExpr(ctx context.Context, e ast.Expr) (object.Value, error)
	// Counters reports the work charged by the most recent EvalExpr.
	Counters() Counters
}

// Name identifies the tree-walking interpreter; part of Engine.
func (ev *Evaluator) Name() string { return "interp" }

// EvalExpr evaluates e with no local bindings; part of Engine. When span
// profiling is enabled it builds the evaluation's span plan first and folds
// the accumulated tree on the way out (even on error), so SpanTree reflects
// partial evaluations too.
func (ev *Evaluator) EvalExpr(ctx context.Context, e ast.Expr) (object.Value, error) {
	if ev.profLevel == ProfOff {
		ev.lastSpans = nil
		return ev.EvalCtx(ctx, e, nil)
	}
	ev.prof = NewProfCtx(NewSpanPlan(e, ev.profLevel))
	defer func() {
		ev.lastSpans = ev.prof.Fold()
		ev.prof = nil
	}()
	return ev.EvalCtx(ctx, e, nil)
}

// Counters snapshots the interpreter's work counters; part of Engine.
func (ev *Evaluator) Counters() Counters {
	return Counters{Steps: ev.Steps.Load(), Cells: ev.Cells.Load(), Tabs: ev.Tabs.Load(), SetOps: ev.SetOps.Load(), Iters: ev.Iters.Load()}
}
