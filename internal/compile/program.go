package compile

import (
	"context"
	"math"
	"runtime"
	"sync"
	"time"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/cost"
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/trace"
)

// Program is a lowered query: a core expression compiled to slot-resolved
// closures over a snapshot of the globals, executable many times and from
// many goroutines at once. It is what every execution runs: a session's bare
// query or statement lowers one and runs it once; a prepared statement and
// the query server's plan cache keep one and run it per request, so
// parse/typecheck/optimize/lower happen once per plan and each request pays
// only Run.
//
// A Program is safe for concurrent Run calls: all run-time state (work
// counters, budgets, interrupt state, recursion depth, span measurements)
// lives on the execution's machine and profiling context, never on the
// compiled closures. What is static is shared: per profiling level, the
// closures and the span plan they record against (span ids, operators,
// parent links). NewProgram lowers only the ProfOff closures; the profiled
// ones for ProfSampled and ProfFull are lowered once each, on the first
// execution at that level. The full-level span plan is built once, on first
// need, and both the ProfFull lowering and the estimates (Estimates) read
// it. PlanShards and ExecuteRange (range.go) run the ProfOff closures with
// the root tabulation restricted: there is one lowering per level.
//
// Global references resolve to values of the globals map at NewProgram time
// (the globals the plan read, env.Bindings), so a Program keeps observing the
// environment as of its preparation even if vals are rebound afterwards; the
// plan that holds it (repl.Plan.Current) decides when that snapshot is
// stale, for a prepared statement and the server's plan cache alike.
type Program struct {
	expr    ast.Expr
	globals map[string]object.Value
	// limits holds the compile-time limits; MaxDepth is baked into the
	// closures (the depth-guard wrapper), so Run cannot change it.
	limits eval.Limits
	// params maps $name placeholders to argument-frame indices, one table
	// for every lowering so all share one frame layout.
	// NewProgram's lowering assigns every index; later lowerings visit the
	// same placeholders and only read it.
	params *paramTable
	// levels holds the closures of each profiling level, by eval.ProfLevel.
	levels [eval.ProfFull + 1]lowering

	// full is the full-level span plan, built once by fullPlan.
	fullOnce sync.Once
	full     *eval.SpanPlan
	estOnce  sync.Once
	est      *trace.Estimates
}

// lowering is the program's expression compiled at one profiling level.
type lowering struct {
	once            sync.Once
	code            compiledExpr
	maxSlots, parks int
	// spans is the static span plan the closures record against; nil at
	// ProfOff, where no closure is wrapped.
	spans *eval.SpanPlan
	// rangeable is set when the expression's root let chain ends in a
	// tabulation, whose closure answers range requests (range.go).
	rangeable bool
}

// NewProgram compiles expr against a snapshot of globals. limits.MaxDepth,
// when positive, bakes the recursion-depth guard into the compiled code
// (and forces serial tabulation at Run, as depth is serial state); the
// other limit fields serve as Run's defaults.
func NewProgram(expr ast.Expr, globals map[string]object.Value, limits eval.Limits) *Program {
	if globals == nil {
		globals = map[string]object.Value{}
	}
	p := &Program{expr: expr, globals: globals, limits: limits, params: &paramTable{}}
	p.lowered(eval.ProfOff)
	return p
}

// lowered returns the program's closures at level, lowering them on first
// use.
func (p *Program) lowered(level eval.ProfLevel) *lowering {
	l := &p.levels[level]
	l.once.Do(func() {
		if level == eval.ProfFull {
			l.spans = p.fullPlan()
		} else {
			l.spans = eval.NewSpanPlan(p.expr, level)
		}
		c := &compiler{globals: p.globals, limits: p.limits, prof: l.spans, params: p.params}
		l.code = c.lower(p.expr, true)
		l.maxSlots, l.parks, l.rangeable = c.maxSlots, c.parks, c.rootTab
	})
	return l
}

// fullPlan returns the program's full-level span plan, built on first use.
func (p *Program) fullPlan() *eval.SpanPlan {
	p.fullOnce.Do(func() { p.full = eval.NewSpanPlan(p.expr, eval.ProfFull) })
	return p.full
}

// ParamNames returns the names of the program's $name placeholders, in
// first-occurrence order; nil when the program has none.
func (p *Program) ParamNames() []string {
	if p.params == nil || len(p.params.names) == 0 {
		return nil
	}
	return append([]string(nil), p.params.names...)
}

// Estimates returns the program's estimates (cost.EstimatePlan over the
// expression, its full-level span plan and the globals snapshot):
// per-operator cardinality and cost estimates, one per span id of the plan
// the ProfFull lowering records against, that every execution can join
// against its recorded actuals. Built once, on first use, and shared
// immutably; nil only for a nil expression.
func (p *Program) Estimates() *trace.Estimates {
	p.estOnce.Do(func() { p.est = cost.EstimatePlan(p.expr, p.fullPlan(), p.globals) })
	return p.est
}

// ExecOpts configures one execution of a Program.
type ExecOpts struct {
	// Limits bounds this execution's resources. MaxDepth is ignored: the
	// depth guard is compiled into the Program (see NewProgram). The zero
	// value falls back to the Program's compile-time limits.
	Limits eval.Limits
	// Workers caps the fan-out of a tabulation or a Σ; 0 means GOMAXPROCS.
	Workers int
	// Threshold overrides DefaultThreshold when positive; negative
	// disables fan-out.
	Threshold int
	// Args is this execution's argument frame: one value per $name
	// placeholder. Names the program does not mention are ignored at this
	// level (callers validate strictly); a placeholder left unbound errors
	// only if evaluated, like an unbound variable.
	Args map[string]object.Value
	// Level is the execution's span-profiling level: which of the program's
	// lowerings runs, and whether the execution records a span tree.
	// PlanShards and ExecuteRange run unprofiled at any level.
	Level eval.ProfLevel
}

// Outcome is what one execution did, as far as it got.
type Outcome struct {
	Counters trace.EvalCounters
	// Spans is the execution's span tree at Level; nil at ProfOff.
	Spans *trace.SpanNode
	Level eval.ProfLevel
}

// Run executes the program under ctx on a fresh machine at opts.Level and
// fills out with the work counters and span tree the execution recorded,
// also when it fails or panics, so a query guard reports aborted runs too.
// Concurrent Runs of one Program are independent: counters, budgets,
// cancellation and span measurements are all per call.
func (p *Program) Run(ctx context.Context, opts ExecOpts, out *Outcome) (object.Value, error) {
	return p.run(ctx, opts, nil, out)
}

// run is Run under the range request rq, which the root tabulation answers
// in place of its whole array; nil for a whole execution.
func (p *Program) run(ctx context.Context, opts ExecOpts, rq *rangeReq, out *Outcome) (object.Value, error) {
	l := p.lowered(opts.Level)
	fr := p.newFrame(ctx, opts, l.maxSlots, l.parks)
	fr.ex.rng = rq
	m := fr.m
	m.prof = eval.NewProfCtx(l.spans)
	defer func() {
		m.finish()
		out.Counters, out.Spans, out.Level = m.counters(), m.prof.Fold(), opts.Level
	}()
	return l.code(fr)
}

// Execute is Run for callers that want the counters and no span tree.
func (p *Program) Execute(ctx context.Context, opts ExecOpts) (object.Value, trace.EvalCounters, error) {
	var out Outcome
	v, err := p.Run(ctx, opts, &out)
	return v, out.Counters, err
}

// newFrame builds the root frame of one execution, with slots variable and
// parks park slots: a machine under opts' limits (the program's
// compile-time ones when zero) with the compiled-in MaxDepth and opts'
// fan-out, and the execution holding opts' argument frame.
func (p *Program) newFrame(ctx context.Context, opts ExecOpts, slots, parks int) *frame {
	lim := opts.Limits
	if lim == (eval.Limits{}) {
		lim = p.limits
	}
	// The depth guard is compiled in; keep the machine's view consistent
	// with it.
	lim.MaxDepth = p.limits.MaxDepth
	m := &machine{config: config{workers: opts.Workers, threshold: int64(opts.Threshold)}, ctx: ctx}
	m.budget(lim)
	if m.workers <= 0 {
		m.workers = runtime.GOMAXPROCS(0)
	}
	if opts.Threshold == 0 {
		m.threshold = DefaultThreshold
	}
	// Depth tracking is serial state on the machine, so a MaxDepth limit
	// forces serial tabulation; correctness beats parallelism here.
	if opts.Threshold < 0 || lim.MaxDepth > 0 {
		m.threshold = math.MaxInt64
	}
	if lim.Timeout > 0 {
		m.deadline = time.Now().Add(lim.Timeout)
	}
	ex := &execution{config: m.config}
	ex.args, ex.argOK = p.params.resolve(opts.Args)
	return makeFrame(m, ex, slots, parks)
}
