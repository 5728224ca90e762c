package compile

import (
	"context"
	"math"
	"runtime"
	"time"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/cost"
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/trace"
)

// Program is a prepared plan: a core expression lowered once to
// slot-resolved closures over a snapshot of the globals, executable many
// times. It is the cacheable artifact behind the query server's
// prepared-plan cache — parse/typecheck/optimize/compile happen once, at
// NewProgram time, and each request then pays only Execute.
//
// A Program is immutable after construction and safe for concurrent
// Execute calls: all run-time state (work counters, budgets, interrupt
// state, recursion depth) lives on a per-execution machine reached through
// the frame, never on the compiled closures. The one deliberate exclusion
// is operator span profiling — a span plan's fold mutates shared plan
// nodes, so Programs always compile unprofiled closures (which are also
// exactly the fastest ones; see compile.EvalExpr's ProfOff path).
//
// The globals snapshot is taken at compile time (global references resolve
// to values, exactly as Engine.EvalExpr does), so a Program keeps
// observing the environment as of its preparation even if vals are
// rebound afterwards; cache keying on the environment epoch is what keeps
// served plans current.
type Program struct {
	code     compiledExpr
	maxSlots int
	// limits holds the compile-time limits; MaxDepth is baked into the
	// closures (the depth-guard wrapper), so Execute cannot change it.
	limits eval.Limits
	// shard is the range-partitionable view of the program, present when
	// the top-level expression is a tabulation (possibly under a chain of
	// let bindings); see range.go. nil otherwise.
	shard *shardCode
	// params maps $name placeholders to argument-frame indices; shared with
	// the shard view so distributed executions see the same frame layout.
	params *paramTable
	// est is the prepare-time estimate tree (cost.Estimate over expr and
	// the globals snapshot): per-operator cardinality and cost estimates
	// that ride the cached plan so every execution can join them against
	// its recorded actuals for free.
	est *trace.EstNode
}

// NewProgram compiles expr against a snapshot of globals. limits.MaxDepth,
// when positive, bakes the recursion-depth guard into the compiled code
// (and forces serial tabulation at Execute, as depth is serial state); the
// other limit fields serve as Execute's defaults.
func NewProgram(expr ast.Expr, globals map[string]object.Value, limits eval.Limits) *Program {
	if globals == nil {
		globals = map[string]object.Value{}
	}
	pt := &paramTable{}
	c := &compiler{globals: globals, limits: limits, params: pt}
	p := &Program{
		code:     c.compile(expr),
		maxSlots: c.maxSlots,
		limits:   limits,
		params:   pt,
		est:      cost.Estimate(expr, globals),
	}
	// The shardable core may sit under a chain of desugared let bindings
	// (App{Lam, bound}), which the optimizer's let-hoisting produces when it
	// pulls loop-invariant work out of a tabulation. Peel the chain so such
	// plans stay range-partitionable; the bindings are re-established per
	// shard (see range.go).
	var lets []letBinding
	core := expr
	for {
		app, ok := core.(*ast.App)
		if !ok {
			break
		}
		lam, ok := app.Fn.(*ast.Lam)
		if !ok {
			break
		}
		lets = append(lets, letBinding{name: lam.Param, bound: app.Arg})
		core = lam.Body
	}
	if tab, ok := core.(*ast.ArrayTab); ok {
		p.shard = newShardCode(lets, tab, globals, limits, pt)
	}
	return p
}

// ParamNames returns the names of the program's $name placeholders, in
// first-occurrence order; nil when the program has none.
func (p *Program) ParamNames() []string {
	if p.params == nil || len(p.params.names) == 0 {
		return nil
	}
	return append([]string(nil), p.params.names...)
}

// Estimates returns the program's prepare-time estimate tree, computed
// once at NewProgram and shared (immutably) by all executions; nil only
// for a nil expression.
func (p *Program) Estimates() *trace.EstNode { return p.est }

// TraceCounters renders c in the trace package's vocabulary; every layer
// that reports an execution's work to a recorder or a span converts here.
func TraceCounters(c eval.Counters) trace.EvalCounters {
	return trace.EvalCounters{Steps: c.Steps, Cells: c.Cells, Tabulations: c.Tabs, SetOps: c.SetOps, Iterations: c.Iters}
}

// ExecOpts configures one execution of a Program.
type ExecOpts struct {
	// Limits bounds this execution's resources. MaxDepth is ignored: the
	// depth guard is compiled into the Program (see NewProgram). The zero
	// value falls back to the Program's compile-time limits.
	Limits eval.Limits
	// MaxSteps mirrors Engine.MaxSteps: a second step bound, kept for
	// parity with the session knob; either tripping aborts.
	MaxSteps int64
	// Workers caps tabulation fan-out; 0 means GOMAXPROCS.
	Workers int
	// Threshold overrides DefaultThreshold when positive; negative
	// disables parallel tabulation.
	Threshold int
	// Args is this execution's argument frame: one value per $name
	// placeholder. Names the program does not mention are ignored at this
	// level (callers validate strictly); a placeholder left unbound errors
	// only if evaluated, like an unbound variable.
	Args map[string]object.Value
}

// Execute runs the program under ctx on a fresh machine, returning the
// value and the work counters this execution charged. Concurrent Execute
// calls on one Program are independent: counters, budgets and cancellation
// are all per-call.
func (p *Program) Execute(ctx context.Context, opts ExecOpts) (object.Value, eval.Counters, error) {
	m := p.newMachine(ctx, opts)
	fr := &frame{m: m, slots: make([]object.Value, p.maxSlots)}
	v, err := p.code(fr)
	return v, m.counters(), err
}

// newMachine builds the machine for one Execute-family call, resolving opts
// against the program's compile-time limits.
func (p *Program) newMachine(ctx context.Context, opts ExecOpts) *machine {
	lim := opts.Limits
	if lim == (eval.Limits{}) {
		lim = p.limits
	}
	// The depth guard is compiled in; keep the machine's view consistent
	// with it.
	lim.MaxDepth = p.limits.MaxDepth
	return newMachine(ctx, lim, opts, p.params)
}

// newMachine builds the per-evaluation machine of either entry point
// (Engine.EvalExpr, Program.Execute*): lim is the resolved limits, and opts
// supplies MaxSteps, Workers, Threshold and the argument frame.
func newMachine(ctx context.Context, lim eval.Limits, opts ExecOpts, pt *paramTable) *machine {
	m := &machine{
		config: config{
			limits:    lim,
			maxSteps:  opts.MaxSteps,
			workers:   opts.Workers,
			threshold: int64(opts.Threshold),
			stepMask:  eval.InterruptInterval - 1,
		},
		ctx: ctx,
	}
	if opts.MaxSteps > 0 || lim.MaxSteps > 0 {
		m.stepMask = 0
	}
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
	m.exec = &execution{config: m.config}
	m.exec.args, m.exec.argOK = pt.resolve(opts.Args)
	return m
}
