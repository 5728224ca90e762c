package repl

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/compile"
	"github.com/aqldb/aql/internal/desugar"
	"github.com/aqldb/aql/internal/env"
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/parser"
	"github.com/aqldb/aql/internal/trace"
	"github.com/aqldb/aql/internal/typecheck"
	"github.com/aqldb/aql/internal/types"
)

// PrepareError tags a front-end failure with the phase that produced it, so
// the server's HTTP mapping classifies by type rather than by matching
// substrings of the message (which a user-written identifier or literal
// could defeat). Error returns the inner text, so what the loop prints is the
// phase's own message.
type PrepareError struct {
	Phase string // "parse" | "desugar" | "type"
	Err   error
}

func (e *PrepareError) Error() string { return e.Err.Error() }
func (e *PrepareError) Unwrap() error { return e.Err }

// BindError is an argument-binding failure of a prepared execution: a
// placeholder left unbound, an argument naming no placeholder, or a value
// whose type does not unify with the placeholder's inferred type. It is a
// client error, raised before any evaluation work happens.
type BindError struct {
	Name string // the placeholder or argument name, without the $
	Msg  string
	// Mismatch is set when the named argument's type is at fault, and unset
	// when the set of names is (one missing, or one naming no placeholder).
	Mismatch bool
}

func (e *BindError) Error() string { return "bind: " + e.Msg }

// Plan is what the front end makes of one query text: immutable once
// returned, so a prepared statement and the server's plan cache hand the same
// value to any number of concurrent executions.
type Plan struct {
	// Text is the source, verbatim.
	Text string
	// Core is the core query as far down the pipeline as it was carried:
	// optimized, unless the plan stops at the typechecker (Session.Compile).
	Core ast.Expr
	// Type is the query's inferred result type.
	Type *types.Type
	// Params maps each $name placeholder to its inferred type; Bind unifies
	// an execution's arguments against these. Empty for a query without
	// placeholders.
	Params map[string]*types.Type
	// Prog is Core lowered to a program whose placeholders read
	// per-execution argument slots, shared by all executions at every
	// profiling level; nil only for a plan stopped at the typechecker.
	Prog *compile.Program

	// readsIt is whether the macro-expanded query has `it` free; epoch is
	// Env.PlanEpoch(readsIt) as of before the plan's globals snapshot;
	// maxDepth is the Limits.MaxDepth that lowering baked into Prog.
	readsIt  bool
	epoch    uint64
	maxDepth int
}

// Current reports whether p may still run against e under a MaxDepth of
// maxDepth: no mutation the plan can see (env.PlanEpoch) has landed since
// its globals snapshot, and the depth guard compiled into it is the one in
// force. It is the one test of plan currency: a prepared statement and the
// server's plan cache both re-prepare exactly when it fails.
func (p *Plan) Current(e *env.Env, maxDepth int) bool {
	return e.PlanEpoch(p.readsIt) == p.epoch && p.maxDepth == maxDepth
}

// depth is how far down the pipeline frontEnd carries a query.
type depth int

const (
	typed    depth = iota // parse … typecheck: Compile, macro bodies
	lowered               // … optimize, lower: a bare query or statement
	prepared              // … and the epoch a kept plan is current under
)

// frontEnd is the one path from query text to a plan: parse -> desugar ->
// macro substitution -> typecheck -> optimize -> lower (section 4.1), each
// phase timed on rec only when it runs. se is the surface expression when the
// caller has already parsed it (statements); limits are the ones lowering
// bakes into the program (see compile.NewProgram).
func (s *Session) frontEnd(rec *trace.Recorder, src string, se parser.Expr, to depth, limits eval.Limits) (*Plan, error) {
	// Read before anything of the environment is: a mutation that slips in
	// afterwards then leaves the plan looking stale, never current.
	epochIt, epochNoIt := s.Env.PlanEpoch(true), s.Env.PlanEpoch(false)
	if se == nil {
		sp := rec.StartPhase(trace.PhaseParse)
		var err error
		se, err = parser.ParseExpr(src)
		sp.End()
		if err != nil {
			return nil, &PrepareError{Phase: "parse", Err: err}
		}
	}
	sp := rec.StartPhase(trace.PhaseDesugar)
	core, err := desugar.Expr(se)
	sp.End()
	if err != nil {
		return nil, &PrepareError{Phase: "desugar", Err: err}
	}
	sp = rec.StartPhase(trace.PhaseMacro)
	core = s.Env.ExpandMacros(core)
	sp.End()
	sp = rec.StartPhase(trace.PhaseTypecheck)
	typ, params, err := typecheck.InferParams(core, s.Env.GlobalTypes())
	sp.End()
	if err != nil {
		return nil, &PrepareError{Phase: "type", Err: err}
	}
	p := &Plan{Text: src, Core: core, Type: typ, Params: params}
	if to == typed {
		return p, nil
	}
	p.Core = s.optimize(rec, core)
	if to == prepared {
		// What only a plan that outlives this statement uses: the epoch it
		// is current under.
		p.epoch = epochNoIt
		if p.readsIt = ast.FreeVars(core)[env.ItName]; p.readsIt {
			p.epoch = epochIt
		}
	}
	sp = rec.StartPhase(trace.PhaseCompile)
	p.Prog = compile.NewProgram(p.Core, s.Env.Globals(), limits)
	p.maxDepth = limits.MaxDepth
	sp.End()
	return p, nil
}

// optimize applies the session's optimizer unless SkipOptimizer is set.
// While rec has a report open, the optimizer's per-call rule-firing hook
// feeds it, and whole-query AST node counts are recorded around the rewrite;
// node counting is skipped entirely otherwise.
func (s *Session) optimize(rec *trace.Recorder, core ast.Expr) ast.Expr {
	if s.SkipOptimizer {
		return core
	}
	o := s.Env.Optimizer
	if !rec.Active() {
		return o.Optimize(core)
	}
	sp := rec.StartPhase(trace.PhaseOptimize)
	defer sp.End()
	before := ast.CountNodes(core)
	out := o.OptimizeTraced(core, rec.RuleFired)
	rec.RecordNodes(before, ast.CountNodes(out))
	return out
}

// Plan carries src through the whole front end to a plan with a shared
// program, reporting to rec: the session's recorder for a prepared statement,
// the server's per-request one on a plan-cache miss. The plan's epoch is read
// before anything else of the environment, so a mutation racing the call
// leaves a plan that fails Current, never a stale one that passes it.
func (s *Session) Plan(rec *trace.Recorder, src string, limits eval.Limits) (*Plan, error) {
	return s.frontEnd(rec, src, nil, prepared, limits)
}

// Compile runs parse, desugar, macro expansion and typechecking on a
// single expression, returning the core query and its type. The optimizer
// is NOT applied; see Optimize.
func (s *Session) Compile(src string) (ast.Expr, *types.Type, error) {
	p, err := s.frontEnd(s.Trace, src, nil, typed, eval.Limits{})
	if err != nil {
		return nil, nil, err
	}
	return p.Core, p.Type, nil
}

// Optimize applies the session's optimizer to a compiled query unless
// SkipOptimizer is set, recording on the session's open trace report.
func (s *Session) Optimize(core ast.Expr) ast.Expr { return s.optimize(s.Trace, core) }

// Bind enforces strict binding of one execution's arguments against a
// plan's inferred parameter types: every placeholder bound, every argument
// naming a placeholder, every value unifying with the placeholder's type.
// One unifier is shared across all placeholders of the call, so
// placeholders whose types share a type variable (the two sides of
// `$a = $b`) must be bound at consistent types.
//
// Known limitation: deferred constraint classes (numeric, orderable) are
// solved at prepare time, not re-checked per bind. In practice the solved
// placeholder types are already concrete wherever those constraints bit
// (unconstrained numeric variables default to nat), so unification still
// rejects the mismatches a user can express.
func Bind(params map[string]*types.Type, args map[string]object.Value) *BindError {
	// Deterministic order for error messages and unification.
	names := paramNames(params)
	for _, name := range names {
		if _, ok := args[name]; !ok {
			return &BindError{Name: name,
				Msg: fmt.Sprintf("missing argument for parameter $%s", name)}
		}
	}
	extra := make([]string, 0)
	for name := range args {
		if _, ok := params[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return &BindError{Name: extra[0],
			Msg: fmt.Sprintf("argument %q does not name a parameter of the query", extra[0])}
	}
	// The plan's types are shared by every execution: unify copies of
	// them, one variable per name across all placeholders.
	var copies types.Renamer
	var u types.Unifier
	for _, name := range names {
		at, err := typecheck.TypeOf(args[name])
		if err != nil {
			return &BindError{Name: name, Mismatch: true,
				Msg: fmt.Sprintf("argument $%s: %v", name, err)}
		}
		want := copies.Apply(params[name], nil)
		if err := u.Unify(want, at); err != nil {
			return &BindError{Name: name, Mismatch: true,
				Msg: fmt.Sprintf("argument $%s: expected %s, got %s", name, want, at)}
		}
	}
	return nil
}

// Prepared is a parameterized statement compiled once and executable many
// times with different argument frames: a Plan plus the lock under which it
// is replaced when stale. Placeholders are typed by the front end, so a
// mismatched later bind is a typed error, not an evaluation failure, and
// repeated executions pay only binding and evaluation: every execution, at
// every profiling level, runs the plan's one Program. An execution reports
// as a bare query does — counters, I/O, spans and worker records, under the
// session's limits, Workers and Profiling (see execute).
//
// Executing a Prepared whose plan is no longer Current — after a `val`
// rebinding or a reader registration, or under a session MaxDepth other than
// the one compiled into the program — transparently re-prepares against the
// current globals, by the same test the server's plan cache applies. The
// binding of `it` that every execution ends with counts only against a plan
// that reads `it` (env.PlanEpoch). An execution is thus held to the
// environment and limits in force when it runs.
type Prepared struct {
	s     *Session
	mu    sync.Mutex
	*Plan // the current plan; its fields read as the statement's own
}

// Prepare compiles src as a parameterized statement. Placeholders ($name)
// may appear anywhere a scalar expression may; a template with no
// placeholders is simply a statement prepared for re-execution.
func (s *Session) Prepare(src string) (*Prepared, error) {
	s.Trace.Begin(":prepare " + src)
	plan, err := s.Plan(s.Trace, src, s.Limits)
	s.Trace.End(err)
	if err != nil {
		return nil, err
	}
	return &Prepared{s: s, Plan: plan}, nil
}

// ParamNames returns the statement's placeholder names, sorted.
func (p *Prepared) ParamNames() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return paramNames(p.Params)
}

func paramNames(params map[string]*types.Type) []string {
	names := make([]string, 0, len(params))
	for name := range params {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Exec runs the prepared statement with args as its argument frame and binds
// the result to `it`, as a bare query does. Binding is strict (see Bind),
// with failures reported as *BindError before evaluation starts. Concurrent
// Exec calls on one Prepared are independent executions of the shared plan.
func (p *Prepared) Exec(ctx context.Context, args map[string]object.Value) (object.Value, error) {
	s := p.s
	plan, err := p.current(args)
	if err != nil {
		return object.Value{}, err
	}
	v, err := s.execute(ctx, plan, args, s.Profiling)
	s.Trace.End(err)
	if err != nil {
		return object.Value{}, err
	}
	s.Env.SetVal(env.ItName, v, plan.Type)
	return v, nil
}

// current re-prepares if the plan is not Current under the session's
// MaxDepth, then binds args against the (current) parameter types and
// returns the plan, all under the statement's lock. It also opens the
// execution's trace report, which is open on return exactly when err is
// nil: before a re-preparation, whose phases the report then carries, and
// otherwise once the arguments bind, so a bind error leaves no report.
func (p *Prepared) current(args map[string]object.Value) (*Plan, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	tr := p.s.Trace
	stale := !p.Current(p.s.Env, p.s.Limits.MaxDepth)
	if stale {
		tr.Begin(p.Text)
		plan, err := p.s.Plan(tr, p.Text, p.s.Limits)
		if err != nil {
			err = fmt.Errorf("re-preparing after environment change: %w", err)
			tr.End(err)
			return nil, err
		}
		p.Plan = plan
	}
	if err := Bind(p.Params, args); err != nil {
		if stale {
			tr.End(err)
		}
		return nil, err
	}
	if !stale {
		tr.Begin(p.Text)
	}
	return p.Plan, nil
}

// execute is one execution of plan at the given profiling level, with args
// as its argument frame, behind the session's guard. The compiled engine
// runs the plan's program; the interpreter, the differential oracle,
// evaluates the plan's core with args as its Params.
func (s *Session) execute(ctx context.Context, plan *Plan, args map[string]object.Value, level eval.ProfLevel) (v object.Value, err error) {
	err = s.Guard(ctx, s.Trace, plan.Text, func(ctx context.Context, w *Work) (err error) {
		if s.Engine == EngineInterp {
			ev := s.newEngine(args, level)
			// Deferred, so the counters and spans of a panicking evaluation
			// reach the guard too.
			defer func() {
				w.Engine, w.Counters, w.Spans, w.Level = EngineInterp, ev.Counters(), ev.SpanTree(), level
			}()
			v, err = ev.EvalExpr(ctx, plan.Core)
			return err
		}
		w.Engine = EngineCompiled
		v, err = plan.Prog.Run(ctx, compile.ExecOpts{
			Limits: s.Limits, Workers: s.Workers, Args: args, Level: level,
		}, &w.Outcome)
		return err
	})
	return v, err
}
