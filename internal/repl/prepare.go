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
	"github.com/aqldb/aql/internal/opt"
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

	// reads is the globals and the optimizer the plan read; maxDepth is the
	// Limits.MaxDepth that lowering baked into Prog.
	reads    *env.Bindings
	maxDepth int
}

// Current reports whether p may still run against e under a MaxDepth of
// maxDepth: the bindings it read still hold (env.Env.Current), and the depth
// guard compiled into it is the one in force. It is the one test of plan
// currency: a prepared statement and the server's plan cache both
// re-prepare exactly when it fails.
func (p *Plan) Current(e *env.Env, maxDepth int) bool {
	return p.maxDepth == maxDepth && e.Current(p.reads)
}

// frontEnd is the one path from query text to a plan: parse -> desugar ->
// macro substitution -> typecheck -> optimize -> lower (section 4.1), each
// phase timed on rep, the execution's report, only when it runs. se is the
// surface expression when the caller has already parsed it (statements);
// limits are the ones lowering bakes into the program (see
// compile.NewProgram), and nil ones stop the plan at the typechecker (Compile,
// macro bodies). Typecheck, lowering and the interpreter read only the
// globals that macro substitution resolved (env.Env.Expand).
func (s *Session) frontEnd(rep *trace.QueryReport, src string, se parser.Expr, limits *eval.Limits) (*Plan, error) {
	if se == nil {
		sp := rep.StartPhase(trace.PhaseParse)
		var err error
		se, err = parser.ParseExpr(src)
		sp.End()
		if err != nil {
			return nil, &PrepareError{Phase: "parse", Err: err}
		}
	}
	sp := rep.StartPhase(trace.PhaseDesugar)
	core, err := desugar.Expr(se)
	sp.End()
	if err != nil {
		return nil, &PrepareError{Phase: "desugar", Err: err}
	}
	sp = rep.StartPhase(trace.PhaseMacro)
	core, reads := s.Env.Expand(core)
	sp.End()
	sp = rep.StartPhase(trace.PhaseTypecheck)
	typ, params, err := typecheck.InferParams(core, reads.Types())
	sp.End()
	if err != nil {
		return nil, &PrepareError{Phase: "type", Err: err}
	}
	p := &Plan{Text: src, Core: core, Type: typ, Params: params, reads: reads}
	if limits == nil {
		return p, nil
	}
	p.Core = s.optimize(rep, reads.Optimizer(), core)
	sp = rep.StartPhase(trace.PhaseCompile)
	// A user rule may have named a global the query did not.
	s.Env.Resolve(reads, ast.FreeVars(p.Core))
	p.Prog = compile.NewProgram(p.Core, p.reads.Values(), *limits)
	p.maxDepth = limits.MaxDepth
	sp.End()
	return p, nil
}

// optimize applies o unless SkipOptimizer is set. With a report, the
// optimizer's per-call rule-firing hook feeds it, and whole-query AST node
// counts are recorded around the rewrite; node counting is skipped entirely
// otherwise.
func (s *Session) optimize(rep *trace.QueryReport, o *opt.Optimizer, core ast.Expr) ast.Expr {
	if s.SkipOptimizer {
		return core
	}
	if rep == nil {
		return o.Optimize(core)
	}
	sp := rep.StartPhase(trace.PhaseOptimize)
	defer sp.End()
	rep.NodesBefore = ast.CountNodes(core)
	out := o.OptimizeTraced(core, rep.RuleFired)
	rep.NodesAfter = ast.CountNodes(out)
	return out
}

// Plan carries src through the whole front end to a plan with a shared
// program, timing its phases on rep: a preparation's report, or the report of
// the execution that re-prepares (a stale prepared statement, a server
// request on a plan-cache miss). The plan keeps the bindings it read, so a
// mutation racing the call leaves a plan that fails Current, never a stale
// one that passes it.
func (s *Session) Plan(rep *trace.QueryReport, src string, limits eval.Limits) (*Plan, error) {
	return s.frontEnd(rep, src, nil, &limits)
}

// Compile runs parse, desugar, macro expansion and typechecking on a
// single expression, returning the core query and its type. The optimizer
// is NOT applied; see Optimize. Nothing is recorded.
func (s *Session) Compile(src string) (ast.Expr, *types.Type, error) {
	p, err := s.frontEnd(nil, src, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	return p.Core, p.Type, nil
}

// Optimize applies the optimizer in force to a compiled query unless
// SkipOptimizer is set. Nothing is recorded.
func (s *Session) Optimize(core ast.Expr) ast.Expr {
	return s.optimize(nil, s.Env.CurrentOptimizer(), core)
}

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
// Executing a Prepared whose plan is no longer Current — after a rebinding
// of a val it reads (`it` included), a macro definition or a registration,
// or under a session MaxDepth other than the one compiled into the program —
// transparently re-prepares against the current globals, by the same test
// the server's plan cache applies. An execution is thus held to the
// environment and limits in force when it runs.
type Prepared struct {
	s     *Session
	text  string // the template, the same across re-preparations
	mu    sync.Mutex
	*Plan // the current plan; its fields read as the statement's own
}

// Prepare compiles src as a parameterized statement. Placeholders ($name)
// may appear anywhere a scalar expression may; a template with no
// placeholders is simply a statement prepared for re-execution.
func (s *Session) Prepare(src string) (*Prepared, error) {
	rep := s.OpenReport(":prepare " + src)
	plan, err := s.Plan(rep, src, s.Limits)
	s.FinishReport(rep, err)
	if err != nil {
		return nil, err
	}
	return &Prepared{s: s, text: src, Plan: plan}, nil
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
// Exec calls on one Prepared are independent executions of the shared plan,
// each with a report of its own, finished whatever the outcome.
func (p *Prepared) Exec(ctx context.Context, args map[string]object.Value) (object.Value, error) {
	s := p.s
	rep := s.OpenReport(p.text)
	plan, err := p.current(rep, args)
	var v object.Value
	if err == nil {
		v, err = s.execute(ctx, rep, plan, args, s.Profiling)
	}
	s.FinishReport(rep, err)
	if err != nil {
		return object.Value{}, err
	}
	s.Env.SetVal(env.ItName, v, plan.Type)
	return v, nil
}

// current re-prepares if the plan is not Current under the session's
// MaxDepth, timing the re-preparation on rep, then binds args against the
// (current) parameter types and returns the plan, all under the statement's
// lock.
func (p *Prepared) current(rep *trace.QueryReport, args map[string]object.Value) (*Plan, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.Current(p.s.Env, p.s.Limits.MaxDepth) {
		plan, err := p.s.Plan(rep, p.text, p.s.Limits)
		if err != nil {
			return nil, fmt.Errorf("re-preparing after environment change: %w", err)
		}
		p.Plan = plan
	}
	if err := Bind(p.Params, args); err != nil {
		return nil, err
	}
	return p.Plan, nil
}

// execute is one execution of plan at the given profiling level, with args
// as its argument frame, behind the session's guard, recorded on rep. The
// compiled engine runs the plan's program; the interpreter, the differential
// oracle, evaluates the plan's core with args as its Params.
func (s *Session) execute(ctx context.Context, rep *trace.QueryReport, plan *Plan, args map[string]object.Value, level eval.ProfLevel) (v object.Value, err error) {
	err = s.Guard(ctx, rep, plan.Text, func(ctx context.Context, w *Work) (err error) {
		if s.Engine == EngineInterp {
			// A fresh evaluator per execution keeps its counters its own.
			ev := eval.New(plan.reads.Values())
			ev.Limits, ev.Params = s.Limits, args
			ev.SetProfiling(level)
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
