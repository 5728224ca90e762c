package repl

import (
	"context"
	"fmt"
	"runtime/debug"
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

// BindError is an argument-binding failure of a prepared execution: a
// placeholder left unbound, an argument naming no placeholder, or a value
// whose type does not unify with the placeholder's inferred type. It is a
// client error, raised before any evaluation work happens.
type BindError struct {
	Name string // the placeholder or argument name, without the $
	Msg  string
}

func (e *BindError) Error() string { return "bind: " + e.Msg }

// Prepared is a parameterized statement compiled once and executable many
// times with different argument frames. The template is carried through the
// whole pipeline — parse, desugar, macro expansion, typecheck (placeholders
// are typed here; a mismatched later bind is a typed error, not an
// evaluation failure), optimization, and (on the compiled engine) lowering
// to a Program whose placeholders read per-execution argument slots — so
// repeated executions pay only binding and evaluation.
//
// A Prepared tracks the environment epoch it was compiled under; executing
// after a `val` rebinding (or reader registration) transparently re-prepares
// against the current globals, exactly as the server's plan cache stops
// serving plans from older epochs. The binding of `it` that every execution
// ends with counts only against a plan that reads `it` (env.PlanEpoch).
type Prepared struct {
	s *Session

	mu sync.Mutex
	// Text is the source template, verbatim.
	Text string
	// Core is the optimized core query the executions evaluate.
	Core ast.Expr
	// Type is the template's inferred result type.
	Type *types.Type
	// Params maps each $name placeholder to its inferred type; Exec unifies
	// every submitted argument against these.
	Params map[string]*types.Type

	prog *compile.Program // nil on the interpreter engine
	// readsIt is whether the macro-expanded query has `it` free; epoch is
	// Env.PlanEpoch(readsIt) as of before the plan's globals snapshot.
	readsIt bool
	epoch   uint64
}

// Prepare compiles src as a parameterized statement. Placeholders ($name)
// may appear anywhere a scalar expression may; a template with no
// placeholders is simply a statement prepared for re-execution.
func (s *Session) Prepare(src string) (*Prepared, error) {
	s.Trace.Begin(":prepare " + src)
	p, err := s.prepare(src)
	s.Trace.End(err)
	return p, err
}

// prepare is the trace-phase-instrumented pipeline of Prepare, shared with
// Exec's epoch-triggered re-preparation.
func (s *Session) prepare(src string) (*Prepared, error) {
	// Read before anything of the environment is: a mutation that slips in
	// afterwards then leaves the plan looking stale, never current.
	epochIt, epochNoIt := s.Env.PlanEpoch(true), s.Env.PlanEpoch(false)
	sp := s.Trace.StartPhase(trace.PhaseParse)
	se, err := parser.ParseExpr(src)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = s.Trace.StartPhase(trace.PhaseDesugar)
	core, err := desugar.Expr(se)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = s.Trace.StartPhase(trace.PhaseMacro)
	core = s.Env.ExpandMacros(core)
	sp.End()
	sp = s.Trace.StartPhase(trace.PhaseTypecheck)
	typ, params, err := typecheck.InferParams(core, s.Env.GlobalTypes())
	sp.End()
	if err != nil {
		return nil, err
	}
	opt := s.Optimize(core)
	p := &Prepared{s: s, Text: src, Core: opt, Type: typ, Params: params, epoch: epochNoIt}
	if p.readsIt = ast.FreeVars(core)[env.ItName]; p.readsIt {
		p.epoch = epochIt
	}
	if s.Engine != EngineInterp {
		p.prog = compile.NewProgram(opt, s.Env.Globals(), s.Limits)
	}
	return p, nil
}

// ParamNames returns the statement's placeholder names, sorted.
func (p *Prepared) ParamNames() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	names := make([]string, 0, len(p.Params))
	for name := range p.Params {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Exec runs the prepared statement with args as its argument frame and binds
// the result to `it`, as a bare query does. Binding is strict — every
// placeholder must be bound, every argument must name a placeholder, and
// every value must unify with the placeholder's inferred type — with
// failures reported as *BindError before evaluation starts. Concurrent Exec
// calls on one Prepared are independent executions of the shared plan.
func (p *Prepared) Exec(ctx context.Context, args map[string]object.Value) (object.Value, error) {
	s := p.s
	core, prog, typ, err := p.snapshot(args)
	if err != nil {
		return object.Value{}, err
	}
	v, err := p.execGuarded(ctx, core, prog, args)
	s.Trace.End(err)
	if err != nil {
		return object.Value{}, err
	}
	s.Env.SetVal(env.ItName, v, typ)
	return v, nil
}

// snapshot re-prepares if the environment moved past the plan's epoch, then
// binds args against the (current) parameter types and returns the plan
// pieces one execution needs, all under the statement's lock. It also opens
// the execution's trace report, which is open on return exactly when err is
// nil: before a re-preparation, whose phases the report then carries, and
// otherwise once the arguments bind, so a bind error leaves no report.
func (p *Prepared) snapshot(args map[string]object.Value) (ast.Expr, *compile.Program, *types.Type, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	tr := p.s.Trace
	stale := p.s.Env.PlanEpoch(p.readsIt) != p.epoch
	if stale {
		tr.Begin(p.Text)
		np, err := p.s.prepare(p.Text)
		if err != nil {
			err = fmt.Errorf("re-preparing after environment change: %w", err)
			tr.End(err)
			return nil, nil, nil, err
		}
		p.Core, p.Type, p.Params, p.prog, p.readsIt, p.epoch = np.Core, np.Type, np.Params, np.prog, np.readsIt, np.epoch
	}
	if err := bindCheck(p.Params, args); err != nil {
		if stale {
			tr.End(err)
		}
		return nil, nil, nil, err
	}
	if !stale {
		tr.Begin(p.Text)
	}
	return p.Core, p.prog, p.Type, nil
}

// bindCheck enforces strict binding of args against the inferred parameter
// types. One substitution is shared across all placeholders of the call, so
// placeholders whose types share a type variable (the two sides of `$a = $b`)
// must be bound at consistent types.
func bindCheck(params map[string]*types.Type, args map[string]object.Value) error {
	names := make([]string, 0, len(params))
	for name := range params {
		names = append(names, name)
	}
	sort.Strings(names)
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
	sub := types.Subst{}
	for _, name := range names {
		at, err := typecheck.TypeOf(args[name])
		if err != nil {
			return &BindError{Name: name, Msg: fmt.Sprintf("argument $%s: %v", name, err)}
		}
		want := sub.Apply(params[name])
		if err := sub.Unify(want, at); err != nil {
			return &BindError{Name: name,
				Msg: fmt.Sprintf("argument $%s: expected %s, got %s", name, want, at)}
		}
	}
	return nil
}

// execGuarded is one prepared execution under the session's guardrails:
// resource limits, counter recording (even for aborted executions) and the
// panic boundary, mirroring evalGuarded. The compiled engine executes the
// shared Program with args as the execution's argument frame; the
// interpreter threads args through the evaluator's Params field.
func (p *Prepared) execGuarded(ctx context.Context, core ast.Expr, prog *compile.Program, args map[string]object.Value) (v object.Value, err error) {
	s := p.s
	sp := s.Trace.StartPhase(trace.PhaseEval)
	var cnt eval.Counters
	defer func() {
		s.LastSteps.Store(cnt.Steps)
		s.LastCells.Store(cnt.Cells)
		sp.End()
		s.Trace.RecordEval(compile.TraceCounters(cnt))
		if r := recover(); r != nil {
			v = object.Value{}
			err = &PanicError{Src: p.Text, Val: r, Stack: debug.Stack()}
		}
	}()
	if prog != nil {
		s.Trace.RecordEngine(EngineCompiled)
		v, cnt, err = prog.Execute(ctx, compile.ExecOpts{
			Limits: s.Limits, MaxSteps: s.MaxSteps, Args: args,
		})
		return v, err
	}
	ev := eval.New(s.Env.Globals())
	ev.MaxSteps = s.MaxSteps
	ev.Limits = s.Limits
	ev.Params = args
	s.Trace.RecordEngine(EngineInterp)
	v, err = ev.EvalExpr(ctx, core)
	cnt = ev.Counters()
	return v, err
}
