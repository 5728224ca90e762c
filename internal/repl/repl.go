// Package repl drives the AQL query pipeline of section 4.1 of the paper:
//
//	parse -> desugar (figure 2) -> macro substitution -> typecheck ->
//	optimize (section 5) -> evaluate -> complex object
//
// and implements the top-level declaration forms of the read-eval-print
// loop: val, macro, readval, writeval, and bare queries. A Session holds
// the open environment; both "views" of the system — the host-language API
// and the AQL loop — operate on the same Session, as the SML prototype's
// two read-eval-print loops did.
package repl

import (
	"context"
	"fmt"
	"os"
	"runtime/debug"
	"sync/atomic"
	"time"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/compile"
	"github.com/aqldb/aql/internal/env"
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/parser"
	"github.com/aqldb/aql/internal/tile"
	"github.com/aqldb/aql/internal/trace"
	"github.com/aqldb/aql/internal/typecheck"
	"github.com/aqldb/aql/internal/types"
)

// Session is a live AQL session.
type Session struct {
	Env *env.Env
	// SkipOptimizer evaluates un-normalized queries; the benchmark harness
	// uses it to measure the optimizer's effect.
	SkipOptimizer bool
	// Limits bounds the resources of each query evaluated by this session
	// (steps, cells, recursion depth, wall-clock). The zero value is
	// unlimited; violations surface as *eval.ResourceError.
	Limits eval.Limits
	// LastSteps reports the evaluator steps of the most recent query,
	// including queries aborted by a budget, cancellation, or panic.
	// Atomic because concurrent Prepared.Exec calls each record here.
	LastSteps atomic.Int64
	// LastCells reports the collection/array cells charged by the most
	// recent query, on the same terms as LastSteps.
	LastCells atomic.Int64
	// Recording is the session's recording switch. While it is on, every
	// execution — a statement, a bare query, a prepared execution, a
	// server request — builds a trace.QueryReport of its own (per-phase wall
	// times, evaluator counters, NetCDF I/O counters, the optimizer rule
	// trace), and FinishReport emits it. New turns it on once the setup
	// statements have run, so those run unrecorded.
	Recording atomic.Bool
	// Sink, when set, receives every finished report after Fleet and
	// Flight. Set it between queries, as Engine and Profiling are set.
	Sink trace.Sink
	// Engine selects the execution engine for queries: EngineCompiled
	// (the default — slot-resolved closures with parallel tabulation,
	// internal/compile) or EngineInterp (the reference tree-walking
	// interpreter). Set it directly or via SetEngine for validation.
	Engine string
	// Profiling selects operator-level span profiling for evaluations:
	// eval.ProfOff (the default; zero overhead), eval.ProfSampled (coarse
	// operators, one in eval.SampleInterval invocations measured) or
	// eval.ProfFull (every operator, exact attribution). Set it with
	// SetProfiling; each execution reads it once and runs at that level.
	Profiling eval.ProfLevel
	// Workers caps the compiled engine's fan-out (tabulation and Σ); 0 means
	// GOMAXPROCS. Tests pin it to exercise many workers sharing the tile
	// cache regardless of the host's core count.
	Workers int
	// Fleet accumulates cross-query aggregates (latency histogram, phase
	// and I/O totals, rule firing counts, slow-query log); Flight is the
	// ring of the last N full reports. They are where finished reports are
	// kept: FinishReport emits every report to both.
	Fleet  *trace.Aggregator
	Flight *trace.FlightRecorder
	// last is the most recently finished report (LastReport).
	last atomic.Pointer[trace.QueryReport]
	// prepared is the loop's current prepared statement (:prepare / :exec).
	prepared *Prepared
	// io is the session's out-of-core state: open NetCDF handles, the
	// shared tile cache, spill, and per-statement I/O attribution. See
	// iostate.go; released by Close.
	io *ioState
}

// Execution engine names for Session.Engine.
const (
	// EngineInterp is the reference tree-walking interpreter
	// (eval.Evaluator), the compiled engine's differential oracle.
	EngineInterp = "interp"
	// EngineCompiled is the compiled engine: the query is lowered to a
	// compile.Program of slot-resolved Go closures, and large tabulations
	// fan out across GOMAXPROCS workers.
	EngineCompiled = "compiled"
)

// PanicError wraps a panic recovered at the session boundary: an internal
// invariant violation (object.Compare on unordered kinds, types.Elem on a
// non-collection, a buggy registered primitive) surfaces as an error that
// carries the query source instead of crashing a process serving other
// queries.
type PanicError struct {
	Src   string // the query source, when known
	Val   any    // the recovered panic value
	Stack []byte // stack trace captured at the recovery point
}

// Error renders the panic with the offending query.
func (e *PanicError) Error() string {
	if e.Src != "" {
		return fmt.Sprintf("aql: internal error evaluating %q: %v", e.Src, e.Val)
	}
	return fmt.Sprintf("aql: internal error: %v", e.Val)
}

// Result is the outcome of one top-level statement, carrying what the
// paper's loop echoes: the declared name, its type, and its value.
type Result struct {
	Kind     string // "val", "macro", "readval", "writeval", "query"
	Name     string
	Type     *types.Type
	Value    object.Value
	HasValue bool
	// Source is the pretty-printed definition, set for macros so the loop
	// can echo what was registered.
	Source string
}

// New returns a session with the standard environment: builtins, the
// standard primitives, the standard macros of section 3 (dom, rng, subseq,
// zip, transpose, ...), the NetCDF readers, and the exchange-format
// reader/writer.
func New() (*Session, error) {
	s := &Session{Env: env.New(), Engine: EngineCompiled, io: newIOState(tile.Config{}),
		Fleet: trace.NewAggregator(), Flight: trace.NewFlightRecorder(0)}
	// The setup statements below are not user work: they run before
	// Recording is turned on, so :stats, the metrics endpoint and
	// LastReport start empty.
	s.registerNetCDF()
	RegisterNetCDFWriter(s.Env)
	RegisterExchange(s.Env)
	RegisterPrint(s.Env, os.Stdout)
	if _, err := s.Exec(StandardMacros); err != nil {
		return nil, fmt.Errorf("repl: standard macros: %w", err)
	}
	if _, err := s.Exec(ODMGMacros); err != nil {
		return nil, fmt.Errorf("repl: ODMG macros: %w", err)
	}
	s.Recording.Store(true)
	return s, nil
}

// OpenReport opens the report of one execution of query, started now: every
// entry point that runs an execution opens its report here, threads it
// through the pipeline, and finishes it with FinishReport. The report is the
// execution's own; only the goroutine running the execution writes it. It is
// nil while Recording is off, and every hook on the pipeline's path takes a
// nil report as "record nothing".
func (s *Session) OpenReport(query string) *trace.QueryReport {
	if !s.Recording.Load() {
		return nil
	}
	return &trace.QueryReport{Query: query, Start: time.Now()}
}

// FinishReport stamps rep's total wall time and err (if any), makes it the
// session's last report, and emits it to Fleet, Flight and Sink. A nil rep —
// recording was off when it was opened — is a no-op.
func (s *Session) FinishReport(rep *trace.QueryReport, err error) {
	if rep == nil {
		return
	}
	rep.Wall = time.Since(rep.Start)
	if err != nil {
		rep.Err = err.Error()
	}
	s.last.Store(rep)
	s.Fleet.Emit(rep)
	s.Flight.Emit(rep)
	if s.Sink != nil {
		s.Sink.Emit(rep)
	}
}

// LastReport returns the most recently finished report, or nil.
func (s *Session) LastReport() *trace.QueryReport { return s.last.Load() }

// SetProfiling selects the session's span-profiling level by name ("off",
// "sampled", "full"), rejecting unknown names.
func (s *Session) SetProfiling(level string) error {
	l, err := eval.ParseProfLevel(level)
	if err != nil {
		return err
	}
	s.Profiling = l
	return nil
}

// StandardMacros defines the derived operators that section 3 lists as
// programmer-convenience macros, written in AQL itself.
const StandardMacros = `
macro \dom = fn \A => gen!(len!A);
macro \rng = fn \A => {x | [_ : \x] <- A};
macro \subseq = fn (\A, \i, \j) => [[ A[i+k] | \k < (j+1)-i ]];
macro \zip = fn (\A, \B) => [[ (A[m], B[m]) | \m < min!{len!A, len!B} ]];
macro \zip_3 = fn (\A, \B, \C) =>
  [[ (A[m], B[m], C[m]) | \m < min!{len!A, len!B, len!C} ]];
macro \reverse = fn \A => [[ A[len!A - i - 1] | \i < len!A ]];
macro \evenpos = fn \A => [[ A[i*2] | \i < len!A / 2 ]];
macro \oddpos = fn \A => [[ A[i*2+1] | \i < len!A / 2 ]];
macro \transpose = fn \M => [[ M[i, j] | \j < dim_2_2!M, \i < dim_1_2!M ]];
macro \proj_col = fn (\M, \c) => [[ M[i, c] | \i < dim_1_2!M ]];
macro \proj_row = fn (\M, \r) => [[ M[r, j] | \j < dim_2_2!M ]];
macro \fst = fn (\a, _) => a;
macro \snd = fn (_, \b) => b;
macro \filter = fn (\P, \X) => {x | \x <- X, P!x};
macro \forall_in = fn (\P, \X) => count!{x | \x <- X, not P!x} = 0;
macro \exists_in = fn (\P, \X) => count!{x | \x <- X, P!x} > 0;
macro \append = fn (\A, \B) =>
  [[ if i < len!A then A[i] else B[i - len!A] | \i < len!A + len!B ]];
macro \sort = fn \X =>
  let val \g = index_1!{(i - 1, x) | (\x, \i) <- rank!X}
  in [[ get!(g[j]) | \j < len!g ]] end;
`

// ODMGMacros simulates the ODMG-93 one-dimensional array operations —
// creating, inserting, updating, subscripting and resizing — in AQL, as
// section 7 claims is easy ("Our array query language can also easily
// simulate all ODMG array primitives"). ODMG arrays are mutable; the
// simulations are the standard persistent versions, each a single
// tabulation.
const ODMGMacros = `
macro \odmg_create = fn (\n, \v) => [[ v | \i < n ]];
macro \odmg_subscript = fn (\A, \i) => A[i];
macro \odmg_update = fn (\A, \i, \v) =>
  [[ if j = i then v else A[j] | \j < len!A ]];
macro \odmg_insert = fn (\A, \i, \v) =>
  [[ if j < i then A[j] else if j = i then v else A[j-1] | \j < len!A + 1 ]];
macro \odmg_remove = fn (\A, \i) =>
  [[ if j < i then A[j] else A[j+1] | \j < len!A - 1 ]];
macro \odmg_resize = fn (\A, \n, \fill) =>
  [[ if i < len!A then A[i] else fill | \i < n ]];
`

// Eval evaluates a core query against the session's globals.
func (s *Session) Eval(core ast.Expr) (object.Value, error) {
	return s.EvalCtx(context.Background(), core)
}

// EvalCtx evaluates a core query under ctx: cancelling ctx or exceeding
// its deadline aborts evaluation with a *eval.ResourceError. The query is
// lowered under the session's limits and run as a bare query is.
func (s *Session) EvalCtx(ctx context.Context, core ast.Expr) (object.Value, error) {
	reads := s.Env.Resolve(nil, ast.FreeVars(core))
	p := &Plan{Core: core, Prog: compile.NewProgram(core, reads.Values(), s.Limits), reads: reads}
	return s.execute(ctx, nil, p, nil, s.Profiling)
}

// Work is what one guarded run did, as far as it got: run fills it in, and
// Guard reports it even for an aborted or panicking execution.
type Work struct {
	Engine string // EngineCompiled or EngineInterp
	// Outcome holds the work counters and, for a profiled run, the operator
	// span tree at its level; Spans is nil when the run recorded none.
	compile.Outcome
}

// Guard is the query boundary, the one place an execution — a session
// statement, a prepared execution, the server's POST /query and POST /shard —
// crosses into the engines. Around run it times the eval phase on rep, the
// execution's report (nil records nothing), attributes I/O to this execution
// through a trace.Collector carried in the context (every NetCDF read, retry
// and tile lookup made under that context counts there, and nowhere else),
// records engine, work counters, I/O and span tree even for aborted queries,
// and converts a panic into a *PanicError carrying src so one bad query can
// never crash a process serving others.
func (s *Session) Guard(ctx context.Context, rep *trace.QueryReport, src string, run func(context.Context, *Work) error) (err error) {
	sp := rep.StartPhase(trace.PhaseEval)
	ctx, col := trace.WithCollector(ctx)
	var w Work
	defer func() {
		s.LastSteps.Store(w.Counters.Steps)
		s.LastCells.Store(w.Counters.Cells)
		sp.End()
		if rep != nil {
			rep.Engine = w.Engine
			rep.Eval = rep.Eval.Add(w.Counters)
			rep.IO.Add(col.Snapshot())
			if w.Spans != nil {
				rep.Spans, rep.ProfLevel = w.Spans, w.Level.String()
			}
		}
		if r := recover(); r != nil {
			err = &PanicError{Src: src, Val: r, Stack: debug.Stack()}
		}
	}()
	return run(ctx, &w)
}

// SetEngine selects the session's execution engine by name, rejecting
// unknown names.
func (s *Session) SetEngine(name string) error {
	switch name {
	case EngineInterp, EngineCompiled:
		s.Engine = name
		return nil
	}
	return fmt.Errorf("repl: unknown engine %q (have %q, %q)", name, EngineCompiled, EngineInterp)
}

// Query runs the full pipeline on a single expression and binds the result
// to `it`, as the read-eval-print loop does.
func (s *Session) Query(src string) (object.Value, *types.Type, error) {
	return s.QueryCtx(context.Background(), src)
}

// QueryCtx is Query under a context: cancellation and deadlines interrupt
// the evaluation (not just the wait for it).
func (s *Session) QueryCtx(ctx context.Context, src string) (object.Value, *types.Type, error) {
	v, typ, _, err := s.query(ctx, src)
	return v, typ, err
}

// query is one bare query under a report of its own, which it finishes and
// returns (nil while recording is off).
func (s *Session) query(ctx context.Context, src string) (object.Value, *types.Type, *trace.QueryReport, error) {
	rep := s.OpenReport(src)
	v, typ, err := s.run(ctx, rep, src, nil)
	if err == nil {
		s.Env.SetVal(env.ItName, v, typ)
	}
	s.FinishReport(rep, err)
	return v, typ, rep, err
}

// run carries one expression of a bare query or a statement from text (or
// from se, its surface form, when the statement parser already produced it)
// to a value: the front end down to a program lowered under the session's
// limits, then one execution of it behind the guard, both recorded on rep. A
// bare query has no argument frame: a placeholder in it fails if evaluated.
func (s *Session) run(ctx context.Context, rep *trace.QueryReport, src string, se parser.Expr) (object.Value, *types.Type, error) {
	p, err := s.frontEnd(rep, src, se, &s.Limits)
	if err != nil {
		return object.Value{}, nil, err
	}
	v, err := s.execute(ctx, rep, p, nil, s.Profiling)
	if err != nil {
		return object.Value{}, nil, err
	}
	return v, p.Type, nil
}

// Exec runs a sequence of top-level statements.
func (s *Session) Exec(src string) ([]Result, error) {
	return s.ExecCtx(context.Background(), src)
}

// ExecCtx is Exec under a context; a cancelled statement aborts the
// sequence, returning the results completed so far.
func (s *Session) ExecCtx(ctx context.Context, src string) ([]Result, error) {
	stmts, err := parser.ParseProgram(src)
	if err != nil {
		return nil, err
	}
	var results []Result
	for _, stmt := range stmts {
		r, err := s.execStmt(ctx, stmt)
		if err != nil {
			return results, err
		}
		results = append(results, r)
	}
	return results, nil
}

// execStmt runs one statement under a report of its own labelled with the
// statement's shape, so readval I/O and val-declaration evaluations are
// attributed per statement in :stats and the metrics endpoint.
func (s *Session) execStmt(ctx context.Context, stmt parser.Stmt) (Result, error) {
	rep := s.OpenReport(stmtLabel(stmt))
	r, err := s.execStmtInner(ctx, rep, stmt)
	s.FinishReport(rep, err)
	return r, err
}

// stmtLabel renders a compact per-statement label for trace reports.
func stmtLabel(stmt parser.Stmt) string {
	switch n := stmt.(type) {
	case *parser.ValDecl:
		return "val " + n.Name
	case *parser.MacroDecl:
		return "macro " + n.Name
	case *parser.ReadVal:
		return fmt.Sprintf("readval %s using %s", n.Name, n.Reader)
	case *parser.WriteVal:
		return "writeval using " + n.Writer
	case *parser.ExprStmt:
		return parser.Print(n.E)
	}
	return fmt.Sprintf("%T", stmt)
}

func (s *Session) execStmtInner(ctx context.Context, rep *trace.QueryReport, stmt parser.Stmt) (Result, error) {
	switch n := stmt.(type) {
	case *parser.ValDecl:
		v, typ, err := s.run(ctx, rep, parser.Print(n.E), n.E)
		if err != nil {
			return Result{}, fmt.Errorf("val %s: %w", n.Name, err)
		}
		// Oversized array bindings spill to disk and rebind lazily; the
		// type was computed from the core expression, so typing never
		// touches the cells.
		v = s.maybeSpill(ctx, rep, v)
		s.Env.SetVal(n.Name, v, typ)
		return Result{Kind: "val", Name: n.Name, Type: typ, Value: v, HasValue: true}, nil

	case *parser.MacroDecl:
		p, err := s.frontEnd(rep, "", n.E, nil)
		if err != nil {
			return Result{}, fmt.Errorf("macro %s: %w", n.Name, err)
		}
		// Macros are substituted un-normalized; the optimizer sees the
		// whole query after substitution (section 4.1's pipeline order).
		s.Env.DefineMacro(n.Name, p.Core)
		return Result{Kind: "macro", Name: n.Name, Type: p.Type, Source: parser.Print(n.E)}, nil

	case *parser.ReadVal:
		reader, err := s.Env.Reader(n.Reader)
		if err != nil {
			return Result{}, err
		}
		arg, _, err := s.run(ctx, rep, parser.Print(n.At), n.At)
		if err != nil {
			return Result{}, fmt.Errorf("readval %s: %w", n.Name, err)
		}
		// The NetCDF readers parse the header and bind a lazy array; its
		// data is read by the executions that demand its tiles.
		v, err := reader(arg)
		if err != nil {
			return Result{}, fmt.Errorf("readval %s using %s: %w", n.Name, n.Reader, err)
		}
		typ, err := typecheck.TypeOf(v)
		if err != nil {
			return Result{}, fmt.Errorf("readval %s: %w", n.Name, err)
		}
		s.Env.SetVal(n.Name, v, typ)
		return Result{Kind: "readval", Name: n.Name, Type: typ, Value: v, HasValue: true}, nil

	case *parser.WriteVal:
		writer, err := s.Env.Writer(n.Writer)
		if err != nil {
			return Result{}, err
		}
		data, _, err := s.run(ctx, rep, parser.Print(n.E), n.E)
		if err != nil {
			return Result{}, fmt.Errorf("writeval: %w", err)
		}
		arg, _, err := s.run(ctx, rep, parser.Print(n.At), n.At)
		if err != nil {
			return Result{}, fmt.Errorf("writeval: %w", err)
		}
		// A writer is handed its data materialized, read under a collector
		// of the statement's own, as a spill is.
		mctx, col := trace.WithCollector(ctx)
		data, err = eval.Materialize(mctx, data, nil)
		if rep != nil {
			rep.IO.Add(col.Snapshot())
		}
		if err != nil {
			return Result{}, fmt.Errorf("writeval: %w", err)
		}
		if err := writer(arg, data); err != nil {
			return Result{}, fmt.Errorf("writeval using %s: %w", n.Writer, err)
		}
		return Result{Kind: "writeval"}, nil

	case *parser.ExprStmt:
		v, typ, err := s.run(ctx, rep, parser.Print(n.E), n.E)
		if err != nil {
			return Result{}, err
		}
		// Bind `it`, as the SML-style loop does.
		s.Env.SetVal(env.ItName, v, typ)
		return Result{Kind: "query", Name: "it", Type: typ, Value: v, HasValue: true}, nil
	}
	return Result{}, fmt.Errorf("repl: unhandled statement %T", stmt)
}
