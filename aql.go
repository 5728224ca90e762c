// Package aql is a query language for multidimensional arrays: a complete
// Go implementation of AQL and its core calculus NRCA from Libkin, Machlin
// and Wong, "A Query Language for Multidimensional Arrays: Design,
// Implementation, and Optimization Techniques" (SIGMOD 1996).
//
// AQL treats arrays as functions from rectangular index sets to values
// rather than as collection types. Three array constructs — tabulation,
// subscripting and dimension extraction — together with nested relational
// calculus, arithmetic and summation express subslabs, regridding, zip,
// transpose, matrix product and the other array operations of scientific
// data management; the equational theory of the calculus powers a rewriting
// optimizer whose array rules (β^p, η^p, δ^p) avoid materializing
// intermediate arrays.
//
// # Quick start
//
//	s, err := aql.NewSession()
//	if err != nil { ... }
//	v, typ, err := s.Query(`{d | \d <- gen!30, d % 7 = 0}`)
//	fmt.Println(typ, v)   // {nat} {0, 7, 14, 21, 28}
//
// A Session is the paper's open top-level environment: external primitives,
// data readers/writers, macros, vals and optimizer rules can all be
// registered at runtime. The NetCDF classic-format driver ships in
// (readers NETCDF, NETCDF1..NETCDF4), as does a reader/writer for the
// complex-object data exchange format (EXCHANGE).
package aql

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/coord"
	"github.com/aqldb/aql/internal/env"
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/opt"
	"github.com/aqldb/aql/internal/repl"
	"github.com/aqldb/aql/internal/trace"
	"github.com/aqldb/aql/internal/typecheck"
	"github.com/aqldb/aql/internal/types"
)

// Value is a runtime complex object: a boolean, natural, real, string,
// tuple, set, bag, multidimensional array, or the error value ⊥.
type Value = object.Value

// Type is an AQL object type, e.g. [[real]]_3 or {nat * string}.
type Type = types.Type

// Expr is a compiled core-calculus query.
type Expr = ast.Expr

// Result is the outcome of one top-level statement executed by Exec.
type Result = repl.Result

// Reader inputs a complex object given a parameter object; register one
// with RegisterReader to make `readval X using NAME at e` work.
type Reader = env.Reader

// Writer outputs a complex object; the counterpart for `writeval`.
type Writer = env.Writer

// Rule is an optimizer rewrite rule; register with AddRule. Its optional
// Match field states the rule's left side as patterns of node kinds, so
// the optimizer offers the rule only the nodes they match; the built-in
// rules set it. A rule left without Match is tried at every node, in its
// place in the phase's rule order, so registering one never changes which
// built-in rule fires first.
type Rule = opt.Rule

// Limits bounds the resources one query may consume: evaluator steps,
// collection/array cells, recursion depth, and wall-clock time. The zero
// value is unlimited. Install with Session.SetLimits.
type Limits = eval.Limits

// ResourceError is the structured error returned when a query exceeds a
// resource budget, times out, or is cancelled; its Kind field
// distinguishes steps, cells, depth, timeout and cancelled. Unwrap with
// errors.As.
type ResourceError = eval.ResourceError

// ResourceKind names the budget a ResourceError reports against.
type ResourceKind = eval.ResourceKind

// The possible ResourceError kinds.
const (
	ResourceSteps     = eval.ResourceSteps
	ResourceCells     = eval.ResourceCells
	ResourceDepth     = eval.ResourceDepth
	ResourceTimeout   = eval.ResourceTimeout
	ResourceCancelled = eval.ResourceCancelled
)

// PanicError is the error returned when an internal panic was recovered at
// the session boundary; it carries the query source and a stack trace.
type PanicError = repl.PanicError

// QueryReport is the per-query observability record: phase wall times,
// evaluator work counters, NetCDF I/O counters, and the optimizer rule
// trace. Obtain the most recent one with Session.LastReport.
type QueryReport = trace.QueryReport

// TraceTotals is the session-cumulative observability counters, as the
// session's fleet aggregator keeps them.
type TraceTotals = trace.Totals

// TraceSink receives finished QueryReports; install with
// Session.SetTraceSink. NewSlogSink and NewJSONSink construct the two
// standard sinks.
type TraceSink = trace.Sink

// NewSlogSink returns a sink that logs one structured record per query via
// log/slog.
func NewSlogSink(l *slog.Logger) TraceSink { return trace.NewSlogSink(l) }

// NewJSONSink returns a sink that writes one JSON object per line per
// finished query.
func NewJSONSink(w io.Writer) TraceSink { return trace.NewJSONSink(w) }

// Session is a live AQL environment: the top-level read-eval-print state
// of section 4 of the paper.
//
// # Concurrency
//
// A Session's query methods (Query, Exec, Eval, ...) are sequential: each
// binds `it` (or, for Exec, declares vals), so interleaving them from
// multiple goroutines is not supported. Every execution builds a report of
// its own, written only by the goroutine running it, so concurrent Stmt.Exec
// calls each report in full.
// The layers underneath are safe to share, and that is the audited
// contract the query server (cmd/aqld) builds on: the environment is
// mutex-guarded and holds each global as an immutable record, so a prepared
// plan reads the globals it names and the rule base in force once and keeps
// what it read; an optimizer is immutable, with per-call trace hooks,
// and a compiled program keeps all run-time state (counters, budgets,
// cancellation, recursion depth) on a per-execution machine, so one
// prepared plan can serve many concurrent executions — verified under
// -race by the internal/compile and internal/server suites. To serve one
// environment to many clients, run aqld (or internal/server) rather than
// sharing a Session.
type Session struct {
	s *repl.Session
}

// NewSession returns a session with the standard environment: the derived
// primitives (min, max, member, count, not), the standard external
// primitives (heatindex, sunset, scalar math), the standard macros of
// section 3 (dom, rng, subseq, zip, zip_3, reverse, evenpos, transpose,
// proj_col, ...), the NetCDF and EXCHANGE drivers, and the three-phase
// optimizer of section 5.
func NewSession() (*Session, error) {
	s, err := repl.New()
	if err != nil {
		return nil, err
	}
	return &Session{s: s}, nil
}

// Query compiles, optimizes and evaluates a single AQL expression,
// returning its value and type.
func (s *Session) Query(src string) (Value, *Type, error) {
	return s.s.Query(src)
}

// QueryCtx is Query under a context: cancelling ctx (or exceeding its
// deadline) interrupts the evaluation itself, returning a *ResourceError.
func (s *Session) QueryCtx(ctx context.Context, src string) (Value, *Type, error) {
	return s.s.QueryCtx(ctx, src)
}

// Exec runs a sequence of top-level statements (`val`, `macro`, `readval`,
// `writeval`, and bare queries), each terminated by a semicolon.
func (s *Session) Exec(src string) ([]Result, error) {
	return s.s.Exec(src)
}

// ExecCtx is Exec under a context; a cancelled statement aborts the
// sequence, returning the results completed so far.
func (s *Session) ExecCtx(ctx context.Context, src string) ([]Result, error) {
	return s.s.ExecCtx(ctx, src)
}

// EvalCtx evaluates a compiled query under a context.
func (s *Session) EvalCtx(ctx context.Context, e Expr) (Value, error) {
	return s.s.EvalCtx(ctx, e)
}

// Compile runs the front half of the pipeline — parse, desugar (figure 2),
// macro substitution, typecheck — without optimizing or evaluating.
func (s *Session) Compile(src string) (Expr, *Type, error) {
	return s.s.Compile(src)
}

// Optimize rewrites a compiled query through the session's optimizer
// phases.
func (s *Session) Optimize(e Expr) Expr { return s.s.Optimize(e) }

// Eval evaluates a compiled query.
func (s *Session) Eval(e Expr) (Value, error) { return s.s.Eval(e) }

// SetOptimizerEnabled toggles the optimizer for subsequent queries; the
// benchmark harness uses this to isolate the optimizer's effect.
func (s *Session) SetOptimizerEnabled(on bool) { s.s.SkipOptimizer = !on }

// LastSteps reports the evaluator step count of the most recent query —
// a machine-independent work measure. It is reported even for queries
// aborted by a budget, cancellation, or recovered panic.
func (s *Session) LastSteps() int64 { return s.s.LastSteps.Load() }

// LastCells reports the collection/array cells charged by the most recent
// query, on the same terms as LastSteps.
func (s *Session) LastCells() int64 { return s.s.LastCells.Load() }

// LastReport returns the full observability report of the most recently
// finished query — phase wall times, evaluator counters, I/O counters and
// the optimizer rule trace — or nil if none has been recorded.
func (s *Session) LastReport() *QueryReport { return s.s.LastReport() }

// TraceTotals returns the session-cumulative observability counters: the
// totals of FleetSnapshot, what :stats prints.
func (s *Session) TraceTotals() TraceTotals { return s.s.Fleet.Snapshot().Totals }

// SetTraceEnabled toggles per-query observability recording. Sessions
// start with tracing enabled; its disabled-path cost is a few nil checks
// per query, and its enabled cost is bounded per query, not per evaluator
// step.
func (s *Session) SetTraceEnabled(on bool) { s.s.Recording.Store(on) }

// SetTraceSink directs finished per-query reports to a sink, in addition
// to the session's built-in fleet aggregator and flight recorder (nil
// removes a previously installed sink; the built-ins stay attached). Set it
// between queries; concurrent Stmt.Exec calls emit to it concurrently.
func (s *Session) SetTraceSink(sink TraceSink) { s.s.Sink = sink }

// SetProfiling sets the operator-profiling level for subsequent queries:
// "off" (no span instrumentation at all), "sampled" (coarse operators,
// 1-in-64 invocations measured; low overhead), or "full" (every core
// operator, every invocation; exact counter attribution). Span trees
// appear in QueryReport.Spans and through the REPL's :top.
func (s *Session) SetProfiling(level string) error { return s.s.SetProfiling(level) }

// ProfilingLevel reports the current operator-profiling level.
func (s *Session) ProfilingLevel() string { return s.s.Profiling.String() }

// Explain compiles and optimizes src without evaluating it, returning a
// rendering of the optimized query and the optimizer rule trace — the
// REPL's :explain.
func (s *Session) Explain(src string) (string, error) { return s.s.Explain(src) }

// Profile runs src and returns the finished report's phase/counter table —
// the REPL's :profile.
func (s *Session) Profile(ctx context.Context, src string) (string, error) {
	return s.s.Profile(ctx, src)
}

// ExplainAnalyze runs src at full profiling and returns the result plus the
// per-operator estimate-vs-actual table — the REPL's :explain analyze.
func (s *Session) ExplainAnalyze(ctx context.Context, src string) (string, error) {
	return s.s.ExplainAnalyze(ctx, src)
}

// IsCommand reports whether an input line is a session colon-command
// (":explain", ":profile", ":stats", ":help") rather than an AQL
// statement.
func IsCommand(line string) bool { return repl.IsCommand(line) }

// Command executes a colon-command line and returns its rendered output.
func (s *Session) Command(ctx context.Context, line string) (string, error) {
	return s.s.Command(ctx, line)
}

// MetricsHandler returns an http.Handler serving the session's
// observability surface — the endpoint behind the -metricsaddr flag of
// cmd/aql. It reads the session's fleet aggregator and flight recorder,
// where every finished report is kept:
//
//	GET /                 JSON summary: fleet totals + one summary per
//	                      report the flight recorder retains
//	GET /metrics          Prometheus text exposition (latency histogram,
//	                      phase/rule/eval/I-O counters); OpenMetrics with
//	                      trace-id exemplars when Accept asks for it
//	GET /debug/queries    flight recorder: last N full reports as JSON
//	GET /debug/trace/{id} one retained report as Chrome trace-event JSON,
//	                      looked up by request or trace id
//	GET /debug/slow       slowest queries seen
//	/debug/pprof/...      standard net/http/pprof handlers
//
// It is trace.NewHandler, the same handler the query server (cmd/aqld)
// mounts beside its own endpoints.
func (s *Session) MetricsHandler() http.Handler {
	return trace.NewHandler(s.s.Fleet, s.s.Flight)
}

// FleetSnapshot returns a copy of the session's cross-query aggregates:
// totals, latency histogram, per-phase and per-rule totals, misestimates
// and the slow-query log — what the REPL's :stats prints.
func (s *Session) FleetSnapshot() trace.AggregateSnapshot { return s.s.Fleet.Snapshot() }

// FlightReports returns the flight recorder's retained full QueryReports,
// oldest first.
func (s *Session) FlightReports() []QueryReport { return s.s.Flight.Reports() }

// SetEngine selects the execution engine for subsequent queries:
// "compiled" (the default — core queries are lowered to Go closures with
// slot-resolved variables and parallel tabulation) or "interp" (the
// tree-walking reference interpreter). The engines are observationally
// identical; interp exists as the executable semantics and differential
// baseline.
func (s *Session) SetEngine(name string) error { return s.s.SetEngine(name) }

// EngineName reports the execution engine subsequent queries will use.
func (s *Session) EngineName() string { return s.s.Engine }

// SetMaxSteps bounds the evaluator steps per query (0 = unlimited); queries
// that exceed the budget fail with a *ResourceError instead of running
// away. It sets Limits.MaxSteps, the session's one step budget, and leaves
// the other limits as they are; a later SetLimits replaces it.
func (s *Session) SetMaxSteps(n int64) { s.s.Limits.MaxSteps = n }

// SetLimits installs per-query resource budgets; the zero Limits removes
// them. Queries that exceed a budget fail with a *ResourceError whose Kind
// names the exhausted resource.
func (s *Session) SetLimits(l Limits) { s.s.Limits = l }

// SetTileConfig tunes the session's out-of-core tile cache: tileCells per
// tile and budget bytes of residency (zero values select the defaults).
// Call it before reading data; see repl.Session.SetTileConfig.
func (s *Session) SetTileConfig(tileCells int, budget int64) {
	s.s.SetTileConfig(tileCells, budget, false)
}

// Close releases the session's out-of-core resources: open NetCDF handles,
// the tile cache, and the spill file. Lazy values bound by the session must
// not be read afterwards.
func (s *Session) Close() error { return s.s.Close() }

// RegisterPrimitive makes a Go function available as an AQL primitive with
// the given type (in concrete syntax, e.g. "(real * real * nat) -> nat") —
// the paper's RegisterCO. fn is handed its argument materialized, read under
// the calling execution: an array in it, NetCDF ones too, holds its Elems.
func (s *Session) RegisterPrimitive(name, typ string, fn func(Value) (Value, error)) error {
	t, err := types.Parse(typ)
	if err != nil {
		return fmt.Errorf("aql: primitive %s: %w", name, err)
	}
	return s.s.Env.RegisterPrimitive(name, fn, t)
}

// RegisterReader registers a data reader for `readval`.
func (s *Session) RegisterReader(name string, r Reader) { s.s.Env.RegisterReader(name, r) }

// RegisterWriter registers a data writer for `writeval`. The writer is
// handed its data materialized, read under the statement's execution.
func (s *Session) RegisterWriter(name string, w Writer) { s.s.Env.RegisterWriter(name, w) }

// AddRule appends an optimizer rule to the named phase ("normalize",
// "constraints", "motion", or a new phase name), as section 4.1's open
// architecture allows. It puts a new rule base in force: a plan optimized
// under the old one keeps it and is re-prepared before its next execution,
// and one being prepared concurrently uses the old or the new one whole.
func (s *Session) AddRule(phase string, r Rule) { s.s.Env.AddRule(phase, r) }

// OptimizerStats returns the rule firings of the session's recorded
// executions by rule name: a copy of FleetSnapshot().Rules, so mutating it
// changes nothing. Like every other counter, it counts only what a report
// recorded: a bare Optimize call, and a query run while tracing is off, do
// not count.
func (s *Session) OptimizerStats() map[string]int {
	rules := s.s.Fleet.Snapshot().Rules
	out := make(map[string]int, len(rules))
	for name, n := range rules {
		out[name] = int(n)
	}
	return out
}

// RegisterAxis installs a coordinate axis (strictly monotone values, e.g.
// latitudes) as the primitives <name>_index, <name>_coord and
// <name>_range, letting queries address arrays by physical coordinates —
// the second piece of future work in section 7 of the paper.
func (s *Session) RegisterAxis(name string, values []float64) error {
	axis, err := coord.NewAxis(name, values)
	if err != nil {
		return err
	}
	return coord.Register(s.s.Env, axis)
}

// SetVal binds a complex object to a top-level name, inferring its type.
func (s *Session) SetVal(name string, v Value) error {
	t, err := typecheck.TypeOf(v)
	if err != nil {
		return fmt.Errorf("aql: val %s: %w", name, err)
	}
	s.s.Env.SetVal(name, v, t)
	return nil
}

// Val returns a top-level val (including `it`, the last query result).
func (s *Session) Val(name string) (Value, bool) { return s.s.Env.Val(name) }

// EnvEpoch reports the environment's mutation epoch: a monotone counter
// bumped by every val binding (`it` included), macro definition, rule, and
// reader/writer or primitive registration. A prepared plan goes stale on
// fewer of them: a Stmt and the query server's cached plans re-prepare after
// a rebinding of a val the plan reads, or any other kind of mutation.
func (s *Session) EnvEpoch() uint64 { return s.s.Env.Epoch() }

// --- Value constructors, re-exported for host programs ---------------------

// Bool, Nat, Real, Str, Tup, SetOf, BagOf, ArrayOf and Bottom construct
// complex objects from Go values.
var (
	Bool = object.Bool
	Nat  = object.Nat
	Real = object.Real
	Str  = object.String_
	Tup  = object.Tuple
)

// SetOf builds a canonical set.
func SetOf(elems ...Value) Value { return object.Set(elems...) }

// BagOf builds a canonical bag.
func BagOf(elems ...Value) Value { return object.Bag(elems...) }

// ArrayOf builds a k-dimensional array from a shape and row-major data.
func ArrayOf(shape []int, data []Value) (Value, error) { return object.Array(shape, data) }

// VectorOf builds a one-dimensional array.
func VectorOf(data ...Value) Value { return object.Vector(data...) }

// Bottom is the error value ⊥.
func Bottom(msg string) Value { return object.Bottom(msg) }

// Equal reports semantic equality of two complex objects. A lazy array in
// either (a NetCDF variable, or a result that is one) is read whole first,
// outside any execution, as Value.Cells reads it; a failed read is
// inequality.
func Equal(a, b Value) bool {
	a, errA := eval.Materialize(context.Background(), a, nil)
	b, errB := eval.Materialize(context.Background(), b, nil)
	return errA == nil && errB == nil && object.Equal(a, b)
}

// ParseType parses a type in concrete syntax.
func ParseType(src string) (*Type, error) { return types.Parse(src) }
