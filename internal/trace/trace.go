// Package trace is the query observability layer: it records, per query,
// where the time, the evaluator work, and the I/O bytes went.
//
// Section 5 of the paper justifies the optimizer empirically — rule
// firings, intermediate-result sizes and I/O volume are what Libkin,
// Machlin and Wong measured by hand. A QueryReport captures exactly those
// dimensions for every query a Session runs:
//
//   - per-phase wall times for the section 4.1 pipeline
//     (parse -> desugar -> macro -> typecheck -> optimize -> eval)
//   - evaluator counters: steps, cells, tabulations, set operations,
//     comprehension iterations
//   - NetCDF I/O counters: slab reads, bytes, retries, injected faults,
//     and the tile cache's hits/misses/prefetches
//   - the optimizer trace: each rule firing with its phase and the AST
//     node count of the rewritten subtree before and after
//
// Each execution builds its own report, and a finished report goes to the
// Sinks. The session's sinks are the only places reports are kept: the
// Aggregator folds them into fleet totals and histograms, the FlightRecorder
// keeps the last N whole; slog and JSON-lines sinks ship in the package too.
package trace

import (
	"time"
)

// Pipeline phase names, in pipeline order. PhaseParse covers scanning and
// parsing together (the parser lexes inline).
const (
	PhaseParse     = "parse"
	PhaseDesugar   = "desugar"
	PhaseMacro     = "macro"
	PhaseTypecheck = "typecheck"
	PhaseOptimize  = "optimize"
	PhaseCompile   = "compile"
	PhaseEval      = "eval"
)

// PhaseOrder lists the pipeline phases in execution order, for stable
// rendering of reports. PhaseCompile is the lowering to a compiled program;
// an execution of a plan kept from an earlier statement (a prepared
// statement, a plan-cache hit) shows only PhaseEval.
var PhaseOrder = []string{
	PhaseParse, PhaseDesugar, PhaseMacro, PhaseTypecheck, PhaseOptimize, PhaseCompile, PhaseEval,
}

// PhaseTime is one timed pipeline phase.
type PhaseTime struct {
	Name  string        `json:"name"`
	Wall  time.Duration `json:"wall_ns"`
	Count int           `json:"count"` // number of spans folded in (readval compiles twice)
}

// EvalCounters is the work an evaluation charged, in machine-independent
// units: the one counter record of both engines (eval.Counters names it), the
// shard envelope, span nodes' self counters and reports. Both engines charge
// on identical events, so the numbers are comparable across engines and
// stable under parallel execution.
type EvalCounters struct {
	// Steps counts evaluated core-calculus nodes.
	Steps int64 `json:"steps"`
	// Cells counts collection/array cells charged by constructors,
	// tabulation, gen and index.
	Cells int64 `json:"cells"`
	// Tabulations counts array tabulations performed ([[ e | i < n ]]): the
	// materializations the section 5 array rules exist to avoid.
	Tabulations int64 `json:"tabulations"`
	// SetOps counts set/bag algebra operations (unions, big unions, gen,
	// index, ranked unions).
	SetOps int64 `json:"set_ops"`
	// Iterations counts comprehension loop-body evaluations (big unions,
	// ranked unions, summation): the intermediate-collection traffic of a
	// query, on the same terms the paper's section 5 measurements used.
	Iterations int64 `json:"iterations"`
}

// Add returns the fieldwise sum c + o: disjoint pieces of one evaluation
// (a plan prologue and its shards) add up to the whole.
func (c EvalCounters) Add(o EvalCounters) EvalCounters {
	return EvalCounters{c.Steps + o.Steps, c.Cells + o.Cells, c.Tabulations + o.Tabulations, c.SetOps + o.SetOps, c.Iterations + o.Iterations}
}

// Sub returns the fieldwise difference c - o: the work charged since the
// snapshot o.
func (c EvalCounters) Sub(o EvalCounters) EvalCounters {
	return EvalCounters{c.Steps - o.Steps, c.Cells - o.Cells, c.Tabulations - o.Tabulations, c.SetOps - o.SetOps, c.Iterations - o.Iterations}
}

// IOCounters is the I/O work observed while a query ran: the NetCDF reader's
// counters and the tile cache's (tile.Counters names it). A Collector adds
// them up; its Snapshot, and the tile cache's Stats, report in it.
type IOCounters struct {
	// SlabReads counts non-empty hyperslab range reads.
	SlabReads int64 `json:"slab_reads"`
	// BytesRead counts external data bytes delivered to slab decoding
	// (header parsing is not counted).
	BytesRead int64 `json:"bytes_read"`
	// Retries counts re-attempts by a RetryingReaderAt after a transient
	// read error.
	Retries int64 `json:"retries"`
	// Faults counts failed read attempts seen by a RetryingReaderAt: an
	// injected fault in tests, a storage error in production.
	Faults int64 `json:"faults"`
	// Tile-cache counters (out-of-core lazy arrays). TileHits and TileMisses
	// count demand tile lookups served from cache vs. faulted in from the
	// source.
	TileHits   int64 `json:"tile_hits,omitempty"`
	TileMisses int64 `json:"tile_misses,omitempty"`
	// Prefetches counts readahead tile fetches; PrefetchUseful counts
	// prefetched tiles later served on demand (prefetch efficiency =
	// useful/prefetches).
	Prefetches     int64 `json:"tile_prefetches,omitempty"`
	PrefetchUseful int64 `json:"tile_prefetch_useful,omitempty"`
	// BytesScanned counts nominal data bytes fetched from the source into
	// the cache (demand + prefetch); BytesReturned counts nominal bytes of
	// cells actually delivered to queries. Scanned >> returned means the
	// access pattern wastes tile bandwidth.
	BytesScanned  int64 `json:"bytes_scanned,omitempty"`
	BytesReturned int64 `json:"bytes_returned,omitempty"`
	// SpillBytesWritten and SpillBytesRead count actual encoded bytes
	// moving to and from the spill file.
	SpillBytesWritten int64 `json:"spill_bytes_written,omitempty"`
	SpillBytesRead    int64 `json:"spill_bytes_read,omitempty"`
	// Evictions counts tiles dropped to stay within budget. Only the cache's
	// own Stats count them; an execution's collector does not, so reports
	// never carry it.
	Evictions int64 `json:"evictions,omitempty"`
}

// Add accumulates other into c.
func (c *IOCounters) Add(other IOCounters) {
	c.SlabReads += other.SlabReads
	c.BytesRead += other.BytesRead
	c.Retries += other.Retries
	c.Faults += other.Faults
	c.TileHits += other.TileHits
	c.TileMisses += other.TileMisses
	c.Prefetches += other.Prefetches
	c.PrefetchUseful += other.PrefetchUseful
	c.BytesScanned += other.BytesScanned
	c.BytesReturned += other.BytesReturned
	c.SpillBytesWritten += other.SpillBytesWritten
	c.SpillBytesRead += other.SpillBytesRead
	c.Evictions += other.Evictions
}

// IsZero reports whether no I/O was observed.
func (c IOCounters) IsZero() bool { return c == IOCounters{} }

// RuleFiring records one optimizer rule application: which rule, in which
// phase, and the node count of the rewritten subtree before and after —
// the per-rewrite size accounting that makes EXPLAIN output diffable.
type RuleFiring struct {
	Phase       string `json:"phase"`
	Rule        string `json:"rule"`
	NodesBefore int    `json:"nodes_before"`
	NodesAfter  int    `json:"nodes_after"`
}

// QueryReport is the observability record of one query (or top-level
// statement): phase timings, evaluator counters, I/O counters, and the
// optimizer trace.
//
// A report belongs to the execution it describes. The entry point running
// the execution opens it (repl.Session.OpenReport), only the goroutine
// running the execution writes it, setting fields directly, and once
// finished (repl.Session.FinishReport) it goes to the sinks and nothing
// writes it again; no lock is taken, and concurrent executions never share
// a report. Phase timing and the optimizer's rule hook are safe on a nil
// report, which is what an execution carries while recording is off. The
// engines count per-node work in their own integer fields, folded into the
// report once per evaluation, so a report costs a handful of clock reads
// per query, not per step.
type QueryReport struct {
	// Query is the source text (or a statement label like "readval x
	// using NETCDF").
	Query string `json:"query"`
	// ID is the request id of the query: client-supplied (X-Request-ID,
	// sanitized) or server-minted. Empty outside the query server.
	ID string `json:"id,omitempty"`
	// TraceID is the distributed trace id (32 hex digits) the query ran
	// under: honored from an inbound traceparent header or minted at the
	// coordinator, and shared by every worker-side shard report of the same
	// logical query. Empty when no trace context was in play.
	TraceID string `json:"trace_id,omitempty"`
	// Start is when the pipeline began; Wall is total elapsed time.
	Start time.Time     `json:"start"`
	Wall  time.Duration `json:"wall_ns"`
	// Phases holds per-phase wall times in pipeline order.
	Phases []PhaseTime `json:"phases"`
	// Engine names the execution engine that ran the evaluation ("interp"
	// or "compiled"), so perf trajectories in report sinks are attributable
	// to an engine. Empty for statements that evaluated nothing.
	Engine string `json:"engine,omitempty"`
	// Eval and IO are the work counters.
	Eval EvalCounters `json:"eval"`
	IO   IOCounters   `json:"io"`
	// Rules is the optimizer trace; RulesDropped counts the firings beyond
	// the recording cap by rule name (see RuleFirings).
	Rules        []RuleFiring   `json:"rules,omitempty"`
	RulesDropped map[string]int `json:"rules_dropped,omitempty"`
	// NodesBefore/NodesAfter are whole-query AST node counts around the
	// optimizer.
	NodesBefore int `json:"nodes_before"`
	NodesAfter  int `json:"nodes_after"`
	// Spans is the operator-level span tree of the evaluation, present when
	// the session's profiling level was sampled or full; ProfLevel records
	// which. Cumulative wall times and self counters per operator; see
	// SpanNode for the exact semantics at each level.
	Spans     *SpanNode `json:"spans,omitempty"`
	ProfLevel string    `json:"prof_level,omitempty"`
	// Explain is the joined estimate-vs-actual table of the run, present
	// when the query executed from a plan carrying prepare-time estimates
	// (see JoinEstimates). Immutable once recorded, so report copies share
	// the pointer.
	Explain *ExplainTable `json:"explain,omitempty"`
	// Cached reports that the query executed from a prepared-plan cache
	// hit: no parse/typecheck/optimize/compile phase ran for this request
	// (their PhaseTime entries are absent or zero).
	Cached bool `json:"cached,omitempty"`
	// QueueWait is the time the request spent queued in admission control
	// before a slot freed (zero when admitted on the fast path), so overload
	// investigations can separate queueing from evaluation.
	QueueWait time.Duration `json:"queue_wait_ns,omitempty"`
	// Mode records how a coordinator executed the query: "distributed" (all
	// shards remote), "distributed:partial" (some shards fell back to local
	// execution), "degraded:local" (no worker reachable, everything local)
	// or "local" (not sharded). Empty outside coordinator mode.
	Mode string `json:"mode,omitempty"`
	// Shards holds per-shard dispatch outcomes of a coordinator execution.
	Shards []ShardSpan `json:"shards,omitempty"`
	// Err is the error text when the query failed, "" otherwise.
	Err string `json:"err,omitempty"`
}

// ShardSpan is the dispatch record of one scatter-gather shard: its
// row-major range, the worker whose response won ("local" when the shard
// fell back to in-process execution), how many dispatch attempts it took
// (retries and hedges each count one), whether a hedge was launched, and
// the shard's wall time from first dispatch to winning response.
//
// Since distributed tracing (DESIGN.md §10) a ShardSpan also carries the
// cross-node stitching payload: the winning worker's span subtree grafted
// under an attempt span, sibling attempt spans for every retry/hedge
// dispatch annotated won/lost/cancelled, and the winning worker's
// admission queue wait.
type ShardSpan struct {
	Shard    int           `json:"shard"`
	Start    int64         `json:"start"`
	End      int64         `json:"end"`
	Worker   string        `json:"worker"`
	Attempts int           `json:"attempts"`
	Hedged   bool          `json:"hedged,omitempty"`
	Wall     time.Duration `json:"wall_ns"`
	// QueueWait is the winning worker's admission-queue wait for this
	// shard (zero for local execution or an immediately-admitted shard).
	QueueWait time.Duration `json:"queue_wait_ns,omitempty"`
	// AttemptSpans records every dispatch attempt of the shard in launch
	// order: exactly one has Outcome "won"; failed dispatches are "lost"
	// and abandoned in-flight dispatches (hedge losers) are "cancelled".
	AttemptSpans []AttemptSpan `json:"attempt_spans,omitempty"`
	// Spans is the shard's stitched span subtree: a "shard" node whose
	// children are the attempt spans, with the winning attempt carrying the
	// worker's own span tree (or a local "eval" span after fallback).
	// Counters appear only under the winning attempt — the one whose work
	// the merged totals count.
	Spans *SpanNode `json:"spans,omitempty"`
}

// AttemptSpan records one dispatch attempt of a shard. StartOff is the
// attempt's launch time relative to the shard's first dispatch, so hedges
// render as overlapping spans in exported traces.
type AttemptSpan struct {
	Attempt int    `json:"attempt"`
	Worker  string `json:"worker"`
	// Outcome is "won" (this response was used), "lost" (the dispatch
	// completed with a failure) or "cancelled" (abandoned in flight when a
	// sibling won or the shard moved on).
	Outcome string `json:"outcome"`
	// Hedge marks attempts launched by the hedging timer rather than the
	// retry loop.
	Hedge    bool          `json:"hedge,omitempty"`
	StartOff time.Duration `json:"start_off_ns"`
	Wall     time.Duration `json:"wall_ns"`
	Err      string        `json:"err,omitempty"`
}

// SpanNode is one operator of a query's span tree: invocation counts,
// cumulative and self wall time, self work counters, and — for parallel
// tabulations — per-worker ranges and busy times. The engines build it
// (eval.ProfCtx.Fold) and the coordinator stitches shard subtrees from it.
// Children follow the static AST structure (a lambda body is a child of its
// Lam even though it executes under an App). Times and counters are exact at
// the full profiling level (a cheap span reports zero time); at the sampled
// level they are estimates scaled from the measured sample, and WallSelf is
// clamped at zero (parallel tabulation children accumulate CPU-style busy
// time that can exceed the parent's elapsed time). Summed over the tree, the
// self counters equal the engine's flat counters (exactly at full).
type SpanNode struct {
	Op string `json:"op"`
	// Node names the process the span executed on, for stitched multi-node
	// trees: a worker base URL, "local", or "coordinator". Empty in
	// single-process trees.
	Node string `json:"node,omitempty"`
	// Outcome annotates shard attempt spans: "won", "lost" or "cancelled".
	Outcome string `json:"outcome,omitempty"`
	// StartOff is a stitched attempt span's launch offset relative to its
	// parent shard span's start, so exported traces show retries as
	// sequential and hedges as overlapping. Zero elsewhere.
	StartOff time.Duration `json:"start_off_ns,omitempty"`
	// Invocations counts executions of the operator; Measured counts the
	// ones that were fully measured (equal at the full level).
	Invocations int64         `json:"invocations"`
	Measured    int64         `json:"measured,omitempty"`
	WallCum     time.Duration `json:"wall_cum_ns"`
	WallSelf    time.Duration `json:"wall_self_ns"`
	Steps       int64         `json:"steps,omitempty"`
	Cells       int64         `json:"cells,omitempty"`
	Tabulations int64         `json:"tabulations,omitempty"`
	SetOps      int64         `json:"set_ops,omitempty"`
	Iterations  int64         `json:"iterations,omitempty"`

	// Workers records the fan-out workers of this operator (ArrayTab and
	// Sum spans only); WorkersDropped counts records beyond the cap.
	Workers        []WorkerSpan `json:"workers,omitempty"`
	WorkersDropped int          `json:"workers_dropped,omitempty"`

	Children []*SpanNode `json:"children,omitempty"`
}

// WorkerSpan records one fan-out worker of a tabulation or a Σ: its
// contiguous element range [Start, End) (row-major cells, or terms), how
// long its loop ran, and the steps it charged — the per-worker skew view of
// a fanned-out loop.
type WorkerSpan struct {
	Worker int           `json:"worker"`
	Start  int           `json:"start"`
	End    int           `json:"end"`
	Busy   time.Duration `json:"busy_ns"`
	Steps  int64         `json:"steps"`
}

// Walk calls fn for the node and every descendant, depth-first.
func (n *SpanNode) Walk(fn func(*SpanNode)) {
	if n == nil {
		return
	}
	fn(n)
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Phase returns the accumulated wall time of the named phase.
func (r *QueryReport) Phase(name string) time.Duration {
	for _, p := range r.Phases {
		if p.Name == name {
			return p.Wall
		}
	}
	return 0
}

// addPhase folds a span into the named phase's total.
func (r *QueryReport) addPhase(name string, d time.Duration) {
	for i := range r.Phases {
		if r.Phases[i].Name == name {
			r.Phases[i].Wall += d
			r.Phases[i].Count++
			return
		}
	}
	r.Phases = append(r.Phases, PhaseTime{Name: name, Wall: d, Count: 1})
}

// Totals is the Aggregator's cumulative view, served by the metrics handler
// and the REPL's :stats command.
type Totals struct {
	// Queries counts finished reports; Errors counts the failed ones.
	Queries int64 `json:"queries"`
	Errors  int64 `json:"errors"`
	// Wall is total pipeline wall time across reports.
	Wall time.Duration `json:"wall_ns"`
	// PhaseWall is cumulative wall time by phase name.
	PhaseWall map[string]time.Duration `json:"phase_wall_ns"`
	// Eval and IO accumulate the per-query counters.
	Eval EvalCounters `json:"eval"`
	IO   IOCounters   `json:"io"`
	// RuleFirings counts optimizer rewrites across queries.
	RuleFirings int64 `json:"rule_firings"`
}

// add folds one finished report into the totals.
func (t *Totals) add(r *QueryReport) {
	t.Queries++
	if r.Err != "" {
		t.Errors++
	}
	t.Wall += r.Wall
	if t.PhaseWall == nil {
		t.PhaseWall = map[string]time.Duration{}
	}
	for _, p := range r.Phases {
		t.PhaseWall[p.Name] += p.Wall
	}
	t.Eval = t.Eval.Add(r.Eval)
	t.IO.Add(r.IO)
	t.RuleFirings += int64(r.RuleFirings())
}

// clone returns a deep copy safe to hand out under no lock.
func (t *Totals) clone() Totals {
	out := *t
	out.PhaseWall = make(map[string]time.Duration, len(t.PhaseWall))
	for k, v := range t.PhaseWall {
		out.PhaseWall[k] = v
	}
	return out
}
