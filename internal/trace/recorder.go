package trace

import (
	"sync"
	"time"
)

// maxRuleFirings caps the optimizer trace kept per report; firings beyond
// it are counted in RulesDropped. The optimizer's own application budget
// is 100k, far beyond what a report can usefully show.
const maxRuleFirings = 4096

// Recorder builds QueryReports: at most one report is under construction at
// a time (a session evaluates queries sequentially; the query server gives
// each request its own recorder), and a finished report goes to the Sink.
// The recorder keeps only the last one; what accumulates across queries
// lives in the sink (the session's Aggregator and FlightRecorder).
//
// Every method is safe on a nil *Recorder and cheap when the recorder is
// disabled, so instrumentation hooks can stay unconditional at call sites.
// The hot evaluator path does not call the recorder per node — per-node
// work is counted in the evaluator's own integer fields and folded in once
// per query — so tracing overhead is bounded by a handful of clock reads
// and mutex operations per query, not per step.
type Recorder struct {
	mu      sync.Mutex
	enabled bool
	sink    Sink
	cur     *QueryReport
	last    *QueryReport
}

// NewRecorder returns an enabled recorder emitting to sink (nil means
// a finished report is kept for Last but emitted nowhere).
func NewRecorder(sink Sink) *Recorder {
	return &Recorder{enabled: true, sink: sink}
}

// SetEnabled toggles recording. While disabled, Begin/End and every
// recording method are no-ops; Last remains readable.
func (r *Recorder) SetEnabled(on bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.enabled = on
	if !on {
		r.cur = nil
	}
	r.mu.Unlock()
}

// Enabled reports whether the recorder is recording.
func (r *Recorder) Enabled() bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.enabled
}

// SetSink replaces the sink for subsequently finished reports.
func (r *Recorder) SetSink(s Sink) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.sink = s
	r.mu.Unlock()
}

// Begin opens a report for the given query source. An unfinished previous
// report is dropped (the pipeline Ends every report it Begins; a drop means
// an instrumentation bug, not user error, and must not wedge recording).
func (r *Recorder) Begin(query string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.enabled {
		r.cur = &QueryReport{Query: query, Start: time.Now()}
	}
	r.mu.Unlock()
}

// Active reports whether a report is currently under construction; hooks
// that have a per-call cost worth avoiding (optimizer node counting) check
// it before doing work.
func (r *Recorder) Active() bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cur != nil
}

// Span is an open phase timing; obtain with StartPhase, close with End.
// The zero Span is a no-op.
type Span struct {
	r     *Recorder
	name  string
	start time.Time
}

// StartPhase starts timing the named pipeline phase of the open report.
// Returns a no-op Span when the recorder is nil, disabled, or has no open
// report.
func (r *Recorder) StartPhase(name string) Span {
	if r == nil {
		return Span{}
	}
	r.mu.Lock()
	open := r.cur != nil
	r.mu.Unlock()
	if !open {
		return Span{}
	}
	return Span{r: r, name: name, start: time.Now()}
}

// End folds the span's elapsed time into its phase.
func (s Span) End() {
	if s.r == nil {
		return
	}
	d := time.Since(s.start)
	s.r.mu.Lock()
	if s.r.cur != nil {
		s.r.cur.addPhase(s.name, d)
	}
	s.r.mu.Unlock()
}

// RuleFired appends one optimizer rule application to the open report's
// trace; the signature matches opt.Optimizer.OptimizeTraced's hook.
func (r *Recorder) RuleFired(phase, rule string, nodesBefore, nodesAfter int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.cur != nil {
		if len(r.cur.Rules) < maxRuleFirings {
			r.cur.Rules = append(r.cur.Rules, RuleFiring{
				Phase: phase, Rule: rule,
				NodesBefore: nodesBefore, NodesAfter: nodesAfter,
			})
		} else {
			r.cur.RulesDropped++
		}
	}
	r.mu.Unlock()
}

// RecordNodes records the whole-query AST node count before and after
// optimization.
func (r *Recorder) RecordNodes(before, after int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.cur != nil {
		r.cur.NodesBefore, r.cur.NodesAfter = before, after
	}
	r.mu.Unlock()
}

// RecordEval folds evaluator counters into the open report; called once
// per evaluation, with counters the evaluator accumulated in plain fields.
func (r *Recorder) RecordEval(c EvalCounters) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.cur != nil {
		r.cur.Eval = r.cur.Eval.Add(c)
	}
	r.mu.Unlock()
}

// RecordEngine stamps the execution engine name on the open report;
// called once per evaluation alongside RecordEval.
func (r *Recorder) RecordEngine(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.cur != nil {
		r.cur.Engine = name
	}
	r.mu.Unlock()
}

// RecordSpans attaches the evaluation's operator span tree and the
// profiling level that produced it to the open report; called once per
// evaluation alongside RecordEval, after the engine has folded the tree
// (so the tree is immutable and safe to share across report copies).
func (r *Recorder) RecordSpans(root *SpanNode, level string) {
	if r == nil || root == nil {
		return
	}
	r.mu.Lock()
	if r.cur != nil {
		r.cur.Spans = root
		r.cur.ProfLevel = level
	}
	r.mu.Unlock()
}

// JoinExplain joins a prepare-time estimate tree against the open report's
// recorded actuals (flat counters, span tree, shard spans) and attaches the
// resulting table. Call it after RecordEval/RecordSpans/RecordShards and
// before End, so the table rides every copy of the finished report (flight
// recorder, sinks). A threshold <= 0 selects
// DefaultQErrorThreshold.
func (r *Recorder) JoinExplain(est *EstNode, threshold float64) {
	if r == nil || est == nil {
		return
	}
	r.mu.Lock()
	if r.cur != nil {
		r.cur.Explain = JoinEstimates(est, r.cur, threshold)
	}
	r.mu.Unlock()
}

// RecordID stamps the request id on the open report.
func (r *Recorder) RecordID(id string) {
	if r == nil || id == "" {
		return
	}
	r.mu.Lock()
	if r.cur != nil {
		r.cur.ID = id
	}
	r.mu.Unlock()
}

// RecordTraceID stamps the distributed trace id on the open report.
func (r *Recorder) RecordTraceID(id string) {
	if r == nil || id == "" {
		return
	}
	r.mu.Lock()
	if r.cur != nil {
		r.cur.TraceID = id
	}
	r.mu.Unlock()
}

// RecordCached marks the open report as having executed from a
// prepared-plan cache hit.
func (r *Recorder) RecordCached(hit bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.cur != nil {
		r.cur.Cached = hit
	}
	r.mu.Unlock()
}

// RecordQueueWait stamps the admission-queue wait time on the open report.
func (r *Recorder) RecordQueueWait(d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.cur != nil {
		r.cur.QueueWait = d
	}
	r.mu.Unlock()
}

// RecordMode stamps the coordinator execution mode on the open report.
func (r *Recorder) RecordMode(mode string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.cur != nil {
		r.cur.Mode = mode
	}
	r.mu.Unlock()
}

// RecordShards attaches a coordinator execution's per-shard dispatch
// records to the open report.
func (r *Recorder) RecordShards(spans []ShardSpan) {
	if r == nil || len(spans) == 0 {
		return
	}
	r.mu.Lock()
	if r.cur != nil {
		r.cur.Shards = spans
	}
	r.mu.Unlock()
}

// RecordIO folds I/O counters into the open report; the NetCDF readers
// call it once per file read.
func (r *Recorder) RecordIO(c IOCounters) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.cur != nil {
		r.cur.IO.Add(c)
	}
	r.mu.Unlock()
}

// End finishes the open report: stamps total wall time and the error (if
// any), emits it to the sink, and returns it. Returns nil when no report was
// open.
func (r *Recorder) End(err error) *QueryReport {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	rep := r.cur
	r.cur = nil
	if rep == nil {
		r.mu.Unlock()
		return nil
	}
	rep.Wall = time.Since(rep.Start)
	if err != nil {
		rep.Err = err.Error()
	}
	r.last = rep
	sink := r.sink
	r.mu.Unlock()
	if sink != nil {
		sink.Emit(rep)
	}
	return rep
}

// Last returns the most recently finished report, or nil.
func (r *Recorder) Last() *QueryReport {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.last
}
