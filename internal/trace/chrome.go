package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// Chrome trace-event export: renders a QueryReport — phases, shard
// dispatches, and the stitched (or profiled) span tree — as the Trace
// Event Format JSON that chrome://tracing and Perfetto load directly.
//
// The exporter has durations, not per-span absolute timestamps, so it lays
// spans out deterministically: pipeline phases run back-to-back on the
// pipeline track starting at the report's start; each shard gets its own
// track ("thread") positioned at the eval phase's start; attempt spans use
// their recorded launch offsets, so retries appear sequential and hedges
// genuinely overlap; nested worker spans are laid out back-to-back inside
// their parent. The layout is faithful to every recorded duration and to
// the relative timing the coordinator observed.

// chromeEvent is one entry of the traceEvents array. Complete events
// (ph "X") carry ts+dur; metadata events (ph "M") name processes/threads.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`            // microseconds
	Dur  float64        `json:"dur,omitempty"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the exported document.
type chromeTrace struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// WriteChromeTrace renders the report as Chrome trace-event JSON.
func WriteChromeTrace(w io.Writer, r *QueryReport) error {
	if r == nil {
		return fmt.Errorf("trace: no report to export")
	}
	b := &chromeBuilder{}
	b.meta(0, "process_name", map[string]any{"name": "aql query"})
	b.meta(0, "thread_name", map[string]any{"name": "pipeline"})

	// Pipeline phases, back to back on the pipeline track. Queue wait
	// precedes them (it is not a recorded phase).
	ts := 0.0
	if r.QueueWait > 0 {
		b.span("queue_wait", "admission", 0, ts, us(r.QueueWait), nil)
		ts += us(r.QueueWait)
	}
	evalStart := ts
	for _, name := range PhaseOrder {
		d := r.Phase(name)
		if d == 0 {
			continue
		}
		if name == PhaseEval {
			evalStart = ts
		}
		b.span(name, "phase", 0, ts, us(d), nil)
		ts += us(d)
	}
	for _, p := range r.Phases {
		if !isStandardPhase(p.Name) {
			b.span(p.Name, "phase", 0, ts, us(p.Wall), nil)
			ts += us(p.Wall)
		}
	}

	// Shard dispatch records: one track per shard, positioned at eval
	// start; the stitched subtree (when present) supersedes the flat span.
	nextTid := 1
	for i := range r.Shards {
		sh := &r.Shards[i]
		tid := nextTid
		nextTid++
		b.meta(tid, "thread_name", map[string]any{"name": fmt.Sprintf("shard %d [%d,%d)", sh.Shard, sh.Start, sh.End)})
		if sh.Spans != nil {
			b.tree(sh.Spans, tid, evalStart)
			continue
		}
		b.span(fmt.Sprintf("shard %d", sh.Shard), "shard", tid, evalStart, us(sh.Wall), map[string]any{
			"worker": sh.Worker, "attempts": sh.Attempts, "hedged": sh.Hedged,
		})
	}

	// A profiled (single-process) span tree gets its own track.
	if r.Spans != nil && len(r.Shards) == 0 {
		tid := nextTid
		b.meta(tid, "thread_name", map[string]any{"name": "spans (" + r.ProfLevel + ")"})
		b.tree(r.Spans, tid, evalStart)
	}

	doc := chromeTrace{
		TraceEvents:     b.events,
		DisplayTimeUnit: "ms",
		OtherData: map[string]any{
			"query":      r.Query,
			"start":      r.Start.Format(time.RFC3339Nano),
			"mode":       r.Mode,
			"prof_level": r.ProfLevel,
		},
	}
	if r.ID != "" {
		doc.OtherData["id"] = r.ID
	}
	if r.TraceID != "" {
		doc.OtherData["trace_id"] = r.TraceID
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return enc.Encode(doc)
}

// WriteChromeTraceFile exports the report to a file, loadable in
// chrome://tracing or Perfetto.
func WriteChromeTraceFile(path string, r *QueryReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteChromeTrace(f, r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type chromeBuilder struct {
	events []chromeEvent
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func (b *chromeBuilder) meta(tid int, name string, args map[string]any) {
	b.events = append(b.events, chromeEvent{Name: name, Ph: "M", Pid: 0, Tid: tid, Args: args})
}

func (b *chromeBuilder) span(name, cat string, tid int, ts, dur float64, args map[string]any) {
	b.events = append(b.events, chromeEvent{Name: name, Cat: cat, Ph: "X", Ts: ts, Dur: dur, Pid: 0, Tid: tid, Args: args})
}

// tree lays a span subtree out on one track starting at ts: the node spans
// [ts, ts+cum); attempt children use their recorded launch offsets, other
// children run back to back from the parent's start.
func (b *chromeBuilder) tree(n *SpanNode, tid int, ts float64) {
	if n == nil {
		return
	}
	name := n.Op
	if n.Outcome != "" {
		name += " (" + n.Outcome + ")"
	}
	args := map[string]any{"wall_self_ns": int64(n.WallSelf)}
	if n.Node != "" {
		args["node"] = n.Node
	}
	if n.Invocations > 1 {
		args["invocations"] = n.Invocations
	}
	if c := n.SelfCounters(); c != (EvalCounters{}) {
		args["steps"], args["cells"] = c.Steps, c.Cells
		if c.Tabulations != 0 {
			args["tabulations"] = c.Tabulations
		}
		if c.SetOps != 0 {
			args["set_ops"] = c.SetOps
		}
		if c.Iterations != 0 {
			args["iterations"] = c.Iterations
		}
	}
	b.span(name, spanCat(n), tid, ts, us(n.WallCum), args)
	child := ts
	for _, c := range n.Children {
		if c.Op == SpanAttempt && c.StartOff > 0 {
			b.tree(c, tid, ts+us(c.StartOff))
			continue
		}
		b.tree(c, tid, child)
		child += us(c.WallCum)
	}
}

func spanCat(n *SpanNode) string {
	switch n.Op {
	case SpanScatter, SpanShard, SpanAttempt:
		return "cluster"
	case SpanWorker, SpanQueueWait, SpanPlan:
		return "worker"
	}
	return "op"
}
