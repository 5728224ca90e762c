package exchange

import (
	"fmt"
	"math"

	"github.com/aqldb/aql/internal/trace"
)

// Shard envelopes: the coordinator <-> worker wire format of distributed
// scatter-gather execution (internal/cluster). A coordinator partitions a
// range-partitionable tabulation into contiguous row-major shards and ships
// each as a ShardRequest; the worker answers with a ShardResponse whose
// Values field carries the range's elements in the data exchange format —
// the same HTTP/JSON + exchange-text transport the rest of aqld speaks.

// ShardRequest asks a worker to execute one contiguous row-major range
// [Start, End) of a tabulation's element space. The worker prepares (or
// cache-hits) the plan from Query against its own environment; Shape is the
// tabulation shape the coordinator computed from the bounds, shipped so the
// worker does not re-evaluate them (which would double-count their work in
// the merged counters).
type ShardRequest struct {
	// Query is the normalized plan text; the worker's top-level expression
	// must be a tabulation for the request to be satisfiable.
	Query string `json:"query"`
	// Shape is the tabulation shape; Start/End index its row-major element
	// space, 0 <= Start <= End <= product(Shape).
	Shape []int `json:"shape"`
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	// Shard and Attempt identify this dispatch for diagnostics and for
	// deterministic fault injection (cluster.ChaosTransport keys on them):
	// Shard is the shard index within the query, Attempt the per-shard
	// dispatch counter (retries and hedges each get a fresh number).
	Shard   int `json:"shard"`
	Attempt int `json:"attempt"`
	// MaxSteps / TimeoutMS tighten the worker's per-request budget, exactly
	// as the same fields of a /query request do. Budgets apply per shard:
	// the coordinator sends the query's whole Limits.MaxSteps with each one
	// and holds the merged step total to it after the gather.
	MaxSteps  int64 `json:"max_steps,omitempty"`
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// TraceID / ParentSpan propagate the coordinator's distributed trace
	// context: the 32-hex trace id of the whole query and the 16-hex span id
	// of this dispatch attempt. HTTP transports also send them as a
	// traceparent header; the body copy keeps transports that drop headers
	// (or in-process ones) lossless. Empty when the query is untraced.
	TraceID    string `json:"trace_id,omitempty"`
	ParentSpan string `json:"parent_span,omitempty"`
	// Args is the argument frame of a prepared (parameterized) query: each
	// $name placeholder's value in the exchange text format. The worker
	// decodes and binds them before executing the range, so one cached plan
	// on the worker serves every argument set of the same template.
	Args map[string]string `json:"args,omitempty"`
}

// Size returns product(Shape), saturating at MaxInt64.
func (r *ShardRequest) Size() int64 {
	size := int64(1)
	for _, n := range r.Shape {
		if n < 0 {
			return -1
		}
		if n > 0 && size > math.MaxInt64/int64(n) {
			return math.MaxInt64
		}
		size *= int64(n)
	}
	return size
}

// Validate checks the envelope's structural invariants (non-negative
// dimensions, a range within the element space, a non-empty query).
func (r *ShardRequest) Validate() error {
	if r.Query == "" {
		return fmt.Errorf("shard: empty query")
	}
	if len(r.Shape) == 0 {
		return fmt.Errorf("shard: empty shape")
	}
	size := r.Size()
	if size < 0 {
		return fmt.Errorf("shard: negative dimension in shape %v", r.Shape)
	}
	if r.Start < 0 || r.End < r.Start || r.End > size {
		return fmt.Errorf("shard: range [%d, %d) outside element space of size %d", r.Start, r.End, size)
	}
	return nil
}

// ShardResponse is the worker's success body for one shard.
type ShardResponse struct {
	// ID is the worker-local request id (diagnostics).
	ID string `json:"id"`
	// Cached reports a prepared-plan cache hit on the worker.
	Cached bool `json:"cached"`
	// Values is the exchange-format vector [[v1, ..., vn]] of the range's
	// elements, in row-major order. Omitted when BottomOff >= 0: a ⊥
	// element poisons the whole tabulation, so only the first ⊥ matters.
	Values string `json:"values,omitempty"`
	// BottomOff is the absolute row-major offset of the first ⊥ element in
	// the range, or -1 when the range is ⊥-free. BottomMsg carries the ⊥
	// diagnostic so the merged result prints identically to a single-node
	// run.
	BottomOff int64  `json:"bottom_off"`
	BottomMsg string `json:"bottom_msg,omitempty"`
	// Eval is the work this shard's (winning) execution charged.
	Eval trace.EvalCounters `json:"eval"`
	// TraceID echoes the request's trace id (diagnostics: a mismatch means a
	// proxy crossed streams).
	TraceID string `json:"trace_id,omitempty"`
	// QueueWaitNS is how long the request waited in the worker's admission
	// queue before a slot freed, in nanoseconds.
	QueueWaitNS int64 `json:"queue_wait_ns,omitempty"`
	// Spans is the worker-side span subtree of this shard's execution, which
	// the coordinator grafts under the dispatch attempt's span to stitch the
	// whole-query trace. Nil when the worker recorded no spans.
	Spans *Span `json:"spans,omitempty"`
}

// Span is the wire form of one span-tree node a worker returns: the narrow
// schema of what a worker may claim about its subtree — an operator, its
// wall and self times in nanoseconds, and its self counters. The node label,
// attempt outcome and worker records of a trace.SpanNode are the
// coordinator's to fill in, so a worker cannot send them.
type Span struct {
	Op       string             `json:"op"`
	WallNS   int64              `json:"wall_ns"`
	SelfNS   int64              `json:"self_ns"`
	Eval     trace.EvalCounters `json:"eval"`
	Children []*Span            `json:"children,omitempty"`
}

// ShardErrorInfo is the typed error body of a failed shard request. Kind
// uses the same vocabulary as /query errors (parse | type | resource:* |
// admission:* | shard:* | panic | eval); Off is the row-major offset at
// which a deterministic evaluation error occurred, -1 when the error is not
// tied to an element.
type ShardErrorInfo struct {
	Kind    string `json:"kind"`
	Message string `json:"message"`
	Off     int64  `json:"off"`
	ID      string `json:"id,omitempty"`
}

// ShardErrorEnvelope is the JSON body of every non-2xx /shard response.
type ShardErrorEnvelope struct {
	Error ShardErrorInfo `json:"error"`
}
