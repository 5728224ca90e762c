package cluster

import (
	"testing"

	"github.com/aqldb/aql/internal/exchange"
	"github.com/aqldb/aql/internal/trace"
)

// TestWorkerSubtreeRejectsNegativeSpans: a worker's span subtree that
// claims a negative wall time, self time or counter is replaced by the
// synthetic "eval" span, even when its figures are arranged to pass the
// stitching invariants (the negatives cancel out in the sums).
func TestWorkerSubtreeRejectsNegativeSpans(t *testing.T) {
	flat := trace.EvalCounters{Steps: 10, Cells: 4}
	tree := func(skew func(queue, eval, root *exchange.Span)) *exchange.ShardResponse {
		queue := &exchange.Span{Op: trace.SpanQueueWait, WallNS: 20, SelfNS: 20}
		eval := &exchange.Span{Op: trace.SpanEval, WallNS: 40, SelfNS: 40, Eval: flat}
		root := &exchange.Span{Op: trace.SpanWorker, WallNS: 100, SelfNS: 40, Children: []*exchange.Span{queue, eval}}
		skew(queue, eval, root)
		return &exchange.ShardResponse{Eval: flat, BottomOff: -1, Spans: root}
	}
	for _, tc := range []struct {
		name string
		skew func(queue, eval, root *exchange.Span)
		want string // the op of the subtree's root
	}{
		{"well-formed", func(_, _, _ *exchange.Span) {}, trace.SpanWorker},
		{"negative wall", func(_, eval, root *exchange.Span) {
			eval.WallNS, eval.SelfNS, root.SelfNS = -5, 0, 85
		}, trace.SpanEval},
		{"negative self", func(queue, _, root *exchange.Span) {
			queue.WallNS, queue.SelfNS, root.WallNS, root.SelfNS = 0, -20, 80, 40
		}, trace.SpanEval},
		{"negative counter", func(queue, eval, _ *exchange.Span) {
			queue.Eval.Steps, eval.Eval.Steps = -3, 13
		}, trace.SpanEval},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := workerSubtree(tree(tc.skew), "http://w1")
			if n.Op != tc.want {
				t.Fatalf("subtree root = %q, want %q", n.Op, tc.want)
			}
			if err := trace.CheckStitched(n, flat); err != nil {
				t.Fatal(err)
			}
			n.Walk(func(s *trace.SpanNode) {
				if s.WallCum < 0 || s.WallSelf < 0 || s.Steps < 0 || s.Node != "http://w1" {
					t.Errorf("span %q: wall %v, self %v, steps %d, node %q", s.Op, s.WallCum, s.WallSelf, s.Steps, s.Node)
				}
			})
		})
	}
}
