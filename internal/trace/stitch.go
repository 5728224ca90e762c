package trace

import (
	"fmt"
	"time"
)

// Cross-node span stitching: helpers that assemble one whole-query span
// tree from a coordinator's shard dispatch records and the span subtrees
// workers return inside their shard responses.
//
// The stitched tree obeys two invariants, checked by CheckStitched:
//
//   - Counter exactness: summing the self work counters over every node of
//     the tree reproduces the query's flat merged counters exactly. Only
//     the coordinator's plan prologue and the winning attempt of each
//     shard carry counters — lost and cancelled attempts contribute zero,
//     mirroring the merge contract's "counters from exactly one attempt".
//   - Self-time consistency: every node's WallSelf equals its WallCum
//     minus the cumulative wall of its children (clamped at zero for
//     spans, like hedges, whose children overlap the parent's tail).
//
// Span node vocabulary of stitched trees: "scatter" (coordinator root),
// "plan" (shard-planning prologue), "shard", "attempt", "worker" (a
// worker's response subtree root), "queue_wait", the prepare phase names,
// and "eval".

// Stitched-tree operator names.
const (
	SpanScatter   = "scatter"
	SpanPlan      = "plan"
	SpanShard     = "shard"
	SpanAttempt   = "attempt"
	SpanWorker    = "worker"
	SpanQueueWait = "queue_wait"
	SpanEval      = "eval"
)

// ProfStitched is the QueryReport.ProfLevel value of stitched multi-node
// trees (the single-process levels are "sampled" and "full").
const ProfStitched = "stitched"

// NewSpan returns a span node with the given operator, node label and
// cumulative wall time (self time is finalized later by FinalizeSelf).
func NewSpan(op, node string, wall time.Duration) *SpanNode {
	return &SpanNode{Op: op, Node: node, Invocations: 1, Measured: 1, WallCum: wall}
}

// SetCounters attaches evaluator self-counters to the node.
func (n *SpanNode) SetCounters(c EvalCounters) *SpanNode {
	n.Steps, n.Cells, n.Tabulations, n.SetOps, n.Iterations = c.Steps, c.Cells, c.Tabulations, c.SetOps, c.Iterations
	return n
}

// SelfCounters returns the node's self evaluator counters.
func (n *SpanNode) SelfCounters() EvalCounters {
	return EvalCounters{Steps: n.Steps, Cells: n.Cells, Tabulations: n.Tabulations,
		SetOps: n.SetOps, Iterations: n.Iterations}
}

// CumCounters sums the self counters over the node and its descendants.
func (n *SpanNode) CumCounters() EvalCounters {
	var c EvalCounters
	n.Walk(func(s *SpanNode) { c = c.Add(s.SelfCounters()) })
	return c
}

// FinalizeSelf sets the node's WallSelf to WallCum minus the children's
// cumulative wall, clamped at zero, and returns the node. Call it after
// the children are attached.
func (n *SpanNode) FinalizeSelf() *SpanNode {
	var kids time.Duration
	for _, c := range n.Children {
		kids += c.WallCum
	}
	n.WallSelf = n.WallCum - kids
	if n.WallSelf < 0 {
		n.WallSelf = 0
	}
	return n
}

// CheckStitched verifies the stitching invariants of a multi-node span
// tree against the query's flat merged counters: exact counter sums, and
// self-time consistency at every node. Returns nil when the tree is
// well-formed. Used by tests and by callers that refuse to serve trees a
// buggy (or hostile) worker skewed.
func CheckStitched(root *SpanNode, flat EvalCounters) error {
	if root == nil {
		return fmt.Errorf("trace: stitched tree is nil")
	}
	if got := root.CumCounters(); got != flat {
		return fmt.Errorf("trace: stitched counters %+v != flat counters %+v", got, flat)
	}
	var err error
	root.Walk(func(n *SpanNode) {
		if err != nil {
			return
		}
		var kids time.Duration
		for _, c := range n.Children {
			kids += c.WallCum
		}
		want := n.WallCum - kids
		if want < 0 {
			want = 0
		}
		if n.WallSelf != want {
			err = fmt.Errorf("trace: span %q self %v != cum %v - children %v", n.Op, n.WallSelf, n.WallCum, kids)
		}
	})
	if err != nil {
		return err
	}
	// One winning attempt per shard, and counters only under winners.
	root.Walk(func(n *SpanNode) {
		if err != nil || n.Op != SpanShard {
			return
		}
		won := 0
		for _, a := range n.Children {
			if a.Op != SpanAttempt {
				continue
			}
			switch a.Outcome {
			case "won":
				won++
			case "lost", "cancelled":
				if c := a.CumCounters(); c != (EvalCounters{}) {
					err = fmt.Errorf("trace: %s attempt on %s carries counters %+v", a.Outcome, a.Node, c)
				}
			default:
				err = fmt.Errorf("trace: attempt on %s has unknown outcome %q", a.Node, a.Outcome)
			}
		}
		if err == nil && won != 1 {
			err = fmt.Errorf("trace: shard span has %d winning attempts, want exactly 1", won)
		}
	})
	return err
}
