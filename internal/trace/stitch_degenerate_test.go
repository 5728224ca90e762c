package trace

import (
	"testing"
	"time"
)

// Degenerate stitched trees. Each case is a shape the coordinator actually
// produces at the edges of sharding — a query kept local by the
// min-shard-cells floor, a single-cell tabulation, a shard whose every
// dispatch attempt was lost — and each must either verify as flat
// attribution or be rejected with a diagnostic, never panic or
// mis-attribute counters.

// TestCheckStitchedZeroShards: the min-shard-cells floor kept the query
// local, so the tree has no shard spans at all — just the plan prologue and
// a local eval. All work attributes flat to those two nodes, and the
// per-shard attempt rules have nothing to fire on.
func TestCheckStitchedZeroShards(t *testing.T) {
	planC := EvalCounters{Steps: 5, Iterations: 1}
	evalC := EvalCounters{Steps: 100, Cells: 50, Tabulations: 1}
	flat := planC
	flat = flat.Add(evalC)

	plan := NewSpan(SpanPlan, "coordinator", 2*time.Millisecond).SetCounters(planC).FinalizeSelf()
	eval := NewSpan(SpanEval, "local", 10*time.Millisecond).SetCounters(evalC).FinalizeSelf()
	root := NewSpan(SpanScatter, "coordinator", 15*time.Millisecond)
	root.Children = []*SpanNode{plan, eval}
	root.FinalizeSelf()

	if err := CheckStitched(root, flat); err != nil {
		t.Fatalf("zero-shard local tree rejected: %v", err)
	}
}

// TestCheckStitchedSingleCell: a one-cell tabulation scattered anyway (the
// floor disabled) produces one shard whose winning attempt carries exactly
// one cell. The smallest possible distributed run must still verify.
func TestCheckStitchedSingleCell(t *testing.T) {
	evalC := EvalCounters{Steps: 3, Cells: 1, Tabulations: 1}

	eval := NewSpan(SpanEval, "http://w1", time.Millisecond).SetCounters(evalC).FinalizeSelf()
	worker := NewSpan(SpanWorker, "http://w1", 2*time.Millisecond)
	worker.Children = []*SpanNode{eval}
	worker.FinalizeSelf()
	won := NewSpan(SpanAttempt, "http://w1", 3*time.Millisecond)
	won.Outcome = "won"
	won.Children = []*SpanNode{worker}
	won.FinalizeSelf()
	shard := NewSpan(SpanShard, "", 3*time.Millisecond)
	shard.Children = []*SpanNode{won}
	shard.FinalizeSelf()
	root := NewSpan(SpanScatter, "coordinator", 4*time.Millisecond)
	root.Children = []*SpanNode{shard}
	root.FinalizeSelf()

	if err := CheckStitched(root, evalC); err != nil {
		t.Fatalf("single-cell shard tree rejected: %v", err)
	}
}

// TestCheckStitchedAllAttemptsLost: a shard whose every attempt was lost has
// no winner to attribute work to. The checker must reject the tree with a
// diagnostic — never panic, and never let the lost attempts' zero counters
// masquerade as a verified flat attribution.
func TestCheckStitchedAllAttemptsLost(t *testing.T) {
	lost1 := NewSpan(SpanAttempt, "http://w1", time.Millisecond).FinalizeSelf()
	lost1.Outcome = "lost"
	lost2 := NewSpan(SpanAttempt, "http://w2", time.Millisecond).FinalizeSelf()
	lost2.Outcome = "lost"
	shard := NewSpan(SpanShard, "", 2*time.Millisecond)
	shard.Children = []*SpanNode{lost1, lost2}
	shard.FinalizeSelf()
	root := NewSpan(SpanScatter, "coordinator", 3*time.Millisecond)
	root.Children = []*SpanNode{shard}
	root.FinalizeSelf()

	err := CheckStitched(root, EvalCounters{})
	if err == nil {
		t.Fatal("shard with every attempt lost verified as well-formed")
	}

	// A lost attempt that does carry counters is the mis-attribution the
	// attempt rule exists to catch, even when the sums happen to balance.
	lost1.SetCounters(EvalCounters{Steps: 7})
	if CheckStitched(root, EvalCounters{Steps: 7}) == nil {
		t.Fatal("lost attempt carrying counters accepted")
	}
}
