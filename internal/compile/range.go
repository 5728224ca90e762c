package compile

import (
	"context"
	"fmt"
	"math"

	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/trace"
)

// Range-restricted execution: the prepared-plan half of distributed
// scatter-gather (internal/cluster). A program whose top-level expression is
// a tabulation [[ e | i1 < b1, ..., ik < bk ]], possibly under a chain of
// desugared let bindings (App{Lam, bound}, which the optimizer's
// let-hoisting produces when it pulls loop-invariant work out of a
// tabulation), can be executed in two separable pieces that together charge
// exactly the counters of a single-node run:
//
//   - PlanShards evaluates the let bindings and the tabulation prologue —
//     the node's own step, the bounds, and the whole-array cell charge —
//     yielding the shape a coordinator partitions into contiguous row-major
//     shards.
//   - ExecuteRange evaluates the element loop over one such shard
//     [start, end), charging only the head evaluations of that range.
//
// Both are Run with the root tabulation restricted: they run the program's
// own unprofiled closures, and the execution carries a range request
// (rangeReq) that only the tabulation at the end of the root let chain
// reads. That tabulation is identified when the program is lowered, by its
// position (compiler.lower's spine), not by node identity, since the
// optimizer may alias nodes. Let bindings, depth guards, ⊥ short-circuits
// and step and cell charges are therefore Run's by construction.
//
// The decomposition is exactly-once: elements are pure in the index
// valuation, ranges are disjoint, and a failed or abandoned attempt
// contributes nothing (its counters are discarded; re-executing a range
// recomputes identical values and identical counts). Summing the planning
// counters with each range's counters therefore reproduces a serial run's
// totals no matter how ranges were retried, hedged or moved between workers.

// rangeReq is a range request: what PlanShards or ExecuteRange asks of the
// root tabulation in place of its whole array.
type rangeReq struct {
	// prologue asks for the prologue only, which leaves shape and size
	// here. Otherwise the request is the head over [lo, hi) of shape, into
	// out.
	prologue bool
	shape    []int
	size     int
	lo, hi   int
	out      []object.Value
	// reached is set once the root tabulation takes the request; part and
	// counters are then the range scan's outcome and its head-only work.
	reached  bool
	part     Partial
	counters trace.EvalCounters
}

// serve answers rq in place of the whole array. The range's counters are
// a snapshot taken at the tabulation's entry: the let work before it was
// counted once, by PlanShards. A shape of another rank than the
// tabulation's (a shard request names it) is refused before the scan.
func (t *tabCode) serve(fr *frame, rq *rangeReq) (object.Value, error) {
	if !rq.prologue && len(rq.shape) != len(t.idxSlots) {
		return object.Value{}, fmt.Errorf("compile: shape %v for a %d-dimensional tabulation", rq.shape, len(t.idxSlots))
	}
	rq.reached = true
	if rq.prologue {
		shape, size, bot, err := t.prologue(fr)
		rq.shape, rq.size = shape, size
		return bot, err
	}
	m := fr.m
	base := m.counters()
	rq.part = t.run(fr, rq.shape, rq.lo, rq.hi, rq.out)
	rq.counters = m.counters().Sub(base)
	return object.Value{}, rq.part.Err
}

// Rangeable reports whether the program's top-level expression is a
// tabulation (possibly under top-level let bindings), i.e. whether
// PlanShards/ExecuteRange are available.
func (p *Program) Rangeable() bool { return p.lowered(eval.ProfOff).rangeable }

// ShardPlan is the result of evaluating a tabulation's prologue: the shape
// to partition, and the work that evaluation charged.
type ShardPlan struct {
	Shape []int
	// Size is product(Shape): the row-major element space to partition.
	Size int64
	// Bottom is set (IsBottom) when a let binding or a bound evaluated to
	// ⊥; the query's result is that ⊥ and there is nothing to shard.
	Bottom object.Value
	// Counters is the prologue's work: the let bindings, the tabulation
	// node's step, the bound evaluations, and the whole-array cell charge.
	// Adding every range's counters to it reproduces a single-node run's
	// totals.
	Counters trace.EvalCounters
}

// PlanShards runs the program under ctx and opts with the root tabulation
// restricted to its prologue — the same let bindings and prologue a local
// execution runs, so a distributed run's merged counters and failure
// behaviour match a local one's.
func (p *Program) PlanShards(ctx context.Context, opts ExecOpts) (*ShardPlan, error) {
	if !p.Rangeable() {
		return nil, fmt.Errorf("compile: program is not range-partitionable")
	}
	rq := &rangeReq{prologue: true}
	v, counters, err := p.runRange(ctx, opts, rq)
	if err != nil {
		return nil, err
	}
	if v.IsBottom() {
		return &ShardPlan{Bottom: v, Counters: counters}, nil
	}
	return &ShardPlan{Shape: rq.shape, Size: int64(rq.size), Counters: counters}, nil
}

// RangeResult is one contiguous row-major slice of a tabulation's elements.
// A ⊥ element poisons the whole tabulation, but the scan still completes the
// range, so counters stay execution-order independent.
type RangeResult struct {
	Partial
	// Values holds the Hi-Lo elements of the range, in row-major order.
	Values []object.Value
	// Counters is the work the range's head evaluations charged.
	Counters trace.EvalCounters
}

// RangeError wraps a deterministic evaluation error with the row-major
// offset at which it occurred, so a scatter-gather merge can select the
// error a serial scan would have hit first (the lowest offset: bottoms
// never stop the scan, so the serial scan always reaches the lowest-offset
// erroring element).
type RangeError struct {
	Off int64
	Err error
}

func (e *RangeError) Error() string { return e.Err.Error() }
func (e *RangeError) Unwrap() error { return e.Err }

// ExecuteRange runs the program with the root tabulation restricted to the
// head over offsets [start, end) of the given shape, charging exactly the
// counters a serial scan of those offsets charges. The shape is a parameter
// — not re-derived from the bounds — so a worker executing a shard does not
// repeat (or re-count) the coordinator's prologue. The range runs through
// the same kernel as a whole array (tab.go), local fan-out included. A head
// error is returned as a *RangeError.
//
// When the tabulation sits under let bindings, each range execution
// re-establishes them (elements are pure, so the values are identical to
// the coordinator's) but reports head-only counters: the let work was
// already counted once, in PlanShards, so merged totals still reproduce a
// single-node run's exactly. The re-evaluation does consume this
// execution's budgets — budgets apply per shard by design.
func (p *Program) ExecuteRange(ctx context.Context, opts ExecOpts, shape []int, start, end int64) (*RangeResult, error) {
	if !p.Rangeable() {
		return nil, fmt.Errorf("compile: program is not range-partitionable")
	}
	size := int64(1)
	for _, n := range shape {
		if n < 0 {
			return nil, fmt.Errorf("compile: negative dimension in shape %v", shape)
		}
		if n > 0 && size > math.MaxInt64/int64(n) {
			return nil, fmt.Errorf("compile: shape %v overflows", shape)
		}
		size *= int64(n)
	}
	if start < 0 || end < start || end > size {
		return nil, fmt.Errorf("compile: range [%d, %d) outside element space of size %d", start, end, size)
	}
	res := &RangeResult{Values: make([]object.Value, end-start)}
	rq := &rangeReq{shape: shape, lo: int(start), hi: int(end), out: res.Values}
	bot, _, err := p.runRange(ctx, opts, rq)
	switch {
	case err != nil && rq.reached:
		return nil, &RangeError{Off: rq.part.ErrOff, Err: err}
	case err != nil:
		return nil, err
	case !rq.reached:
		// A ⊥ let binding. Unreachable under a correct coordinator —
		// PlanShards reports it before any shard is dispatched — but
		// report the poison coherently rather than scanning a meaningless
		// range.
		for i := range res.Values {
			res.Values[i] = bot
		}
		res.Partial = Partial{Lo: start, Hi: end, BottomOff: start, Bottom: bot}
		return res, nil
	}
	res.Partial, res.Counters = rq.part, rq.counters
	return res, nil
}

// runRange runs the program's unprofiled closures under the range request
// rq: PlanShards and ExecuteRange run unprofiled at any opts.Level.
func (p *Program) runRange(ctx context.Context, opts ExecOpts, rq *rangeReq) (object.Value, trace.EvalCounters, error) {
	var out Outcome
	opts.Level = eval.ProfOff
	v, err := p.run(ctx, opts, rq, &out)
	return v, out.Counters, err
}
