package compile

import (
	"context"
	"fmt"
	"math"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/trace"
)

// Range-restricted execution: the prepared-plan half of distributed
// scatter-gather (internal/cluster). A program whose top-level expression is
// a tabulation [[ e | i1 < b1, ..., ik < bk ]] can be executed in two
// separable pieces that together charge exactly the counters of a
// single-node run:
//
//   - PlanShards evaluates the tabulation prologue — the node's own step,
//     the bounds, and the whole-array cell charge — yielding the shape a
//     coordinator partitions into contiguous row-major shards.
//   - ExecuteRange evaluates the element loop over one such shard
//     [start, end), charging only the head evaluations of that range.
//
// The decomposition is exactly-once by construction: elements are pure in
// the index valuation, ranges are disjoint, and a failed or abandoned
// attempt contributes nothing (its counters are discarded; re-executing a
// range recomputes identical values and identical counts). Summing the
// planning counters with each range's counters therefore reproduces a
// serial run's totals no matter how ranges were retried, hedged or moved
// between workers.

// letCode is a compiled let binding: evaluate code, store the value at slot.
type letCode struct {
	slot int
	code compiledExpr
}

// shardCode is the separately-compiled tabulation behind a
// range-partitionable Program: the peeled let bindings and the tabulation,
// sharing one frame layout of maxSlots slots.
type shardCode struct {
	lets            []letCode
	tab             *tabCode
	maxSlots, parks int
}

// shardView returns the program's shard view, built on first use: the
// tabulation at the top of the expression compiled with a fresh, unprofiled
// resolve pass, or nil when there is none. The shardable core may sit under
// a chain of desugared let bindings (App{Lam, bound}), which the optimizer's
// let-hoisting produces when it pulls loop-invariant work out of a
// tabulation; the chain is peeled so such plans stay range-partitionable,
// and the bindings compile in order, each earlier one in scope for the later
// ones and for the tabulation. The program-wide param table is shared, so
// placeholder indices agree with the whole-program code.
func (p *Program) shardView() *shardCode {
	p.shardOnce.Do(func() {
		var lets []*ast.App
		core := p.expr
		for {
			app, ok := core.(*ast.App)
			if !ok {
				break
			}
			lam, ok := app.Fn.(*ast.Lam)
			if !ok {
				break
			}
			lets = append(lets, app)
			core = lam.Body
		}
		tab, ok := core.(*ast.ArrayTab)
		if !ok {
			return
		}
		c := &compiler{globals: p.globals, limits: p.limits, params: p.params}
		sc := &shardCode{}
		for _, app := range lets {
			code := c.compile(app.Arg)
			sc.lets = append(sc.lets, letCode{slot: c.bind(app.Fn.(*ast.Lam).Param), code: code})
		}
		sc.tab = c.compileTab(tab)
		sc.maxSlots, sc.parks = c.maxSlots, c.parks
		p.shard = sc
	})
	return p.shard
}

// Rangeable reports whether the program's top-level expression is a
// tabulation (possibly under top-level let bindings), i.e. whether
// PlanShards/ExecuteRange are available.
func (p *Program) Rangeable() bool { return p.shardView() != nil }

// evalLets establishes the peeled let bindings in fr, mirroring the
// single-node compiled execution of the App{Lam, bound} chain exactly: the
// App node's step, the Lam's closure-creation step, then the bound
// expression, with a ⊥ binding returned as the chain's value (App
// short-circuits on a ⊥ argument without entering the body).
func (sc *shardCode) evalLets(fr *frame) (object.Value, error) {
	m := fr.m
	for _, l := range sc.lets {
		if err := m.step(); err != nil { // the App node
			return object.Value{}, err
		}
		if err := m.step(); err != nil { // the Lam's closure creation
			return object.Value{}, err
		}
		v, err := l.code(fr)
		if err != nil {
			return object.Value{}, err
		}
		if v.IsBottom() {
			return v, nil
		}
		fr.slots[l.slot] = v
	}
	return object.Value{}, nil
}

// ShardPlan is the result of evaluating a tabulation's prologue: the shape
// to partition, and the work that evaluation charged.
type ShardPlan struct {
	Shape []int
	// Size is product(Shape): the row-major element space to partition.
	Size int64
	// Bottom is set (IsBottom) when a bound evaluated to ⊥; the query's
	// result is that ⊥ and there is nothing to shard.
	Bottom object.Value
	// Counters is the prologue's work: the tabulation node's step, the
	// bound evaluations, and the whole-array cell charge. Adding every
	// range's counters to it reproduces a single-node run's totals.
	Counters trace.EvalCounters
}

// PlanShards evaluates the let bindings and the tabulation prologue under
// ctx and opts — the same prologue a local execution runs, so a distributed
// run's merged counters and failure behaviour match a local one's.
func (p *Program) PlanShards(ctx context.Context, opts ExecOpts) (*ShardPlan, error) {
	sc := p.shardView()
	if sc == nil {
		return nil, fmt.Errorf("compile: program is not range-partitionable")
	}
	fr := p.newFrame(ctx, opts, sc.maxSlots, sc.parks)
	defer fr.m.flushCursors()
	bot, err := sc.evalLets(fr)
	if err != nil {
		return nil, err
	}
	var shape []int
	var size int
	if !bot.IsBottom() {
		if shape, size, bot, err = sc.tab.prologue(fr); err != nil {
			return nil, err
		}
	}
	return &ShardPlan{Shape: shape, Size: int64(size), Bottom: bot, Counters: fr.m.counters()}, nil
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

// ExecuteRange evaluates the tabulation head over offsets [start, end) of
// the given shape, charging exactly the counters a serial scan of those
// offsets charges. The shape is a parameter — not re-derived from the
// bounds — so a worker executing a shard does not repeat (or re-count) the
// coordinator's prologue. The range runs through the same kernel as a whole
// array (tab.go), local fan-out included. A head error is returned as a
// *RangeError.
//
// When the program's shardable core sits under let bindings, each range
// execution re-establishes them (elements are pure, so the values are
// identical to the coordinator's) but reports head-only counters: the let
// work was already counted once, in PlanShards, so merged totals still
// reproduce a single-node run's exactly. The re-evaluation does consume
// this execution's budgets — budgets apply per shard by design.
func (p *Program) ExecuteRange(ctx context.Context, opts ExecOpts, shape []int, start, end int64) (*RangeResult, error) {
	sc := p.shardView()
	if sc == nil {
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
	fr := p.newFrame(ctx, opts, sc.maxSlots, sc.parks)
	m := fr.m
	defer m.flushCursors()
	bot, err := sc.evalLets(fr)
	if err != nil {
		return nil, err
	}
	res := &RangeResult{Values: make([]object.Value, end-start)}
	if bot.IsBottom() {
		// Unreachable under a correct coordinator — PlanShards reports a ⊥
		// binding before any shard is dispatched — but report the poison
		// coherently rather than scanning a meaningless range.
		for i := range res.Values {
			res.Values[i] = bot
		}
		res.Partial = Partial{Lo: start, Hi: end, BottomOff: start, Bottom: bot}
		return res, nil
	}
	base := m.counters()
	res.Partial = sc.tab.run(fr, shape, int(start), int(end), res.Values)
	if res.Err != nil {
		return nil, &RangeError{Off: res.ErrOff, Err: res.Err}
	}
	res.Counters = m.counters().Sub(base)
	return res, nil
}
