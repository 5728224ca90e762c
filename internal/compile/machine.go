package compile

import (
	"context"
	"math"
	"sync/atomic"
	"time"

	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/object"
)

// machine carries the per-evaluation runtime state of the compiled engine:
// resource budgets, interrupt state and the work counters. One machine is
// created per EvalExpr; parallel tabulation forks one child machine per
// worker so the hot counter path stays uncontended — each worker counts
// locally and the totals are flushed to the parent at join, making the
// final counters exactly equal to a serial run's.
type machine struct {
	limits   eval.Limits
	maxSteps int64
	// workers caps tabulation fan-out; threshold is the element count at or
	// above which a tabulation fans out (maxInt64 disables parallelism).
	workers   int
	threshold int64
	// stepMask routes steps to stepSlow when n&stepMask == 0: it is
	// InterruptInterval-1 normally (amortized interrupt checks only) and 0
	// when a step budget is configured (every step must be checked). A
	// mask instead of a bool keeps step() under the inlining budget.
	stepMask int64

	ctx      context.Context
	deadline time.Time
	// depth is the Eval recursion depth, tracked only when Limits.MaxDepth
	// is set. Depth tracking is inherently serial, so a MaxDepth limit
	// forces serial tabulation (threshold = maxInt64).
	depth int

	// parent is non-nil in tabulation worker machines. baseSteps/baseCells
	// are the global totals this worker's budget checks add to its local
	// counts; baseSteps is refreshed every InterruptInterval steps by
	// syncSteps, bounding budget overshoot to workers*InterruptInterval.
	parent       *machine
	baseSteps    int64
	baseCells    int64
	flushedSteps int64

	// prof is the span-profiling accumulation context of this evaluation
	// (nil when profiling is off); workers fork their own so the measured
	// path stays uncontended, and flush merges them back at join. Cleared
	// at EvalExpr exit, like ctx, so escaped closures see no stale state.
	prof *eval.ProfCtx

	// args is this execution's argument frame: the value of each $name
	// placeholder at its paramTable index, with argOK flagging which indices
	// were actually supplied (the zero object.Value is not a usable
	// sentinel). Both slices are read-only after machine construction and
	// shared with forked workers.
	args  []object.Value
	argOK []bool

	steps, cells, tabs, setOps, iters atomic.Int64
}

// step charges one evaluator step; mirrors the per-node guards of
// eval.Evaluator.Eval. The function stays small enough to inline into every
// compiled node closure: the common case is one atomic add and a mask test,
// with budget enforcement and the amortized interrupt check in stepSlow.
func (m *machine) step() error {
	if n := m.steps.Add(1); n&m.stepMask == 0 {
		return m.stepSlow(n)
	}
	return nil
}

// stepSlow enforces the step budgets and, every InterruptInterval steps,
// runs the interrupt check; in workers that boundary also publishes the
// local step count to the parent.
func (m *machine) stepSlow(n int64) error {
	total := satAdd(m.baseSteps, n)
	if m.maxSteps > 0 && total > m.maxSteps {
		return &eval.ResourceError{Kind: eval.ResourceSteps, Limit: m.maxSteps, Used: total}
	}
	if l := m.limits.MaxSteps; l > 0 && total > l {
		return &eval.ResourceError{Kind: eval.ResourceSteps, Limit: l, Used: total}
	}
	if n&(eval.InterruptInterval-1) == 0 {
		if m.parent != nil {
			m.syncSteps(n)
		}
		if m.ctx != nil || !m.deadline.IsZero() {
			if err := eval.CheckInterrupt(m.ctx, m.deadline, m.limits.Timeout); err != nil {
				return err
			}
		}
	}
	return nil
}

// chargeCells charges n cells against the cell budget, saturating rather
// than overflowing; mirrors eval.Evaluator.chargeCells. Constructors charge
// BEFORE allocating, so a budget violation aborts without the allocation.
func (m *machine) chargeCells(n int64) error {
	for {
		old := m.cells.Load()
		nw := satAdd(old, n)
		if m.cells.CompareAndSwap(old, nw) {
			used := satAdd(m.baseCells, nw)
			if max := m.limits.MaxCells; max > 0 && used > max {
				return &eval.ResourceError{Kind: eval.ResourceCells, Limit: max, Used: used}
			}
			return nil
		}
	}
}

// fork returns a worker machine that counts locally against a snapshot of
// the parent's totals. Workers never nest (tabulations inside a worker run
// serially), so parent is always the root machine.
func (m *machine) fork() *machine {
	w := &machine{
		limits:    m.limits,
		maxSteps:  m.maxSteps,
		workers:   m.workers,
		threshold: m.threshold,
		stepMask:  m.stepMask,
		ctx:       m.ctx,
		deadline:  m.deadline,
		depth:     m.depth,
		parent:    m,
		baseSteps: satAdd(m.baseSteps, m.steps.Load()),
		baseCells: satAdd(m.baseCells, m.cells.Load()),
		prof:      m.prof.Fork(),
		args:      m.args,
		argOK:     m.argOK,
	}
	return w
}

// syncSteps publishes this worker's not-yet-flushed steps to the parent and
// refreshes the worker's view of the global total, so step budgets inside a
// parallel region stay within workers*InterruptInterval of exact.
func (m *machine) syncSteps(local int64) {
	delta := local - m.flushedSteps
	m.flushedSteps = local
	parentTotal := satAdd(m.parent.steps.Add(delta), m.parent.baseSteps)
	m.baseSteps = parentTotal - local
}

// flush pushes this worker's remaining counts to the parent at join. Every
// local step is flushed exactly once (syncSteps tracks what's already been
// published), so the parent's post-join totals equal a serial run's.
func (m *machine) flush() {
	p := m.parent
	p.steps.Add(m.steps.Load() - m.flushedSteps)
	satAddAtomic(&p.cells, m.cells.Load())
	p.tabs.Add(m.tabs.Load())
	p.setOps.Add(m.setOps.Load())
	p.iters.Add(m.iters.Load())
	p.prof.MergeWorker(m.prof)
}

// counters snapshots the machine's work counters.
func (m *machine) counters() eval.Counters {
	return eval.Counters{
		Steps:  m.steps.Load(),
		Cells:  m.cells.Load(),
		Tabs:   m.tabs.Load(),
		SetOps: m.setOps.Load(),
		Iters:  m.iters.Load(),
	}
}

// satAdd adds two non-negative counts, saturating at MaxInt64.
func satAdd(a, b int64) int64 {
	if b > math.MaxInt64-a {
		return math.MaxInt64
	}
	return a + b
}

// satAddAtomic adds n to c, saturating at MaxInt64.
func satAddAtomic(c *atomic.Int64, n int64) {
	for {
		old := c.Load()
		if c.CompareAndSwap(old, satAdd(old, n)) {
			return
		}
	}
}

// frame is the runtime activation record of compiled code: a flat slot
// array indexed by the compiler's resolve pass, replacing the interpreter's
// name-searched Env linked list. Loop constructs rebind by overwriting the
// slot; lambdas copy their captured slots into a fresh frame at closure
// creation, which matches the interpreter's persistent environments because
// a slot is never observed after its binder rebinds it.
type frame struct {
	m     *machine
	slots []object.Value
}
