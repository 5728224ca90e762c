package compile

import (
	"context"
	"sync/atomic"
	"time"

	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/tile"
	"github.com/aqldb/aql/internal/trace"
)

// machine carries the per-evaluation runtime state of the compiled engine:
// resource budgets, interrupt state and the work counters. One root machine
// is created per Run (PlanShards and ExecuteRange included) or per call
// entering a compiled function from outside the engine; a fanned-out
// tabulation or Σ forks one child machine per worker. Every function body
// the execution applies runs on the applying machine, whichever execution
// or engine made it.
//
// A machine belongs to one goroutine: the caller of Run for the root, its
// own goroutine for a fork. Only that goroutine writes the counters and
// depth, so the per-node charge is a plain increment. Two things cross
// goroutines and each has its synchronisation edge: a worker publishes its
// step count into the root's published atomic (so step budgets see the whole
// fan-out), and a worker's final counters are read by the root goroutine
// after the join (absorb, behind wg.Wait).
type machine struct {
	config

	ctx      context.Context
	deadline time.Time
	// depth is the Eval recursion depth, tracked only when Limits.MaxDepth
	// is set. Depth tracking is inherently serial, so a MaxDepth limit
	// forces serial tabulation (threshold = maxInt64).
	depth int

	// parent is non-nil in fan-out worker machines. baseSteps/baseCells
	// are the global totals this worker's budget checks add to its local
	// counts; baseSteps is refreshed every InterruptInterval steps by
	// syncSteps, bounding budget overshoot to workers*InterruptInterval.
	parent         *machine
	baseSteps      int64
	baseCells      int64
	publishedSteps int64

	// published is, on a root machine inside a fan-out, the global step
	// total as far as reported: the root's own count when it forked plus
	// what the workers have published since.
	published atomic.Int64

	// prof is the span-profiling accumulation context of this execution
	// (nil at ProfOff); workers fork their own so the measured path stays
	// uncontended, and absorb merges them back at join.
	prof *eval.ProfCtx

	// used is the work charged on this machine; span wrappers hand it to
	// the profiling context by pointer.
	used trace.EvalCounters

	// cursors are the tile cursors of the subscript sites that read a lazy
	// array on this machine, by site number; nil until the first such read.
	// Whoever ends the machine's work calls finish, on every path out.
	cursors []tile.Cursor

	// worker is a fan-out worker's index plus one, 0 on a root machine.
	worker int
	// scratch holds the lane buffers of the block form (lanes.go): one set
	// per machine, so per worker, taken on the machine's first block and
	// handed back by finish.
	scratch *laneScratch
}

// config is what an execution fixes before it starts and every machine
// working for it copies.
type config struct {
	limits eval.Limits
	// workers caps fan-out; threshold is DefaultThreshold or its override,
	// in elements of 8 steps: a tabulation or a Σ fans out at 8 × threshold
	// steps of measured work (mayFanOut; maxInt64 disables parallelism).
	workers   int
	threshold int64
	// stepMask routes steps to stepSlow when n&stepMask == 0: it is
	// InterruptInterval-1 normally (amortized interrupt checks only) and 0
	// when a step budget is configured (every step must be checked). A
	// mask instead of a bool keeps step() under the inlining budget.
	stepMask int64
}

// budget sets the resource bounds and the step mask they imply.
func (c *config) budget(lim eval.Limits) {
	c.limits, c.stepMask = lim, eval.InterruptInterval-1
	if lim.MaxSteps > 0 {
		c.stepMask = 0
	}
}

// execution is the identity of one Run, and the part of it that the
// functions it makes keep after it returns (they hold no machine, so a
// val-bound fn pins neither counters nor a request's context).
type execution struct {
	// config is what the execution ran under: a function it made fans out
	// under it when entered from outside the engine, and Go code calling the
	// function through Fn is held to its budgets.
	config
	// args is the execution's argument frame: the value of each $name
	// placeholder at its paramTable index, with argOK flagging which indices
	// were actually supplied (the zero object.Value is not a usable
	// sentinel). Both slices are read-only once the execution starts.
	args  []object.Value
	argOK []bool
	// rng is the range request of PlanShards or ExecuteRange, which only
	// the root tabulation reads; nil for a whole execution.
	rng *rangeReq
}

// step charges one evaluator step; mirrors the per-node guards of
// eval.Evaluator.Eval. The function stays small enough to inline into every
// compiled node closure: the common case is an increment and a mask test,
// with budget enforcement and the amortized interrupt check in stepSlow.
func (m *machine) step() error {
	m.used.Steps++
	if m.used.Steps&m.stepMask == 0 {
		return m.stepSlow()
	}
	return nil
}

// stepSlow enforces the step budget and, every InterruptInterval steps,
// runs the interrupt check; in workers that boundary also publishes the
// local step count to the root.
func (m *machine) stepSlow() error {
	n := m.used.Steps
	total := eval.SatAdd(m.baseSteps, n)
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
	m.used.Cells = eval.SatAdd(m.used.Cells, n)
	used := eval.SatAdd(m.baseCells, m.used.Cells)
	if max := m.limits.MaxCells; max > 0 && used > max {
		return &eval.ResourceError{Kind: eval.ResourceCells, Limit: max, Used: used}
	}
	return nil
}

// chargeAlloc is chargeCells for an allocation sized at run time (gen,
// tabulation, index): a large one polls for interrupts first, and one the
// runtime cannot make fails after its charge, at the points
// eval.Evaluator.chargeAlloc does.
func (m *machine) chargeAlloc(n int64) error {
	if n >= eval.InterruptInterval {
		if err := eval.CheckInterrupt(m.ctx, m.deadline, m.limits.Timeout); err != nil {
			return err
		}
	}
	if err := m.chargeCells(n); err != nil {
		return err
	}
	return eval.CheckAlloc(n)
}

// fork returns the machine of worker w, which counts locally against a
// snapshot of the parent's totals. It is called on the parent's goroutine,
// before the worker's goroutine starts.
func (m *machine) fork(w int) *machine {
	return &machine{
		worker:    w + 1,
		config:    m.config,
		ctx:       m.ctx,
		deadline:  m.deadline,
		depth:     m.depth,
		parent:    m,
		baseSteps: m.used.Steps,
		baseCells: m.used.Cells,
		prof:      m.prof.Fork(),
	}
}

// syncSteps publishes this worker's not-yet-published steps to the root and
// refreshes the worker's view of the global total, so step budgets inside a
// parallel region stay within workers*InterruptInterval of exact.
func (m *machine) syncSteps(local int64) {
	delta := local - m.publishedSteps
	m.publishedSteps = local
	m.baseSteps = m.parent.published.Add(delta) - local
}

// absorb adds a joined worker's counts to m, its parent. The caller is m's
// goroutine, after the wg.Wait that ends the worker: every local step is
// counted exactly once, so the post-join totals equal a serial run's.
func (m *machine) absorb(w *machine) {
	m.add(w.counters())
	m.prof.MergeWorker(w.prof)
}

// add charges work done elsewhere on m's behalf to m's counters.
func (m *machine) add(c trace.EvalCounters) {
	m.used.Steps += c.Steps
	m.used.Cells = eval.SatAdd(m.used.Cells, c.Cells)
	m.used.Tabulations += c.Tabulations
	m.used.SetOps += c.SetOps
	m.used.Iterations += c.Iterations
}

// apply runs a function the interpreter made on m's account: its body
// charges a meter that starts from m's totals (a worker's include the
// global view its budget checks use) under m's budgets, context, deadline
// and profiling context, and what it charged is added back to m.
func (m *machine) apply(f eval.Applier, arg object.Value) (object.Value, error) {
	at := m.counters()
	at.Steps, at.Cells = eval.SatAdd(m.baseSteps, m.used.Steps), eval.SatAdd(m.baseCells, m.used.Cells)
	mt := eval.Meter{Ctx: m.ctx, Deadline: m.deadline, Limits: m.limits, Depth: m.depth, Used: at, Prof: m.prof}
	v, err := f.Apply(&mt, arg)
	m.add(mt.Used.Sub(at))
	return v, err
}

// cursor returns the tile cursor of subscript site, growing the machine's
// cursors to hold it.
func (m *machine) cursor(site int) *tile.Cursor {
	if site >= len(m.cursors) {
		m.cursors = append(m.cursors, make([]tile.Cursor, site+1-len(m.cursors))...)
	}
	return &m.cursors[site]
}

// finish ends the machine's work: it counts the reads the machine's
// cursors served from their pinned tiles and have not counted yet, and
// hands its lane buffers back for another machine's blocks.
func (m *machine) finish() {
	for i := range m.cursors {
		m.cursors[i].Flush()
	}
	m.releaseScratch()
}

// counters snapshots the machine's work counters.
func (m *machine) counters() trace.EvalCounters {
	return m.used
}

// frame is the runtime activation record of compiled code: a flat slot
// array indexed by the compiler's resolve pass, replacing the interpreter's
// name-searched Env linked list. Loop constructs rebind by overwriting the
// slot; lambdas copy their captured slots into a fresh frame at closure
// creation, which matches the interpreter's persistent environments because
// a slot is never observed after its binder rebinds it. m is the machine the
// code charges; ex is the execution whose $name arguments it reads — the one
// that made the running function, not the one applying it, so placeholders
// are lexically scoped. park holds the values scalars refer to that have no
// address of their own, one slot per lowered site (see hold).
type frame struct {
	m     *machine
	ex    *execution
	slots []object.Value
	park  []object.Value
}

// makeFrame returns a frame of slots variable slots and parks park slots,
// one allocation for both.
func makeFrame(m *machine, ex *execution, slots, parks int) *frame {
	buf := make([]object.Value, slots+parks)
	return &frame{m: m, ex: ex, slots: buf[:slots:slots], park: buf[slots:]}
}

// framePad is the number of unused values on either side of a worker
// frame's slots: 160 bytes, more than the two 64-byte cache lines an x86
// core fetches together.
const framePad = 2

// workerFrame is makeFrame for a fan-out worker. A worker's scan writes its
// slots on every element, so they sit between framePad unused values and no
// other object (another worker's frame, or the code both workers read)
// shares their cache lines; such sharing made a 2-worker 200,000-cell
// tabulation up to 1.6 times slower in some processes.
func workerFrame(m *machine, ex *execution, slots, parks int) *frame {
	buf := make([]object.Value, framePad+slots+parks+framePad)[framePad:]
	return &frame{m: m, ex: ex, slots: buf[:slots:slots], park: buf[slots : slots+parks : slots+parks]}
}
