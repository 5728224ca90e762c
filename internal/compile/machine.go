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
// resource budgets, interrupt state and the work counters. One root machine
// is created per Run (or PlanShards / ExecuteRange); a fanned-out tabulation
// forks one child machine per worker.
//
// A machine belongs to one goroutine: the caller of Run for the root, its
// own goroutine for a fork. Only that goroutine writes the
// counters, depth and guests fields, so the per-node charge is a plain
// increment. Two things cross goroutines and each has its synchronisation
// edge: a worker publishes its step count into the root's published atomic
// (so step budgets see the whole fan-out), and a worker's final counters are
// read by the root goroutine after the join (absorb, behind wg.Wait).
type machine struct {
	config

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
	parent         *machine
	baseSteps      int64
	baseCells      int64
	publishedSteps int64

	// published is, on a root machine inside a fan-out, the global step
	// total as far as reported: the root's own count when it forked plus
	// what the workers have published since.
	published atomic.Int64

	// guests are the machines that bodies of functions made by other
	// executions run on when this machine applies them, one per such
	// execution; host is, on a guest, the machine it serves. See machineFor.
	guests []*machine
	host   *machine

	// prof is the span-profiling accumulation context of this execution
	// (nil at ProfOff, and on guests); workers fork their own so the
	// measured path stays uncontended, and absorb merges them back at join.
	prof *eval.ProfCtx

	// exec is the execution this machine is part of, shared with its forks.
	exec *execution

	steps, cells, tabs, setOps, iters int64
}

// config is what an execution fixes before it starts and every machine
// working for it (root, forks, guests) copies.
type config struct {
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
}

// execution is the identity of one Run, and the part of it that the
// functions it makes keep after it returns (they hold no machine, so a
// val-bound fn pins neither counters nor a request's context).
type execution struct {
	// config is what the execution ran under; a function it made is held to
	// it when something other than this engine applies it (see enter).
	config
	// args is the execution's argument frame: the value of each $name
	// placeholder at its paramTable index, with argOK flagging which indices
	// were actually supplied (the zero object.Value is not a usable
	// sentinel). Both slices are read-only once the execution starts.
	args  []object.Value
	argOK []bool
}

// step charges one evaluator step; mirrors the per-node guards of
// eval.Evaluator.Eval. The function stays small enough to inline into every
// compiled node closure: the common case is an increment and a mask test,
// with budget enforcement and the amortized interrupt check in stepSlow.
func (m *machine) step() error {
	m.steps++
	if m.steps&m.stepMask == 0 {
		return m.stepSlow()
	}
	return nil
}

// stepSlow enforces the step budgets and, every InterruptInterval steps,
// runs the interrupt check; in workers that boundary also publishes the
// local step count to the root.
func (m *machine) stepSlow() error {
	n := m.steps
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
	m.cells = satAdd(m.cells, n)
	used := satAdd(m.baseCells, m.cells)
	if max := m.limits.MaxCells; max > 0 && used > max {
		return &eval.ResourceError{Kind: eval.ResourceCells, Limit: max, Used: used}
	}
	return nil
}

// fork returns a worker machine that counts locally against a snapshot of
// the parent's totals. It is called on the parent's goroutine, before the
// worker's goroutine starts. A guest's fork serves a fork of the guest's
// host, so the worker has a host chain of its own to charge.
func (m *machine) fork() *machine {
	w := &machine{
		config:    m.config,
		ctx:       m.ctx,
		deadline:  m.deadline,
		depth:     m.depth,
		parent:    m,
		baseSteps: m.steps,
		baseCells: m.cells,
		prof:      m.prof.Fork(),
		exec:      m.exec,
	}
	if m.host != nil {
		w.host = m.host.fork()
	}
	return w
}

// openFanOut starts the global step totals that m's forks, and the forks of
// the hosts behind m, publish to.
func (m *machine) openFanOut() {
	for a := m; a != nil; a = a.host {
		a.published.Store(a.steps)
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

// absorb adds a joined worker's counts to m, its parent, and those of the
// worker's host chain to m's. The caller is m's goroutine, after the wg.Wait
// that ends the worker: every local step is counted exactly once, so the
// post-join totals equal a serial run's.
func (m *machine) absorb(w *machine) {
	m.steps += w.steps
	m.cells = satAdd(m.cells, w.cells)
	m.tabs += w.tabs
	m.setOps += w.setOps
	m.iters += w.iters
	m.prof.MergeWorker(w.prof)
	if w.host != nil {
		m.host.absorb(w.host)
	}
}

// machineFor returns the machine on which m's goroutine runs the body of a
// function made by execution ex, so that the body charges the counters its
// maker's query reports and no machine is written by two goroutines:
//
//   - made by m's own execution (the summap body of a matmul cell, a
//     let-hoisted fn applied inside workers, an array of closures applied
//     after the join): m itself, which yields a serial run's totals;
//   - m is a guest running a val-bound function that was handed a function
//     of the query applying it: the machine of that query hosting m;
//   - made by an earlier execution (a val-bound fn): m's guest for it.
//
// A guest counts apart from m, and its counts are reported nowhere, as the
// interpreter reports none for such a body; but it works under m's budgets,
// context and deadline, so what bounds the applying query bounds each
// function it applies. A guest of a fan-out worker does not fan out again.
func (m *machine) machineFor(ex *execution) *machine {
	for a := m; a != nil; a = a.host {
		if a.exec == ex {
			return a
		}
	}
	for _, g := range m.guests {
		if g.exec == ex {
			return g
		}
	}
	g := &machine{config: m.config, ctx: m.ctx, deadline: m.deadline, exec: ex, host: m}
	if m.parent != nil {
		g.threshold = math.MaxInt64
	}
	m.guests = append(m.guests, g)
	return g
}

// enter returns a machine for one call of a function made by ex from
// outside the engine (the interpreter, Go code holding the value). Such a
// caller says nothing about which goroutine it is on or what bounds it, so
// the call gets a machine of its own under the budgets ex ran under, with no
// context or deadline: ex's are long over.
func (ex *execution) enter() *machine {
	return &machine{config: ex.config, exec: ex}
}

// counters snapshots the machine's work counters.
func (m *machine) counters() eval.Counters {
	return eval.Counters{Steps: m.steps, Cells: m.cells, Tabs: m.tabs, SetOps: m.setOps, Iters: m.iters}
}

// satAdd adds two non-negative counts, saturating at MaxInt64.
func satAdd(a, b int64) int64 {
	if b > math.MaxInt64-a {
		return math.MaxInt64
	}
	return a + b
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
