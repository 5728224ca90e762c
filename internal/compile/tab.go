package compile

import (
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/trace"
)

// The tabulation kernel. [[ head | i1 < b1, ..., ik < bk ]] executes as a
// prologue (bounds, cell charge) followed by head evaluations over a
// contiguous row-major offset range: [0, size) for a whole array, one shard
// for ExecuteRange. The head is a pure function of the index valuation and
// the enclosing frame, so any split of the range into contiguous pieces —
// across goroutines here, across worker nodes in internal/cluster — computes
// the same cells, and the pieces' Partials fold back with Merge into what
// one serial scan reports.

// tabCode is a compiled tabulation.
type tabCode struct {
	bounds   []compiledExpr
	idxSlots []int
	head     scalarExpr
	// spanID is the tabulation's span in spans, the plan it was lowered
	// under (-1 when unprofiled); a fan-out attaches its per-worker ranges
	// and busy times to it.
	spans  *eval.SpanPlan
	spanID int
	// steps is the steps per cell of the last complete scan a root machine
	// ran here (0 before the first): what mayFanOut weighs the next scan's
	// cells by. Executions share it, and store it only when it changes.
	steps atomic.Int64
}

// compileTab lowers n's bounds, then its head with the index variables in
// scope.
func (c *compiler) compileTab(n *ast.ArrayTab) *tabCode {
	t := &tabCode{bounds: make([]compiledExpr, len(n.Bounds)), idxSlots: make([]int, len(n.Idx)), spans: c.prof, spanID: -1}
	for j, b := range n.Bounds {
		t.bounds[j] = c.compile(b)
	}
	for j, name := range n.Idx {
		t.idxSlots[j] = c.bind(name)
	}
	t.head = c.compileScalar(n.Head)
	c.unbind(len(n.Idx))
	if id, ok := c.prof.ID(n); ok {
		t.spanID = id
	}
	return t
}

// compileArrayTab lowers a tabulation to: prologue, then the head over
// [0, size).
func (c *compiler) compileArrayTab(n *ast.ArrayTab) compiledExpr {
	t := c.compileTab(n)
	return func(fr *frame) (object.Value, error) {
		shape, size, bot, err := t.prologue(fr)
		if err != nil || bot.IsBottom() {
			return bot, err
		}
		data := make([]object.Value, size)
		return t.run(fr, shape, 0, size, data).Result(shape, data)
	}
}

// prologue charges the tabulation node's step, evaluates the bounds in
// order (a ⊥ bound is the tabulation's value, returned as bot), and charges
// the whole array's cells before anything is allocated — the fail-fast path
// for huge tabulations under a cell budget. The size validation is
// object.Tabulate's, so overflow diagnostics match the interpreter's.
func (t *tabCode) prologue(fr *frame) (shape []int, size int, bot object.Value, err error) {
	m := fr.m
	if err := m.step(); err != nil {
		return nil, 0, object.Value{}, err
	}
	m.used.Tabulations++
	shape = make([]int, len(t.bounds))
	cells := int64(1)
	for j, b := range t.bounds {
		v, err := b(fr)
		if err != nil {
			return nil, 0, object.Value{}, err
		}
		if v.IsBottom() {
			return nil, 0, v, nil
		}
		n, err := v.AsNat()
		if err != nil {
			return nil, 0, object.Value{}, fmt.Errorf("eval: tabulation bound %d: %w", j+1, err)
		}
		shape[j] = int(n)
		if n > 0 && cells > math.MaxInt64/n {
			cells = math.MaxInt64 // saturate; the charge below will trip
		} else {
			cells *= n
		}
	}
	if err := m.chargeAlloc(cells); err != nil {
		return nil, 0, object.Value{}, err
	}
	size = 1
	for _, n := range shape {
		if n < 0 {
			return nil, 0, object.Value{}, fmt.Errorf("object: negative dimension length %d", n)
		}
		if n > 0 && size > math.MaxInt/n {
			return nil, 0, object.Value{}, fmt.Errorf("object: tabulation shape %v overflows", shape)
		}
		size *= n
	}
	return shape, size, object.Value{}, nil
}

// Partial is what evaluating a tabulation head over the contiguous
// row-major offsets [Lo, Hi) decides about the whole tabulation, beyond the
// cell values themselves. It is the one statement of the determinism
// contract every executor shares — the serial scan, goroutine workers,
// ExecuteRange and the cluster coordinator's shards:
//
//   - A ⊥ element poisons the tabulation but does not stop the scan; the
//     result is the first ⊥ in row-major order.
//   - A deterministic head error (unbound variable, kind mismatch) stops
//     only the scan that hit it. Scans of other ranges finish, so the error
//     reported is the one at the lowest offset — the one a serial scan hits
//     first — and it wins over any ⊥.
//   - Resource errors (budget, cancellation) additionally stop sibling
//     scans early: their payload is timing-dependent anyway.
type Partial struct {
	Lo, Hi int64
	// BottomOff is the offset of the first ⊥ element in the range (-1 when
	// none) and Bottom that element.
	BottomOff int64
	Bottom    object.Value
	// Err is the error at the lowest offset that raised one, ErrOff that
	// offset; producers that cannot position an error use math.MaxInt64.
	ErrOff int64
	Err    error
}

// Merge combines the partials of two disjoint ranges. It is associative,
// and commutative up to ties, so partials fold in any grouping and order.
func (p Partial) Merge(q Partial) Partial {
	if q.Lo < p.Lo {
		p.Lo = q.Lo
	}
	if q.Hi > p.Hi {
		p.Hi = q.Hi
	}
	if q.BottomOff >= 0 && (p.BottomOff < 0 || q.BottomOff < p.BottomOff) {
		p.BottomOff, p.Bottom = q.BottomOff, q.Bottom
	}
	if q.Err != nil && (p.Err == nil || q.ErrOff < p.ErrOff) {
		p.ErrOff, p.Err = q.ErrOff, q.Err
	}
	return p
}

// Result is the tabulation's outcome once p covers its whole element space,
// whose cells are data.
func (p Partial) Result(shape []int, data []object.Value) (object.Value, error) {
	if p.Err != nil {
		return object.Value{}, p.Err
	}
	if p.BottomOff >= 0 {
		return p.Bottom, nil
	}
	return object.Value{Kind: object.KArray, Shape: shape, Elems: data}, nil
}

// run evaluates the head over [lo, hi) into out, which holds exactly that
// range: on fr itself, or fanned out across workers when the range is
// enough work. A root machine then remembers the scan's steps per cell.
func (t *tabCode) run(fr *frame, shape []int, lo, hi int, out []object.Value) Partial {
	m := fr.m
	n, before, last := hi-lo, m.used.Steps, t.steps.Load()
	var p Partial
	if m.mayFanOut(n, last) {
		p = t.fanOut(fr, shape, lo, hi, out)
	} else {
		p = t.scan(fr, shape, lo, hi, out, nil)
	}
	if m.parent == nil && p.Err == nil && n > 0 {
		if per := (m.used.Steps - before) / int64(n); per != last {
			t.steps.Store(per)
		}
	}
	return p
}

// scan is the element loop: it binds the index variables by slot store and
// evaluates the head at each offset of [lo, hi) in row-major order, boxing
// the scalar it returns into out[off-lo], which is still zero. Only the slots whose index the row-major advance changed are
// rebound between cells. A non-nil stop is the fan-out's abort flag: polled
// per element, and raised on a resource error.
func (t *tabCode) scan(fr *frame, shape []int, lo, hi int, out []object.Value, stop *atomic.Bool) Partial {
	p := Partial{Lo: int64(lo), Hi: int64(hi), BottomOff: -1}
	slots := fr.slots
	idx := unflatten(lo, shape)
	for j, s := range t.idxSlots {
		slots[s] = object.Nat(int64(idx[j]))
	}
	for off := lo; off < hi; off++ {
		if stop != nil && stop.Load() {
			break
		}
		s, err := t.head(fr)
		if err != nil {
			p.ErrOff, p.Err = int64(off), err
			if _, resource := err.(*eval.ResourceError); resource && stop != nil {
				stop.Store(true)
			}
			break
		}
		s.store(&out[off-lo])
		if s.k == object.KBottom && p.BottomOff < 0 {
			p.BottomOff, p.Bottom = int64(off), out[off-lo]
		}
		// Advance the multi-index in row-major order.
		for d := len(shape) - 1; d >= 0; d-- {
			idx[d]++
			if idx[d] < shape[d] {
				slots[t.idxSlots[d]].N = int64(idx[d])
				break
			}
			idx[d] = 0
			slots[t.idxSlots[d]].N = 0
		}
	}
	return p
}

// unflatten converts a row-major offset into a multi-index for shape.
func unflatten(off int, shape []int) []int {
	idx := make([]int, len(shape))
	for d := len(shape) - 1; d >= 0; d-- {
		if shape[d] > 0 {
			idx[d] = off % shape[d]
			off /= shape[d]
		}
	}
	return idx
}

// minChunk is the smallest per-worker range worth a goroutine; a fan-out
// spawns at most ceil(n/minChunk) workers even when GOMAXPROCS is larger.
const minChunk = 2048

// mayFanOut reports whether a range of n elements, whose site last scanned
// at steps per cell (0 before its first scan), fans out: its work,
// n × max(steps, 8), is at least 8 × the threshold; the range is small
// enough for the chunk arithmetic; and m is not already a worker (workers
// never nest). A cell is weighed at 8 steps at least, so a site that has
// not run fans out at threshold cells, and a threshold of maxInt64 keeps
// every scan serial.
func (m *machine) mayFanOut(n int, steps int64) bool {
	if m.workers <= 1 || m.parent != nil || n > math.MaxInt/2 || m.threshold > math.MaxInt64/8 {
		return false
	}
	w := max(steps, 8)
	return int64(n) > math.MaxInt64/w || int64(n)*w >= 8*m.threshold
}

// workerPanic is a head panic captured in a fan-out worker, re-raised on the
// goroutine that called the fan-out so the session-boundary recovers see it.
// Stack is the worker's stack at the panic, which the re-raise point's own
// stack no longer shows.
type workerPanic struct {
	Val   any
	Off   int
	Stack []byte
}

func (p *workerPanic) Error() string {
	return fmt.Sprintf("%v (tabulation worker, offset %d)", p.Val, p.Off)
}

// fanOut splits [lo, hi) into contiguous chunks, one goroutine each, every
// worker scanning on a copy of fr's slots into its own region of out.
// Counters stay exact: a worker counts on a forked machine that only its
// goroutine writes, and the calling goroutine absorbs every fork after the
// join, so post-join totals equal a serial scan's; under profiling the fork
// carries its own span context, merged back the same way, and the
// tabulation's span receives one WorkerSpan per worker.
func (t *tabCode) fanOut(fr *frame, shape []int, lo, hi int, out []object.Value) Partial {
	m := fr.m
	n := hi - lo
	nw := m.workers
	if max := (n + minChunk - 1) / minChunk; nw > max {
		nw = max
	}
	chunk := (n + nw - 1) / nw
	nw = (n + chunk - 1) / chunk // rounding chunk up can leave trailing workers nothing

	parts := make([]Partial, nw)
	panics := make([]*workerPanic, nw)
	spans := make([]trace.WorkerSpan, nw)
	forks := make([]*machine, nw)
	var stop atomic.Bool
	var wg sync.WaitGroup
	m.published.Store(m.used.Steps)
	for w := 0; w < nw; w++ {
		wlo := lo + w*chunk
		whi := wlo + chunk
		if whi > hi {
			whi = hi
		}
		wm := m.fork()
		forks[w] = wm
		wg.Add(1)
		go func() {
			defer wg.Done()
			wfr := makeFrame(wm, fr.ex, len(fr.slots), len(fr.park))
			copy(wfr.slots, fr.slots)
			t0 := time.Now()
			defer func() {
				wm.flushCursors()
				if r := recover(); r != nil {
					// The index slots still hold the valuation the head
					// panicked under: only scan writes them.
					off := 0
					for j, s := range t.idxSlots {
						off = off*shape[j] + int(wfr.slots[s].N)
					}
					panics[w] = &workerPanic{Val: r, Off: off, Stack: debug.Stack()}
				}
				spans[w] = trace.WorkerSpan{Worker: w, Start: wlo, End: whi, Busy: time.Since(t0), Steps: wm.used.Steps}
			}()
			parts[w] = t.scan(wfr, shape, wlo, whi, out[wlo-lo:whi-lo], &stop)
		}()
	}
	wg.Wait()
	for _, wm := range forks {
		m.absorb(wm)
	}

	// Chunks ascend, so the first panic found is the lowest-offset one.
	for _, wp := range panics {
		if wp != nil {
			panic(wp)
		}
	}
	m.prof.RecordWorkers(t.spans, t.spanID, spans)
	p := parts[0]
	for _, q := range parts[1:] {
		p = p.Merge(q)
	}
	return p
}
