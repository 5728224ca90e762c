package compile

import (
	"fmt"
	"math"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/trace"
)

// The tabulation kernel, and the one fan-out. [[ head | i1 < b1, ..., ik < bk ]]
// executes as a prologue (bounds, cell charge) followed by head evaluations
// over a contiguous row-major offset range: [0, size) for a whole array, one
// shard for ExecuteRange. The head is a pure function of the index valuation
// and the enclosing frame, so any split of the range into contiguous pieces —
// across goroutines here, across worker nodes in internal/cluster — computes
// the same cells, and the pieces' Partials fold back with Merge into what
// one serial scan reports. A Σ (lowerSum) is the fan-out's second client:
// its terms are pure in the member the same way, and eval.SumAcc fixes one
// summation order that any block-aligned cut reproduces bit for bit.

// tabCode is a compiled tabulation.
type tabCode struct {
	fanSite
	bounds   []compiledExpr
	idxSlots []int
	head     scalarExpr
}

// fanSite is a lowered loop that may fan out: a tabulation or a Σ.
type fanSite struct {
	// spanID is the loop's span in spans, the plan it was lowered under (-1
	// when unprofiled); a fan-out attaches its per-worker ranges and busy
	// times to it.
	spans  *eval.SpanPlan
	spanID int
	// steps is the steps per element of the last complete scan a root
	// machine ran here (0 before the first): what split weighs the next
	// scan's elements by. Executions share it, and store it only when it
	// changes.
	steps atomic.Int64
}

// init sets s to loop n's span in the plan c lowers under.
func (s *fanSite) init(c *compiler, n ast.Expr) {
	s.spans, s.spanID = c.prof, -1
	if id, ok := c.prof.ID(n); ok {
		s.spanID = id
	}
}

// compileArrayTab lowers n's bounds, then its head with the index
// variables in scope, to: prologue, then the head over [0, size). The root
// tabulation (see compiler.lower) answers the execution's range request
// instead, when it carries one.
func (c *compiler) compileArrayTab(n *ast.ArrayTab, root bool) compiledExpr {
	t := &tabCode{bounds: make([]compiledExpr, len(n.Bounds)), idxSlots: make([]int, len(n.Idx))}
	t.init(c, n)
	for j, b := range n.Bounds {
		t.bounds[j] = c.compile(b)
	}
	for j, name := range n.Idx {
		t.idxSlots[j] = c.bind(name)
	}
	t.head = c.compileScalar(n.Head)
	c.unbind(len(n.Idx))
	return func(fr *frame) (object.Value, error) {
		if root && fr.ex.rng != nil {
			return t.serve(fr, fr.ex.rng)
		}
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

// Partial is what evaluating a loop body over the contiguous offsets
// [Lo, Hi) decides about the whole loop, beyond the cell values or the sum
// themselves. It is the one statement of the determinism contract every
// executor shares — the serial scan, goroutine workers, ExecuteRange and the
// cluster coordinator's shards:
//
//   - A tabulation's ⊥ element poisons the tabulation but does not stop the
//     scan; the result is the first ⊥ in row-major order. A Σ stops at its
//     first ⊥.
//   - An error (a deterministic one — unbound variable, kind mismatch — or a
//     resource one — budget, cancellation) stops the scan that hit it. Scans
//     of earlier ranges finish, so the error reported is the one at the
//     lowest offset — the one a serial scan hits first. In a tabulation it
//     wins over any ⊥; in a Σ the lower of BottomOff and ErrOff wins.
//   - Scans of later ranges may stop early once an earlier event is known:
//     nothing they find can win.
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

// first is the offset of the event that stopped a scan of p's range — its
// error, or its first ⊥ when ⊥ stops the loop (a Σ) — or maxInt64 when the
// scan ran to its end.
func (p Partial) first(bottomStops bool) int64 {
	at := int64(math.MaxInt64)
	if p.Err != nil {
		at = p.ErrOff
	}
	if bottomStops && p.BottomOff >= 0 && p.BottomOff < at {
		at = p.BottomOff
	}
	return at
}

// run evaluates the head over [lo, hi) into out, which holds exactly that
// range: on fr itself, or fanned out across workers when the range is
// enough work. A root machine then remembers the scan's steps per cell.
func (t *tabCode) run(fr *frame, shape []int, lo, hi int, out []object.Value) Partial {
	m := fr.m
	before := m.used.Steps
	var p Partial
	if chunk, nw := m.split(hi-lo, t.steps.Load(), 1); nw > 1 {
		p = m.fanOut(fr, &t.fanSite, lo, hi, chunk, false, func(_ int, wfr *frame, wlo, whi int, ln *lane) Partial {
			return t.scan(wfr, shape, wlo, whi, out[wlo-lo:whi-lo], ln)
		})
	} else {
		p = t.scan(fr, shape, lo, hi, out, nil)
	}
	if p.Err == nil {
		t.note(m, hi-lo, before)
	}
	return p
}

// note remembers, on a root machine, the steps per element of a complete
// scan of n elements that began when m had counted before steps.
func (s *fanSite) note(m *machine, n int, before int64) {
	if m.parent == nil && n > 0 {
		if per := (m.used.Steps - before) / int64(n); per != s.steps.Load() {
			s.steps.Store(per)
		}
	}
}

// scan is the element loop: it binds the index variables by slot store and
// evaluates the head at each offset of [lo, hi) in row-major order, boxing
// the scalar it returns into out[off-lo], which is still zero. Only the
// slots whose index the row-major advance changed are rebound between
// cells. ln is the scan's lane when it is a fan-out's, nil on a serial scan.
// The multi-index, rewritten on every cell, lives on the scan's stack up to
// four dimensions: a small heap copy can share a cache line with another
// worker's, enough to make a 2-worker tabulation no faster than a serial one.
func (t *tabCode) scan(fr *frame, shape []int, lo, hi int, out []object.Value, ln *lane) Partial {
	p := Partial{Lo: int64(lo), Hi: int64(hi), BottomOff: -1}
	slots := fr.slots
	var stack [4]int
	idx := unflatten(stack[:0], lo, shape)
	for j, s := range t.idxSlots {
		slots[s] = object.Nat(int64(idx[j]))
	}
	for off := lo; off < hi; off++ {
		if ln != nil && ln.past(off) {
			break
		}
		s, err := t.head(fr)
		if err != nil {
			p.ErrOff, p.Err = int64(off), err
			if ln != nil {
				ln.event(off)
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

// unflatten converts a row-major offset into a multi-index for shape, in
// idx's storage when it has the room.
func unflatten(idx []int, off int, shape []int) []int {
	idx = slices.Grow(idx[:0], len(shape))[:len(shape)]
	for d := len(shape) - 1; d >= 0; d-- {
		if shape[d] > 0 {
			idx[d] = off % shape[d]
			off /= shape[d]
		}
	}
	return idx
}

// mayFanOut reports whether a range of n elements, whose site last scanned
// at steps per element (0 before its first scan), fans out: its work,
// n × max(steps, 8), is at least 8 × the threshold; the range is small
// enough for the chunk arithmetic; and m is not already a worker (workers
// never nest). An element is weighed at 8 steps at least, so a site that
// has not run fans out at threshold elements, and a threshold of maxInt64
// keeps every scan serial.
func (m *machine) mayFanOut(n int, steps int64) bool {
	if m.workers <= 1 || m.parent != nil || n > math.MaxInt/2 || m.threshold > math.MaxInt64/8 {
		return false
	}
	w := max(steps, 8)
	return int64(n) > math.MaxInt64/w || int64(n)*w >= 8*m.threshold
}

// split sizes the fan-out of a range of n elements weighing steps each, as
// mayFanOut weighs them: nw workers, each given a chunk of elements that is
// a multiple of align and at least 4 × the threshold steps of work (half
// the least work that fans out), at most one worker per GOMAXPROCS (or
// ExecOpts.Workers). nw is 1 when the range stays serial: mayFanOut says
// no, or the whole range fits one chunk.
func (m *machine) split(n int, steps int64, align int) (chunk, nw int) {
	if !m.mayFanOut(n, steps) {
		return n, 1
	}
	w, work := max(steps, 8), int64(math.MaxInt64)
	if int64(n) <= math.MaxInt64/w {
		work = int64(n) * w
	}
	nw = int(min(int64(m.workers), work/(4*m.threshold)))
	chunk = (n + nw - 1) / nw
	chunk = (chunk + align - 1) / align * align
	return chunk, (n + chunk - 1) / chunk
}

// workerPanic is a panic captured in a fan-out worker, re-raised on the
// goroutine that called the fan-out so the session-boundary recovers see it.
// Stack is the worker's stack at the panic, which the re-raise point's own
// stack no longer shows.
type workerPanic struct {
	Val   any
	Off   int
	Stack []byte
}

func (p *workerPanic) Error() string {
	return fmt.Sprintf("%v (fan-out worker, offset %d)", p.Val, p.Off)
}

// lane is one worker's view of a fan-out: the lowest offset of an event
// (a scan-stopping error, or ⊥ in a Σ) any worker has met, and the offset
// the worker is at, which a panic reports.
type lane struct {
	first *atomic.Int64
	off   int
}

// past moves the lane to off and reports whether an event below off is
// known, so that nothing the scan finds from here on can win.
func (ln *lane) past(off int) bool {
	ln.off = off
	return int64(off) > ln.first.Load()
}

// event records the scan's event at off.
func (ln *lane) event(off int) {
	for at := ln.first.Load(); int64(off) < at && !ln.first.CompareAndSwap(at, int64(off)); at = ln.first.Load() {
	}
}

// fanOut is the one fan-out: it splits [lo, hi) into contiguous chunks of
// chunk elements (split), one goroutine each, every worker running scan on
// its own frame (a copy of fr's slots) and its own forked machine. w is the
// worker's index, ln its lane; scan stops at the first event of its range,
// ⊥ included when bottomStops, and records it on ln.
//
// Counters stay exact. A worker counts on a forked machine that only its
// goroutine writes; after the join, the calling goroutine absorbs the forks
// of the chunks up to the first one that stopped at an event, which is
// the serial scan's stopping point, so the totals equal a serial scan's.
// A resource error or a panic is not a deterministic stopping point: then
// every fork is absorbed, and the lowest-offset panic is re-raised. Under
// profiling a fork carries its own span context, merged back with it, and
// site's span receives one WorkerSpan per worker. The merged Partial of
// the chunks up to that first event is returned.
func (m *machine) fanOut(fr *frame, site *fanSite, lo, hi, chunk int, bottomStops bool, scan func(w int, wfr *frame, lo, hi int, ln *lane) Partial) Partial {
	nw := (hi - lo + chunk - 1) / chunk
	parts := make([]Partial, nw)
	panics := make([]*workerPanic, nw)
	spans := make([]trace.WorkerSpan, nw)
	forks := make([]*machine, nw)
	var first atomic.Int64
	first.Store(math.MaxInt64)
	var wg sync.WaitGroup
	m.published.Store(m.used.Steps)
	for w := range nw {
		wlo := lo + w*chunk
		whi := min(wlo+chunk, hi)
		wm := m.fork()
		forks[w] = wm
		wg.Add(1)
		go func() {
			defer wg.Done()
			wfr := workerFrame(wm, fr.ex, len(fr.slots), len(fr.park))
			copy(wfr.slots, fr.slots)
			ln := lane{first: &first, off: wlo}
			t0 := time.Now()
			defer func() {
				wm.flushCursors()
				if r := recover(); r != nil {
					panics[w] = &workerPanic{Val: r, Off: ln.off, Stack: debug.Stack()}
				}
				spans[w] = trace.WorkerSpan{Worker: w, Start: wlo, End: whi, Busy: time.Since(t0), Steps: wm.used.Steps}
			}()
			parts[w] = scan(w, wfr, wlo, whi, &ln)
		}()
	}
	wg.Wait()

	// Chunks ascend, and a scan stops at its own first event or panic, so
	// the first chunk that holds either holds the fan-out's first; the
	// chunks after it decide nothing.
	stop := nw - 1
	for w := range parts {
		if panics[w] != nil || parts[w].first(bottomStops) < math.MaxInt64 {
			stop = w
			break
		}
	}
	wp, absorbed := panics[stop], forks[:stop+1]
	if _, resource := parts[stop].Err.(*eval.ResourceError); resource || wp != nil {
		absorbed = forks
	}
	for _, wm := range absorbed {
		m.absorb(wm)
	}
	if wp != nil {
		panic(wp)
	}
	m.prof.RecordWorkers(site.spans, site.spanID, spans)
	p := parts[0]
	for _, q := range parts[1 : stop+1] {
		p = p.Merge(q)
	}
	return p
}
