package compile

import (
	"slices"
	"sync"
	"sync/atomic"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/object"
)

// The block form. A tabulation's or a Σ's head that is a lane expression —
// nat and real literals, $name parameters, the loop's own variables,
// lane-invariant slots and globals, + − * / %, and 1-D and fused 2-D
// subscripts of an array that was eager when lowered, with nat lane indexes
// — is lowered a second time, to a laneExpr that evaluates the head at up to
// blockLanes consecutive elements per call: one closure call per node per
// block instead of one per node per element.
//
// A block is exact by rerun, not by a second set of rules. Lanes carry
// numbers only, one kind per node per block, and charge nothing; a block in
// which any lane would be ⊥, an error or a kind surprise (a ⊥, real or
// other cell where the block's first lane read a nat, an out-of-bounds
// index, an overflow, a zero divisor, a non-finite result, a non-numeric
// slot or argument) is evaluated again from its start by the head's
// closures, which yield the exact first ⊥, diagnostic, error and counters.
// A block that completes charges its static steps per lane × its lanes, the
// steps its closures would have charged; one that a step budget would trip
// inside, or whose nesting would cross the depth budget, runs on closures
// from the start. The arithmetic is eval's kernel, one rule per operator
// (eval.NatAdd, ..., eval.RealMod), called lane by lane.
//
// The values stay boxed where they land: a tabulation stores each lane into
// its []object.Value cell, and a Σ feeds its lanes to eval.SumAcc in member
// order, so any block-aligned cut sums to the serial bits.

// blockLanes is the most elements a block evaluates at once.
const blockLanes = 256

// blockMin is the most elements a site's first scan may have and still run
// on closures: the block form is lowered at a first scan longer than this,
// or at a site's second scan, so a query that runs once over small arrays
// never lowers it.
const blockMin = 64

// lanes is one node's values over a block: nats in n or reals in r, every
// lane of one kind. Its buffers are grown to the longest block that used
// them and kept.
type lanes struct {
	real bool
	n    []int64
	r    []float64
}

// nats sets x's kind to nat and returns its first w nats.
func (x *lanes) nats(w int) []int64 {
	if cap(x.n) < w {
		x.n = make([]int64, w)
	}
	x.real = false
	return x.n[:w]
}

// reals sets x's kind to real and returns its first w reals.
func (x *lanes) reals(w int) []float64 {
	if cap(x.r) < w {
		x.r = make([]float64, w)
	}
	x.real = true
	return x.r[:w]
}

// promote returns x's first w lanes as reals, converting nats in place.
func (x *lanes) promote(w int) []float64 {
	if x.real {
		return x.r[:w]
	}
	n := x.n[:w]
	r := x.reals(w)
	for l, v := range n {
		r[l] = float64(v)
	}
	return r
}

// laneExpr is a node lowered in the block form: it fills out's first w
// lanes with the node's values at the block's w elements and reports
// whether every lane is a number. It charges nothing and writes only the
// machine's scratch buffers; where it reports false, the caller evaluates
// the block on closures.
type laneExpr func(fr *frame, w int, out *lanes) bool

// laneCode is a loop head lowered in the block form. The machine's scratch
// buffers hold, in order, the loop's variables (a tabulation's indexes by
// dimension, a Σ's member), the head's value, and each node's operands.
type laneCode struct {
	fill laneExpr
	// out is the buffer of the head's value, bufs the buffers in all.
	out, bufs int
	// steps is the head's node count, the steps one element charges; height
	// the nesting its depth guards reach, checked against maxDepth (the
	// budget compiled into the closures; 0 when none).
	steps            int64
	height, maxDepth int
	// usesLoop is set when the head reads a loop variable: a Σ over a
	// collection fills its member lanes only then.
	usesLoop bool
}

// blockSite is a loop's head as the block form needs it: the head and the
// names in scope at it, whose last nloop are the loop's variables, with
// what the lowering resolves against. head is nil when its node kinds rule
// the block form out. The form is lowered once, on first use (code), and
// is nil when the head is not a lane expression after all (an unbound or
// non-numeric name, a lazy or mis-ranked array, a node with a span at the
// lowering's level: such a head keeps its closures, so span counts stay
// exact).
type blockSite struct {
	head     ast.Expr
	scope    []string
	nloop    int
	globals  map[string]object.Value
	params   *paramTable
	prof     *eval.SpanPlan
	maxDepth int

	once sync.Once
	code *laneCode
	// scanned is set by the site's first scan when it ran on closures.
	scanned atomic.Bool
}

// initBlock records head, lowered by c with the loop's nloop variables
// innermost in scope, for its block form, when its node kinds allow one
// and it has no span of its own (full profiling spans every node).
func (b *blockSite) initBlock(c *compiler, head ast.Expr, nloop int) {
	if _, spanned := c.prof.ID(head); spanned || !laneShaped(head) {
		return
	}
	b.head, b.scope, b.nloop = head, slices.Clone(c.scope), nloop
	b.globals, b.params, b.prof, b.maxDepth = c.globals, c.params, c.prof, c.limits.MaxDepth
}

// laneShaped reports whether e is built only of a lane expression's node
// kinds: a check of kinds, not a lowering.
func laneShaped(e ast.Expr) bool {
	switch ast.KindOf(e) {
	case ast.KindNatLit, ast.KindRealLit, ast.KindVar, ast.KindParam:
		return true
	case ast.KindArith:
		n := e.(*ast.Arith)
		return laneShaped(n.L) && laneShaped(n.R)
	case ast.KindSubscript:
		n := e.(*ast.Subscript)
		if ast.KindOf(n.Arr) != ast.KindVar {
			return false
		}
		if tup, ok := n.Index.(*ast.Tuple); ok {
			return len(tup.Elems) == 2 && laneShaped(tup.Elems[0]) && laneShaped(tup.Elems[1])
		}
		return laneShaped(n.Index)
	}
	return false
}

// blockCode returns the block form for a scan of n elements, lowering it
// on first use; nil when the scan runs on closures.
func (b *blockSite) blockCode(n int) *laneCode {
	if b.head == nil {
		return nil
	}
	if n <= blockMin && !b.scanned.Load() {
		b.scanned.Store(true)
		return nil
	}
	b.once.Do(b.lower)
	return b.code
}

// lower lowers the head in the block form.
func (b *blockSite) lower() {
	lw := laneLowering{site: b, base: len(b.scope) - b.nloop, bufs: b.nloop + 1}
	fill, height := lw.node(b.head)
	if fill == nil {
		return
	}
	b.code = &laneCode{fill: fill, out: b.nloop, bufs: lw.bufs, steps: lw.steps, height: height, maxDepth: b.maxDepth, usesLoop: lw.usesLoop}
}

// fits reports whether a block of w elements may run in lanes on m: its
// depth guards would not trip, nor would its steps cross a step budget. A
// fan-out worker under a step budget knows the total only to within the
// other workers' unpublished steps, which a block would multiply, so its
// blocks run on closures.
func (c *laneCode) fits(m *machine, w int) bool {
	if c.maxDepth > 0 && m.depth+c.height > c.maxDepth {
		return false
	}
	l := m.limits.MaxSteps
	return l <= 0 || m.parent == nil && eval.SatAdd(m.baseSteps, m.used.Steps+c.steps*int64(w)) <= l
}

// laneLowering is the state of one block-form lowering: slots at or above
// base are the loop's variables; bufs counts the scratch buffers assigned
// and steps the nodes lowered.
type laneLowering struct {
	site     *blockSite
	base     int
	bufs     int
	steps    int64
	usesLoop bool
}

// buf assigns the next scratch buffer.
func (lw *laneLowering) buf() int {
	lw.bufs++
	return lw.bufs - 1
}

// node lowers e in the block form and returns it with the nesting of its
// subtree; nil when e is not a lane expression.
func (lw *laneLowering) node(e ast.Expr) (laneExpr, int) {
	if _, spanned := lw.site.prof.ID(e); spanned {
		return nil, 0
	}
	lw.steps++
	switch n := e.(type) {
	case *ast.NatLit:
		return constLanes(object.Nat(n.Val)), 1
	case *ast.RealLit:
		return constLanes(object.Real(n.Val)), 1
	case *ast.Var:
		if slot, ok := lookup(lw.site.scope, n.Name); ok {
			if d := slot - lw.base; d >= 0 {
				lw.usesLoop = true
				return loopLanes(d), 1
			}
			return slotLanes(slot), 1
		}
		if g, ok := lw.site.globals[n.Name]; ok && (g.Kind == object.KNat || g.Kind == object.KReal) {
			return constLanes(g), 1
		}
	case *ast.Param:
		if idx, ok := lw.site.params.index[n.Name]; ok {
			return paramLanes(idx), 1
		}
	case *ast.Arith:
		l, hl := lw.node(n.L)
		r, hr := lw.node(n.R)
		if l == nil || r == nil {
			return nil, 0
		}
		return arithLanes(n.Op, l, r, lw.buf(), lw.buf()), 1 + max(hl, hr)
	case *ast.Subscript:
		return lw.subscript(n)
	}
	return nil, 0
}

// subscript lowers a[i] or a[(i, j)] over a global array that is eager,
// of the index's rank.
func (lw *laneLowering) subscript(n *ast.Subscript) (laneExpr, int) {
	name := n.Arr.(*ast.Var).Name
	if _, spanned := lw.site.prof.ID(n.Arr); spanned {
		return nil, 0
	}
	if _, local := lookup(lw.site.scope, name); local {
		return nil, 0
	}
	a, ok := lw.site.globals[name]
	if !ok || a.Kind != object.KArray || a.Backing() != nil {
		return nil, 0
	}
	lw.steps++ // the array's read
	elems := a.Elems
	if tup, ok := n.Index.(*ast.Tuple); ok {
		if len(a.Shape) != 2 {
			return nil, 0
		}
		if _, spanned := lw.site.prof.ID(tup); spanned {
			return nil, 0
		}
		lw.steps++ // the tuple's own step
		i, hi := lw.node(tup.Elems[0])
		j, hj := lw.node(tup.Elems[1])
		if i == nil || j == nil {
			return nil, 0
		}
		return gather2(elems, a.Shape, i, j, lw.buf(), lw.buf()), 1 + max(1, 1+max(hi, hj))
	}
	if len(a.Shape) != 1 {
		return nil, 0
	}
	i, hi := lw.node(n.Index)
	if i == nil {
		return nil, 0
	}
	return gather1(elems, i, lw.buf()), 1 + max(1, hi)
}

// constLanes fills every lane with v, a nat or a real.
func constLanes(v object.Value) laneExpr {
	if v.Kind == object.KReal {
		x := v.R
		return func(_ *frame, w int, out *lanes) bool {
			fillLanes(out.reals(w), x)
			return true
		}
	}
	x := v.N
	return func(_ *frame, w int, out *lanes) bool {
		fillLanes(out.nats(w), x)
		return true
	}
}

// slotLanes fills every lane with the value of a slot the loop does not
// bind, which must be a number.
func slotLanes(slot int) laneExpr {
	return func(fr *frame, w int, out *lanes) bool {
		return valueLanes(&fr.slots[slot], w, out)
	}
}

// paramLanes fills every lane with the $name argument at idx, which must
// be supplied and a number.
func paramLanes(idx int) laneExpr {
	return func(fr *frame, w int, out *lanes) bool {
		ex := fr.ex
		return idx < len(ex.argOK) && ex.argOK[idx] && valueLanes(&ex.args[idx], w, out)
	}
}

// valueLanes fills out's first w lanes with *v; false when it is not a
// number.
func valueLanes(v *object.Value, w int, out *lanes) bool {
	switch v.Kind {
	case object.KNat:
		fillLanes(out.nats(w), v.N)
	case object.KReal:
		fillLanes(out.reals(w), v.R)
	default:
		return false
	}
	return true
}

func fillLanes[T int64 | float64](dst []T, x T) {
	for l := range dst {
		dst[l] = x
	}
}

// loopLanes copies the lanes of the loop's variable d, which the scan
// filled.
func loopLanes(d int) laneExpr {
	return func(fr *frame, w int, out *lanes) bool {
		src := &fr.m.scratch.bufs[d]
		if src.real {
			copy(out.reals(w), src.r[:w])
		} else {
			copy(out.nats(w), src.n[:w])
		}
		return true
	}
}

// arithLanes applies op lane by lane to l's and r's values, which it
// evaluates into scratch buffers bl and br: on two nats by the kernel's
// nat rule, otherwise on reals, a nat side promoted.
func arithLanes(op ast.ArithOp, l, r laneExpr, bl, br int) laneExpr {
	return func(fr *frame, w int, out *lanes) bool {
		sc := fr.m.scratch.bufs
		a, b := &sc[bl], &sc[br]
		if !l(fr, w, a) || !r(fr, w, b) {
			return false
		}
		if !a.real && !b.real {
			return natArith(op, out.nats(w), a.n[:w], b.n[:w])
		}
		return realArith(op, out.reals(w), a.promote(w), b.promote(w))
	}
}

// natArith sets o[l] = a[l] op b[l] on nats; false at the first ⊥.
func natArith(op ast.ArithOp, o, a, b []int64) bool {
	b = b[:len(a)]
	o = o[:len(a)]
	for l, p := range a {
		var x int64
		var bot *object.Value
		switch op {
		case ast.OpAdd:
			x, bot = eval.NatAdd(p, b[l])
		case ast.OpSub:
			x, bot = eval.NatSub(p, b[l])
		case ast.OpMul:
			x, bot = eval.NatMul(p, b[l])
		case ast.OpDiv:
			x, bot = eval.NatDiv(p, b[l])
		case ast.OpMod:
			x, bot = eval.NatMod(p, b[l])
		default:
			return false
		}
		if bot != nil {
			return false
		}
		o[l] = x
	}
	return true
}

// realArith sets o[l] = a[l] op b[l] on reals; false at the first ⊥.
func realArith(op ast.ArithOp, o, a, b []float64) bool {
	b = b[:len(a)]
	o = o[:len(a)]
	for l, p := range a {
		var x float64
		var bot *object.Value
		switch op {
		case ast.OpAdd:
			x, bot = eval.RealAdd(p, b[l])
		case ast.OpSub:
			x, bot = eval.RealSub(p, b[l])
		case ast.OpMul:
			x, bot = eval.RealMul(p, b[l])
		case ast.OpDiv:
			x, bot = eval.RealDiv(p, b[l])
		case ast.OpMod:
			x, bot = eval.RealMod(p, b[l])
		default:
			return false
		}
		if bot != nil {
			return false
		}
		o[l] = x
	}
	return true
}

// gather1 reads a 1-D array's cells at the nat lanes of i, evaluated into
// scratch buffer bi.
func gather1(elems []object.Value, i laneExpr, bi int) laneExpr {
	return func(fr *frame, w int, out *lanes) bool {
		ix := &fr.m.scratch.bufs[bi]
		return i(fr, w, ix) && !ix.real && gather(elems, ix.n[:w], out)
	}
}

// gather2 reads a 2-D array's cells at the nat lanes of i and j, evaluated
// into scratch buffers bi and bj, in bounds of shape.
func gather2(elems []object.Value, shape []int, i, j laneExpr, bi, bj int) laneExpr {
	rows, cols := uint64(shape[0]), int64(shape[1])
	return func(fr *frame, w int, out *lanes) bool {
		sc := fr.m.scratch.bufs
		ix, jx := &sc[bi], &sc[bj]
		if !i(fr, w, ix) || !j(fr, w, jx) || ix.real || jx.real {
			return false
		}
		offs, js := ix.n[:w], jx.n[:w]
		for l, r := range offs {
			c := js[l]
			if uint64(r) >= rows || c >= cols {
				return false
			}
			offs[l] = r*cols + c
		}
		return gather(elems, offs, out)
	}
}

// gather fills out with the cells of elems at offs: nats or reals, by the
// first cell's kind; false at an offset out of bounds or a cell of another
// kind. out may be the buffer offs lies in: each lane is read before it is
// written.
func gather(elems []object.Value, offs []int64, out *lanes) bool {
	if uint64(offs[0]) >= uint64(len(elems)) {
		return false
	}
	switch elems[offs[0]].Kind {
	case object.KNat:
		o := out.nats(len(offs))
		for l, off := range offs {
			if uint64(off) >= uint64(len(elems)) {
				return false
			}
			c := &elems[off]
			if c.Kind != object.KNat {
				return false
			}
			o[l] = c.N
		}
		return true
	case object.KReal:
		o := out.reals(len(offs))
		for l, off := range offs {
			if uint64(off) >= uint64(len(elems)) {
				return false
			}
			c := &elems[off]
			if c.Kind != object.KReal {
				return false
			}
			o[l] = c.R
		}
		return true
	}
	return false
}

// laneScratch is a machine's set of lane buffers. Sets outlive machines:
// a machine takes one from the free list on its first block and finish
// hands it back, so a prepared statement's executions reuse the buffers its
// earlier ones grew and allocate none per execution, whatever their size.
type laneScratch struct {
	bufs []lanes
}

// freeScratch holds the free lists of lane buffer sets, one per worker
// index (a root machine's is the first): the machines of one execution
// each take from their own list, so the sets an execution's workers grew
// are the next one's however their goroutines interleave. A list keeps at
// most maxFreeScratch sets; a machine that finds its list empty makes a
// set, and one handed back to a full list is dropped.
var freeScratch [8]struct {
	sync.Mutex
	sets []*laneScratch
}

const maxFreeScratch = 4

// blockScratch returns m's lane buffers, at least code's count of them.
func (m *machine) blockScratch(code *laneCode) []lanes {
	if m.scratch == nil {
		free := &freeScratch[m.worker%len(freeScratch)]
		free.Lock()
		if n := len(free.sets); n > 0 {
			m.scratch = free.sets[n-1]
			free.sets = free.sets[:n-1]
		}
		free.Unlock()
		if m.scratch == nil {
			m.scratch = new(laneScratch)
		}
	}
	s := m.scratch
	if len(s.bufs) < code.bufs {
		s.bufs = append(s.bufs, make([]lanes, code.bufs-len(s.bufs))...)
	}
	return s.bufs
}

// releaseScratch hands m's lane buffers back to the free list.
func (m *machine) releaseScratch() {
	if m.scratch == nil {
		return
	}
	free := &freeScratch[m.worker%len(freeScratch)]
	free.Lock()
	if len(free.sets) < maxFreeScratch {
		free.sets = append(free.sets, m.scratch)
	}
	free.Unlock()
	m.scratch = nil
}

// chargeBlock charges the steps of a block that ran in lanes, which its
// closures would have charged one at a time; fits has said they stay in
// the step budget. When they cross an InterruptInterval multiple it runs
// stepSlow's check once: a worker publishes its count, and an interrupt is
// reported.
func (m *machine) chargeBlock(steps int64) error {
	before := m.used.Steps
	m.used.Steps += steps
	if before/eval.InterruptInterval == m.used.Steps/eval.InterruptInterval {
		return nil
	}
	if m.parent != nil {
		m.syncSteps(m.used.Steps)
	}
	if m.ctx != nil || !m.deadline.IsZero() {
		return eval.CheckInterrupt(m.ctx, m.deadline, m.limits.Timeout)
	}
	return nil
}
