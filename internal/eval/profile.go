package eval

import (
	"fmt"
	"time"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/trace"
)

// Operator-level profiling: both engines attribute wall time, work counters
// and invocation counts to individual core-AST operators, producing a span
// tree per evaluation. The machinery here is engine-neutral — the span plan
// is built from the AST by a traversal both engines share, so the two
// engines produce structurally identical trees (same operators, same
// invocation counts) and only the timings differ.
//
// The cost model follows the profiling level:
//
//   - ProfOff: no plan is built and no closure is wrapped; the engines'
//     hot paths are byte-identical to unprofiled execution.
//   - ProfSampled: only the coarse operators (tabulations, subscripts, big
//     unions, conditionals, applications, ...) carry spans, and only one in
//     SampleInterval invocations of a span is fully measured; the rest pay
//     one increment. Reported times and counters are scaled estimates.
//   - ProfFull: every AST node carries a span and every invocation is
//     measured. Counter attribution is exact: the per-span self counters
//     sum to the engine's flat counters. A span below the root whose
//     subtree is only reads, literals, tuples, projections, arithmetic and
//     comparisons (cheapKind) is counted and its work attributed but not
//     timed: it runs in less time than the two clock reads timing it would
//     take, so it reports zero wall time and its time stays in the
//     enclosing span's self time.

// ProfLevel selects how much operator-level profiling an engine performs.
type ProfLevel int

const (
	// ProfOff disables span profiling entirely (the default).
	ProfOff ProfLevel = iota
	// ProfSampled profiles coarse operators, measuring one in
	// SampleInterval invocations.
	ProfSampled
	// ProfFull profiles every operator on every invocation.
	ProfFull
)

// SampleInterval is the sampling period of ProfSampled: invocation 1,
// 1+SampleInterval, 1+2·SampleInterval, ... of each span are measured.
// Must be a power of two (the sampling test is a mask).
const SampleInterval = 64

// sampleMask routes one in SampleInterval invocations to the measured path.
const sampleMask = SampleInterval - 1

// String renders the level as its flag/command spelling.
func (l ProfLevel) String() string {
	switch l {
	case ProfOff:
		return "off"
	case ProfSampled:
		return "sampled"
	case ProfFull:
		return "full"
	}
	return fmt.Sprintf("ProfLevel(%d)", int(l))
}

// ParseProfLevel parses "off", "sampled" or "full".
func ParseProfLevel(s string) (ProfLevel, error) {
	switch s {
	case "off":
		return ProfOff, nil
	case "sampled":
		return ProfSampled, nil
	case "full":
		return ProfFull, nil
	}
	return ProfOff, fmt.Errorf("eval: unknown profiling level %q (have off, sampled, full)", s)
}

// spanWorthy reports whether the operator gets its own span at the level:
// everything at ProfFull; at ProfSampled the coarse operators whose cost
// dominates real queries — tabulation, subscripting, the comprehension and
// set-algebra loops, conditionals and application. Leaf nodes (variables,
// literals, arithmetic, tuples) are folded into their nearest profiled
// ancestor's self time.
func spanWorthy(e ast.Expr, level ProfLevel) bool {
	if level == ProfFull {
		return true
	}
	switch e.(type) {
	case *ast.ArrayTab, *ast.Subscript, *ast.MkArray, *ast.Dim,
		*ast.BigUnion, *ast.RankUnion, *ast.Sum, *ast.Gen, *ast.Index, *ast.If,
		*ast.App, *ast.Union, *ast.Get:
		return true
	}
	return false
}

// SpanPlan maps AST nodes to span identities: which operators carry a span
// at a level, and how those spans nest. It is immutable once built, so one
// plan serves any number of concurrent executions; what an execution
// measures lives on its ProfCtx. Both engines build their plan with
// NewSpanPlan over the same core expression, which is what guarantees
// structurally identical trees.
type SpanPlan struct {
	Level ProfLevel

	// ops[id] is span id's operator and parent[id] its parent's id (-1 for
	// the root). Ids are assigned in pre-order, so a parent's id is below
	// its children's and children appear in id order. timed[id] is false
	// for the cheap spans Enter and Exit count without reading the clock;
	// shared[id] is true when the walk reached the span's node more than
	// once (see Span).
	ops    []string
	parent []int
	timed  []bool
	shared []bool
	ids    map[ast.Expr]int
}

// maxWorkerSpans bounds the worker records kept per ArrayTab or Sum span (a
// loop inside a loop executes many times).
const maxWorkerSpans = 64

// NewSpanPlan builds the span plan for e at the given level. Shared
// subtrees (the optimizer may alias nodes) are planned once, at their first
// visit; both engines consult the same map, so attribution stays
// consistent. Returns nil at ProfOff.
func NewSpanPlan(e ast.Expr, level ProfLevel) *SpanPlan {
	if level == ProfOff || e == nil {
		return nil
	}
	p := &SpanPlan{Level: level, ids: make(map[ast.Expr]int)}
	p.walk(e, -1, true)
	return p
}

// walk plans e's subtree under span parent and reports whether the subtree
// is cheap (see cheapKind).
func (p *SpanPlan) walk(e ast.Expr, parent int, root bool) bool {
	if e == nil {
		return true
	}
	if id, seen := p.ids[e]; seen {
		p.shared[id] = true
		return cheapTree(e) // shared subtree: attributed at its first occurrence
	}
	id := -1
	if root || spanWorthy(e, p.Level) {
		id = len(p.ops)
		p.ids[e] = id
		p.ops = append(p.ops, ast.NodeName(e))
		p.parent = append(p.parent, parent)
		p.timed = append(p.timed, true)
		p.shared = append(p.shared, false)
		parent = id
	}
	cheap := cheapKind(e)
	var buf ast.Buf
	kids, _ := ast.Open(e, &buf)
	for _, kid := range kids {
		if !p.walk(kid, parent, false) {
			cheap = false
		}
	}
	if id > 0 {
		p.timed[id] = !cheap
	}
	return cheap
}

// cheapKind reports whether e's own work is a few instructions on values
// at hand: a read, a literal, a tuple, a projection, arithmetic or a
// comparison — no loop, no application, no allocation sized at run time,
// no array cell that could wait on I/O. A span over a subtree made only of
// such nodes is counted but not timed.
func cheapKind(e ast.Expr) bool {
	switch e.(type) {
	case *ast.Var, *ast.Param, *ast.NatLit, *ast.RealLit, *ast.BoolLit, *ast.StringLit,
		*ast.Tuple, *ast.Proj, *ast.Arith, *ast.Cmp:
		return true
	}
	return false
}

// cheapTree reports whether e's subtree is made only of cheapKind nodes.
func cheapTree(e ast.Expr) bool {
	if !cheapKind(e) {
		return false
	}
	var buf ast.Buf
	kids, _ := ast.Open(e, &buf)
	for _, kid := range kids {
		if !cheapTree(kid) {
			return false
		}
	}
	return true
}

// ID resolves an AST node to its span id.
func (p *SpanPlan) ID(e ast.Expr) (int, bool) {
	if p == nil {
		return 0, false
	}
	id, ok := p.ids[e]
	return id, ok
}

// Len is the number of spans in the plan.
func (p *SpanPlan) Len() int { return len(p.ops) }

// Span describes span id: its operator, its parent's id (-1 for the root)
// and whether it is shared, that is, the walk reached its node from more
// than one place (the optimizer may alias a subtree). A shared span is
// attributed at its first visit and accumulates the invocations of every
// context that reaches it. Every node of the expression carries a span at
// ProfFull, so there a node's span is shared exactly when the node has more
// than one incoming edge.
func (p *SpanPlan) Span(id int) (op string, parent int, shared bool) {
	return p.ops[id], p.parent[id], p.shared[id]
}

// SpanSlot accumulates one span's measurements: invocations, measured
// invocations, cumulative and self wall time, self work, and the
// parallel-worker records of an ArrayTab span. Its fields are plain ints
// because its ProfCtx has one owner.
type SpanSlot struct {
	Inv, Measured  int64
	WallNs, SelfNs int64
	Work           trace.EvalCounters

	Workers        []trace.WorkerSpan
	WorkersDropped int
}

// ProfCtx is everything one execution measures against a shared plan. It
// travels in the Meter of the evaluation measuring into it — on the compiled
// engine, in the machine — so exactly one goroutine owns it at a time: a
// function body applied by the query charges the query's context, whichever
// engine made the function, and each fan-out worker forks its own, merged
// back at join. ChildWallNs and Child implement self attribution
// (see Enter and Exit).
type ProfCtx struct {
	Plan  *SpanPlan
	Full  bool
	Slots []SpanSlot

	ChildWallNs int64
	Child       trace.EvalCounters
}

// Count counts one invocation of span id and reports whether it is a
// measured one: all of them at ProfFull, one in SampleInterval at
// ProfSampled. The unmeasured invocations pay this increment only.
func (p *ProfCtx) Count(id int) bool {
	s := &p.Slots[id]
	s.Inv++
	return p.Full || (s.Inv-1)&sampleMask == 0
}

// SpanFrame is what one measured invocation carries from Enter to Exit:
// when it started (monotonic nanoseconds, see monoNow), and that start time
// and the engine's counters, each less the context's Child* accumulator at
// that moment.
type SpanFrame struct {
	id   int
	t0   int64
	wall int64
	work trace.EvalCounters
}

// monoBase anchors monoNow.
var monoBase = time.Now()

// monoNow reads the monotonic clock alone: a span needs elapsed time only,
// and time.Now would also read the wall clock, which on some hosts costs
// more than everything else a measured invocation does.
func monoNow() int64 { return int64(time.Since(monoBase)) }

// Enter opens a measured invocation of span id in f: both engines' one span
// hook is Count, then Enter and Exit around the node. at is the engine's
// counters, read here and in Exit in place.
func (p *ProfCtx) Enter(f *SpanFrame, id int, at *trace.EvalCounters) {
	f.id = id
	c := &p.Child
	f.work = trace.EvalCounters{Steps: at.Steps - c.Steps, Cells: at.Cells - c.Cells, Tabulations: at.Tabulations - c.Tabulations,
		SetOps: at.SetOps - c.SetOps, Iterations: at.Iterations - c.Iterations}
	if p.Plan.timed[id] {
		f.t0 = monoNow()
		f.wall = f.t0 - p.ChildWallNs
	}
}

// Exit closes the invocation Enter opened. The span's cumulative time and
// work are the deltas since Enter. Each profiled child left the Child
// accumulators at their value on its entry plus its own cumulative figures,
// so their growth since Enter is what the children account for, and the
// span's self figures are the rest: the growth of clock (counters) less
// ChildWallNs (Child) since Enter, which is what the frame's offsets give.
// Exit leaves the accumulators the same way for the enclosing invocation:
// entry value plus this span's cumulative figures.
func (p *ProfCtx) Exit(f *SpanFrame, at *trace.EvalCounters) {
	s := &p.Slots[f.id]
	s.Measured++
	if p.Plan.timed[f.id] {
		t := monoNow()
		s.WallNs += t - f.t0
		s.SelfNs += t - p.ChildWallNs - f.wall
		p.ChildWallNs = t - f.wall
	}
	settle(&s.Work, &p.Child, at, &f.work)
}

// settle adds at - *child - *base to *work and leaves *child at at - *base:
// Exit's work attribution, field by field, because the Counters temporaries
// of the Add/Sub form are spilled and reloaded on every measured invocation.
func settle(work, child, at, base *trace.EvalCounters) {
	work.Steps += at.Steps - child.Steps - base.Steps
	work.Cells += at.Cells - child.Cells - base.Cells
	work.Tabulations += at.Tabulations - child.Tabulations - base.Tabulations
	work.SetOps += at.SetOps - child.SetOps - base.SetOps
	work.Iterations += at.Iterations - child.Iterations - base.Iterations
	child.Steps = at.Steps - base.Steps
	child.Cells = at.Cells - base.Cells
	child.Tabulations = at.Tabulations - base.Tabulations
	child.SetOps = at.SetOps - base.SetOps
	child.Iterations = at.Iterations - base.Iterations
}

// NewProfCtx returns the root accumulation context for a plan (nil plan
// gives nil context).
func NewProfCtx(plan *SpanPlan) *ProfCtx {
	if plan == nil {
		return nil
	}
	return &ProfCtx{Plan: plan, Full: plan.Level == ProfFull, Slots: make([]SpanSlot, len(plan.ops))}
}

// Fork returns a fresh context over the same plan for a parallel worker.
func (p *ProfCtx) Fork() *ProfCtx {
	if p == nil {
		return nil
	}
	return &ProfCtx{Plan: p.Plan, Full: p.Full, Slots: make([]SpanSlot, len(p.Slots))}
}

// MergeWorker folds a worker context into p at join: per-span measurements
// add slot-wise, and the worker's top-level attributed totals (its residual
// Child* accumulators) feed p's open invocation so the enclosing span's
// self excludes work already attributed inside the worker.
func (p *ProfCtx) MergeWorker(w *ProfCtx) {
	if p == nil || w == nil {
		return
	}
	for i := range w.Slots {
		ws, ps := &w.Slots[i], &p.Slots[i]
		ps.Inv += ws.Inv
		ps.Measured += ws.Measured
		ps.WallNs += ws.WallNs
		ps.SelfNs += ws.SelfNs
		ps.Work = ps.Work.Add(ws.Work)
	}
	p.ChildWallNs += w.ChildWallNs
	p.Child = p.Child.Add(w.Child)
}

// RecordWorkers appends parallel-worker records to span id of plan, keeping
// at most maxWorkerSpans per span and counting the rest. Records for another
// plan's span are dropped: the loop belongs to a function another execution
// made, and its span id means nothing in p.
func (p *ProfCtx) RecordWorkers(plan *SpanPlan, id int, ws []trace.WorkerSpan) {
	if p == nil || p.Plan != plan || id < 0 {
		return
	}
	s := &p.Slots[id]
	for i, w := range ws {
		if len(s.Workers) >= maxWorkerSpans {
			s.WorkersDropped += len(ws) - i
			break
		}
		s.Workers = append(s.Workers, w)
	}
}

// Fold builds the execution's span tree from the plan's shape and the
// accumulated slots, and returns its root. At ProfSampled the wall times and
// counters are scaled from the measured sample to estimate the full
// population; WallSelf is clamped at zero.
func (p *ProfCtx) Fold() *trace.SpanNode {
	if p == nil {
		return nil
	}
	nodes := make([]trace.SpanNode, len(p.Slots))
	for i := range nodes {
		s, sp := &p.Slots[i], &nodes[i]
		inv, measured := s.Inv, s.Measured
		scale := 1.0
		if measured > 0 && inv > measured {
			scale = float64(inv) / float64(measured)
		}
		est := func(v int64) int64 {
			if v <= 0 || scale == 1.0 {
				return max(v, 0)
			}
			return int64(float64(v) * scale)
		}
		*sp = trace.SpanNode{
			Op:             p.Plan.ops[i],
			Invocations:    inv,
			Measured:       measured,
			WallCum:        time.Duration(est(s.WallNs)),
			WallSelf:       time.Duration(est(s.SelfNs)),
			Steps:          est(s.Work.Steps),
			Cells:          est(s.Work.Cells),
			Tabulations:    est(s.Work.Tabulations),
			SetOps:         est(s.Work.SetOps),
			Iterations:     est(s.Work.Iterations),
			Workers:        s.Workers,
			WorkersDropped: s.WorkersDropped,
		}
		if par := p.Plan.parent[i]; par >= 0 {
			nodes[par].Children = append(nodes[par].Children, sp)
		}
	}
	return &nodes[0]
}

// SetProfiling selects the span-profiling level for subsequent EvalExpr
// calls.
func (ev *Evaluator) SetProfiling(l ProfLevel) { ev.profLevel = l }

// Profiling reports the interpreter's profiling level.
func (ev *Evaluator) Profiling() ProfLevel { return ev.profLevel }

// SpanTree returns the span tree of the most recent EvalExpr, or nil when
// profiling was off.
func (ev *Evaluator) SpanTree() *trace.SpanNode { return ev.lastSpans }

// evalSpan is the interpreter's span wrapper around one profiled node.
func (ev *Evaluator) evalSpan(p *ProfCtx, id int, e ast.Expr, env *Env) (object.Value, error) {
	if !p.Count(id) {
		return ev.evalDepth(e, env)
	}
	var f SpanFrame
	p.Enter(&f, id, &ev.Used)
	v, err := ev.evalDepth(e, env)
	p.Exit(&f, &ev.Used)
	return v, err
}
