// Package eval implements the operational semantics of NRCA (figure 1 of
// the paper) over the complex-object library.
//
// Evaluation is strict: the error value ⊥ propagates through every construct
// except the untaken branch of a conditional. That exception is essential —
// the optimizer's β^p rule rewrites subscripts into
// "if e3 < e2 then ... else ⊥", which must not error when the bound check
// succeeds (section 5).
//
// The evaluator is openly extensible: registered external primitives and
// top-level vals are looked up in the Globals map, exactly as the paper's
// RegisterCO makes SML functions available to AQL queries (section 4.1).
package eval

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/object"
)

// Env is a persistent environment binding variables to values. The zero
// value (nil) is the empty environment.
type Env struct {
	name string
	val  object.Value
	next *Env
}

// Bind returns the environment extended with name = val.
func (e *Env) Bind(name string, val object.Value) *Env {
	return &Env{name: name, val: val, next: e}
}

// Lookup returns the value bound to name, innermost binding first.
func (e *Env) Lookup(name string) (object.Value, bool) {
	for ; e != nil; e = e.next {
		if e.name == name {
			return e.val, true
		}
	}
	return object.Value{}, false
}

// Evaluator evaluates core-calculus expressions. It carries the global
// environment (registered primitives, top-level vals) and a step counter used
// by the benchmark harness to report work in evaluator steps rather than
// wall-clock time.
type Evaluator struct {
	// Globals maps names of registered primitives and top-level vals to
	// their values. Lookup order is locals first, then Globals.
	Globals map[string]object.Value
	// MaxSteps, when positive, aborts evaluation after that many steps;
	// a guard against runaway queries in interactive use. Limits.MaxSteps
	// is honored as well; either tripping aborts the query.
	MaxSteps int64
	// Limits bounds the resources of this evaluation; the zero value is
	// unlimited. Exhaustion yields a *ResourceError.
	Limits Limits
	// Params holds the argument frame of a prepared query: the value of
	// each $name placeholder for this execution. An unbound placeholder is
	// an error only if evaluated, like an unbound variable.
	Params map[string]object.Value

	// The work counters are atomic because closures that escape an
	// evaluation (top-level vals of function type) capture ev, and the
	// compiled engine's parallel tabulation may call such a closure from
	// several workers at once. Snapshot them through Counters.
	//
	// Steps counts evaluated nodes. Cells counts collection/array cells
	// charged by constructors, tabulation, gen and index. Tabs counts
	// array tabulations performed (ArrayTab evaluations) — the
	// materializations the section 5 array rules exist to avoid. SetOps
	// counts set/bag algebra operations: unions, big unions, ranked
	// unions, gen and index. Iters counts comprehension loop-body
	// evaluations (big unions, ranked unions, summation) — the
	// intermediate-collection traffic of a query, on the same terms the
	// paper's section 5 measurements used.
	Steps  atomic.Int64
	Cells  atomic.Int64
	Tabs   atomic.Int64
	SetOps atomic.Int64
	Iters  atomic.Int64

	// ctx and deadline carry per-evaluation interrupt state; set by
	// EvalCtx and checked amortized in Eval.
	ctx      context.Context
	deadline time.Time
	// depth is the current Eval recursion depth, tracked only when
	// Limits.MaxDepth is set.
	depth int

	// profLevel selects operator-level span profiling for EvalExpr calls;
	// prof is the live accumulation context of the current EvalExpr and
	// lastSpans the folded tree of the most recent one. prof is cleared on
	// the way out of EvalExpr so escaped closures never touch stale state.
	profLevel ProfLevel
	prof      *ProfCtx
	lastSpans *SpanNode
}

// New returns an evaluator over the given globals (which may be nil).
func New(globals map[string]object.Value) *Evaluator {
	if globals == nil {
		globals = map[string]object.Value{}
	}
	return &Evaluator{Globals: globals}
}

// EvalCtx evaluates e in env under ctx: cancelling ctx, exceeding its
// deadline, or exceeding Limits.Timeout aborts evaluation with a
// *ResourceError. The interrupt checks are amortized over interruptInterval
// steps so the per-node cost of guarding stays negligible.
func (ev *Evaluator) EvalCtx(ctx context.Context, e ast.Expr, env *Env) (object.Value, error) {
	ev.ctx = ctx
	if ev.Limits.Timeout > 0 {
		ev.deadline = time.Now().Add(ev.Limits.Timeout)
	}
	// Clear the interrupt state on the way out: closures that escape this
	// evaluation (top-level vals of function type) capture ev, and a later
	// call through them must not observe a stale context or deadline.
	defer func() {
		ev.ctx = nil
		ev.deadline = time.Time{}
	}()
	return ev.Eval(e, env)
}

// checkInterrupt reports cancellation or deadline expiry as a
// *ResourceError; called amortized from Eval.
func (ev *Evaluator) checkInterrupt() error {
	return CheckInterrupt(ev.ctx, ev.deadline, ev.Limits.Timeout)
}

// chargeCells charges n cells against the cell budget, saturating rather
// than overflowing the counter. Constructors charge BEFORE allocating, so
// a budget violation aborts without the allocation ever happening.
func (ev *Evaluator) chargeCells(n int64) error {
	for {
		old := ev.Cells.Load()
		nw := old + n
		if n > math.MaxInt64-old {
			nw = math.MaxInt64
		}
		if ev.Cells.CompareAndSwap(old, nw) {
			if max := ev.Limits.MaxCells; max > 0 && nw > max {
				return &ResourceError{Kind: ResourceCells, Limit: max, Used: nw}
			}
			return nil
		}
	}
}

// Eval evaluates e in env. Language-level partiality (out-of-bounds
// subscripts, get on a non-singleton, division by zero) yields the ⊥ value;
// Go errors are reserved for conditions a well-typed query cannot produce
// (unbound variables, kind mismatches in external primitives) and for
// resource-budget exhaustion (*ResourceError).
func (ev *Evaluator) Eval(e ast.Expr, env *Env) (object.Value, error) {
	// The span hook sits outside the depth guard so profiled invocation
	// counts match the compiled engine, which wraps its profiling closure
	// around the depth-guarded node closure the same way.
	if p := ev.prof; p != nil {
		if id, ok := p.Plan.ID(e); ok {
			return ev.evalSpan(p, id, e, env)
		}
	}
	return ev.evalDepth(e, env)
}

// evalDepth applies the depth guard (when configured) and descends; the
// profiling hook in Eval dispatches here so a profiled node is not
// re-profiled.
func (ev *Evaluator) evalDepth(e ast.Expr, env *Env) (object.Value, error) {
	// Depth is checked outside the step charge so that a depth trip leaves
	// the tripping node's step uncharged — the compiled engine wraps its
	// step-charging node closures in a depth guard the same way, and the
	// two engines must report identical counters in every outcome.
	if max := ev.Limits.MaxDepth; max > 0 {
		ev.depth++
		if ev.depth > max {
			ev.depth--
			return object.Value{}, &ResourceError{Kind: ResourceDepth, Limit: int64(max), Used: int64(max) + 1}
		}
		v, err := ev.evalStep(e, env)
		ev.depth--
		return v, err
	}
	return ev.evalStep(e, env)
}

// evalStep charges one step, enforces the step budgets and the amortized
// interrupt check, then dispatches.
func (ev *Evaluator) evalStep(e ast.Expr, env *Env) (object.Value, error) {
	steps := ev.Steps.Add(1)
	if ev.MaxSteps > 0 && steps > ev.MaxSteps {
		return object.Value{}, &ResourceError{Kind: ResourceSteps, Limit: ev.MaxSteps, Used: steps}
	}
	if l := ev.Limits.MaxSteps; l > 0 && steps > l {
		return object.Value{}, &ResourceError{Kind: ResourceSteps, Limit: l, Used: steps}
	}
	if steps&(InterruptInterval-1) == 0 && (ev.ctx != nil || !ev.deadline.IsZero()) {
		if err := ev.checkInterrupt(); err != nil {
			return object.Value{}, err
		}
	}
	return ev.eval(e, env)
}

// eval dispatches on the node kind; the per-node guards live in Eval.
func (ev *Evaluator) eval(e ast.Expr, env *Env) (object.Value, error) {
	switch n := e.(type) {
	case *ast.Var:
		if v, ok := env.Lookup(n.Name); ok {
			return v, nil
		}
		if v, ok := ev.Globals[n.Name]; ok {
			return v, nil
		}
		return object.Value{}, fmt.Errorf("eval: unbound variable %q", n.Name)

	case *ast.Param:
		if v, ok := ev.Params[n.Name]; ok {
			return v, nil
		}
		return object.Value{}, fmt.Errorf("eval: unbound parameter $%s", n.Name)

	case *ast.Lam:
		// A closure over the current environment.
		body, param := n.Body, n.Param
		return object.Func(func(arg object.Value) (object.Value, error) {
			return ev.Eval(body, env.Bind(param, arg))
		}), nil

	case *ast.App:
		fn, err := ev.Eval(n.Fn, env)
		if err != nil {
			return object.Value{}, err
		}
		if fn.IsBottom() {
			return fn, nil
		}
		arg, err := ev.Eval(n.Arg, env)
		if err != nil {
			return object.Value{}, err
		}
		if arg.IsBottom() {
			return arg, nil
		}
		if fn.Kind != object.KFunc {
			return object.Value{}, fmt.Errorf("eval: application of non-function %s", fn.Kind)
		}
		return fn.Fn()(arg)

	case *ast.Tuple:
		elems := make([]object.Value, len(n.Elems))
		for i, x := range n.Elems {
			v, err := ev.Eval(x, env)
			if err != nil {
				return object.Value{}, err
			}
			if v.IsBottom() {
				return v, nil
			}
			elems[i] = v
		}
		return object.Tuple(elems...), nil

	case *ast.Proj:
		v, err := ev.Eval(n.Tuple, env)
		if err != nil {
			return object.Value{}, err
		}
		if v.IsBottom() {
			return v, nil
		}
		return v.Proj(n.I - 1)

	case *ast.EmptySet:
		return object.EmptySet, nil

	case *ast.Singleton:
		v, err := ev.Eval(n.Elem, env)
		if err != nil {
			return object.Value{}, err
		}
		if v.IsBottom() {
			return v, nil
		}
		if err := ev.chargeCells(1); err != nil {
			return object.Value{}, err
		}
		return object.Set(v), nil

	case *ast.Union:
		ev.SetOps.Add(1)
		l, err := ev.Eval(n.L, env)
		if err != nil {
			return object.Value{}, err
		}
		if l.IsBottom() {
			return l, nil
		}
		r, err := ev.Eval(n.R, env)
		if err != nil {
			return object.Value{}, err
		}
		if r.IsBottom() {
			return r, nil
		}
		if err := ev.chargeCells(int64(len(l.Elems) + len(r.Elems))); err != nil {
			return object.Value{}, err
		}
		return object.Union(l, r)

	case *ast.BigUnion:
		return ev.bigUnion(n.Head, n.Var, n.Over, env)

	case *ast.Get:
		s, err := ev.Eval(n.Set, env)
		if err != nil {
			return object.Value{}, err
		}
		if s.IsBottom() {
			return s, nil
		}
		return GetValue(s)

	case *ast.BoolLit:
		return object.Bool(n.Val), nil

	case *ast.If:
		c, err := ev.Eval(n.Cond, env)
		if err != nil {
			return object.Value{}, err
		}
		if c.IsBottom() {
			return c, nil
		}
		b, err := c.AsBool()
		if err != nil {
			return object.Value{}, fmt.Errorf("eval: if condition: %w", err)
		}
		if b {
			return ev.Eval(n.Then, env)
		}
		return ev.Eval(n.Else, env)

	case *ast.Cmp:
		l, err := ev.Eval(n.L, env)
		if err != nil {
			return object.Value{}, err
		}
		if l.IsBottom() {
			return l, nil
		}
		r, err := ev.Eval(n.R, env)
		if err != nil {
			return object.Value{}, err
		}
		if r.IsBottom() {
			return r, nil
		}
		return EvalCmp(n.Op, l, r)

	case *ast.NatLit:
		return object.Nat(n.Val), nil

	case *ast.RealLit:
		return object.Real(n.Val), nil

	case *ast.StringLit:
		return object.String_(n.Val), nil

	case *ast.Arith:
		l, err := ev.Eval(n.L, env)
		if err != nil {
			return object.Value{}, err
		}
		if l.IsBottom() {
			return l, nil
		}
		r, err := ev.Eval(n.R, env)
		if err != nil {
			return object.Value{}, err
		}
		if r.IsBottom() {
			return r, nil
		}
		return Arith(n.Op, l, r)

	case *ast.Gen:
		v, err := ev.Eval(n.N, env)
		if err != nil {
			return object.Value{}, err
		}
		if v.IsBottom() {
			return v, nil
		}
		m, err := v.AsNat()
		if err != nil {
			return object.Value{}, fmt.Errorf("eval: gen: %w", err)
		}
		ev.SetOps.Add(1)
		if err := ev.chargeCells(m); err != nil {
			return object.Value{}, err
		}
		return GenSet(m), nil

	case *ast.Sum:
		over, err := ev.Eval(n.Over, env)
		if err != nil {
			return object.Value{}, err
		}
		if over.IsBottom() {
			return over, nil
		}
		if over.Kind != object.KSet && over.Kind != object.KBag {
			return object.Value{}, fmt.Errorf("eval: sum over %s", over.Kind)
		}
		var acc SumAcc
		ev.Iters.Add(int64(len(over.Elems)))
		for _, x := range over.Elems {
			v, err := ev.Eval(n.Head, env.Bind(n.Var, x))
			if err != nil {
				return object.Value{}, err
			}
			if v.IsBottom() {
				return v, nil
			}
			if err := acc.Add(v); err != nil {
				return object.Value{}, err
			}
		}
		return acc.Value(), nil

	case *ast.ArrayTab:
		ev.Tabs.Add(1)
		shape := make([]int, len(n.Bounds))
		size := int64(1)
		for j, b := range n.Bounds {
			v, err := ev.Eval(b, env)
			if err != nil {
				return object.Value{}, err
			}
			if v.IsBottom() {
				return v, nil
			}
			m, err := v.AsNat()
			if err != nil {
				return object.Value{}, fmt.Errorf("eval: tabulation bound %d: %w", j+1, err)
			}
			shape[j] = int(m)
			if m > 0 && size > math.MaxInt64/m {
				size = math.MaxInt64 // saturate; the charge below will trip
			} else {
				size *= m
			}
		}
		// Charge the whole tabulation before Tabulate allocates it: this is
		// the fail-fast path for [[ ... | i < 10^9 ]] under a cell budget.
		if err := ev.chargeCells(size); err != nil {
			return object.Value{}, err
		}
		var bottom object.Value
		sawBottom := false
		arr, err := object.Tabulate(shape, func(idx []int) (object.Value, error) {
			e2 := env
			for j, name := range n.Idx {
				e2 = e2.Bind(name, object.Nat(int64(idx[j])))
			}
			v, err := ev.Eval(n.Head, e2)
			if err != nil {
				return object.Value{}, err
			}
			if v.IsBottom() && !sawBottom {
				bottom, sawBottom = v, true
			}
			return v, nil
		})
		if err != nil {
			return object.Value{}, err
		}
		if sawBottom {
			// An erroneous element makes the whole tabulation ⊥; this
			// strictness is why the δ^p rule is "sound only if e1 is
			// error-free" (section 5).
			return bottom, nil
		}
		return arr, nil

	case *ast.Subscript:
		a, err := ev.Eval(n.Arr, env)
		if err != nil {
			return object.Value{}, err
		}
		if a.IsBottom() {
			return a, nil
		}
		i, err := ev.Eval(n.Index, env)
		if err != nil {
			return object.Value{}, err
		}
		if i.IsBottom() {
			return i, nil
		}
		return object.SubValueCtx(ev.ctx, a, i)

	case *ast.Dim:
		a, err := ev.Eval(n.Arr, env)
		if err != nil {
			return object.Value{}, err
		}
		if a.IsBottom() {
			return a, nil
		}
		return CheckedDim(a, n.K)

	case *ast.Index:
		ev.SetOps.Add(1)
		s, err := ev.Eval(n.Set, env)
		if err != nil {
			return object.Value{}, err
		}
		if s.IsBottom() {
			return s, nil
		}
		return object.IndexChecked(s, n.K, ev.chargeCells)

	case *ast.MkArray:
		shape := make([]int, len(n.Dims))
		size := 1
		for j, d := range n.Dims {
			v, err := ev.Eval(d, env)
			if err != nil {
				return object.Value{}, err
			}
			if v.IsBottom() {
				return v, nil
			}
			m, err := v.AsNat()
			if err != nil {
				return object.Value{}, fmt.Errorf("eval: array literal dimension %d: %w", j+1, err)
			}
			shape[j] = int(m)
			size *= int(m)
		}
		if size != len(n.Elems) {
			// "This construct is undefined if the number of value
			// expressions doesn't match the product of the dimension
			// expressions" (section 3).
			return object.Bottom(fmt.Sprintf("array literal: %d values for shape %v", len(n.Elems), shape)), nil
		}
		if err := ev.chargeCells(int64(len(n.Elems))); err != nil {
			return object.Value{}, err
		}
		data := make([]object.Value, len(n.Elems))
		for i, x := range n.Elems {
			v, err := ev.Eval(x, env)
			if err != nil {
				return object.Value{}, err
			}
			if v.IsBottom() {
				return v, nil
			}
			data[i] = v
		}
		arr, err := object.Array(shape, data)
		if err != nil {
			return object.Value{}, err
		}
		return arr, nil

	case *ast.Bottom:
		return object.Bottom("explicit bottom"), nil

	case *ast.EmptyBag:
		return object.EmptyBag, nil

	case *ast.SingletonBag:
		v, err := ev.Eval(n.Elem, env)
		if err != nil {
			return object.Value{}, err
		}
		if v.IsBottom() {
			return v, nil
		}
		if err := ev.chargeCells(1); err != nil {
			return object.Value{}, err
		}
		return object.Bag(v), nil

	case *ast.BagUnion:
		ev.SetOps.Add(1)
		l, err := ev.Eval(n.L, env)
		if err != nil {
			return object.Value{}, err
		}
		if l.IsBottom() {
			return l, nil
		}
		r, err := ev.Eval(n.R, env)
		if err != nil {
			return object.Value{}, err
		}
		if r.IsBottom() {
			return r, nil
		}
		if err := ev.chargeCells(int64(len(l.Elems) + len(r.Elems))); err != nil {
			return object.Value{}, err
		}
		return object.BagUnion(l, r)

	case *ast.BigBagUnion:
		return ev.bigBagUnion(n.Head, n.Var, n.Over, env)

	case *ast.RankUnion:
		return ev.rankUnion(n.Head, n.Var, n.RankVar, n.Over, env, false)

	case *ast.RankBagUnion:
		return ev.rankUnion(n.Head, n.Var, n.RankVar, n.Over, env, true)
	}
	return object.Value{}, fmt.Errorf("eval: unhandled node %s", ast.NodeName(e))
}

// bigUnion evaluates ⋃{ head | var ∈ over }: it collects the element slices
// of all result sets and canonicalizes once, so a union of n singletons costs
// O(n log n) rather than O(n²).
func (ev *Evaluator) bigUnion(head ast.Expr, varName string, over ast.Expr, env *Env) (object.Value, error) {
	s, err := ev.Eval(over, env)
	if err != nil {
		return object.Value{}, err
	}
	if s.IsBottom() {
		return s, nil
	}
	if s.Kind != object.KSet {
		return object.Value{}, fmt.Errorf("eval: big union over %s", s.Kind)
	}
	ev.SetOps.Add(1)
	ev.Iters.Add(int64(len(s.Elems)))
	var all []object.Value
	for _, x := range s.Elems {
		v, err := ev.Eval(head, env.Bind(varName, x))
		if err != nil {
			return object.Value{}, err
		}
		if v.IsBottom() {
			return v, nil
		}
		if v.Kind != object.KSet {
			return object.Value{}, fmt.Errorf("eval: big union body produced %s", v.Kind)
		}
		if err := ev.chargeCells(int64(len(v.Elems))); err != nil {
			return object.Value{}, err
		}
		all = append(all, v.Elems...)
	}
	return object.Set(all...), nil
}

func (ev *Evaluator) bigBagUnion(head ast.Expr, varName string, over ast.Expr, env *Env) (object.Value, error) {
	s, err := ev.Eval(over, env)
	if err != nil {
		return object.Value{}, err
	}
	if s.IsBottom() {
		return s, nil
	}
	if s.Kind != object.KBag {
		return object.Value{}, fmt.Errorf("eval: big bag union over %s", s.Kind)
	}
	ev.SetOps.Add(1)
	ev.Iters.Add(int64(len(s.Elems)))
	var all []object.Value
	for _, x := range s.Elems {
		v, err := ev.Eval(head, env.Bind(varName, x))
		if err != nil {
			return object.Value{}, err
		}
		if v.IsBottom() {
			return v, nil
		}
		if v.Kind != object.KBag {
			return object.Value{}, fmt.Errorf("eval: big bag union body produced %s", v.Kind)
		}
		if err := ev.chargeCells(int64(len(v.Elems))); err != nil {
			return object.Value{}, err
		}
		all = append(all, v.Elems...)
	}
	return object.Bag(all...), nil
}

// rankUnion evaluates ⋃_r / ⊎_r (section 6): the collection is traversed in
// its canonical (sorted) order, binding the 1-based rank alongside each
// element. In the bag form, equal values receive consecutive ranks, which
// is exactly what position-in-sorted-order gives.
func (ev *Evaluator) rankUnion(head ast.Expr, varName, rankVar string, over ast.Expr, env *Env, bag bool) (object.Value, error) {
	s, err := ev.Eval(over, env)
	if err != nil {
		return object.Value{}, err
	}
	if s.IsBottom() {
		return s, nil
	}
	wantKind, wantName := object.KSet, "ranked union"
	if bag {
		wantKind, wantName = object.KBag, "ranked bag union"
	}
	if s.Kind != wantKind {
		return object.Value{}, fmt.Errorf("eval: %s over %s", wantName, s.Kind)
	}
	ev.SetOps.Add(1)
	ev.Iters.Add(int64(len(s.Elems)))
	var all []object.Value
	for i, x := range s.Elems {
		e2 := env.Bind(varName, x).Bind(rankVar, object.Nat(int64(i+1)))
		v, err := ev.Eval(head, e2)
		if err != nil {
			return object.Value{}, err
		}
		if v.IsBottom() {
			return v, nil
		}
		if v.Kind != wantKind {
			return object.Value{}, fmt.Errorf("eval: %s body produced %s", wantName, v.Kind)
		}
		if err := ev.chargeCells(int64(len(v.Elems))); err != nil {
			return object.Value{}, err
		}
		all = append(all, v.Elems...)
	}
	if bag {
		return object.Bag(all...), nil
	}
	return object.Set(all...), nil
}
