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
	"time"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/trace"
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

// Meter is what one evaluation carries: its interrupt state, budgets,
// recursion depth, the work it has charged and its profiling context. A
// function body is charged to, and bounded by, the meter of the query that
// applies it, whichever engine made the function (see Applier). A meter has
// one owner at a time, so nothing in it is atomic.
type Meter struct {
	// Ctx and Deadline are the interrupt state, checked amortized every
	// InterruptInterval steps and before large allocations.
	Ctx      context.Context
	Deadline time.Time
	// Limits bounds the resources of this evaluation; the zero value is
	// unlimited. Exhaustion yields a *ResourceError.
	Limits Limits
	// Depth is the current recursion depth, tracked only when
	// Limits.MaxDepth is set.
	Depth int
	// Used is the work charged so far.
	Used trace.EvalCounters
	// Prof is the span-profiling context the evaluation measures into; nil
	// when profiling is off.
	Prof *ProfCtx
}

// Applier is the record a function value carries of its body in the engine
// that made it (object.Value.Code). Apply runs the body on arg, charging and
// bounded by m, and reading the globals and $name arguments of the execution
// that made the function. Both engines' closures implement it, so either
// engine can apply the other's functions on the applying query's account.
type Applier interface {
	Apply(m *Meter, arg object.Value) (object.Value, error)
}

// Evaluator evaluates core-calculus expressions. It carries the global
// environment (registered primitives, top-level vals), the argument frame
// and the meter of its evaluation.
type Evaluator struct {
	// Meter is this evaluation's; snapshot its counters through Counters.
	Meter
	// Globals maps names of registered primitives and top-level vals to
	// their values. Lookup order is locals first, then Globals.
	Globals map[string]object.Value
	// Params holds the argument frame of a prepared query: the value of
	// each $name placeholder for this execution. An unbound placeholder is
	// an error only if evaluated, like an unbound variable.
	Params map[string]object.Value

	// sc is what closures made by the running code keep: Globals and
	// Params, or those of the closure whose body is running.
	sc *scope

	// profLevel selects operator-level span profiling for EvalExpr calls;
	// lastSpans is the folded tree of the most recent one.
	profLevel ProfLevel
	lastSpans *trace.SpanNode
}

// scope is what a closure keeps of the evaluation that made it: the globals
// and $name arguments its body reads, and the budgets Go code calling it
// through Value.Fn runs it under.
type scope struct {
	globals, params map[string]object.Value
	limits          Limits
}

// scope returns the scope of the running code, built from the evaluator's
// own fields at first use.
func (ev *Evaluator) scope() *scope {
	if ev.sc == nil {
		ev.sc = &scope{ev.Globals, ev.Params, ev.Limits}
	}
	return ev.sc
}

// closure is the interpreter's record of a function value it made.
type closure struct {
	param string
	body  ast.Expr
	env   *Env
	sc    *scope
}

// Apply runs the body on an evaluator of its own that charges m: the entry
// for the compiled engine applying the function, and for Fn.
func (cl *closure) Apply(m *Meter, arg object.Value) (object.Value, error) {
	ev := &Evaluator{Meter: *m, sc: cl.sc}
	v, err := ev.Eval(cl.body, cl.env.Bind(cl.param, arg))
	*m = ev.Meter
	return v, err
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
	ev.Ctx, ev.Deadline, ev.sc = ctx, time.Time{}, nil
	if ev.Limits.Timeout > 0 {
		ev.Deadline = time.Now().Add(ev.Limits.Timeout)
	}
	return ev.Eval(e, env)
}

// checkInterrupt reports cancellation or deadline expiry as a
// *ResourceError; called amortized from Eval.
func (ev *Evaluator) checkInterrupt() error {
	return CheckInterrupt(ev.Ctx, ev.Deadline, ev.Limits.Timeout)
}

// chargeCells charges n cells against the cell budget, saturating rather
// than overflowing the counter. Constructors charge BEFORE allocating, so
// a budget violation aborts without the allocation ever happening.
func (ev *Evaluator) chargeCells(n int64) error {
	ev.Used.Cells = SatAdd(ev.Used.Cells, n)
	if max := ev.Limits.MaxCells; max > 0 && ev.Used.Cells > max {
		return &ResourceError{Kind: ResourceCells, Limit: max, Used: ev.Used.Cells}
	}
	return nil
}

// chargeAlloc is chargeCells for an allocation sized at run time (gen,
// tabulation, index): a large one polls for interrupts first, so a cancelled
// or timed-out query fails before allocating, not at its next step check,
// and one the runtime cannot make fails after its charge (CheckAlloc).
func (ev *Evaluator) chargeAlloc(n int64) error {
	if n >= InterruptInterval {
		if err := ev.checkInterrupt(); err != nil {
			return err
		}
	}
	if err := ev.chargeCells(n); err != nil {
		return err
	}
	return CheckAlloc(n)
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
	if p := ev.Prof; p != nil {
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
		ev.Depth++
		if ev.Depth > max {
			ev.Depth--
			return object.Value{}, &ResourceError{Kind: ResourceDepth, Limit: int64(max), Used: int64(max) + 1}
		}
		v, err := ev.evalStep(e, env)
		ev.Depth--
		return v, err
	}
	return ev.evalStep(e, env)
}

// evalStep charges one step, enforces the step budget and the amortized
// interrupt check, then dispatches.
func (ev *Evaluator) evalStep(e ast.Expr, env *Env) (object.Value, error) {
	ev.Used.Steps++
	steps := ev.Used.Steps
	if l := ev.Limits.MaxSteps; l > 0 && steps > l {
		return object.Value{}, &ResourceError{Kind: ResourceSteps, Limit: l, Used: steps}
	}
	if steps&(InterruptInterval-1) == 0 && (ev.Ctx != nil || !ev.Deadline.IsZero()) {
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
		if v, ok := ev.scope().globals[n.Name]; ok {
			return v, nil
		}
		return object.Value{}, fmt.Errorf("eval: unbound variable %q", n.Name)

	case *ast.Param:
		if v, ok := ev.scope().params[n.Name]; ok {
			return v, nil
		}
		return object.Value{}, fmt.Errorf("eval: unbound parameter $%s", n.Name)

	case *ast.Lam:
		// A closure over the current environment. Fn is the entry for Go
		// code holding the value: each call is an evaluation of its own under
		// the maker's budgets, with no context (the maker's is over).
		cl := &closure{param: n.Param, body: n.Body, env: env, sc: ev.scope()}
		return object.FuncWithCode(func(arg object.Value) (object.Value, error) {
			return cl.Apply(&Meter{Limits: cl.sc.limits}, arg)
		}, cl), nil

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
		// A function body is the applying query's work: this engine's
		// closures run on ev in their maker's scope, the compiled engine's
		// through Apply on ev's meter, primitives through Fn.
		switch cl := fn.Code().(type) {
		case *closure:
			sc := ev.scope()
			ev.sc = cl.sc
			v, err := ev.Eval(cl.body, cl.env.Bind(cl.param, arg))
			ev.sc = sc
			return v, err
		case Applier:
			return cl.Apply(&ev.Meter, arg)
		}
		if arg, err = Materialize(ev.Ctx, arg, ev.chargeAlloc); err != nil {
			return object.Value{}, err
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

	case *ast.Empty:
		return CollOf(n.Bag).Empty, nil

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
		if v, err = Materialize(ev.Ctx, v, ev.chargeAlloc); err != nil {
			return object.Value{}, err
		}
		return CollOf(n.Bag).Make(v), nil

	case *ast.Union:
		ev.Used.SetOps++
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
		return CollOf(n.Bag).Union(l, r)

	case *ast.BigUnion:
		return ev.bigUnion(n.Head, n.Var, "", n.Over, env, CollOf(n.Bag))

	case *ast.RankUnion:
		return ev.bigUnion(n.Head, n.Var, n.RankVar, n.Over, env, CollOf(n.Bag))

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
		return EvalCmp(ev.Ctx, ev.chargeAlloc, n.Op, l, r)

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
		ev.Used.SetOps++
		if err := ev.chargeAlloc(m); err != nil {
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
		ev.Used.Iterations += int64(len(over.Elems))
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
		ev.Used.Tabulations++
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
		if err := ev.chargeAlloc(size); err != nil {
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
		return object.SubValueCtx(ev.Ctx, a, i)

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
		ev.Used.SetOps++
		s, err := ev.Eval(n.Set, env)
		if err != nil {
			return object.Value{}, err
		}
		if s.IsBottom() {
			return s, nil
		}
		return object.IndexChecked(s, n.K, ev.chargeAlloc)

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
		if n.Index == nil {
			return object.Bottom("explicit bottom"), nil
		}
		vals := make([]object.Value, 0, len(n.Index)+len(n.Shape))
		for _, part := range [2][]ast.Expr{n.Index, n.Shape} {
			for _, x := range part {
				v, err := ev.Eval(x, env)
				if err != nil {
					return object.Value{}, err
				}
				if v.IsBottom() {
					return v, nil
				}
				vals = append(vals, v)
			}
		}
		return OutOfBounds(vals, len(n.Index))

	}
	return object.Value{}, fmt.Errorf("eval: unhandled node %s", ast.NodeName(e))
}

// Coll is what a collection construct needs at run time in its set form, or
// in its bag form: the value kind it reads and builds, its empty value, its
// constructor and binary union, and the names its errors give ⋃ and ⋃_r.
// The compiler picks one when it lowers a node and the interpreter when it
// evaluates one; either way the two forms share every case and loop.
type Coll struct {
	Kind             object.Kind
	Empty            object.Value
	Make             func(elems ...object.Value) object.Value
	Union            func(a, b object.Value) (object.Value, error)
	Loop, RankedLoop string
}

var colls = [2]Coll{
	{object.KSet, object.EmptySet, object.Set, object.Union, "big union", "ranked union"},
	{object.KBag, object.EmptyBag, object.Bag, object.BagUnion, "big bag union", "ranked bag union"},
}

// CollOf returns the set form's Coll, or the bag form's when bag.
func CollOf(bag bool) *Coll {
	if bag {
		return &colls[1]
	}
	return &colls[0]
}

// bigUnion evaluates ⋃{ head | x ∈ over } in coll's form; with a rankVar,
// ⋃_r (section 6), which binds the 1-based rank of x in the canonical
// (sorted) order alongside it, so equal values of a bag receive consecutive
// ranks. It collects the element slices of all results and canonicalizes
// once, so a union of n singletons costs O(n log n) rather than O(n²).
func (ev *Evaluator) bigUnion(head ast.Expr, x, rankVar string, over ast.Expr, env *Env, coll *Coll) (object.Value, error) {
	name := coll.Loop
	if rankVar != "" {
		name = coll.RankedLoop
	}
	s, err := ev.Eval(over, env)
	if err != nil {
		return object.Value{}, err
	}
	if s.IsBottom() {
		return s, nil
	}
	if s.Kind != coll.Kind {
		return object.Value{}, fmt.Errorf("eval: %s over %s", name, s.Kind)
	}
	ev.Used.SetOps++
	ev.Used.Iterations += int64(len(s.Elems))
	var all []object.Value
	for i, elem := range s.Elems {
		inner := env.Bind(x, elem)
		if rankVar != "" {
			inner = inner.Bind(rankVar, object.Nat(int64(i+1)))
		}
		v, err := ev.Eval(head, inner)
		if err != nil {
			return object.Value{}, err
		}
		if v.IsBottom() {
			return v, nil
		}
		if v.Kind != coll.Kind {
			return object.Value{}, fmt.Errorf("eval: %s body produced %s", name, v.Kind)
		}
		if err := ev.chargeCells(int64(len(v.Elems))); err != nil {
			return object.Value{}, err
		}
		all = append(all, v.Elems...)
	}
	return coll.Make(all...), nil
}
