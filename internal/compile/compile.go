// Package compile is the compiled execution engine: it lowers optimized
// NRCA core expressions into Go closures (compiledExpr) connected by direct
// calls, with a resolve pass that replaces the interpreter's name-searched
// environment lookup by integer slot indices into a flat frame. A lowered
// query is a Program (program.go); every execution — a session's bare query,
// a prepared statement, a served plan, a profiled run — is one Run of one.
//
// The engine is observationally identical to the tree-walking interpreter
// (eval.Evaluator), which is its differential oracle: same values byte for
// byte in the exchange format, same ⊥ diagnostics, same error strings, same
// step/cell/tabulation counters, same span trees. The differential tests at
// the module root hold the two engines to that contract over the full
// construct corpus.
//
// What makes it faster:
//
//   - Dispatch happens once, at compile time. Executing a node is one
//     indirect call instead of a type switch, and the per-node step charge
//     is an inlined counter bump whose budget checks are compiled out when
//     no step budget is configured.
//   - Variable access is fr.slots[i] instead of walking an Env linked list,
//     and loop constructs (big unions, summation, tabulation) rebind their
//     variable by overwriting one slot instead of allocating an Env node
//     per iteration.
//   - Globals are resolved at compile time against the Program's immutable
//     snapshot of them.
//   - Numbers travel between nodes unboxed (scalar.go): reads, literals,
//     arithmetic, comparison, conditionals, subscripts and summation return
//     a 32-byte scalar instead of an 80-byte object.Value, and an eager
//     array cell is read in place.
//   - gen!m is a counted range (scalar.go): Σ and the big unions count
//     through it, and only a consumer that needs the set builds it.
//   - A tabulation or a Σ whose work — its elements times the steps per
//     element its last scan measured, at least 8 — reaches 8 ×
//     DefaultThreshold (ExecOpts.Threshold) fans out across GOMAXPROCS
//     workers (see tab.go); elements are pure in the index valuation or
//     the member, which makes the split sound, and eval.SumAcc's one
//     summation order makes a split Σ's bits the serial ones.
package compile

import (
	"fmt"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/object"
)

// compiledExpr is the unit of compiled code in the boxed form: evaluate in
// a frame, yielding a value or an error, with ⊥ passed as a value exactly as
// in the interpreter. Every compiled node charges its own step as its first
// action, mirroring the interpreter's per-node guard in Eval. Numeric node
// kinds are lowered to the scalar form instead (scalarExpr, scalar.go).
type compiledExpr func(fr *frame) (object.Value, error)

// DefaultThreshold is the size of a tabulation or a Σ, in elements of 8
// steps, at or above which the engine fans element evaluation out across
// workers: a range fans out when its elements times its site's measured
// steps per element (at least 8) reach 8 × DefaultThreshold steps, so a
// site that has not run yet fans out at DefaultThreshold elements. Below it
// the work rarely amortizes goroutine startup and result stitching.
const DefaultThreshold = 8192

// compiler is the resolve pass state: scope is the stack of bound variable
// names, and a name's slot is its position in scope at bind time. maxSlots
// is the high-water mark, i.e. the frame size the compiled code needs, and
// parks the number of park slots its sites reserved (see frame.hold).
type compiler struct {
	globals  map[string]object.Value
	limits   eval.Limits
	scope    []string
	maxSlots int
	parks    int
	// sites counts the subscript sites lowered so far, function bodies
	// included (a sub-compiler continues the count and hands it back): a
	// site's number indexes the machine's tile cursors, which the function
	// bodies of an execution share.
	sites int
	// prof is the lowering's span plan (nil at ProfOff); compile wraps
	// every planned node in a span-recording closure.
	prof *eval.SpanPlan
	// params is the program-wide placeholder table, shared by pointer with
	// every sub-compiler so one $name resolves to one argument-frame index.
	params *paramTable
	// rootTab is set once the tabulation at the end of the root let chain
	// is lowered (see lower).
	rootTab bool
}

// bind pushes a binder and returns its slot.
func (c *compiler) bind(name string) int {
	c.scope = append(c.scope, name)
	if len(c.scope) > c.maxSlots {
		c.maxSlots = len(c.scope)
	}
	return len(c.scope) - 1
}

// unbind pops the n innermost binders.
func (c *compiler) unbind(n int) { c.scope = c.scope[:len(c.scope)-n] }

// lookup resolves a name to its slot, innermost binding first.
func (c *compiler) lookup(name string) (int, bool) {
	for i := len(c.scope) - 1; i >= 0; i-- {
		if c.scope[i] == name {
			return i, true
		}
	}
	return 0, false
}

// compile lowers e to a closure in the boxed form: a numeric node kind is
// lowered in the scalar form behind the box adapter, any other directly.
func (c *compiler) compile(e ast.Expr) compiledExpr { return c.lower(e, false) }

// lower is compile for e on the program's root let chain when spine is
// set: the program's expression, and the body of each let (App{Lam, bound})
// on the chain. The tabulation that ends the chain answers the execution's
// range request (range.go); it is found by this position, not by node
// identity, since the optimizer may alias nodes.
func (c *compiler) lower(e ast.Expr, spine bool) compiledExpr {
	if op := c.lowerScalar(e); op != nil {
		return boxed(wrap(c, e, op))
	}
	return wrap(c, e, c.compileNode(e, spine))
}

// compileScalar lowers e to a closure in the scalar form: a numeric node
// kind directly, any other in the boxed form behind the unbox adapter.
func (c *compiler) compileScalar(e ast.Expr) scalarExpr {
	if op := c.lowerScalar(e); op != nil {
		return wrap(c, e, op)
	}
	return c.unboxed(wrap(c, e, c.compileNode(e, false)))
}

// compileNode lowers one node of a non-numeric kind in the boxed form, on
// the root let chain when spine is set (see lower). Counter-charging
// points, kind checks, ⊥ propagation and error strings follow
// eval.Evaluator.eval case by case; any divergence there is a bug that the
// differential suite is designed to catch.
func (c *compiler) compileNode(e ast.Expr, spine bool) compiledExpr {
	switch n := e.(type) {
	case *ast.Lam:
		return c.compileLam(n, false)

	case *ast.App:
		var fn compiledExpr
		if lam, ok := n.Fn.(*ast.Lam); ok && spine {
			fn = wrap(c, n.Fn, c.compileLam(lam, true))
		} else {
			fn = c.compile(n.Fn)
		}
		arg := c.compile(n.Arg)
		return func(fr *frame) (object.Value, error) {
			if err := fr.m.step(); err != nil {
				return object.Value{}, err
			}
			f, err := fn(fr)
			if err != nil {
				return object.Value{}, err
			}
			if f.IsBottom() {
				return f, nil
			}
			a, err := arg(fr)
			if err != nil {
				return object.Value{}, err
			}
			if a.IsBottom() {
				return a, nil
			}
			if f.Kind != object.KFunc {
				return object.Value{}, fmt.Errorf("eval: application of non-function %s", f.Kind)
			}
			// A function body is the applying query's work: this engine's
			// closures run on the applying machine, the interpreter's
			// through Apply on a meter built from it, primitives through Fn.
			switch cl := f.Code().(type) {
			case *closure:
				return cl.call(fr.m, a)
			case eval.Applier:
				return fr.m.apply(cl, a)
			}
			if a, err = eval.Materialize(fr.m.ctx, a, fr.m.chargeAlloc); err != nil {
				return object.Value{}, err
			}
			return f.Fn()(a)
		}

	case *ast.Tuple:
		elems := make([]compiledExpr, len(n.Elems))
		for i, x := range n.Elems {
			elems[i] = c.compile(x)
		}
		return func(fr *frame) (object.Value, error) {
			if err := fr.m.step(); err != nil {
				return object.Value{}, err
			}
			vs := make([]object.Value, len(elems))
			for i, el := range elems {
				v, err := el(fr)
				if err != nil {
					return object.Value{}, err
				}
				if v.IsBottom() {
					return v, nil
				}
				vs[i] = v
			}
			return object.Tuple(vs...), nil
		}

	case *ast.Proj:
		tup := c.compile(n.Tuple)
		i := n.I - 1
		return func(fr *frame) (object.Value, error) {
			if err := fr.m.step(); err != nil {
				return object.Value{}, err
			}
			v, err := tup(fr)
			if err != nil {
				return object.Value{}, err
			}
			if v.IsBottom() {
				return v, nil
			}
			return v.Proj(i)
		}

	case *ast.Empty:
		empty := eval.CollOf(n.Bag).Empty
		return func(fr *frame) (object.Value, error) {
			if err := fr.m.step(); err != nil {
				return object.Value{}, err
			}
			return empty, nil
		}

	case *ast.Singleton:
		elem, mk := c.compile(n.Elem), eval.CollOf(n.Bag).Make
		return func(fr *frame) (object.Value, error) {
			if err := fr.m.step(); err != nil {
				return object.Value{}, err
			}
			v, err := elem(fr)
			if err != nil {
				return object.Value{}, err
			}
			if v.IsBottom() {
				return v, nil
			}
			if err := fr.m.chargeCells(1); err != nil {
				return object.Value{}, err
			}
			if v, err = eval.Materialize(fr.m.ctx, v, fr.m.chargeAlloc); err != nil {
				return object.Value{}, err
			}
			return mk(v), nil
		}

	case *ast.Union:
		l, r, merge := c.compile(n.L), c.compile(n.R), eval.CollOf(n.Bag).Union
		return func(fr *frame) (object.Value, error) {
			if err := fr.m.step(); err != nil {
				return object.Value{}, err
			}
			// The set-op charge precedes the operand evaluations, matching
			// the interpreter.
			fr.m.used.SetOps++
			lv, err := l(fr)
			if err != nil {
				return object.Value{}, err
			}
			if lv.IsBottom() {
				return lv, nil
			}
			rv, err := r(fr)
			if err != nil {
				return object.Value{}, err
			}
			if rv.IsBottom() {
				return rv, nil
			}
			if err := fr.m.chargeCells(int64(len(lv.Elems) + len(rv.Elems))); err != nil {
				return object.Value{}, err
			}
			return merge(lv, rv)
		}

	case *ast.BigUnion:
		return c.compileBigUnion(n.Head, n.Var, "", n.Over, eval.CollOf(n.Bag))

	case *ast.RankUnion:
		return c.compileBigUnion(n.Head, n.Var, n.RankVar, n.Over, eval.CollOf(n.Bag))

	case *ast.Get:
		set := c.compile(n.Set)
		return func(fr *frame) (object.Value, error) {
			if err := fr.m.step(); err != nil {
				return object.Value{}, err
			}
			s, err := set(fr)
			if err != nil {
				return object.Value{}, err
			}
			if s.IsBottom() {
				return s, nil
			}
			return eval.GetValue(s)
		}

	case *ast.StringLit:
		v := object.String_(n.Val)
		return func(fr *frame) (object.Value, error) {
			if err := fr.m.step(); err != nil {
				return object.Value{}, err
			}
			return v, nil
		}

	case *ast.ArrayTab:
		c.rootTab = c.rootTab || spine
		return c.compileArrayTab(n, spine)

	case *ast.Dim:
		arr := c.compile(n.Arr)
		k := n.K
		return func(fr *frame) (object.Value, error) {
			if err := fr.m.step(); err != nil {
				return object.Value{}, err
			}
			a, err := arr(fr)
			if err != nil {
				return object.Value{}, err
			}
			if a.IsBottom() {
				return a, nil
			}
			return eval.CheckedDim(a, k)
		}

	case *ast.Index:
		set := c.compile(n.Set)
		k := n.K
		return func(fr *frame) (object.Value, error) {
			if err := fr.m.step(); err != nil {
				return object.Value{}, err
			}
			fr.m.used.SetOps++
			s, err := set(fr)
			if err != nil {
				return object.Value{}, err
			}
			if s.IsBottom() {
				return s, nil
			}
			return object.IndexChecked(s, k, fr.m.chargeAlloc)
		}

	case *ast.MkArray:
		dims := make([]compiledExpr, len(n.Dims))
		for j, d := range n.Dims {
			dims[j] = c.compile(d)
		}
		elems := make([]compiledExpr, len(n.Elems))
		for i, x := range n.Elems {
			elems[i] = c.compile(x)
		}
		return func(fr *frame) (object.Value, error) {
			if err := fr.m.step(); err != nil {
				return object.Value{}, err
			}
			shape := make([]int, len(dims))
			size := 1
			for j, d := range dims {
				v, err := d(fr)
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
			if size != len(elems) {
				return object.Bottom(fmt.Sprintf("array literal: %d values for shape %v", len(elems), shape)), nil
			}
			if err := fr.m.chargeCells(int64(len(elems))); err != nil {
				return object.Value{}, err
			}
			data := make([]object.Value, len(elems))
			for i, el := range elems {
				v, err := el(fr)
				if err != nil {
					return object.Value{}, err
				}
				if v.IsBottom() {
					return v, nil
				}
				data[i] = v
			}
			return object.Array(shape, data)
		}

	case *ast.Bottom:
		return func(fr *frame) (object.Value, error) {
			if err := fr.m.step(); err != nil {
				return object.Value{}, err
			}
			return object.Bottom("explicit bottom"), nil
		}

	}

	name := ast.NodeName(e)
	return func(fr *frame) (object.Value, error) {
		if err := fr.m.step(); err != nil {
			return object.Value{}, err
		}
		return object.Value{}, fmt.Errorf("eval: unhandled node %s", name)
	}
}

// closure is the engine's record of a function value it made: the compiled
// body, the captured slots and the execution that made it. It rides the
// function value (object.FuncWithCode) so the App node can run the body on
// the applying machine instead of entering through Fn.
type closure struct {
	body             compiledExpr
	captured         []object.Value
	frameSize, parks int
	ex               *execution
}

// call runs the body on m with arg bound to the parameter slot, reading the
// maker's arguments.
func (cl *closure) call(m *machine, arg object.Value) (object.Value, error) {
	fr := makeFrame(m, cl.ex, cl.frameSize, cl.parks)
	copy(fr.slots, cl.captured)
	fr.slots[len(cl.captured)] = arg
	return cl.body(fr)
}

// Apply runs the body for a caller outside this engine (the interpreter, or
// Go code through Fn) on a machine of its own: it starts from mt's counters
// under mt's budgets, context, deadline and profiling context, fans out
// under the maker's config, and leaves what it charged on mt.
func (cl *closure) Apply(mt *eval.Meter, arg object.Value) (object.Value, error) {
	m := &machine{config: cl.ex.config, ctx: mt.Ctx, deadline: mt.Deadline, depth: mt.Depth, prof: mt.Prof}
	m.budget(mt.Limits)
	m.add(mt.Used)
	defer m.flushCursors()
	v, err := cl.call(m, arg)
	mt.Used = m.counters()
	return v, err
}

// compileLam performs closure conversion: the lambda's free variables that
// are locally bound get dedicated capture slots [0..ncap) in the body's
// frame layout, the parameter lands at slot ncap, and closure creation
// copies the captured slots by value. Copying is sound because frames are
// only mutated by rebinding a binder, and the interpreter's persistent
// environments likewise freeze the captured bindings at creation time.
// spine is set for a let's function on the root let chain, whose body
// continues the chain.
func (c *compiler) compileLam(n *ast.Lam, spine bool) compiledExpr {
	fv := ast.FreeVars(n)
	var capNames []string
	var capSlots []int
	seen := make(map[string]bool)
	for i := len(c.scope) - 1; i >= 0; i-- {
		name := c.scope[i]
		if seen[name] || !fv[name] {
			continue
		}
		seen[name] = true
		capNames = append(capNames, name)
		capSlots = append(capSlots, i)
	}
	sub := &compiler{globals: c.globals, limits: c.limits, prof: c.prof, params: c.params, sites: c.sites}
	sub.scope = append(sub.scope, capNames...)
	sub.scope = append(sub.scope, n.Param)
	sub.maxSlots = len(sub.scope)
	body := sub.lower(n.Body, spine)
	frameSize, parks := sub.maxSlots, sub.parks
	c.sites, c.rootTab = sub.sites, c.rootTab || sub.rootTab
	return func(fr *frame) (object.Value, error) {
		if err := fr.m.step(); err != nil {
			return object.Value{}, err
		}
		cl := &closure{body: body, captured: make([]object.Value, len(capSlots)), frameSize: frameSize, parks: parks, ex: fr.ex}
		for i, s := range capSlots {
			cl.captured[i] = fr.slots[s]
		}
		// Fn is the entry for Go code holding the value: each call runs
		// under the budgets the maker ran under, with no context (the
		// maker's is over).
		return object.FuncWithCode(func(arg object.Value) (object.Value, error) {
			return cl.Apply(&eval.Meter{Limits: cl.ex.limits}, arg)
		}, cl), nil
	}
}

// compileBigUnion lowers ⋃{ head | x ∈ over } in coll's form, over a
// collection or a range; with a rankVar, ⋃_r (section 6), whose canonical
// traversal binds the 1-based rank alongside each element (over a range,
// element i has rank i+1).
func (c *compiler) compileBigUnion(headE ast.Expr, varName, rankVar string, overE ast.Expr, coll *eval.Coll) compiledExpr {
	over := c.compileScalar(overE)
	slot := c.bind(varName)
	rankSlot, bound, name := -1, 1, coll.Loop
	if rankVar != "" {
		rankSlot, bound, name = c.bind(rankVar), 2, coll.RankedLoop
	}
	head := c.compile(headE)
	c.unbind(bound)
	return func(fr *frame) (object.Value, error) {
		if err := fr.m.step(); err != nil {
			return object.Value{}, err
		}
		s, err := over(fr)
		if err != nil || s.k == object.KBottom {
			return s.box(), err
		}
		kind, elems, n := s.members()
		if kind != coll.Kind {
			return object.Value{}, fmt.Errorf("eval: %s over %s", name, kind)
		}
		fr.m.used.SetOps++
		fr.m.used.Iterations += n
		var all []object.Value
		x := fr.loopVar(slot, elems)
		for i := int64(0); i < n; i++ {
			rebind(x, elems, i)
			if rankSlot >= 0 {
				fr.slots[rankSlot] = object.Nat(i + 1)
			}
			v, err := head(fr)
			if err != nil {
				return object.Value{}, err
			}
			if v.IsBottom() {
				return v, nil
			}
			if v.Kind != coll.Kind {
				return object.Value{}, fmt.Errorf("eval: %s body produced %s", name, v.Kind)
			}
			if err := fr.m.chargeCells(int64(len(v.Elems))); err != nil {
				return object.Value{}, err
			}
			all = append(all, v.Elems...)
		}
		return coll.Make(all...), nil
	}
}
