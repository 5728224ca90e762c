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
//     snapshot of them, and arithmetic/comparison nodes carry a
//     natural-number fast path.
//   - Tabulations of at least DefaultThreshold cells (ExecOpts.Threshold)
//     fan out across GOMAXPROCS workers (see tab.go); elements are pure in the index
//     valuation, which makes the split sound.
package compile

import (
	"fmt"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/object"
)

// compiledExpr is the unit of compiled code: evaluate in a frame, yielding
// a value or an error, with ⊥ passed as a value exactly as in the
// interpreter. Every compiled node charges its own step as its first
// action, mirroring the interpreter's per-node guard in Eval.
type compiledExpr func(fr *frame) (object.Value, error)

// DefaultThreshold is the tabulation size, in cells, at or above which the
// engine fans element evaluation out across workers. Below it the
// per-element work rarely amortizes goroutine startup and result stitching.
const DefaultThreshold = 8192

// compiler is the resolve pass state: scope is the stack of bound variable
// names, and a name's slot is its position in scope at bind time. maxSlots
// is the high-water mark, i.e. the frame size the compiled code needs.
type compiler struct {
	globals  map[string]object.Value
	limits   eval.Limits
	scope    []string
	maxSlots int
	// prof is the lowering's span plan (nil at ProfOff); compile wraps
	// every planned node in a span-recording closure.
	prof *eval.SpanPlan
	// params is the program-wide placeholder table, shared by pointer with
	// every sub-compiler so one $name resolves to one argument-frame index.
	params *paramTable
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

// compile lowers e to a closure, adding the recursion-depth guard around
// every node when a depth limit is configured. The guard is a separate
// wrapper (rather than logic in the hot path) because depth limits are a
// debugging guardrail: the common case pays nothing for them.
func (c *compiler) compile(e ast.Expr) compiledExpr {
	op := c.compileNode(e)
	if max := c.limits.MaxDepth; max > 0 {
		inner := op
		op = func(fr *frame) (object.Value, error) {
			m := fr.m
			m.depth++
			if m.depth > max {
				m.depth--
				return object.Value{}, &eval.ResourceError{Kind: eval.ResourceDepth, Limit: int64(max), Used: int64(max) + 1}
			}
			v, err := inner(fr)
			m.depth--
			return v, err
		}
	}
	// The span wrapper sits outside the depth guard so profiled invocation
	// counts match the interpreter, whose span hook precedes its depth
	// check.
	if c.prof != nil {
		if id, ok := c.prof.ID(e); ok {
			op = profWrap(op, c.prof, id)
		}
	}
	return op
}

// compileNode lowers one node. Counter-charging points, kind checks, ⊥
// propagation and error strings follow eval.Evaluator.eval case by case;
// any divergence there is a bug that the differential suite is designed to
// catch.
func (c *compiler) compileNode(e ast.Expr) compiledExpr {
	switch n := e.(type) {
	case *ast.Var:
		if slot, ok := c.lookup(n.Name); ok {
			return func(fr *frame) (object.Value, error) {
				if err := fr.m.step(); err != nil {
					return object.Value{}, err
				}
				return fr.slots[slot], nil
			}
		}
		if v, ok := c.globals[n.Name]; ok {
			return func(fr *frame) (object.Value, error) {
				if err := fr.m.step(); err != nil {
					return object.Value{}, err
				}
				return v, nil
			}
		}
		name := n.Name
		return func(fr *frame) (object.Value, error) {
			if err := fr.m.step(); err != nil {
				return object.Value{}, err
			}
			return object.Value{}, fmt.Errorf("eval: unbound variable %q", name)
		}

	case *ast.Param:
		// A placeholder costs exactly what a literal leaf costs — one step,
		// no cells — so a prepared execution's counters are byte-identical
		// to the same query with the argument substituted as a literal.
		idx := c.params.slot(n.Name)
		name := n.Name
		return func(fr *frame) (object.Value, error) {
			if err := fr.m.step(); err != nil {
				return object.Value{}, err
			}
			if ex := fr.ex; idx < len(ex.argOK) && ex.argOK[idx] {
				return ex.args[idx], nil
			}
			return object.Value{}, fmt.Errorf("eval: unbound parameter $%s", name)
		}

	case *ast.Lam:
		return c.compileLam(n)

	case *ast.App:
		fn := c.compile(n.Fn)
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

	case *ast.EmptySet:
		return func(fr *frame) (object.Value, error) {
			if err := fr.m.step(); err != nil {
				return object.Value{}, err
			}
			return object.EmptySet, nil
		}

	case *ast.Singleton:
		elem := c.compile(n.Elem)
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
			return object.Set(v), nil
		}

	case *ast.Union:
		l, r := c.compile(n.L), c.compile(n.R)
		return func(fr *frame) (object.Value, error) {
			if err := fr.m.step(); err != nil {
				return object.Value{}, err
			}
			return binaryUnion(fr, l, r, object.Union)
		}

	case *ast.BigUnion:
		return c.compileBigUnion(n.Head, n.Var, n.Over, false)

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

	case *ast.BoolLit:
		v := object.Bool(n.Val)
		return func(fr *frame) (object.Value, error) {
			if err := fr.m.step(); err != nil {
				return object.Value{}, err
			}
			return v, nil
		}

	case *ast.If:
		cond := c.compile(n.Cond)
		then := c.compile(n.Then)
		els := c.compile(n.Else)
		return func(fr *frame) (object.Value, error) {
			if err := fr.m.step(); err != nil {
				return object.Value{}, err
			}
			cv, err := cond(fr)
			if err != nil {
				return object.Value{}, err
			}
			if cv.IsBottom() {
				return cv, nil
			}
			if cv.Kind != object.KBool {
				b, err := cv.AsBool()
				if err != nil {
					return object.Value{}, fmt.Errorf("eval: if condition: %w", err)
				}
				if b {
					return then(fr)
				}
				return els(fr)
			}
			if cv.B {
				return then(fr)
			}
			return els(fr)
		}

	case *ast.Cmp:
		l, r := c.compile(n.L), c.compile(n.R)
		op := n.Op
		return func(fr *frame) (object.Value, error) {
			if err := fr.m.step(); err != nil {
				return object.Value{}, err
			}
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
			// Natural-number fast path; object.Compare on two nats is
			// exactly this comparison.
			if lv.Kind == object.KNat && rv.Kind == object.KNat {
				a, b := lv.N, rv.N
				switch op {
				case ast.OpEq:
					return object.Bool(a == b), nil
				case ast.OpNe:
					return object.Bool(a != b), nil
				case ast.OpLt:
					return object.Bool(a < b), nil
				case ast.OpGt:
					return object.Bool(a > b), nil
				case ast.OpLe:
					return object.Bool(a <= b), nil
				case ast.OpGe:
					return object.Bool(a >= b), nil
				}
			}
			return eval.EvalCmp(op, lv, rv)
		}

	case *ast.NatLit:
		v := object.Nat(n.Val)
		return func(fr *frame) (object.Value, error) {
			if err := fr.m.step(); err != nil {
				return object.Value{}, err
			}
			return v, nil
		}

	case *ast.RealLit:
		v := object.Real(n.Val)
		return func(fr *frame) (object.Value, error) {
			if err := fr.m.step(); err != nil {
				return object.Value{}, err
			}
			return v, nil
		}

	case *ast.StringLit:
		v := object.String_(n.Val)
		return func(fr *frame) (object.Value, error) {
			if err := fr.m.step(); err != nil {
				return object.Value{}, err
			}
			return v, nil
		}

	case *ast.Arith:
		l, r := c.compile(n.L), c.compile(n.R)
		op := n.Op
		return func(fr *frame) (object.Value, error) {
			if err := fr.m.step(); err != nil {
				return object.Value{}, err
			}
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
			// Natural-number fast path, semantically identical to
			// eval.Arith's nat/nat case (monus, ⊥ on division by zero).
			if lv.Kind == object.KNat && rv.Kind == object.KNat {
				a, b := lv.N, rv.N
				switch op {
				case ast.OpAdd:
					return object.Nat(a + b), nil
				case ast.OpSub:
					if a < b {
						return object.Nat(0), nil
					}
					return object.Nat(a - b), nil
				case ast.OpMul:
					return object.Nat(a * b), nil
				case ast.OpDiv:
					if b == 0 {
						return object.Bottom("division by zero"), nil
					}
					return object.Nat(a / b), nil
				case ast.OpMod:
					if b == 0 {
						return object.Bottom("modulus by zero"), nil
					}
					return object.Nat(a % b), nil
				}
			}
			return eval.Arith(op, lv, rv)
		}

	case *ast.Gen:
		bound := c.compile(n.N)
		return func(fr *frame) (object.Value, error) {
			if err := fr.m.step(); err != nil {
				return object.Value{}, err
			}
			v, err := bound(fr)
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
			fr.m.setOps++
			if err := fr.m.chargeAlloc(m); err != nil {
				return object.Value{}, err
			}
			return eval.GenSet(m), nil
		}

	case *ast.Sum:
		over := c.compile(n.Over)
		slot := c.bind(n.Var)
		head := c.compile(n.Head)
		c.unbind(1)
		return func(fr *frame) (object.Value, error) {
			if err := fr.m.step(); err != nil {
				return object.Value{}, err
			}
			s, err := over(fr)
			if err != nil {
				return object.Value{}, err
			}
			if s.IsBottom() {
				return s, nil
			}
			if s.Kind != object.KSet && s.Kind != object.KBag {
				return object.Value{}, fmt.Errorf("eval: sum over %s", s.Kind)
			}
			var acc eval.SumAcc
			fr.m.iters += int64(len(s.Elems))
			for _, x := range s.Elems {
				fr.slots[slot] = x
				v, err := head(fr)
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
		}

	case *ast.ArrayTab:
		return c.compileArrayTab(n)

	case *ast.Subscript:
		arr := c.compile(n.Arr)
		// Matrix subscripts a[(e1,e2)] are fused: the index components feed
		// a direct offset computation without materializing the pair. Not
		// done under a depth limit, where the elided tuple node would skew
		// the depth accounting relative to the interpreter, nor at ProfFull,
		// where the elided tuple node must keep its span so both engines
		// report the same tree. (At ProfSampled the tuple carries no span
		// and the components are compiled through c.compile, keeping
		// theirs, so fusion stays.)
		if tup, ok := n.Index.(*ast.Tuple); ok && len(tup.Elems) == 2 && c.limits.MaxDepth == 0 &&
			(c.prof == nil || c.prof.Level != eval.ProfFull) {
			return c.compileSubscript2(arr, tup)
		}
		index := c.compile(n.Index)
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
			i, err := index(fr)
			if err != nil {
				return object.Value{}, err
			}
			if i.IsBottom() {
				return i, nil
			}
			// One-dimensional nat subscript fast path; object.SubValue
			// reaches the same element through IndexOf+flatten.
			if a.Kind == object.KArray && len(a.Shape) == 1 && i.Kind == object.KNat {
				if i.N >= int64(a.Shape[0]) {
					return object.Bottom(fmt.Sprintf("index [%d] out of bounds for shape %v", i.N, a.Shape)), nil
				}
				return a.CellAtCtx(fr.m.ctx, int(i.N))
			}
			return object.SubValueCtx(fr.m.ctx, a, i)
		}

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
			fr.m.setOps++
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

	case *ast.EmptyBag:
		return func(fr *frame) (object.Value, error) {
			if err := fr.m.step(); err != nil {
				return object.Value{}, err
			}
			return object.EmptyBag, nil
		}

	case *ast.SingletonBag:
		elem := c.compile(n.Elem)
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
			return object.Bag(v), nil
		}

	case *ast.BagUnion:
		l, r := c.compile(n.L), c.compile(n.R)
		return func(fr *frame) (object.Value, error) {
			if err := fr.m.step(); err != nil {
				return object.Value{}, err
			}
			return binaryUnion(fr, l, r, object.BagUnion)
		}

	case *ast.BigBagUnion:
		return c.compileBigUnion(n.Head, n.Var, n.Over, true)

	case *ast.RankUnion:
		return c.compileRankUnion(n.Head, n.Var, n.RankVar, n.Over, false)

	case *ast.RankBagUnion:
		return c.compileRankUnion(n.Head, n.Var, n.RankVar, n.Over, true)
	}

	name := ast.NodeName(e)
	return func(fr *frame) (object.Value, error) {
		if err := fr.m.step(); err != nil {
			return object.Value{}, err
		}
		return object.Value{}, fmt.Errorf("eval: unhandled node %s", name)
	}
}

// binaryUnion runs the shared shape of e1 ∪ e2 and e1 ⊎ e2: the set-op
// charge precedes the operand evaluations, matching the interpreter.
func binaryUnion(fr *frame, l, r compiledExpr, merge func(a, b object.Value) (object.Value, error)) (object.Value, error) {
	fr.m.setOps++
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

// compileSubscript2 lowers a[(e1,e2)] without materializing the index
// tuple: the components land in locals and feed a row-major offset
// directly. Step charges replicate the unfused shape exactly — one for the
// subscript node, one for the tuple node, then the components — and any
// case the fast path does not cover (non-array, non-nat components, higher
// arity) rebuilds the tuple and takes the interpreter's object.SubValue
// route, so diagnostics are identical.
func (c *compiler) compileSubscript2(arr compiledExpr, tup *ast.Tuple) compiledExpr {
	e0 := c.compile(tup.Elems[0])
	e1 := c.compile(tup.Elems[1])
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
		if err := fr.m.step(); err != nil { // the tuple node's step
			return object.Value{}, err
		}
		v0, err := e0(fr)
		if err != nil {
			return object.Value{}, err
		}
		if v0.IsBottom() {
			return v0, nil
		}
		v1, err := e1(fr)
		if err != nil {
			return object.Value{}, err
		}
		if v1.IsBottom() {
			return v1, nil
		}
		if a.Kind == object.KArray && len(a.Shape) == 2 && v0.Kind == object.KNat && v1.Kind == object.KNat {
			i, j := v0.N, v1.N
			if i < int64(a.Shape[0]) && j < int64(a.Shape[1]) {
				return a.CellAtCtx(fr.m.ctx, int(i*int64(a.Shape[1])+j))
			}
			return object.Bottom(fmt.Sprintf("index %v out of bounds for shape %v", []int{int(i), int(j)}, a.Shape)), nil
		}
		return object.SubValueCtx(fr.m.ctx, a, object.Tuple(v0, v1))
	}
}

// closure is the engine's record of a function value it made: the compiled
// body, the captured slots and the execution that made it. It rides the
// function value (object.FuncWithCode) so the App node can run the body on
// the applying machine instead of entering through Fn.
type closure struct {
	body      compiledExpr
	captured  []object.Value
	frameSize int
	ex        *execution
}

// call runs the body on m with arg bound to the parameter slot, reading the
// maker's arguments.
func (cl *closure) call(m *machine, arg object.Value) (object.Value, error) {
	slots := make([]object.Value, cl.frameSize)
	copy(slots, cl.captured)
	slots[len(cl.captured)] = arg
	return cl.body(&frame{m: m, ex: cl.ex, slots: slots})
}

// Apply runs the body for a caller outside this engine (the interpreter, or
// Go code through Fn) on a machine of its own: it starts from mt's counters
// under mt's budgets, context, deadline and profiling context, fans out
// under the maker's config, and leaves what it charged on mt.
func (cl *closure) Apply(mt *eval.Meter, arg object.Value) (object.Value, error) {
	m := &machine{config: cl.ex.config, ctx: mt.Ctx, deadline: mt.Deadline, depth: mt.Depth, prof: mt.Prof}
	m.budget(mt.Limits, mt.MaxSteps)
	m.add(mt.Used)
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
func (c *compiler) compileLam(n *ast.Lam) compiledExpr {
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
	sub := &compiler{globals: c.globals, limits: c.limits, prof: c.prof, params: c.params}
	sub.scope = append(sub.scope, capNames...)
	sub.scope = append(sub.scope, n.Param)
	sub.maxSlots = len(sub.scope)
	body := sub.compile(n.Body)
	frameSize := sub.maxSlots
	return func(fr *frame) (object.Value, error) {
		if err := fr.m.step(); err != nil {
			return object.Value{}, err
		}
		cl := &closure{body: body, captured: make([]object.Value, len(capSlots)), frameSize: frameSize, ex: fr.ex}
		for i, s := range capSlots {
			cl.captured[i] = fr.slots[s]
		}
		// Fn is the entry for Go code holding the value: each call runs
		// under the budgets the maker ran under, with no context (the
		// maker's is over).
		return object.FuncWithCode(func(arg object.Value) (object.Value, error) {
			return cl.Apply(&eval.Meter{MaxSteps: cl.ex.maxSteps, Limits: cl.ex.limits}, arg)
		}, cl), nil
	}
}

// compileBigUnion lowers ⋃{ head | var ∈ over } and its bag analogue.
func (c *compiler) compileBigUnion(headE ast.Expr, varName string, overE ast.Expr, bag bool) compiledExpr {
	over := c.compile(overE)
	slot := c.bind(varName)
	head := c.compile(headE)
	c.unbind(1)
	wantKind, overMsg, bodyMsg := object.KSet, "eval: big union over %s", "eval: big union body produced %s"
	if bag {
		wantKind, overMsg, bodyMsg = object.KBag, "eval: big bag union over %s", "eval: big bag union body produced %s"
	}
	return func(fr *frame) (object.Value, error) {
		if err := fr.m.step(); err != nil {
			return object.Value{}, err
		}
		s, err := over(fr)
		if err != nil {
			return object.Value{}, err
		}
		if s.IsBottom() {
			return s, nil
		}
		if s.Kind != wantKind {
			return object.Value{}, fmt.Errorf(overMsg, s.Kind)
		}
		fr.m.setOps++
		fr.m.iters += int64(len(s.Elems))
		var all []object.Value
		for _, x := range s.Elems {
			fr.slots[slot] = x
			v, err := head(fr)
			if err != nil {
				return object.Value{}, err
			}
			if v.IsBottom() {
				return v, nil
			}
			if v.Kind != wantKind {
				return object.Value{}, fmt.Errorf(bodyMsg, v.Kind)
			}
			if err := fr.m.chargeCells(int64(len(v.Elems))); err != nil {
				return object.Value{}, err
			}
			all = append(all, v.Elems...)
		}
		if bag {
			return object.Bag(all...), nil
		}
		return object.Set(all...), nil
	}
}

// compileRankUnion lowers ⋃_r / ⊎_r: the canonical traversal binds the
// 1-based rank alongside each element (section 6 of the paper).
func (c *compiler) compileRankUnion(headE ast.Expr, varName, rankVar string, overE ast.Expr, bag bool) compiledExpr {
	over := c.compile(overE)
	varSlot := c.bind(varName)
	rankSlot := c.bind(rankVar)
	head := c.compile(headE)
	c.unbind(2)
	wantKind, wantName := object.KSet, "ranked union"
	if bag {
		wantKind, wantName = object.KBag, "ranked bag union"
	}
	return func(fr *frame) (object.Value, error) {
		if err := fr.m.step(); err != nil {
			return object.Value{}, err
		}
		s, err := over(fr)
		if err != nil {
			return object.Value{}, err
		}
		if s.IsBottom() {
			return s, nil
		}
		if s.Kind != wantKind {
			return object.Value{}, fmt.Errorf("eval: %s over %s", wantName, s.Kind)
		}
		fr.m.setOps++
		fr.m.iters += int64(len(s.Elems))
		var all []object.Value
		for i, x := range s.Elems {
			fr.slots[varSlot] = x
			fr.slots[rankSlot] = object.Nat(int64(i + 1))
			v, err := head(fr)
			if err != nil {
				return object.Value{}, err
			}
			if v.IsBottom() {
				return v, nil
			}
			if v.Kind != wantKind {
				return object.Value{}, fmt.Errorf("eval: %s body produced %s", wantName, v.Kind)
			}
			if err := fr.m.chargeCells(int64(len(v.Elems))); err != nil {
				return object.Value{}, err
			}
			all = append(all, v.Elems...)
		}
		if bag {
			return object.Bag(all...), nil
		}
		return object.Set(all...), nil
	}
}
