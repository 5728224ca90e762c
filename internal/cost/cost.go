// Package cost estimates, at prepare time, the per-operator output
// cardinality and cost of an optimized core query.
//
// The estimator is exact-or-unknown: every number it produces is derived
// purely from the expression and the global environment snapshot (nat
// bounds, global array shapes, global set/bag cardinalities), in the same
// units the evaluator charges — steps per node evaluation, cells per
// constructor/tabulation charge. Anything parameter- or data-dependent is
// the explicit marker "unknown", never a guess, so a known estimate can be
// held to exact agreement with the recorded actuals (q-error 1.0).
//
// Estimates are rows of span ids: EstimatePlan takes the full-level
// eval.SpanPlan of the expression — the one the program's full-profile
// lowering records against — which alone decides which node is which span,
// which subtrees are shared and where a shared subtree is attributed, and
// fills one row per span. trace.JoinEstimates pairs row i with span i of a
// recorded full profile.
package cost

import (
	"slices"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/trace"
)

// Estimate is EstimatePlan over a full-level span plan of its own.
func Estimate(e ast.Expr, globals map[string]object.Value) *trace.Estimates {
	return EstimatePlan(e, eval.NewSpanPlan(e, eval.ProfFull), globals)
}

// EstimatePlan annotates every operator of the optimized core expression e
// with estimated output cardinality, total cell charge and self cost,
// against a snapshot of the global environment, one row per span id of
// plan, e's full-level span plan; it also estimates the storage tiles the
// query touches. The result is immutable; it is computed once per prepared
// plan and shared by every execution. Nil only for a nil plan.
func EstimatePlan(e ast.Expr, plan *eval.SpanPlan, globals map[string]object.Value) *trace.Estimates {
	if plan == nil {
		return nil
	}
	es := &estimator{globals: globals, plan: plan, est: &trace.Estimates{Rows: make([]trace.EstNode, plan.Len())}}
	rows := es.est.Rows
	for id := range rows {
		op, parent, _ := plan.Span(id)
		rows[id].Op = op
		if parent >= 0 {
			rows[id].Depth = rows[parent].Depth + 1
		}
	}
	es.walk(e, known(1), nil)
	return es.est
}

// tileCounter is implemented by lazy-array backings that store cells in
// fixed-size tiles (tile.Array); the estimator probes for it rather than
// importing the tile package.
type tileCounter interface{ TileCount() int }

type estimator struct {
	globals map[string]object.Value
	plan    *eval.SpanPlan
	est     *trace.Estimates
	// next is the span id the walk reaches next at a first visit: the walk
	// visits nodes in the plan's pre-order, so a node whose id is not next
	// was reached before and is estimated where the plan attributes it.
	next int
	// lazy names the lazy globals whose tiles Tiles counts.
	lazy []string
}

// Card helpers, aliased for brevity.
func known(n int64) trace.Card       { return trace.KnownCard(n) }
func unknown() trace.Card            { return trace.UnknownCard() }
func mul(a, b trace.Card) trace.Card { return trace.MulCard(a, b) }
func add(a, b trace.Card) trace.Card { return trace.AddCard(a, b) }

// walk fills the estimate row of e (unless e is a shared subtree reached
// again), computing its per-invocation charge and output cardinality, and
// recurses into children in ast.Open order with each child's own
// invocation estimate.
//
// inv is the estimated number of times e is evaluated during the query.
// The evaluator charges exactly one step per node evaluation, so a node's
// self cost estimate IS its invocation estimate.
func (es *estimator) walk(e ast.Expr, inv trace.Card, env *scope) {
	node := es.enter(e, inv, env)
	if node == nil {
		return
	}
	inv = node.Cost

	switch n := e.(type) {
	case *ast.ArrayTab:
		// Bounds are evaluated once per tabulation; the head once per
		// cell. The whole size is charged as cells before tabulating.
		size := known(1)
		for _, b := range n.Bounds {
			size = mul(size, natOf(es.sval(b, env)))
		}
		node.Cells = mul(inv, size)
		headEnv := env
		for _, name := range n.Idx {
			headEnv = headEnv.bind(name, scalarSval())
		}
		es.walk(n.Head, mul(inv, size), headEnv)
		for _, b := range n.Bounds {
			es.walk(b, inv, env)
		}

	case *ast.MkArray:
		// Dims evaluate first; a size/element-count mismatch is ⊥
		// without charging or evaluating the elements.
		size, allKnown := known(1), true
		for _, d := range n.Dims {
			dv := natOf(es.sval(d, env))
			size = mul(size, dv)
			allKnown = allKnown && dv.Known
		}
		elemInv := unknown()
		node.Cells = unknown()
		if allKnown && size.Known {
			if size.N == int64(len(n.Elems)) {
				node.Cells = mul(inv, known(int64(len(n.Elems))))
				elemInv = inv
			} else {
				node.Cells = known(0)
				elemInv = known(0)
			}
		}
		for _, d := range n.Dims {
			es.walk(d, inv, env)
		}
		for _, el := range n.Elems {
			es.walk(el, elemInv, env)
		}

	case *ast.Gen:
		node.Cells = mul(inv, natOf(es.sval(n.N, env)))
		es.walk(n.N, inv, env)

	case *ast.Singleton:
		node.Cells = inv
		es.walk(n.Elem, inv, env)

	case *ast.Empty:
		node.Cells = known(0)

	case *ast.Union:
		node.Cells = mul(inv, add(cardOf(es.sval(n.L, env)), cardOf(es.sval(n.R, env))))
		es.walk(n.L, inv, env)
		es.walk(n.R, inv, env)

	case *ast.BigUnion:
		es.comprehension(n.Head, n.Var, "", n.Over, node, inv, env, true)
	case *ast.RankUnion:
		es.comprehension(n.Head, n.Var, n.RankVar, n.Over, node, inv, env, true)

	case *ast.Sum:
		// Σ charges iterations but no cells.
		es.comprehension(n.Head, n.Var, "", n.Over, node, inv, env, false)

	case *ast.Index:
		// index_k's cell charge is the extent of the keys in the data.
		node.Cells = unknown()
		es.walk(n.Set, inv, env)

	case *ast.If:
		// Exactly one branch runs per evaluation; which one is
		// data-dependent.
		node.Cells = known(0)
		es.walk(n.Cond, inv, env)
		es.walk(n.Then, unknown(), env)
		es.walk(n.Else, unknown(), env)

	case *ast.App:
		if lam, ok := n.Fn.(*ast.Lam); ok && !es.shared(lam) {
			// Let pattern: the lambda is evaluated once per application and
			// its body, part of this plan, runs once per application under
			// the argument's static value.
			node.Cells = known(0)
			if lamNode := es.enter(lam, inv, env); lamNode != nil {
				lamNode.Cells = known(0)
				es.walk(lam.Body, inv, env.bind(lam.Param, es.sval(n.Arg, env)))
			}
			es.walk(n.Arg, inv, env)
		} else {
			// The callee may be a global closure or primitive whose body
			// is not in this plan: its steps and cells attribute to the
			// App span itself, so neither is statically known.
			node.Cells = unknown()
			node.Cost = unknown()
			es.walk(n.Fn, inv, env)
			es.walk(n.Arg, inv, env)
		}

	case *ast.Lam:
		// A lambda evaluated on its own builds a closure; the body runs
		// only on application, an unknown number of times.
		node.Cells = known(0)
		es.walk(n.Body, unknown(), env.bind(n.Param, sval{}))

	case *ast.Var:
		// A read charges no cells. A lazy global's tiles count once per
		// name, however many nodes read it.
		node.Cells = known(0)
		if g, ok := es.globals[n.Name]; ok && g.IsLazy() && !slices.Contains(es.lazy, n.Name) {
			es.lazy = append(es.lazy, n.Name)
			tiles := unknown()
			if tc, ok := g.Backing().(tileCounter); ok {
				tiles = known(int64(tc.TileCount()))
			}
			if es.est.Tiles == nil {
				es.est.Tiles = &trace.Card{Known: true}
			}
			*es.est.Tiles = add(*es.est.Tiles, tiles)
		}

	default:
		// Leaves and per-child-once scalar operators (Param,
		// literals, Arith, Cmp, Tuple, Proj, Dim, Subscript, Get,
		// Bottom): no cell charge; every child evaluates once per
		// evaluation of the parent.
		node.Cells = known(0)
		var buf ast.Buf
		kids, _ := ast.Open(e, &buf)
		for _, kid := range kids {
			es.walk(kid, inv, env)
		}
	}
}

// comprehension estimates the shared shape of Σ, ⋃, ⊎ and their ranked
// forms: the head runs once per element of over; set/bag unions charge the
// head's result cardinality per iteration, Σ charges nothing.
func (es *estimator) comprehension(head ast.Expr, varName, rankVar string, over ast.Expr,
	node *trace.EstNode, inv trace.Card, env *scope, chargesCells bool) {
	overCard := cardOf(es.sval(over, env))
	headEnv := env.bind(varName, sval{})
	if rankVar != "" {
		headEnv = headEnv.bind(rankVar, scalarSval())
	}
	if chargesCells {
		headCard := cardOf(es.sval(head, headEnv))
		node.Cells = mul(inv, mul(overCard, headCard))
	} else {
		node.Cells = known(0)
	}
	es.walk(head, mul(inv, overCard), headEnv)
	es.walk(over, inv, env)
}

// enter returns e's estimate row with its cost and output cardinality
// filled, at the visit where the span plan attributes e: its first, in the
// plan's pre-order. It returns nil when e was reached before. A shared
// span accumulates invocations from every context that reaches it, so a
// single static count would be wrong: its cost is unknown.
func (es *estimator) enter(e ast.Expr, inv trace.Card, env *scope) *trace.EstNode {
	id, ok := es.plan.ID(e)
	if !ok || id != es.next {
		return nil
	}
	es.next++
	if _, _, shared := es.plan.Span(id); shared {
		inv = unknown()
	}
	node := &es.est.Rows[id]
	node.Cost = inv
	node.Card = cardOf(es.sval(e, env))
	return node
}

// shared reports whether the span plan reached e from more than one place.
func (es *estimator) shared(e ast.Expr) bool {
	id, _ := es.plan.ID(e)
	_, _, shared := es.plan.Span(id)
	return shared
}
