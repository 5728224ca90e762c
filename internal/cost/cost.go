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
// The estimate tree mirrors the evaluator's SpanPlan walk exactly — same
// pre-order, same first-visit-wins deduplication of shared subtrees — so
// trace.JoinEstimates aligns estimates with a full-profile span tree
// positionally, with no node identifiers crossing package boundaries.
package cost

import (
	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/trace"
)

// Estimate annotates every operator of the optimized core expression e with
// estimated output cardinality, total cell charge and self cost, against a
// snapshot of the global environment. The returned tree is immutable; it is
// computed once per prepared plan and shared by every execution.
func Estimate(e ast.Expr, globals map[string]object.Value) *trace.EstNode {
	if e == nil {
		return nil
	}
	es := &estimator{
		globals: globals,
		refs:    map[ast.Expr]int{},
		seen:    map[ast.Expr]bool{},
	}
	es.countRefs(e)
	root := &holder{}
	es.walk(e, root, known(1), nil)
	if len(root.kids) == 0 {
		return nil
	}
	if tiles, ok := es.tilesEstimate(e); ok {
		root.kids[0].Tiles = &tiles
	}
	return root.kids[0]
}

// tileCounter is implemented by lazy-array backings that store cells in
// fixed-size tiles (tile.Array); the estimator probes for it rather than
// importing the tile package.
type tileCounter interface{ TileCount() int }

// tilesEstimate predicts the storage tiles a query touches: the sum of the
// tile counts of every distinct lazy global it references. Exact for full
// scans — the dominant out-of-core pattern — and an upper bound for
// selective access. ok is false when the query references no lazy arrays;
// the estimate is unknown when a referenced lazy array's backing does not
// expose its tile count.
func (es *estimator) tilesEstimate(root ast.Expr) (trace.Card, bool) {
	total := int64(0)
	sawLazy, allKnown := false, true
	counted := map[string]bool{}
	visited := map[ast.Expr]bool{}
	var visit func(e ast.Expr)
	visit = func(e ast.Expr) {
		if e == nil || visited[e] {
			return
		}
		visited[e] = true
		if v, ok := e.(*ast.Var); ok && !counted[v.Name] {
			counted[v.Name] = true
			if g, ok := es.globals[v.Name]; ok && g.IsLazy() {
				sawLazy = true
				if tc, ok := g.Backing().(tileCounter); ok {
					total += int64(tc.TileCount())
				} else {
					allKnown = false
				}
			}
		}
		var buf ast.Buf
		kids, _ := ast.Open(e, &buf)
		for _, kid := range kids {
			visit(kid)
		}
	}
	visit(root)
	if !sawLazy {
		return trace.Card{}, false
	}
	if !allKnown {
		return unknown(), true
	}
	return known(total), true
}

type estimator struct {
	globals map[string]object.Value
	// refs counts incoming edges per node. The optimizer may alias
	// subtrees; a node referenced from more than one context accumulates
	// invocations from all of them in the span tree, so its static
	// invocation count is unknown.
	refs map[ast.Expr]int
	// seen mirrors the SpanPlan dedup: a shared subtree is attributed
	// (and estimated) at its first pre-order occurrence only.
	seen map[ast.Expr]bool
}

// countRefs counts incoming edges, visiting each unique node once.
func (es *estimator) countRefs(root ast.Expr) {
	visited := map[ast.Expr]bool{}
	var visit func(e ast.Expr)
	visit = func(e ast.Expr) {
		if e == nil || visited[e] {
			return
		}
		visited[e] = true
		var buf ast.Buf
		kids, _ := ast.Open(e, &buf)
		for _, kid := range kids {
			if kid != nil {
				es.refs[kid]++
			}
			visit(kid)
		}
	}
	es.refs[root]++
	visit(root)
}

// holder lets the root hang off a synthetic parent during the walk.
type holder struct{ kids []*trace.EstNode }

func (h *holder) add(n *trace.EstNode) { h.kids = append(h.kids, n) }

type parent interface{ add(*trace.EstNode) }

func (n *estParent) add(c *trace.EstNode) { n.n.Children = append(n.n.Children, c) }

type estParent struct{ n *trace.EstNode }

// Card helpers, aliased for brevity.
func known(n int64) trace.Card       { return trace.KnownCard(n) }
func unknown() trace.Card            { return trace.UnknownCard() }
func mul(a, b trace.Card) trace.Card { return trace.MulCard(a, b) }
func add(a, b trace.Card) trace.Card { return trace.AddCard(a, b) }

// walk creates the estimate node for e (unless e is a shared subtree
// already attributed), computes its per-invocation charge and output
// cardinality, and recurses into children in ast.Open order with each
// child's own invocation estimate.
//
// inv is the estimated number of times e is evaluated during the query.
// The evaluator charges exactly one step per node evaluation, so a node's
// self cost estimate IS its invocation estimate.
func (es *estimator) walk(e ast.Expr, par parent, inv trace.Card, env *scope) {
	if e == nil || es.seen[e] {
		return
	}
	es.seen[e] = true
	if es.refs[e] > 1 {
		// Shared subtree: the span accumulates invocations from every
		// referencing context; a single static count would be wrong.
		inv = unknown()
	}
	node := &trace.EstNode{Op: ast.NodeName(e), Cost: inv}
	par.add(node)
	self := &estParent{n: node}
	node.Card = cardOf(es.sval(e, env))

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
		es.walk(n.Head, self, mul(inv, size), headEnv)
		for _, b := range n.Bounds {
			es.walk(b, self, inv, env)
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
			es.walk(d, self, inv, env)
		}
		for _, el := range n.Elems {
			es.walk(el, self, elemInv, env)
		}

	case *ast.Gen:
		node.Cells = mul(inv, natOf(es.sval(n.N, env)))
		es.walk(n.N, self, inv, env)

	case *ast.Singleton:
		node.Cells = inv
		es.walk(n.Elem, self, inv, env)
	case *ast.SingletonBag:
		node.Cells = inv
		es.walk(n.Elem, self, inv, env)

	case *ast.EmptySet, *ast.EmptyBag:
		node.Cells = known(0)

	case *ast.Union:
		node.Cells = mul(inv, add(cardOf(es.sval(n.L, env)), cardOf(es.sval(n.R, env))))
		es.walk(n.L, self, inv, env)
		es.walk(n.R, self, inv, env)
	case *ast.BagUnion:
		node.Cells = mul(inv, add(cardOf(es.sval(n.L, env)), cardOf(es.sval(n.R, env))))
		es.walk(n.L, self, inv, env)
		es.walk(n.R, self, inv, env)

	case *ast.BigUnion:
		es.comprehension(n.Head, n.Var, "", n.Over, node, self, inv, env, true)
	case *ast.BigBagUnion:
		es.comprehension(n.Head, n.Var, "", n.Over, node, self, inv, env, true)
	case *ast.RankUnion:
		es.comprehension(n.Head, n.Var, n.RankVar, n.Over, node, self, inv, env, true)
	case *ast.RankBagUnion:
		es.comprehension(n.Head, n.Var, n.RankVar, n.Over, node, self, inv, env, true)

	case *ast.Sum:
		// Σ charges iterations but no cells.
		es.comprehension(n.Head, n.Var, "", n.Over, node, self, inv, env, false)

	case *ast.Index:
		// index_k's cell charge is the extent of the keys in the data.
		node.Cells = unknown()
		es.walk(n.Set, self, inv, env)

	case *ast.If:
		// Exactly one branch runs per evaluation; which one is
		// data-dependent.
		node.Cells = known(0)
		es.walk(n.Cond, self, inv, env)
		es.walk(n.Then, self, unknown(), env)
		es.walk(n.Else, self, unknown(), env)

	case *ast.App:
		if lam, ok := n.Fn.(*ast.Lam); ok && es.refs[lam] <= 1 && !es.seen[lam] {
			// Let pattern: the body is part of this plan and runs once
			// per application, under the argument's static value.
			node.Cells = known(0)
			es.seen[lam] = true
			lamNode := &trace.EstNode{
				Op:    ast.NodeName(lam),
				Card:  known(1),
				Cells: known(0),
				Cost:  inv,
			}
			self.add(lamNode)
			es.walk(lam.Body, &estParent{n: lamNode}, inv, env.bind(lam.Param, es.sval(n.Arg, env)))
			es.walk(n.Arg, self, inv, env)
		} else {
			// The callee may be a global closure or primitive whose body
			// is not in this plan: its steps and cells attribute to the
			// App span itself, so neither is statically known.
			node.Cells = unknown()
			node.Cost = unknown()
			es.walk(n.Fn, self, inv, env)
			es.walk(n.Arg, self, inv, env)
		}

	case *ast.Lam:
		// A lambda evaluated on its own builds a closure; the body runs
		// only on application, an unknown number of times.
		node.Cells = known(0)
		es.walk(n.Body, self, unknown(), env.bind(n.Param, sval{}))

	default:
		// Leaves and per-child-once scalar operators (Var, Param,
		// literals, Arith, Cmp, Tuple, Proj, Dim, Subscript, Get,
		// Bottom): no cell charge; every child evaluates once per
		// evaluation of the parent.
		node.Cells = known(0)
		var buf ast.Buf
		kids, _ := ast.Open(e, &buf)
		for _, kid := range kids {
			es.walk(kid, self, inv, env)
		}
	}
}

// comprehension estimates the shared shape of Σ, ⋃, ⊎ and their ranked
// forms: the head runs once per element of over; set/bag unions charge the
// head's result cardinality per iteration, Σ charges nothing.
func (es *estimator) comprehension(head ast.Expr, varName, rankVar string, over ast.Expr,
	node *trace.EstNode, self *estParent, inv trace.Card, env *scope, chargesCells bool) {
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
	es.walk(head, self, mul(inv, overCard), headEnv)
	es.walk(over, self, inv, env)
}
