package opt

import (
	"slices"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/object"
)

// NormalizeRules returns the normalization rule base: the equational theory
// of NRC ([7, 34]; the Kleisli rules of [5]) plus the array rules of
// section 5 (in rules_array.go) and arithmetic simplification from the
// extension of NRC with arithmetic [18].
func NormalizeRules() []Rule {
	rules := []Rule{
		{Name: "beta", Match: []Pattern{P(ast.KindApp, P(ast.KindLam))}, Apply: betaRule},
		{Name: "pi", Match: []Pattern{P(ast.KindProj, P(ast.KindTuple))}, Apply: piRule},
		ifFold,
		{Name: "union-empty", Match: []Pattern{
			P(ast.KindUnion, P(ast.KindEmptySet)), P(ast.KindUnion, Any, P(ast.KindEmptySet)),
			P(ast.KindBagUnion, P(ast.KindEmptyBag)), P(ast.KindBagUnion, Any, P(ast.KindEmptyBag)),
		}, Apply: unionEmptyRule},
		{Name: "union-idempotent", Match: []Pattern{P(ast.KindUnion)}, Apply: unionIdempotentRule},
		{Name: "minmax-singleton", Match: []Pattern{P(ast.KindApp, P(ast.KindVar), P(ast.KindSingleton))}, Apply: minMaxSingletonRule},
		{Name: "bigunion-empty", Match: []Pattern{
			P(ast.KindBigUnion, Any, P(ast.KindEmptySet)), P(ast.KindBigUnion, P(ast.KindEmptySet)),
			P(ast.KindBigBagUnion, Any, P(ast.KindEmptyBag)), P(ast.KindBigBagUnion, P(ast.KindEmptyBag)),
		}, Apply: bigUnionEmptyRule},
		{Name: "bigunion-singleton", Match: []Pattern{
			P(ast.KindBigUnion, Any, P(ast.KindSingleton)), P(ast.KindBigBagUnion, Any, P(ast.KindSingletonBag)),
		}, Apply: bigUnionSingletonRule},
		{Name: "bigunion-union", Match: []Pattern{P(ast.KindBigUnion, Any, P(ast.KindUnion))}, Apply: bigUnionUnionRule},
		{Name: "vertical-fusion", Match: []Pattern{P(ast.KindBigUnion, Any, P(ast.KindBigUnion))}, Apply: verticalFusionRule},
		{Name: "horizontal-fusion", Match: []Pattern{P(ast.KindUnion, P(ast.KindBigUnion), P(ast.KindBigUnion))}, Apply: horizontalFusionRule},
		{Name: "filter-promotion", Match: []Pattern{
			P(ast.KindBigUnion, P(ast.KindIf, Any, Any, P(ast.KindEmptySet))),
		}, Apply: filterPromotionRule},
		{Name: "if-source-hoist", Match: []Pattern{P(ast.KindBigUnion, Any, P(ast.KindIf))}, Apply: ifSourceHoistRule},
		{Name: "get-singleton", Match: []Pattern{P(ast.KindGet, P(ast.KindSingleton))}, Apply: getSingletonRule},
		{Name: "sum-empty", Match: []Pattern{P(ast.KindSum, Any, P(ast.KindEmptySet))}, Apply: sumEmptyRule},
		{Name: "sum-singleton", Match: []Pattern{P(ast.KindSum, Any, P(ast.KindSingleton))}, Apply: sumSingletonRule},
		{Name: "const-fold-arith", Match: []Pattern{P(ast.KindArith)}, Apply: constFoldArithRule},
		constFoldCmp,
	}
	return append(rules, ArrayRules()...)
}

// The two rules the normalization and constraint phases share.
var (
	ifFold = Rule{Name: "if-fold", Match: []Pattern{
		P(ast.KindIf, P(ast.KindBoolLit)), P(ast.KindIf, Any, P(ast.KindBoolLit), P(ast.KindBoolLit)),
	}, Apply: ifFoldRule}
	constFoldCmp = Rule{Name: "const-fold-cmp", Match: []Pattern{P(ast.KindCmp)}, Apply: constFoldCmpRule}
)

// CleanupRules returns the conditional-folding subset, used by the
// constraint-elimination phase to consume introduced true/false constants.
func CleanupRules() []Rule {
	return []Rule{ifFold, constFoldCmp}
}

// --- β with a work-duplication guard ------------------------------------------

// betaRule implements (λx.e1)(e2) ~> e1{x := e2}, guarded so run-time work
// is never duplicated: fire if e2 is cheap to re-evaluate, if e2 is a
// tabulation or lambda (which further rules consume), or if x is used at
// most once outside loop bodies.
func betaRule(e ast.Expr) (ast.Expr, bool) {
	app := e.(*ast.App)
	lam := app.Fn.(*ast.Lam)
	if inlineOK(app.Arg) || occurrences(lam.Body, lam.Param, false) <= 1 {
		return ast.Subst(lam.Body, lam.Param, app.Arg), true
	}
	return e, false
}

// inlineOK reports whether an argument may be inlined into any number of
// occurrences: atoms cost nothing to re-evaluate; lambdas and tabulations
// are consumed by later rules (β/β^p/δ^p fusion); small scalar expressions
// (arithmetic, projections, subscripts) re-evaluate in constant time. The
// size cap on the scalar case keeps repeated inlining from compounding
// exponentially (e.g. chains of (λx.x+x) applications).
func inlineOK(e ast.Expr) bool {
	if atomicExpr(e) {
		return true
	}
	return cheapExpr(e) && ast.CountNodes(e) <= 12
}

func atomicExpr(e ast.Expr) bool {
	switch n := e.(type) {
	case *ast.Var, *ast.Param, *ast.NatLit, *ast.RealLit, *ast.StringLit, *ast.BoolLit,
		*ast.Empty, *ast.Lam, *ast.ArrayTab:
		return true
	case *ast.Bottom:
		return n.Index == nil
	case *ast.Tuple:
		for _, x := range n.Elems {
			if !atomicExpr(x) && !cheapExpr(x) {
				return false
			}
		}
		return ast.CountNodes(e) <= 16
	}
	return false
}

// cheapExpr covers constant-time scalar computations over atoms.
func cheapExpr(e ast.Expr) bool {
	switch n := e.(type) {
	case *ast.Proj:
		return atomicExpr(n.Tuple) || cheapExpr(n.Tuple)
	case *ast.Dim:
		return atomicExpr(n.Arr) || cheapExpr(n.Arr)
	case *ast.Arith:
		return (atomicExpr(n.L) || cheapExpr(n.L)) && (atomicExpr(n.R) || cheapExpr(n.R))
	case *ast.Cmp:
		return (atomicExpr(n.L) || cheapExpr(n.L)) && (atomicExpr(n.R) || cheapExpr(n.R))
	case *ast.Subscript:
		return (atomicExpr(n.Arr) || cheapExpr(n.Arr)) && (atomicExpr(n.Index) || cheapExpr(n.Index))
	}
	return false
}

// occurrences counts free occurrences of name in e; any occurrence inside a
// loop body (the head of a big union, sum, ranked union or tabulation)
// counts as 2, since inlining there multiplies evaluations.
func occurrences(e ast.Expr, name string, inLoop bool) int {
	if v, ok := e.(*ast.Var); ok {
		if v.Name != name {
			return 0
		}
		if inLoop {
			return 2
		}
		return 1
	}
	var buf ast.Buf
	kids, binders := ast.Open(e, &buf)
	loopHead := -1
	if slices.Contains(loopKinds, ast.KindOf(e)) {
		loopHead = 0 // child 0 is the body evaluated per element
	}
	total := 0
	for i, kid := range kids {
		shadowed := false
		for _, b := range binders[i] {
			if b == name {
				shadowed = true
				break
			}
		}
		if shadowed {
			continue
		}
		total += occurrences(kid, name, inLoop || i == loopHead)
	}
	return total
}

// --- products -----------------------------------------------------------------

// piRule implements π_{i,k}(e1, ..., ek) ~> ei.
func piRule(e ast.Expr) (ast.Expr, bool) {
	p := e.(*ast.Proj)
	t := p.Tuple.(*ast.Tuple)
	if len(t.Elems) != p.K {
		return e, false
	}
	return t.Elems[p.I-1], true
}

// --- conditionals --------------------------------------------------------------

// ifFoldRule folds conditionals with constant conditions and the
// if-c-then-true-else-false idiom.
func ifFoldRule(e ast.Expr) (ast.Expr, bool) {
	n := e.(*ast.If)
	if b, ok := n.Cond.(*ast.BoolLit); ok {
		if b.Val {
			return n.Then, true
		}
		return n.Else, true
	}
	if n.Then.(*ast.BoolLit).Val && !n.Else.(*ast.BoolLit).Val {
		// if c then true else false ~> c
		return n.Cond, true
	}
	return e, false
}

// --- sets -----------------------------------------------------------------------

// A set node and its bag analogue share one Go type but not one kind, so
// a rule's patterns, not its Apply, tell a set from a bag: the rules
// stated for both forms list one pattern per form.

// unionEmptyRule: {} ∪ e ~> e and e ∪ {} ~> e (and the bag analogues).
func unionEmptyRule(e ast.Expr) (ast.Expr, bool) {
	n := e.(*ast.Union)
	if _, ok := n.L.(*ast.Empty); ok {
		return n.R, true
	}
	return n.L, true
}

// unionIdempotentRule: e ∪ e ~> e (sets are idempotent; bags are not).
// Syntactic (alpha) equality only — the general problem is undecidable.
func unionIdempotentRule(e ast.Expr) (ast.Expr, bool) {
	n := e.(*ast.Union)
	if ast.AlphaEqual(n.L, n.R) {
		return n.L, true
	}
	return e, false
}

// minMaxSingletonRule: min{e} ~> e and max{e} ~> e. min and max are known
// primitives, so rules specific to them may be applied (section 3's second
// reason for promoting derived operators to primitives).
func minMaxSingletonRule(e ast.Expr) (ast.Expr, bool) {
	app := e.(*ast.App)
	if v := app.Fn.(*ast.Var); v.Name != "min" && v.Name != "max" {
		return e, false
	}
	return app.Arg.(*ast.Singleton).Elem, true
}

// bigUnionEmptyRule: U{e | x ∈ {}} ~> {} and U{{} | x ∈ e} ~> {} (and the
// bag analogues).
func bigUnionEmptyRule(e ast.Expr) (ast.Expr, bool) {
	return &ast.Empty{Bag: e.(*ast.BigUnion).Bag}, true
}

// bigUnionSingletonRule: U{e1 | x ∈ {e2}} ~> e1{x := e2} (and the bag
// analogue), with the same duplication guard as β.
func bigUnionSingletonRule(e ast.Expr) (ast.Expr, bool) {
	n := e.(*ast.BigUnion)
	s := n.Over.(*ast.Singleton)
	if inlineOK(s.Elem) || occurrences(n.Head, n.Var, false) <= 1 {
		return ast.Subst(n.Head, n.Var, s.Elem), true
	}
	return e, false
}

// bigUnionUnionRule: U{e1 | x ∈ e2 ∪ e3} ~> U{e1 | x ∈ e2} ∪ U{e1 | x ∈ e3}.
func bigUnionUnionRule(e ast.Expr) (ast.Expr, bool) {
	n := e.(*ast.BigUnion)
	u := n.Over.(*ast.Union)
	return &ast.Union{
		L: &ast.BigUnion{Head: n.Head, Var: n.Var, Over: u.L},
		R: &ast.BigUnion{Head: n.Head, Var: n.Var, Over: u.R},
	}, true
}

// verticalFusionRule: U{e1 | x ∈ U{e2 | y ∈ e3}} ~>
// U{U{e1 | x ∈ e2} | y ∈ e3} (y renamed if free in e1).
func verticalFusionRule(e ast.Expr) (ast.Expr, bool) {
	n := e.(*ast.BigUnion)
	inner := n.Over.(*ast.BigUnion)
	y, innerHead := inner.Var, inner.Head
	if ast.IsFree(y, n.Head) || y == n.Var {
		fresh := ast.Fresh(y)
		innerHead = ast.Subst(innerHead, y, &ast.Var{Name: fresh})
		y = fresh
	}
	return &ast.BigUnion{
		Head: &ast.BigUnion{Head: n.Head, Var: n.Var, Over: innerHead},
		Var:  y,
		Over: inner.Over,
	}, true
}

// horizontalFusionRule: U{e1 | x ∈ S} ∪ U{e2 | y ∈ S} ~>
// U{e1 ∪ e2{y := x} | x ∈ S} when both loops range over the syntactically
// same source ([5]'s horizontal fusion).
func horizontalFusionRule(e ast.Expr) (ast.Expr, bool) {
	u := e.(*ast.Union)
	l, r := u.L.(*ast.BigUnion), u.R.(*ast.BigUnion)
	if !ast.AlphaEqual(l.Over, r.Over) {
		return e, false
	}
	rHead := r.Head
	if r.Var != l.Var {
		if ast.IsFree(l.Var, r.Head) {
			// Renaming r.Var to l.Var would capture this free occurrence.
			return e, false
		}
		rHead = ast.Subst(rHead, r.Var, &ast.Var{Name: l.Var})
	}
	return &ast.BigUnion{
		Head: &ast.Union{L: l.Head, R: rHead},
		Var:  l.Var,
		Over: l.Over,
	}, true
}

// filterPromotionRule: U{if c then e else {} | x ∈ S} with x not free in c
// ~> if c then U{e | x ∈ S} else {} — the classic filter promotion of [5].
func filterPromotionRule(e ast.Expr) (ast.Expr, bool) {
	n := e.(*ast.BigUnion)
	cond := n.Head.(*ast.If)
	if ast.IsFree(n.Var, cond.Cond) {
		return e, false
	}
	return &ast.If{
		Cond: cond.Cond,
		Then: &ast.BigUnion{Head: cond.Then, Var: n.Var, Over: n.Over},
		Else: &ast.Empty{},
	}, true
}

// ifSourceHoistRule: U{e | x ∈ if c then a else b} ~>
// if c then U{e | x ∈ a} else U{e | x ∈ b}.
func ifSourceHoistRule(e ast.Expr) (ast.Expr, bool) {
	n := e.(*ast.BigUnion)
	cond := n.Over.(*ast.If)
	return &ast.If{
		Cond: cond.Cond,
		Then: &ast.BigUnion{Head: n.Head, Var: n.Var, Over: cond.Then},
		Else: &ast.BigUnion{Head: n.Head, Var: n.Var, Over: cond.Else},
	}, true
}

// getSingletonRule: get({e}) ~> e.
func getSingletonRule(e ast.Expr) (ast.Expr, bool) {
	return e.(*ast.Get).Set.(*ast.Singleton).Elem, true
}

// sumEmptyRule: Σ{e | x ∈ {}} ~> 0.
func sumEmptyRule(ast.Expr) (ast.Expr, bool) {
	return &ast.NatLit{Val: 0}, true
}

// sumSingletonRule: Σ{e1 | x ∈ {e2}} ~> e1{x := e2} (guarded as β).
func sumSingletonRule(e ast.Expr) (ast.Expr, bool) {
	n := e.(*ast.Sum)
	s := n.Over.(*ast.Singleton)
	if inlineOK(s.Elem) || occurrences(n.Head, n.Var, false) <= 1 {
		return ast.Subst(n.Head, n.Var, s.Elem), true
	}
	return e, false
}

// --- constant folding ------------------------------------------------------------

// constFoldArithRule folds arithmetic on numeric literals, using the
// evaluator's own Arith so monus semantics agree. A ⊥ result (a zero
// divisor, a nat overflow) is left to the evaluator, whose diagnostic names
// it: a literal ⊥ would print another.
func constFoldArithRule(e ast.Expr) (ast.Expr, bool) {
	n := e.(*ast.Arith)
	l, okL := litValue(n.L)
	r, okR := litValue(n.R)
	if !okL || !okR {
		return e, false
	}
	v, err := eval.Arith(n.Op, l, r)
	if err != nil {
		return e, false
	}
	return litExpr(v)
}

// constFoldCmpRule folds comparisons on literals.
func constFoldCmpRule(e ast.Expr) (ast.Expr, bool) {
	n := e.(*ast.Cmp)
	l, okL := litValue(n.L)
	r, okR := litValue(n.R)
	if !okL || !okR {
		return e, false
	}
	c := object.Compare(l, r)
	var b bool
	switch n.Op {
	case ast.OpEq:
		b = c == 0
	case ast.OpNe:
		b = c != 0
	case ast.OpLt:
		b = c < 0
	case ast.OpGt:
		b = c > 0
	case ast.OpLe:
		b = c <= 0
	case ast.OpGe:
		b = c >= 0
	default:
		return e, false
	}
	return &ast.BoolLit{Val: b}, true
}

// litValue extracts the object denoted by a scalar literal node.
func litValue(e ast.Expr) (object.Value, bool) {
	switch n := e.(type) {
	case *ast.NatLit:
		return object.Nat(n.Val), true
	case *ast.RealLit:
		return object.Real(n.Val), true
	case *ast.StringLit:
		return object.String_(n.Val), true
	case *ast.BoolLit:
		return object.Bool(n.Val), true
	}
	return object.Value{}, false
}

// litExpr converts a scalar object back into a literal node.
func litExpr(v object.Value) (ast.Expr, bool) {
	switch v.Kind {
	case object.KNat:
		return &ast.NatLit{Val: v.N}, true
	case object.KReal:
		return &ast.RealLit{Val: v.R}, true
	case object.KString:
		return &ast.StringLit{Val: v.Str()}, true
	case object.KBool:
		return &ast.BoolLit{Val: v.B}, true
	}
	return nil, false
}
