package opt

import (
	"slices"

	"github.com/aqldb/aql/internal/ast"
)

// MotionRules returns the code-motion phase (mentioned as a later phase in
// section 5): loop-invariant collection-valued subexpressions of loop
// bodies are hoisted into a binding evaluated once. The β guard in the
// normalization phase deliberately refuses to re-inline such bindings, so
// hoisted work stays hoisted.
func MotionRules() []Rule {
	return []Rule{
		{Name: "loop-invariant-hoist", Heads: loopKinds, Apply: hoistRule},
	}
}

// loopKinds are the kinds hoistRule rewrites: the loops, whose child 0 is
// the body evaluated once per element.
var loopKinds = []ast.Kind{ast.KindBigUnion, ast.KindBigBagUnion, ast.KindSum,
	ast.KindRankUnion, ast.KindRankBagUnion, ast.KindArrayTab}

// hoistRule rewrites a loop whose body contains an expensive subexpression
// E with no free occurrence of the loop variables into
//
//	(λz. loop-with-E-replaced-by-z)(E)
//
// replacing all alpha-equal occurrences of E in the body at once (a
// by-product is common-subexpression elimination across the body). E is
// taken only from code the body runs on every iteration (see
// findInvariant), so a ⊥ in an untaken branch stays untaken.
//
// Like δ^p's unconditional firing (deltaPRule), the rule accepts one
// deviation: a loop that runs zero times never evaluated E, and the
// hoisted binding does. If E is ⊥, the optimized query is ⊥ where the
// unoptimized one was the empty collection or array.
func hoistRule(e ast.Expr) (ast.Expr, bool) {
	if !slices.Contains(loopKinds, ast.KindOf(e)) {
		return e, false
	}
	// A loop's body is child 0, bound by the loop's own variables.
	var buf ast.Buf
	kids, binders := ast.Open(e, &buf)
	target := findInvariant(kids[0], binders[0])
	if target == nil {
		return e, false
	}
	z := ast.Fresh("h")
	newHead, n := replaceAll(kids[0], target, &ast.Var{Name: z})
	if n == 0 {
		return e, false
	}
	var out ast.Buf
	newKids := out.Copy(kids)
	newKids[0] = newHead
	return &ast.App{
		Fn:  &ast.Lam{Param: z, Body: ast.Rebuild(e, newKids)},
		Arg: target,
	}, true
}

// expensive reports whether evaluating e repeatedly is worth a hoist:
// loops, collection constructions and applications are; scalars and
// variable references are not.
func expensive(e ast.Expr) bool {
	switch e.(type) {
	case *ast.BigUnion, *ast.BigBagUnion, *ast.Sum, *ast.RankUnion,
		*ast.RankBagUnion, *ast.ArrayTab, *ast.Index, *ast.Gen, *ast.App,
		*ast.Union, *ast.BagUnion, *ast.MkArray, *ast.Get:
		return true
	}
	return false
}

// findInvariant returns the outermost expensive subexpression of e that
// uses none of the blocked variables (the loop's own variables plus every
// binder between the loop body and the occurrence) and that the loop body
// evaluates on every iteration, or nil. So it does not look inside the
// branches of a conditional or the body of a nested loop, which may run on
// no iteration at all; it does look inside a nested loop's source.
func findInvariant(e ast.Expr, blocked []string) ast.Expr {
	if expensive(e) && noneFree(blocked, e) {
		return e
	}
	var buf ast.Buf
	kids, binders := ast.Open(e, &buf)
	var scratch [8]string
	for i, kid := range kids {
		if !everyIteration(e, i) {
			continue
		}
		inner := blocked
		if len(binders[i]) > 0 {
			inner = append(append(scratch[:0], blocked...), binders[i]...)
		}
		if found := findInvariant(kid, inner); found != nil {
			return found
		}
	}
	return nil
}

// everyIteration reports whether child i of e is evaluated whenever e is:
// true except for a conditional's branches and a loop's body.
func everyIteration(e ast.Expr, i int) bool {
	switch k := ast.KindOf(e); {
	case k == ast.KindIf:
		return i == 0
	case slices.Contains(loopKinds, k):
		return i != 0
	}
	return true
}

func noneFree(names []string, e ast.Expr) bool {
	for _, n := range names {
		if ast.IsFree(n, e) {
			return false
		}
	}
	return true
}

// replaceAll replaces every alpha-equal occurrence of target in e with
// repl, skipping occurrences under binders that capture a free variable of
// target or of repl.
func replaceAll(e, target, repl ast.Expr) (ast.Expr, int) {
	if ast.AlphaEqual(e, target) {
		return repl, 1
	}
	var buf ast.Buf
	kids, binders := ast.Open(e, &buf)
	total := 0
	var out ast.Buf
	var newKids []ast.Expr // copied at the first child that changes
	for i, kid := range kids {
		if !noneFree(binders[i], target) || !noneFree(binders[i], repl) {
			continue
		}
		nk, n := replaceAll(kid, target, repl)
		total += n
		if nk == kid {
			continue
		}
		if newKids == nil {
			newKids = out.Copy(kids)
		}
		newKids[i] = nk
	}
	if newKids == nil {
		return e, 0
	}
	return ast.Rebuild(e, newKids), total
}
