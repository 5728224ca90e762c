package opt

import (
	"github.com/aqldb/aql/internal/ast"
)

// ConstraintRules returns the redundant-constraint-elimination rules of
// section 5:
//
//	[[ (...(i_j < e_j)...) | i1 < e1, ..., ik < ek ]] ~>
//	    [[ (...true...) | i1 < e1, ..., ik < ek ]]
//	U{ (...(i < e)...) | i ∈ gen(e) } ~> U{ (...true...) | i ∈ gen(e) }
//	if e then (...e...) else e'       ~> if e then (...true...) else e'
//	if e then e' else (...e...)       ~> if e then e' else (...false...)
//
// Bound checking in general is undecidable (Proposition 5.1); these rules
// remove the checks that the β^p rule itself introduces, which is what the
// transpose and zip/subseq derivations of section 5 require. Replacement
// respects scope: an occurrence under a binder that captures any free
// variable of the known-true condition is left alone.
func ConstraintRules() []Rule {
	return []Rule{
		{Name: "tab-bound-elim", Match: []Pattern{P(ast.KindArrayTab)}, Apply: tabBoundElimRule},
		{Name: "gen-bound-elim", Match: []Pattern{
			P(ast.KindBigUnion, Any, P(ast.KindGen)), P(ast.KindBigBagUnion, Any, P(ast.KindGen)),
			P(ast.KindSum, Any, P(ast.KindGen)),
		}, Apply: genBoundElimRule},
		{Name: "if-cond-elim", Match: []Pattern{P(ast.KindIf)}, Apply: ifCondElimRule},
	}
}

// tabBoundElimRule replaces i_j < e_j inside a tabulation head with true.
func tabBoundElimRule(e ast.Expr) (ast.Expr, bool) {
	tab := e.(*ast.ArrayTab)
	head := tab.Head
	fired := false
	for j, iv := range tab.Idx {
		check := &ast.Cmp{Op: ast.OpLt, L: &ast.Var{Name: iv}, R: tab.Bounds[j]}
		if newHead, n := replaceBool(head, check, true); n > 0 {
			head, fired = newHead, true
		}
	}
	if !fired {
		return e, false
	}
	out := &ast.ArrayTab{Head: head, Idx: tab.Idx, Bounds: tab.Bounds}
	return out, true
}

// genBoundElimRule replaces i < e inside the body of a loop over gen(e)
// with true (set and bag unions and summation). The loop's body is child
// 0, bound by its variable, and its source child 1.
func genBoundElimRule(e ast.Expr) (ast.Expr, bool) {
	var buf, out ast.Buf
	kids, binders := ast.Open(e, &buf)
	check := &ast.Cmp{Op: ast.OpLt, L: &ast.Var{Name: binders[0][0]}, R: kids[1].(*ast.Gen).N}
	newHead, count := replaceBool(kids[0], check, true)
	if count == 0 {
		return e, false
	}
	newKids := out.Copy(kids)
	newKids[0] = newHead
	return ast.Rebuild(e, newKids), true
}

// ifCondElimRule replaces occurrences of the condition inside the branches
// of a conditional with the known constant.
func ifCondElimRule(e ast.Expr) (ast.Expr, bool) {
	n := e.(*ast.If)
	if _, isLit := n.Cond.(*ast.BoolLit); isLit {
		return e, false // nothing informative to propagate
	}
	thenB, c1 := replaceBool(n.Then, n.Cond, true)
	elseB, c2 := replaceBool(n.Else, n.Cond, false)
	if c1+c2 == 0 {
		return e, false
	}
	return &ast.If{Cond: n.Cond, Then: thenB, Else: elseB}, true
}

// replaceBool replaces every occurrence of target (up to alpha-equality)
// inside e with the boolean constant val, skipping occurrences under
// binders that capture a free variable of target. It returns the rewritten
// expression and the number of replacements.
func replaceBool(e ast.Expr, target ast.Expr, val bool) (ast.Expr, int) {
	return replaceAll(e, target, &ast.BoolLit{Val: val})
}
