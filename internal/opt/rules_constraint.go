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
		{Name: "tab-bound-elim", Heads: []ast.Kind{ast.KindArrayTab}, Apply: tabBoundElimRule},
		{Name: "gen-bound-elim", Heads: []ast.Kind{ast.KindBigUnion, ast.KindBigBagUnion, ast.KindSum}, Apply: genBoundElimRule},
		{Name: "if-cond-elim", Heads: []ast.Kind{ast.KindIf}, Apply: ifCondElimRule},
	}
}

// tabBoundElimRule replaces i_j < e_j inside a tabulation head with true.
func tabBoundElimRule(e ast.Expr) (ast.Expr, bool) {
	tab, ok := e.(*ast.ArrayTab)
	if !ok {
		return e, false
	}
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
// with true (set and bag unions and summation).
func genBoundElimRule(e ast.Expr) (ast.Expr, bool) {
	var head ast.Expr
	var varName string
	var over ast.Expr
	switch n := e.(type) {
	case *ast.BigUnion:
		head, varName, over = n.Head, n.Var, n.Over
	case *ast.BigBagUnion:
		head, varName, over = n.Head, n.Var, n.Over
	case *ast.Sum:
		head, varName, over = n.Head, n.Var, n.Over
	default:
		return e, false
	}
	g, ok := over.(*ast.Gen)
	if !ok {
		return e, false
	}
	check := &ast.Cmp{Op: ast.OpLt, L: &ast.Var{Name: varName}, R: g.N}
	newHead, count := replaceBool(head, check, true)
	if count == 0 {
		return e, false
	}
	var buf, out ast.Buf
	kids, _ := ast.Open(e, &buf)
	newKids := out.Copy(kids)
	newKids[0] = newHead
	return ast.Rebuild(e, newKids), true
}

// ifCondElimRule replaces occurrences of the condition inside the branches
// of a conditional with the known constant.
func ifCondElimRule(e ast.Expr) (ast.Expr, bool) {
	n, ok := e.(*ast.If)
	if !ok {
		return e, false
	}
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
