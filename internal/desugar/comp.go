package desugar

import (
	"fmt"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/parser"
)

// comp desugars a comprehension by the first table of figure 2, processing
// qualifiers left to right. Bag comprehensions use the bag constructs
// throughout (section 6's NBC).
func comp(c *parser.Comp) (ast.Expr, error) {
	return compQuals(c.Head, c.Quals, c.Bag)
}

func compQuals(head parser.Expr, quals []parser.Qual, bag bool) (ast.Expr, error) {
	if len(quals) == 0 {
		// {e | } => {e}
		h, err := expr(head)
		if err != nil {
			return nil, err
		}
		return &ast.Singleton{Elem: h, Bag: bag}, nil
	}
	rest := quals[1:]
	switch q := quals[0].(type) {
	case *parser.FilterQ:
		// {e1 | e2, GF} => if e2 then {e1 | GF} else {}
		cond, err := expr(q.E)
		if err != nil {
			return nil, err
		}
		inner, err := compQuals(head, rest, bag)
		if err != nil {
			return nil, err
		}
		return &ast.If{Cond: cond, Then: inner, Else: &ast.Empty{Bag: bag}}, nil

	case *parser.GenQ:
		src, err := expr(q.Src)
		if err != nil {
			return nil, err
		}
		inner, err := compQuals(head, rest, bag)
		if err != nil {
			return nil, err
		}
		return genTrans(q.Pat, src, inner, bag)

	case *parser.BindQ:
		// P == e is shorthand for P <- {e} (section 3).
		src, err := expr(q.E)
		if err != nil {
			return nil, err
		}
		inner, err := compQuals(head, rest, bag)
		if err != nil {
			return nil, err
		}
		return genTrans(q.Pat, &ast.Singleton{Elem: src, Bag: bag}, inner, bag)

	case *parser.ArrGenQ:
		// [P1 : P2] <- A: iterate the array's domain. The dimensionality k
		// is the arity of the index pattern P1.
		return arrGen(q, head, rest, bag)
	}
	return nil, fmt.Errorf("desugar: unhandled qualifier %T", quals[0])
}

// genTrans translates the generator P <- src with continuation inner,
// following the second table of figure 2: constants and non-binding
// variables in P peel off into equality filters on a fresh binding
// variable; what remains is a lambda pattern handled by lamPat.
func genTrans(p parser.Pat, src, inner ast.Expr, bag bool) (ast.Expr, error) {
	// Fast path: a bare binding variable.
	if pv, ok := p.(*parser.PVar); ok {
		return &ast.BigUnion{Head: inner, Var: pv.Name, Over: src, Bag: bag}, nil
	}
	if isLamPat(p) {
		// U{e1 | P' <- e2} => U{ (\P'.e1)(z) | \z <- e2 }
		z := ast.Fresh("p")
		lam, err := lamPat(p, inner)
		if err != nil {
			return nil, err
		}
		body := &ast.App{Fn: lam, Arg: &ast.Var{Name: z}}
		return &ast.BigUnion{Head: body, Var: z, Over: src, Bag: bag}, nil
	}
	// U{e1 | P <- e2} => U{ if z = CX then e1 else {} | NewP <- e2 }
	// where CX is the leftmost constant or non-binding variable of P.
	z := ast.Fresh("c")
	newP, cx, err := replaceLeftmost(p, z)
	if err != nil {
		return nil, err
	}
	guarded := &ast.If{
		Cond: &ast.Cmp{Op: ast.OpEq, L: &ast.Var{Name: z}, R: cx},
		Then: inner,
		Else: &ast.Empty{Bag: bag},
	}
	return genTrans(newP, src, guarded, bag)
}

// isLamPat reports whether p is a lambda pattern: only binding variables,
// wildcards and tuples of lambda patterns (P' in the paper's grammar).
func isLamPat(p parser.Pat) bool {
	switch n := p.(type) {
	case *parser.PVar, *parser.PWild:
		return true
	case *parser.PTuple:
		for _, sub := range n.Elems {
			if !isLamPat(sub) {
				return false
			}
		}
		return true
	}
	return false
}

// replaceLeftmost returns p with its leftmost constant or non-binding
// variable replaced by the fresh binding variable z, together with the
// core expression CX that the replaced occurrence denotes.
func replaceLeftmost(p parser.Pat, z string) (parser.Pat, ast.Expr, error) {
	switch n := p.(type) {
	case *parser.PConst:
		cx, err := expr(n.E)
		if err != nil {
			return nil, nil, err
		}
		return &parser.PVar{Name: z}, cx, nil
	case *parser.PRef:
		return &parser.PVar{Name: z}, &ast.Var{Name: n.Name}, nil
	case *parser.PTuple:
		for i, sub := range n.Elems {
			if isLamPat(sub) {
				continue
			}
			newSub, cx, err := replaceLeftmost(sub, z)
			if err != nil {
				return nil, nil, err
			}
			elems := make([]parser.Pat, len(n.Elems))
			copy(elems, n.Elems)
			elems[i] = newSub
			return &parser.PTuple{Elems: elems}, cx, nil
		}
	}
	return nil, nil, fmt.Errorf("desugar: pattern has no constant to replace")
}

// lamPat builds λP.e for a lambda pattern P (figure 2):
//
//	λ\x.e            => \x. e
//	λ_.e             => \z. e            (z fresh)
//	λ(P1,...,Pn).e   => \z. ((λP1. ... ((λPn. e)(pi_n,n z)) ...)(pi_1,n z))
func lamPat(p parser.Pat, body ast.Expr) (*ast.Lam, error) {
	switch n := p.(type) {
	case *parser.PVar:
		return &ast.Lam{Param: n.Name, Body: body}, nil
	case *parser.PWild:
		return &ast.Lam{Param: ast.Fresh("w"), Body: body}, nil
	case *parser.PTuple:
		z := ast.Fresh("t")
		k := len(n.Elems)
		if k == 0 {
			// Unit pattern: nothing to bind.
			return &ast.Lam{Param: z, Body: body}, nil
		}
		// Innermost first: (λPn.e)(pi_n z), then wrap with Pn-1, etc.
		out := body
		for i := k - 1; i >= 0; i-- {
			lam, err := lamPat(n.Elems[i], out)
			if err != nil {
				return nil, err
			}
			var proj ast.Expr
			if k == 1 {
				proj = &ast.Var{Name: z}
			} else {
				proj = &ast.Proj{I: i + 1, K: k, Tuple: &ast.Var{Name: z}}
			}
			out = &ast.App{Fn: lam, Arg: proj}
		}
		return &ast.Lam{Param: z, Body: out}, nil
	case *parser.PConst, *parser.PRef:
		return nil, fmt.Errorf("desugar: constants and non-binding variables are not allowed in lambda patterns")
	}
	return nil, fmt.Errorf("desugar: unhandled pattern %T", p)
}

// arrGen desugars the array generator [P1 : P2] <- A (section 3):
//
//	[\i : \x] <- A  ==  \i <- dom(A), \x <- {A[i]}
//
// generalized to k dimensions (k = arity of P1) by iterating each dimension
// with gen(dim_j,k(A)) and binding the index tuple. The source A is bound
// once so it is not re-evaluated per element.
func arrGen(q *parser.ArrGenQ, head parser.Expr, rest []parser.Qual, bag bool) (ast.Expr, error) {
	src, err := expr(q.Src)
	if err != nil {
		return nil, err
	}
	k := 1
	if pt, ok := q.IdxPat.(*parser.PTuple); ok {
		k = len(pt.Elems)
	}
	arr := ast.Fresh("a")
	arrV := func() ast.Expr { return &ast.Var{Name: arr} }

	idxVars := make([]string, k)
	for j := range idxVars {
		idxVars[j] = ast.Fresh("i")
	}
	var idxExpr ast.Expr
	if k == 1 {
		idxExpr = &ast.Var{Name: idxVars[0]}
	} else {
		elems := make([]ast.Expr, k)
		for j := range elems {
			elems[j] = &ast.Var{Name: idxVars[j]}
		}
		idxExpr = &ast.Tuple{Elems: elems}
	}

	inner, err := compQuals(head, rest, bag)
	if err != nil {
		return nil, err
	}

	// Innermost: bind P2 to the element, then P1 to the index (both via the
	// singleton-generator translation so arbitrary patterns work).
	elemSingle := &ast.Singleton{Elem: &ast.Subscript{Arr: arrV(), Index: idxExpr}, Bag: bag}
	withVal, err := genTrans(q.ValPat, elemSingle, inner, bag)
	if err != nil {
		return nil, err
	}
	withIdx, err := genTrans(q.IdxPat, &ast.Singleton{Elem: idxExpr, Bag: bag}, withVal, bag)
	if err != nil {
		return nil, err
	}

	// Wrap with the index loops, innermost dimension last.
	out := withIdx
	for j := k - 1; j >= 0; j-- {
		var bound ast.Expr
		if k == 1 {
			bound = &ast.Dim{K: 1, Arr: arrV()}
		} else {
			bound = &ast.Proj{I: j + 1, K: k, Tuple: &ast.Dim{K: k, Arr: arrV()}}
		}
		out = &ast.BigUnion{Head: out, Var: idxVars[j], Over: &ast.Gen{N: bound}, Bag: bag}
	}
	// Bind the array once.
	return &ast.App{Fn: &ast.Lam{Param: arr, Body: out}, Arg: src}, nil
}
