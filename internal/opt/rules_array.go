package opt

import (
	"github.com/aqldb/aql/internal/ast"
)

// ArrayRules returns the three array rules of section 5 — β^p, η^p, δ^p —
// generalized to k dimensions, plus literal-array folding.
func ArrayRules() []Rule {
	return []Rule{
		{Name: "beta-p", Match: []Pattern{P(ast.KindSubscript, P(ast.KindArrayTab))}, Apply: betaPRule},
		{Name: "eta-p", Match: []Pattern{P(ast.KindArrayTab, P(ast.KindSubscript))}, Apply: etaPRule},
		{Name: "delta-p", Match: []Pattern{P(ast.KindDim, P(ast.KindArrayTab))}, Apply: deltaPRule},
		{Name: "mkarray-dim", Match: []Pattern{P(ast.KindDim, P(ast.KindMkArray))}, Apply: mkArrayDimRule},
		{Name: "mkarray-sub", Match: []Pattern{P(ast.KindSubscript, P(ast.KindMkArray))}, Apply: mkArraySubRule},
	}
}

// betaPRule is the partial β rule:
//
//	[[e1 | i < e2]][e3]  ~>  if e3 < e2 then e1{i := e3} else ⊥
//
// k-dimensionally, the index is a k-tuple and the guard is the conjunction
// of the per-dimension bound checks:
//
//	[[e | i1 < n1, ..., ik < nk]][(a1,...,ak)] ~>
//	   if a1 < n1 then (... if ak < nk then e{i := a} else ⊥ ...) else ⊥
//
// The rule saves time and space by avoiding materialization of the
// intermediary array (section 5).
func betaPRule(e ast.Expr) (ast.Expr, bool) {
	sub := e.(*ast.Subscript)
	tab := sub.Arr.(*ast.ArrayTab)
	k := len(tab.Idx)
	// Per-dimension index expressions.
	idxExprs := make([]ast.Expr, k)
	if k == 1 {
		idxExprs[0] = sub.Index
	} else if t, ok := sub.Index.(*ast.Tuple); ok && len(t.Elems) == k {
		copy(idxExprs, t.Elems)
	} else {
		// The index is a k-tuple-valued expression that is not a literal
		// tuple; project each component.
		for j := 0; j < k; j++ {
			idxExprs[j] = &ast.Proj{I: j + 1, K: k, Tuple: sub.Index}
		}
	}
	// The index expressions are substituted into the body and also appear
	// in the guards; only inline when that duplication is harmless.
	for _, ie := range idxExprs {
		if !inlineOK(ie) {
			return e, false
		}
	}
	// Substitute indices into the head. The substitution must be
	// simultaneous: the index expressions may mention variables named like
	// the tabulation's own binders (e.g. transpose composed with itself),
	// so rename the binders to fresh names first.
	body := tab.Head
	fresh := make([]string, k)
	for j, name := range tab.Idx {
		fresh[j] = ast.Fresh(name)
		body = ast.Subst(body, name, &ast.Var{Name: fresh[j]})
	}
	for j := range tab.Idx {
		body = ast.Subst(body, fresh[j], idxExprs[j])
	}
	// Wrap with bound checks, outermost dimension first.
	out := body
	for j := k - 1; j >= 0; j-- {
		out = &ast.If{
			Cond: &ast.Cmp{Op: ast.OpLt, L: idxExprs[j], R: tab.Bounds[j]},
			Then: out,
			Else: &ast.Bottom{},
		}
	}
	return out, true
}

// etaPRule is the partial η rule:
//
//	[[e[i] | i < len(e)]]  ~>  e
//
// k-dimensionally, the head must be e[(i1,...,ik)] and the j-th bound must
// be π_{j,k}(dim_k(e)), with the index variables not free in e. The rule
// avoids retabulating an existing array (section 5).
func etaPRule(e ast.Expr) (ast.Expr, bool) {
	tab := e.(*ast.ArrayTab)
	k := len(tab.Idx)
	sub := tab.Head.(*ast.Subscript)
	arr := sub.Arr
	// The index variables must not be free in the subject array.
	for _, iv := range tab.Idx {
		if ast.IsFree(iv, arr) {
			return e, false
		}
	}
	// The subscript must be exactly the index variables in order.
	if k == 1 {
		v, ok := sub.Index.(*ast.Var)
		if !ok || v.Name != tab.Idx[0] {
			return e, false
		}
		// The bound must be len(arr).
		d, ok := tab.Bounds[0].(*ast.Dim)
		if !ok || d.K != 1 || !ast.AlphaEqual(d.Arr, arr) {
			return e, false
		}
		return arr, true
	}
	t, ok := sub.Index.(*ast.Tuple)
	if !ok || len(t.Elems) != k {
		return e, false
	}
	for j, x := range t.Elems {
		v, ok := x.(*ast.Var)
		if !ok || v.Name != tab.Idx[j] {
			return e, false
		}
	}
	for j, b := range tab.Bounds {
		p, ok := b.(*ast.Proj)
		if !ok || p.I != j+1 || p.K != k {
			return e, false
		}
		d, ok := p.Tuple.(*ast.Dim)
		if !ok || d.K != k || !ast.AlphaEqual(d.Arr, arr) {
			return e, false
		}
	}
	return arr, true
}

// deltaPRule is the domain-extraction rule:
//
//	dim_k([[e | i1 < e1, ..., ik < ek]])  ~>  (e1, ..., ek)
//
// It avoids tabulating an array only to measure it. As the paper notes,
// the rule is sound only if the tabulation body is error-free; like the
// paper's optimizer, we apply it unconditionally and accept that a query
// whose sole effect was a ⊥ buried in a dead tabulation loses it.
func deltaPRule(e ast.Expr) (ast.Expr, bool) {
	d := e.(*ast.Dim)
	tab := d.Arr.(*ast.ArrayTab)
	if len(tab.Idx) != d.K {
		return e, false
	}
	if d.K == 1 {
		return tab.Bounds[0], true
	}
	elems := make([]ast.Expr, d.K)
	copy(elems, tab.Bounds)
	return &ast.Tuple{Elems: elems}, true
}

// mkArrayDimRule: dim_k([[n1,...,nk; ...]]) ~> (n1,...,nk) when the literal
// is well-formed (dimension expressions are literals whose product matches
// the element count).
func mkArrayDimRule(e ast.Expr) (ast.Expr, bool) {
	d := e.(*ast.Dim)
	mk := d.Arr.(*ast.MkArray)
	if len(mk.Dims) != d.K {
		return e, false
	}
	dims, ok := literalDims(mk)
	if !ok {
		return e, false
	}
	size := 1
	for _, n := range dims {
		size *= int(n)
	}
	if size != len(mk.Elems) {
		return e, false // the literal is ⊥; leave it to the evaluator
	}
	if d.K == 1 {
		return &ast.NatLit{Val: dims[0]}, true
	}
	elems := make([]ast.Expr, d.K)
	for j, n := range dims {
		elems[j] = &ast.NatLit{Val: n}
	}
	return &ast.Tuple{Elems: elems}, true
}

// mkArraySubRule: [[n1,...,nk; e0,...]][c] ~> e_offset for constant
// in-bounds subscripts of well-formed literals.
func mkArraySubRule(e ast.Expr) (ast.Expr, bool) {
	sub := e.(*ast.Subscript)
	mk := sub.Arr.(*ast.MkArray)
	dims, ok := literalDims(mk)
	if !ok {
		return e, false
	}
	size := 1
	for _, n := range dims {
		size *= int(n)
	}
	if size != len(mk.Elems) {
		return e, false
	}
	k := len(dims)
	var idx []int64
	if k == 1 {
		n, ok := sub.Index.(*ast.NatLit)
		if !ok {
			return e, false
		}
		idx = []int64{n.Val}
	} else {
		t, ok := sub.Index.(*ast.Tuple)
		if !ok || len(t.Elems) != k {
			return e, false
		}
		for _, x := range t.Elems {
			n, ok := x.(*ast.NatLit)
			if !ok {
				return e, false
			}
			idx = append(idx, n.Val)
		}
	}
	off := int64(0)
	for j, i := range idx {
		if i < 0 || i >= dims[j] {
			return &ast.Bottom{}, true // constant out-of-bounds subscript
		}
		off = off*dims[j] + i
	}
	return mk.Elems[off], true
}

func literalDims(mk *ast.MkArray) ([]int64, bool) {
	dims := make([]int64, len(mk.Dims))
	for j, d := range mk.Dims {
		n, ok := d.(*ast.NatLit)
		if !ok || n.Val < 0 {
			return nil, false
		}
		dims[j] = n.Val
	}
	return dims, true
}
