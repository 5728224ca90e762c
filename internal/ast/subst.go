package ast

import (
	"strconv"
	"sync/atomic"
)

// FreeVars returns the set of free variables of e.
func FreeVars(e Expr) map[string]bool {
	out := map[string]bool{}
	collectFree(e, map[string]int{}, out)
	return out
}

func collectFree(e Expr, bound map[string]int, out map[string]bool) {
	if v, ok := e.(*Var); ok {
		if bound[v.Name] == 0 {
			out[v.Name] = true
		}
		return
	}
	var buf Buf
	kids, binders := Open(e, &buf)
	for i, kid := range kids {
		for _, b := range binders[i] {
			bound[b]++
		}
		collectFree(kid, bound, out)
		for _, b := range binders[i] {
			bound[b]--
		}
	}
}

// IsFree reports whether name occurs free in e. It stops at the first
// free occurrence and builds no set; FreeVars is for callers that need all
// of them.
func IsFree(name string, e Expr) bool {
	if v, ok := e.(*Var); ok {
		return v.Name == name
	}
	var buf Buf
	kids, binders := Open(e, &buf)
	for i, kid := range kids {
		if !binds(binders[i], name) && IsFree(name, kid) {
			return true
		}
	}
	return false
}

// binds reports whether name is among a child's binders.
func binds(binders []string, name string) bool {
	for _, b := range binders {
		if b == name {
			return true
		}
	}
	return false
}

// capturesFree reports whether any of binders occurs free in e.
func capturesFree(binders []string, e Expr) bool {
	for _, b := range binders {
		if IsFree(b, e) {
			return true
		}
	}
	return false
}

var freshCounter atomic.Int64

// Fresh returns a variable name guaranteed not to collide with any name
// produced by the parser (which never emits '%').
func Fresh(hint string) string {
	var buf [32]byte
	b := append(append(buf[:0], '%'), hint...)
	return string(strconv.AppendInt(b, freshCounter.Add(1), 10))
}

// Subst returns e with every free occurrence of name replaced by repl,
// renaming binders as needed to avoid capturing free variables of repl
// (capture-avoiding substitution; the β and β^p rules of section 5 rely
// on it).
func Subst(e Expr, name string, repl Expr) Expr {
	if v, ok := e.(*Var); ok {
		if v.Name == name {
			return repl
		}
		return e
	}
	var buf Buf
	kids, binders := Open(e, &buf)
	if len(kids) == 0 {
		return e
	}

	// First rename any binder of this node that would capture a free
	// variable of repl, in children where name is free (where substitution
	// will actually descend). The binders are few and repl is small, so
	// testing them against repl first keeps the walk of the child rare.
	for i := range kids {
		if binds(binders[i], name) {
			continue // substitution does not descend into this child
		}
		if !capturesFree(binders[i], repl) || !IsFree(name, kids[i]) {
			continue
		}
		var renames [][2]string
		for _, b := range binders[i] {
			if IsFree(b, repl) {
				renames = append(renames, [2]string{b, Fresh(b)})
			}
		}
		e = renameBinders(e, i, renames)
		kids, binders = Open(e, &buf)
	}

	var out Buf
	var newKids []Expr // copied at the first child that changes
	for i, kid := range kids {
		if binds(binders[i], name) {
			continue
		}
		nk := Subst(kid, name, repl)
		if nk == kid {
			continue
		}
		if newKids == nil {
			newKids = out.Copy(kids)
		}
		newKids[i] = nk
	}
	if newKids == nil {
		return e
	}
	return Rebuild(e, newKids)
}

// renameBinders renames the given binders of child i of e (and the
// occurrences of each old name inside that child).
func renameBinders(e Expr, child int, renames [][2]string) Expr {
	var buf, out Buf
	kids, _ := Open(e, &buf)
	kid := kids[child]
	for _, rn := range renames {
		kid = Subst(kid, rn[0], &Var{Name: rn[1]})
	}
	kids2 := out.Copy(kids)
	kids2[child] = kid
	e2 := Rebuild(e, kids2)
	// Patch the binder names on the copied node.
	switch n := e2.(type) {
	case *Lam:
		n.Param = renamed(n.Param, renames)
	case *BigUnion:
		n.Var = renamed(n.Var, renames)
	case *Sum:
		n.Var = renamed(n.Var, renames)
	case *RankUnion:
		n.Var = renamed(n.Var, renames)
		n.RankVar = renamed(n.RankVar, renames)
	case *ArrayTab:
		idx := make([]string, len(n.Idx))
		for j, v := range n.Idx {
			idx[j] = renamed(v, renames)
		}
		n.Idx = idx
	default:
		panic("ast: renameBinders on non-binding node " + NodeName(e2))
	}
	return e2
}

func renamed(name string, renames [][2]string) string {
	for _, rn := range renames {
		if rn[0] == name {
			return rn[1]
		}
	}
	return name
}

// AlphaEqual reports whether two expressions are equal up to consistent
// renaming of bound variables. The optimizer calls it at every node of a
// loop body, so it allocates nothing for terms binding up to eight
// variables deep and keeps no global state.
func AlphaEqual(a, b Expr) bool {
	var buf [8]boundPair
	return alphaEq(a, b, buf[:0])
}

// boundPair is a binder of one side and the binder at the same position of
// the other.
type boundPair struct{ a, b string }

// alphaEq compares a and b under scope, the binders enclosing them with
// the innermost last. A bound variable equals exactly the variable bound
// by the same pair on the other side, so no renaming is needed.
func alphaEq(a, b Expr, scope []boundPair) bool {
	va, okA := a.(*Var)
	vb, okB := b.(*Var)
	if okA != okB {
		return false
	}
	if okA {
		ia, ib := -1, -1
		for j := len(scope) - 1; j >= 0 && (ia < 0 || ib < 0); j-- {
			if ia < 0 && scope[j].a == va.Name {
				ia = j
			}
			if ib < 0 && scope[j].b == vb.Name {
				ib = j
			}
		}
		if ia != ib {
			return false
		}
		return ia >= 0 || va.Name == vb.Name
	}
	if !sameShape(a, b) {
		return false
	}
	var bufA, bufB Buf
	kidsA, bindA := Open(a, &bufA)
	kidsB, bindB := Open(b, &bufB)
	if len(kidsA) != len(kidsB) {
		return false
	}
	for i := range kidsA {
		if len(bindA[i]) != len(bindB[i]) {
			return false
		}
		inner := scope
		for j := range bindA[i] {
			inner = append(inner, boundPair{bindA[i][j], bindB[i][j]})
		}
		if !alphaEq(kidsA[i], kidsB[i], inner) {
			return false
		}
	}
	return true
}

// sameShape compares the non-child, non-binder payload of two nodes.
func sameShape(a, b Expr) bool {
	switch x := a.(type) {
	case *Param:
		y, ok := b.(*Param)
		return ok && x.Name == y.Name
	case *Proj:
		y, ok := b.(*Proj)
		return ok && x.I == y.I && x.K == y.K
	case *BoolLit:
		y, ok := b.(*BoolLit)
		return ok && x.Val == y.Val
	case *Cmp:
		y, ok := b.(*Cmp)
		return ok && x.Op == y.Op
	case *NatLit:
		y, ok := b.(*NatLit)
		return ok && x.Val == y.Val
	case *RealLit:
		y, ok := b.(*RealLit)
		return ok && x.Val == y.Val
	case *StringLit:
		y, ok := b.(*StringLit)
		return ok && x.Val == y.Val
	case *Arith:
		y, ok := b.(*Arith)
		return ok && x.Op == y.Op
	case *Dim:
		y, ok := b.(*Dim)
		return ok && x.K == y.K
	case *Index:
		y, ok := b.(*Index)
		return ok && x.K == y.K
	case *MkArray:
		y, ok := b.(*MkArray)
		return ok && len(x.Dims) == len(y.Dims)
	case *Tuple:
		y, ok := b.(*Tuple)
		return ok && len(x.Elems) == len(y.Elems)
	case *ArrayTab:
		y, ok := b.(*ArrayTab)
		return ok && len(x.Idx) == len(y.Idx)
	default:
		return KindOf(a) == KindOf(b)
	}
}
