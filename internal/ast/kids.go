package ast

import "unsafe"

// Buf is caller-owned storage for one node's children and binders; see
// Open. A walker declares one per frame, where it stays on the stack.
type Buf struct {
	kids    [bufLen]Expr
	binders [bufLen][]string
}

// bufLen covers every fixed-arity node and tabulations of up to five
// bounds.
const bufLen = 6

// Open returns e's children and, index-aligned with them, the variables
// each child is evaluated under: what e.Children() and e.Binders() return,
// without allocating for the nodes of this package. Both results point into
// buf or into e, are read-only, and stay valid until buf is reused. A tuple
// returns its own Elems; a tabulation of more than five bounds and an array
// literal of more than six dimensions and elements allocate, as do the
// binders of a tuple of more than 16 elements and any Expr implemented
// outside this package, which Open asks through Children and Binders.
func Open(e Expr, buf *Buf) ([]Expr, [][]string) {
	switch n := e.(type) {
	case *Var, *Param, *Empty, *BoolLit, *NatLit, *RealLit, *StringLit, *Bottom:
		return nil, nil
	case *Lam:
		buf.kids[0] = n.Body
		buf.binders[0] = unsafe.Slice(&n.Param, 1)
		return buf.kids[:1:1], buf.binders[:1:1]
	case *App:
		return buf.two(n.Fn, n.Arg)
	case *Tuple:
		return n.Elems, unbound(len(n.Elems))
	case *Proj:
		return buf.one(n.Tuple)
	case *Singleton:
		return buf.one(n.Elem)
	case *Union:
		return buf.two(n.L, n.R)
	case *BigUnion:
		return buf.loop(n.Head, n.Over, unsafe.Slice(&n.Var, 1))
	case *Get:
		return buf.one(n.Set)
	case *If:
		buf.kids[0], buf.kids[1], buf.kids[2] = n.Cond, n.Then, n.Else
		return buf.kids[:3:3], unbound(3)
	case *Cmp:
		return buf.two(n.L, n.R)
	case *Arith:
		return buf.two(n.L, n.R)
	case *Gen:
		return buf.one(n.N)
	case *Sum:
		return buf.loop(n.Head, n.Over, unsafe.Slice(&n.Var, 1))
	case *ArrayTab:
		if len(n.Bounds) >= bufLen {
			return n.Children(), n.Binders()
		}
		k := len(n.Bounds) + 1
		buf.kids[0], buf.binders[0] = n.Head, n.Idx
		for j, b := range n.Bounds {
			buf.kids[j+1], buf.binders[j+1] = b, nil
		}
		return buf.kids[:k:k], buf.binders[:k:k]
	case *Subscript:
		return buf.two(n.Arr, n.Index)
	case *Dim:
		return buf.one(n.Arr)
	case *Index:
		return buf.one(n.Set)
	case *MkArray:
		k := len(n.Dims) + len(n.Elems)
		if k > bufLen {
			return n.Children(), n.Binders()
		}
		copy(buf.kids[copy(buf.kids[:], n.Dims):], n.Elems)
		return buf.kids[:k:k], unbound(k)
	case *RankUnion:
		return buf.loop(n.Head, n.Over, unsafe.Slice(&n.Var, 2))
	}
	return e.Children(), e.Binders()
}

// A ranked union's binders are read as the two adjacent string fields Var
// and RankVar; each constant overflows, and fails to compile, if the struct
// ever separates them.
const (
	_ = unsafe.Offsetof(RankUnion{}.RankVar) - unsafe.Offsetof(RankUnion{}.Var) - unsafe.Sizeof("")
	_ = unsafe.Sizeof("") + unsafe.Offsetof(RankUnion{}.Var) - unsafe.Offsetof(RankUnion{}.RankVar)
)

func (buf *Buf) one(a Expr) ([]Expr, [][]string) {
	buf.kids[0] = a
	return buf.kids[:1:1], unbound(1)
}

func (buf *Buf) two(a, b Expr) ([]Expr, [][]string) {
	buf.kids[0], buf.kids[1] = a, b
	return buf.kids[:2:2], unbound(2)
}

// loop is a node whose head is evaluated under vars and whose source is
// not.
func (buf *Buf) loop(head, over Expr, vars []string) ([]Expr, [][]string) {
	buf.kids[0], buf.kids[1] = head, over
	buf.binders[0], buf.binders[1] = vars, nil
	return buf.kids[:2:2], buf.binders[:2:2]
}

// Copy returns a copy of kids that the caller may write to, in buf when it
// fits: the new children of a node about to be rebuilt.
func (buf *Buf) Copy(kids []Expr) []Expr {
	if len(kids) > bufLen {
		return append([]Expr(nil), kids...)
	}
	return buf.kids[:copy(buf.kids[:], kids):len(kids)]
}

// Rebuild returns a copy of e with its children replaced by kids, as
// e.WithChildren(kids) does, but never keeps kids, so they may live in a
// Buf: a node that holds its children in a slice of its own (a tuple, a
// tabulation, an array literal, an Expr from outside this package) gets a
// copy of them.
func Rebuild(e Expr, kids []Expr) Expr {
	switch n := e.(type) {
	case *Lam:
		return &Lam{Param: n.Param, Body: kids[0]}
	case *App:
		return &App{Fn: kids[0], Arg: kids[1]}
	case *Proj:
		return &Proj{I: n.I, K: n.K, Tuple: kids[0]}
	case *Singleton:
		return &Singleton{Elem: kids[0], Bag: n.Bag}
	case *Union:
		return &Union{L: kids[0], R: kids[1], Bag: n.Bag}
	case *BigUnion:
		return &BigUnion{Head: kids[0], Var: n.Var, Over: kids[1], Bag: n.Bag}
	case *Get:
		return &Get{Set: kids[0]}
	case *If:
		return &If{Cond: kids[0], Then: kids[1], Else: kids[2]}
	case *Cmp:
		return &Cmp{Op: n.Op, L: kids[0], R: kids[1]}
	case *Arith:
		return &Arith{Op: n.Op, L: kids[0], R: kids[1]}
	case *Gen:
		return &Gen{N: kids[0]}
	case *Sum:
		return &Sum{Head: kids[0], Var: n.Var, Over: kids[1]}
	case *Subscript:
		return &Subscript{Arr: kids[0], Index: kids[1]}
	case *Dim:
		return &Dim{K: n.K, Arr: kids[0]}
	case *Index:
		return &Index{K: n.K, Set: kids[0]}
	case *RankUnion:
		return &RankUnion{Head: kids[0], Var: n.Var, RankVar: n.RankVar, Over: kids[1], Bag: n.Bag}
	}
	return e.WithChildren(append([]Expr(nil), kids...))
}
