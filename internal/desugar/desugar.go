// Package desugar translates AQL surface syntax into the core calculus,
// implementing both translation tables of figure 2 of the paper:
//
//	{e1 | \x <- e2, GF}  =>  U{ {e1 | GF} | x in e2 }
//	{e1 | e2, GF}        =>  if e2 then {e1 | GF} else {}
//	{e | }               =>  {e}
//
// and the pattern translations
//
//	fn _ => e            =>  \z. e
//	fn (P1,...,Pn) => e  =>  \z. ((\P1. ... ((\Pn. e)(pi_n,n z)))...)(pi_1,n z)
//	U{e1 | P' <- e2}     =>  U{ (\P'.e1)(z) | \z <- e2 }
//	U{e1 | P <- e2}      =>  U{ if z = CX then e1 else {} | NewP <- e2 }
//
// where CX is the leftmost constant or non-binding variable of P and NewP
// is P with that occurrence replaced by a fresh binding variable.
//
// Blocks desugar as let val P = e1 in e2 end => (\P. e2)(e1), and the array
// generator [P1 : P2] <- A of section 3 desugars into index generators over
// gen(dim(A)) plus bindings, with the dimensionality k taken from the arity
// of the index pattern P1.
package desugar

import (
	"fmt"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/parser"
)

// Expr translates a surface expression into the core calculus.
func Expr(e parser.Expr) (ast.Expr, error) {
	return expr(e)
}

func expr(e parser.Expr) (ast.Expr, error) {
	switch n := e.(type) {
	case *parser.Ident:
		return &ast.Var{Name: n.Name}, nil
	case *parser.NatLit:
		return &ast.NatLit{Val: n.Val}, nil
	case *parser.RealLit:
		return &ast.RealLit{Val: n.Val}, nil
	case *parser.StringLit:
		return &ast.StringLit{Val: n.Val}, nil
	case *parser.BoolLit:
		return &ast.BoolLit{Val: n.Val}, nil
	case *parser.BottomLit:
		return &ast.Bottom{}, nil
	case *parser.ParamE:
		return &ast.Param{Name: n.Name}, nil

	case *parser.TupleE:
		elems := make([]ast.Expr, len(n.Elems))
		for i, x := range n.Elems {
			d, err := expr(x)
			if err != nil {
				return nil, err
			}
			elems[i] = d
		}
		return &ast.Tuple{Elems: elems}, nil

	case *parser.SetE:
		// {a, b, c} = {a} ∪ {b} ∪ {c} (section 3), and likewise for bags.
		var out ast.Expr = &ast.Empty{Bag: n.Bag}
		for i := len(n.Elems) - 1; i >= 0; i-- {
			d, err := expr(n.Elems[i])
			if err != nil {
				return nil, err
			}
			s := &ast.Singleton{Elem: d, Bag: n.Bag}
			if i == len(n.Elems)-1 {
				out = s
			} else {
				out = &ast.Union{L: s, R: out, Bag: n.Bag}
			}
		}
		return out, nil

	case *parser.ArrayE:
		dims := n.Dims
		if dims == nil {
			// A plain [[e1, ..., en]] literal: the efficient row-major
			// construct with the single dimension n (section 3 adds this
			// construct precisely so literals need not be built by O(n²)
			// monoid appends).
			dims = []parser.Expr{&parser.NatLit{Val: int64(len(n.Elems))}}
		}
		dn := make([]ast.Expr, len(dims))
		for i, d := range dims {
			x, err := expr(d)
			if err != nil {
				return nil, err
			}
			dn[i] = x
		}
		en := make([]ast.Expr, len(n.Elems))
		for i, el := range n.Elems {
			x, err := expr(el)
			if err != nil {
				return nil, err
			}
			en[i] = x
		}
		return &ast.MkArray{Dims: dn, Elems: en}, nil

	case *parser.TabE:
		head, err := expr(n.Head)
		if err != nil {
			return nil, err
		}
		bounds := make([]ast.Expr, len(n.Bounds))
		for i, b := range n.Bounds {
			d, err := expr(b)
			if err != nil {
				return nil, err
			}
			bounds[i] = d
		}
		return &ast.ArrayTab{Head: head, Idx: n.Idx, Bounds: bounds}, nil

	case *parser.Comp:
		return comp(n)

	case *parser.Fn:
		body, err := expr(n.Body)
		if err != nil {
			return nil, err
		}
		return lamPat(n.Pat, body)

	case *parser.Let:
		// let val P1 = e1 ... in e end => (\P1. (... e))(e1), innermost last.
		body, err := expr(n.Body)
		if err != nil {
			return nil, err
		}
		out := body
		for i := len(n.Decls) - 1; i >= 0; i-- {
			d := n.Decls[i]
			bound, err := expr(d.E)
			if err != nil {
				return nil, err
			}
			lam, err := lamPat(d.Pat, out)
			if err != nil {
				return nil, err
			}
			out = &ast.App{Fn: lam, Arg: bound}
		}
		return out, nil

	case *parser.IfE:
		c, err := expr(n.Cond)
		if err != nil {
			return nil, err
		}
		th, err := expr(n.Then)
		if err != nil {
			return nil, err
		}
		el, err := expr(n.Else)
		if err != nil {
			return nil, err
		}
		return &ast.If{Cond: c, Then: th, Else: el}, nil

	case *parser.Bin:
		return binop(n)

	case *parser.Not:
		d, err := expr(n.E)
		if err != nil {
			return nil, err
		}
		return &ast.If{Cond: d, Then: &ast.BoolLit{Val: false}, Else: &ast.BoolLit{Val: true}}, nil

	case *parser.AppE:
		return appE(n)

	case *parser.SubE:
		arr, err := expr(n.Arr)
		if err != nil {
			return nil, err
		}
		var index ast.Expr
		if len(n.Indices) == 1 {
			index, err = expr(n.Indices[0])
			if err != nil {
				return nil, err
			}
		} else {
			elems := make([]ast.Expr, len(n.Indices))
			for i, x := range n.Indices {
				d, err := expr(x)
				if err != nil {
					return nil, err
				}
				elems[i] = d
			}
			index = &ast.Tuple{Elems: elems}
		}
		return &ast.Subscript{Arr: arr, Index: index}, nil

	case *parser.SumMap:
		// summap(f)!e = Σ{ f(x) | x ∈ e }.
		f, err := expr(n.F)
		if err != nil {
			return nil, err
		}
		over, err := expr(n.Over)
		if err != nil {
			return nil, err
		}
		z := ast.Fresh("s")
		return &ast.Sum{Head: &ast.App{Fn: f, Arg: &ast.Var{Name: z}}, Var: z, Over: over}, nil
	}
	return nil, fmt.Errorf("desugar: unhandled surface node %T", e)
}

// binop desugars infix operators. `and` and `or` become conditionals (they
// are macros in the paper, section 3); `mem` becomes the member primitive.
func binop(n *parser.Bin) (ast.Expr, error) {
	l, err := expr(n.L)
	if err != nil {
		return nil, err
	}
	r, err := expr(n.R)
	if err != nil {
		return nil, err
	}
	switch n.Op {
	case "and":
		return &ast.If{Cond: l, Then: r, Else: &ast.BoolLit{Val: false}}, nil
	case "or":
		return &ast.If{Cond: l, Then: &ast.BoolLit{Val: true}, Else: r}, nil
	case "mem":
		return &ast.App{Fn: &ast.Var{Name: "member"}, Arg: &ast.Tuple{Elems: []ast.Expr{l, r}}}, nil
	case "union":
		return &ast.Union{L: l, R: r}, nil
	case "uplus":
		return &ast.Union{L: l, R: r, Bag: true}, nil
	case "+", "-", "*", "/", "%":
		return &ast.Arith{Op: ast.ArithOp(n.Op), L: l, R: r}, nil
	case "=", "<>", "<", ">", "<=", ">=":
		return &ast.Cmp{Op: ast.CmpOp(n.Op), L: l, R: r}, nil
	}
	return nil, fmt.Errorf("desugar: unknown operator %q", n.Op)
}

// appE desugars f!e, recognizing the core-construct names gen, get, len,
// dim_k, index_k, and pi_i_k. These are reserved: they always denote the
// core constructs, as in the paper's concrete syntax.
func appE(n *parser.AppE) (ast.Expr, error) {
	arg, err := expr(n.Arg)
	if err != nil {
		return nil, err
	}
	if id, ok := n.Fn.(*parser.Ident); ok {
		switch {
		case id.Name == "gen":
			return &ast.Gen{N: arg}, nil
		case id.Name == "get":
			return &ast.Get{Set: arg}, nil
		case id.Name == "len":
			return &ast.Dim{K: 1, Arr: arg}, nil
		case id.Name == "graph":
			// graph(A) for 1-d arrays; graph_k via dim pattern below.
			return graphExpr(arg, 1), nil
		}
		if k, ok := suffixNum(id.Name, "dim_"); ok {
			return &ast.Dim{K: k, Arr: arg}, nil
		}
		if k, ok := suffixNum(id.Name, "index_"); ok {
			return &ast.Index{K: k, Set: arg}, nil
		}
		if k, ok := suffixNum(id.Name, "graph_"); ok {
			return graphExpr(arg, k), nil
		}
		if i, k, ok := projNums(id.Name); ok {
			return &ast.Proj{I: i, K: k, Tuple: arg}, nil
		}
		if i, k, ok := dimProjNums(id.Name); ok {
			// dim_i_k = pi_i,k ∘ dim_k (section 2's abbreviation).
			return &ast.Proj{I: i, K: k, Tuple: &ast.Dim{K: k, Arr: arg}}, nil
		}
	}
	fn, err := expr(n.Fn)
	if err != nil {
		return nil, err
	}
	return &ast.App{Fn: fn, Arg: arg}, nil
}

// graphExpr builds graph_k(e) = U{ {(i, a[i])} | i ∈ dom_k(a) } with the
// argument bound once.
func graphExpr(arg ast.Expr, k int) ast.Expr {
	a := ast.Fresh("g")
	av := func() ast.Expr { return &ast.Var{Name: a} }
	idxVars := make([]string, k)
	for j := range idxVars {
		idxVars[j] = ast.Fresh("gi")
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
	body := &ast.Singleton{Elem: &ast.Tuple{Elems: []ast.Expr{
		idxExpr, &ast.Subscript{Arr: av(), Index: idxExpr},
	}}}
	out := ast.Expr(body)
	for j := k - 1; j >= 0; j-- {
		var bound ast.Expr
		if k == 1 {
			bound = &ast.Dim{K: 1, Arr: av()}
		} else {
			bound = &ast.Proj{I: j + 1, K: k, Tuple: &ast.Dim{K: k, Arr: av()}}
		}
		out = &ast.BigUnion{Head: out, Var: idxVars[j], Over: &ast.Gen{N: bound}}
	}
	return &ast.App{Fn: &ast.Lam{Param: a, Body: out}, Arg: arg}
}

// suffixNum matches names like dim_3 against a prefix, returning the
// numeric suffix.
func suffixNum(name, prefix string) (int, bool) {
	if len(name) <= len(prefix) || name[:len(prefix)] != prefix {
		return 0, false
	}
	n := 0
	for _, c := range name[len(prefix):] {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	if n < 1 {
		return 0, false
	}
	return n, true
}

// projNums matches pi_i_k.
func projNums(name string) (i, k int, ok bool) {
	return twoNums(name, "pi_")
}

// dimProjNums matches dim_i_k (two numeric components).
func dimProjNums(name string) (i, k int, ok bool) {
	return twoNums(name, "dim_")
}

func twoNums(name, prefix string) (int, int, bool) {
	if len(name) <= len(prefix) || name[:len(prefix)] != prefix {
		return 0, 0, false
	}
	rest := name[len(prefix):]
	sep := -1
	for j := 0; j < len(rest); j++ {
		if rest[j] == '_' {
			sep = j
			break
		}
	}
	if sep <= 0 || sep == len(rest)-1 {
		return 0, 0, false
	}
	a, ok1 := atoi(rest[:sep])
	b, ok2 := atoi(rest[sep+1:])
	if !ok1 || !ok2 || a < 1 || b < 2 || a > b {
		return 0, 0, false
	}
	return a, b, true
}

func atoi(s string) (int, bool) {
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, len(s) > 0
}
