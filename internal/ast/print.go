package ast

import (
	"fmt"
	"strings"
)

// String renders each node in a concrete syntax close to the paper's
// mathematical notation, e.g.
//
//	U{ {x} | x in gen(10) }
//	[[ A[i] | i < len(A) ]]
//	\x. pi_1,2(x)
//
// The rendering is for diagnostics and tests; it is not re-parsed.

func (e *Var) String() string       { return e.Name }
func (e *Param) String() string     { return "$" + e.Name }
func (e *Lam) String() string       { return fmt.Sprintf("\\%s. %s", e.Param, e.Body) }
func (e *App) String() string       { return fmt.Sprintf("%s(%s)", parens(e.Fn), e.Arg) }
func (e *Get) String() string       { return fmt.Sprintf("get(%s)", e.Set) }
func (e *NatLit) String() string    { return fmt.Sprintf("%d", e.Val) }
func (e *RealLit) String() string   { return fmt.Sprintf("%g", e.Val) }
func (e *StringLit) String() string { return fmt.Sprintf("%q", e.Val) }
func (e *Gen) String() string       { return fmt.Sprintf("gen(%s)", e.N) }
func (e *Bottom) String() string    { return "_|_" }

func (e *BoolLit) String() string {
	if e.Val {
		return "true"
	}
	return "false"
}

func (e *Tuple) String() string {
	parts := make([]string, len(e.Elems))
	for i, x := range e.Elems {
		parts[i] = x.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

func (e *Proj) String() string {
	return fmt.Sprintf("pi_%d,%d(%s)", e.I, e.K, e.Tuple)
}

func (e *Empty) String() string {
	open, closing := braces(e.Bag)
	return open + closing
}

func (e *Singleton) String() string {
	open, closing := braces(e.Bag)
	return fmt.Sprintf("%s%s%s", open, e.Elem, closing)
}

func (e *Union) String() string {
	op := "union"
	if e.Bag {
		op = "uplus"
	}
	return fmt.Sprintf("(%s %s %s)", e.L, op, e.R)
}

func (e *BigUnion) String() string {
	open, closing := braces(e.Bag)
	return fmt.Sprintf("U%s%s %s | %s in %s %s", plus(e.Bag), open, e.Head, e.Var, e.Over, closing)
}

func (e *RankUnion) String() string {
	open, closing := braces(e.Bag)
	return fmt.Sprintf("U%sr%s %s | %s_%s in %s %s", plus(e.Bag), open, e.Head, e.Var, e.RankVar, e.Over, closing)
}

// braces are the brackets of a set, or of a bag when bag.
func braces(bag bool) (string, string) {
	if bag {
		return "{|", "|}"
	}
	return "{", "}"
}

// plus marks the big unions of bags: U+ beside U.
func plus(bag bool) string {
	if bag {
		return "+"
	}
	return ""
}

func (e *If) String() string {
	return fmt.Sprintf("(if %s then %s else %s)", e.Cond, e.Then, e.Else)
}

func (e *Cmp) String() string   { return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R) }
func (e *Arith) String() string { return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R) }

func (e *Sum) String() string {
	return fmt.Sprintf("sum{ %s | %s in %s }", e.Head, e.Var, e.Over)
}

func (e *ArrayTab) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[[ %s | ", e.Head)
	for j := range e.Idx {
		if j > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s < %s", e.Idx[j], e.Bounds[j])
	}
	b.WriteString(" ]]")
	return b.String()
}

func (e *Subscript) String() string {
	return fmt.Sprintf("%s[%s]", parens(e.Arr), e.Index)
}

func (e *Dim) String() string   { return fmt.Sprintf("dim_%d(%s)", e.K, e.Arr) }
func (e *Index) String() string { return fmt.Sprintf("index_%d(%s)", e.K, e.Set) }

func (e *MkArray) String() string {
	var b strings.Builder
	b.WriteString("[[")
	for i, d := range e.Dims {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(d.String())
	}
	b.WriteString("; ")
	for i, x := range e.Elems {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(x.String())
	}
	b.WriteString("]]")
	return b.String()
}

// parens wraps compound expressions that would be ambiguous in head
// position (application and subscripting).
func parens(e Expr) string {
	switch e.(type) {
	case *Var, *Param, *App, *Subscript, *Tuple, *NatLit:
		return e.String()
	}
	return "(" + e.String() + ")"
}
