// Package types implements the type system of NRCA, the nested relational
// calculus with multidimensional arrays of Libkin, Machlin and Wong
// (SIGMOD 1996), section 2.
//
// Object types are generated by the grammar
//
//	t ::= b | bool | nat | real | string | t1 * ... * tk | {t} | {|t|} | [[t]]_k
//
// where b ranges over uninterpreted base types, {t} is the finite-set type,
// {|t|} is the finite-bag type (used by the expressiveness constructions of
// section 6), and [[t]]_k is the type of k-dimensional arrays with values of
// type t. Object function types are t1 -> t2 with t1, t2 object types.
//
// The package also provides type variables and a union-find unifier
// (unify.go); the surface language (package typecheck) infers types for
// lambda parameters and empty literals by unification, then checks that the
// result is ground.
package types

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind discriminates the structural alternatives of a Type.
type Kind int

// The kinds of NRCA types.
const (
	KindBool   Kind = iota // bool
	KindNat                // nat (natural numbers with monus)
	KindReal               // real (the implementation's uninterpreted numeric base, section 4.2)
	KindString             // string base type
	KindBase               // named uninterpreted base type
	KindTuple              // t1 * ... * tk, k >= 2
	KindSet                // {t}
	KindBag                // {|t|}
	KindArray              // [[t]]_k
	KindFunc               // t1 -> t2
	KindVar                // unification variable (never appears in a ground type)
	KindUnit               // nullary product; the type of ()
)

// Type is an NRCA type. Types are immutable after construction, share
// freely, with one exception: a variable is a union-find node, linked by a
// Unifier to the type it is solved to. A Unifier only ever links the
// variables of the inference that owns them, and what an inference hands
// out (Resolve) has no linked variable left, so shared types never change.
type Type struct {
	Kind Kind
	Name string  // KindBase: the base-type name; KindVar: the variable name, or its prefix when num > 0
	Elts []*Type // KindTuple: components; KindSet/KindBag: [elem]; KindArray: [elem]; KindFunc: [arg, res]
	Dims int     // KindArray: dimensionality k >= 1

	num  int   // KindVar: the number printed after Name, if positive
	link *Type // KindVar: the type a Unifier linked the variable to; nil while unbound
}

// Singleton instances for the fixed base types.
var (
	Bool   = &Type{Kind: KindBool}
	Nat    = &Type{Kind: KindNat}
	Real   = &Type{Kind: KindReal}
	String = &Type{Kind: KindString}
	Unit   = &Type{Kind: KindUnit}
)

// Base returns the uninterpreted base type with the given name.
func Base(name string) *Type { return &Type{Kind: KindBase, Name: name} }

// Tuple returns the product type of the given component types.
// A 0-ary product is Unit; a 1-ary product is the component itself,
// matching the paper's convention that products have arity k >= 2.
func Tuple(elts ...*Type) *Type {
	switch len(elts) {
	case 0:
		return Unit
	case 1:
		return elts[0]
	}
	return &Type{Kind: KindTuple, Elts: elts}
}

// Set returns the finite-set type {elem}.
func Set(elem *Type) *Type { return unary(KindSet, elem, 0) }

// Bag returns the finite-bag type {|elem|}.
func Bag(elem *Type) *Type { return unary(KindBag, elem, 0) }

// Array returns the k-dimensional array type [[elem]]_k. k must be >= 1.
func Array(elem *Type, k int) *Type {
	if k < 1 {
		panic(fmt.Sprintf("types.Array: dimensionality %d < 1", k))
	}
	return unary(KindArray, elem, k)
}

// Func returns the object function type arg -> res.
func Func(arg, res *Type) *Type {
	n := &struct {
		t    Type
		elts [2]*Type
	}{elts: [2]*Type{arg, res}}
	n.t = Type{Kind: KindFunc, Elts: n.elts[:]}
	return &n.t
}

// unary returns a set, bag or array type, allocated in one piece with the
// array behind its Elts.
func unary(kind Kind, elem *Type, dims int) *Type {
	n := &struct {
		t    Type
		elts [1]*Type
	}{elts: [1]*Type{elem}}
	n.t = Type{Kind: kind, Elts: n.elts[:], Dims: dims}
	return &n.t
}

// Var returns a unification variable named name. Callers are responsible
// for name freshness (see NumberedVar).
func Var(name string) *Type { return &Type{Kind: KindVar, Name: name} }

// NumberedVar returns a unification variable named prefix followed by n,
// e.g. 't3 for ("t", 3). The name is formatted only when printed.
func NumberedVar(prefix string, n int) *Type { return &Type{Kind: KindVar, Name: prefix, num: n} }

// appendName appends a variable's name, without the quote, to buf.
func (t *Type) appendName(buf []byte) []byte {
	buf = append(buf, t.Name...)
	if t.num > 0 {
		buf = strconv.AppendInt(buf, int64(t.num), 10)
	}
	return buf
}

// sameName reports whether two variables have the same name, however
// each was made: Var("t3") and NumberedVar("t", 3) are one variable.
func sameName(a, b *Type) bool {
	if a.num == b.num {
		return a.Name == b.Name
	}
	var bufA, bufB [32]byte
	return string(a.appendName(bufA[:0])) == string(b.appendName(bufB[:0]))
}

// Root follows a variable's links to the type it stands for: what a
// Unifier bound it to, or the variable itself while it is unbound. Any
// other type is its own root.
func (t *Type) Root() *Type {
	for t.Kind == KindVar && t.link != nil {
		t = t.link
	}
	return t
}

// NatTuple returns N^k: Nat when k == 1, the k-ary product of Nat otherwise.
// It is the index type of a k-dimensional array (figure 1 of the paper).
func NatTuple(k int) *Type {
	if k == 1 {
		return Nat
	}
	elts := make([]*Type, k)
	for i := range elts {
		elts[i] = Nat
	}
	return &Type{Kind: KindTuple, Elts: elts}
}

// Elem returns the element type of a set, bag or array type, or the
// argument type of a function type.
func (t *Type) Elem() *Type {
	switch t.Kind {
	case KindSet, KindBag, KindArray:
		return t.Elts[0]
	case KindFunc:
		return t.Elts[0]
	}
	panic("types: Elem on " + t.String())
}

// Result returns the result type of a function type.
func (t *Type) Result() *Type {
	if t.Kind != KindFunc {
		panic("types: Result on " + t.String())
	}
	return t.Elts[1]
}

// Arity returns the number of components of a tuple type (1 for non-tuples,
// 0 for Unit).
func (t *Type) Arity() int {
	switch t.Kind {
	case KindTuple:
		return len(t.Elts)
	case KindUnit:
		return 0
	}
	return 1
}

// Equal reports structural equality of two types.
func Equal(a, b *Type) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	a, b = a.Root(), b.Root()
	if a.Kind == KindVar && b.Kind == KindVar {
		return sameName(a, b)
	}
	if a.Kind != b.Kind || a.Name != b.Name ||
		a.Dims != b.Dims || len(a.Elts) != len(b.Elts) {
		return false
	}
	for i := range a.Elts {
		if !Equal(a.Elts[i], b.Elts[i]) {
			return false
		}
	}
	return true
}

// IsGround reports whether t contains no unification variables.
func (t *Type) IsGround() bool {
	if t = t.Root(); t.Kind == KindVar {
		return false
	}
	for _, e := range t.Elts {
		if !e.IsGround() {
			return false
		}
	}
	return true
}

// IsObject reports whether t is an object type (contains no function type).
// Only object types may appear inside collections and tuples in NRCA.
func (t *Type) IsObject() bool {
	if t = t.Root(); t.Kind == KindFunc {
		return false
	}
	for _, e := range t.Elts {
		if !e.IsObject() {
			return false
		}
	}
	return true
}

// Orderable reports whether the linear order <=_t is defined on values of
// type t. In NRCA the order lifts from base types through tuples, sets, bags
// and arrays (section 2, [21]); functions are not ordered.
func (t *Type) Orderable() bool { return t.IsObject() && t.IsGround() }

// FreeVars appends the names of unification variables occurring in t to the
// given set.
func (t *Type) FreeVars(into map[string]bool) {
	if t = t.Root(); t.Kind == KindVar {
		into[string(t.appendName(nil))] = true
	}
	for _, e := range t.Elts {
		e.FreeVars(into)
	}
}

// String renders t in the paper's concrete syntax:
//
//	nat * nat -> nat     {nat}     [[real]]_3     (nat * bool)
//
// One-dimensional arrays print as [[t]] rather than [[t]]_1, following the
// paper's abbreviation.
func (t *Type) String() string {
	var b strings.Builder
	t.write(&b, 0)
	return b.String()
}

// write renders t with precedence-aware parenthesization.
// prec 0: top (arrow allowed); 1: product component; 2: atom.
func (t *Type) write(b *strings.Builder, prec int) {
	switch t = t.Root(); t.Kind {
	case KindBool:
		b.WriteString("bool")
	case KindNat:
		b.WriteString("nat")
	case KindReal:
		b.WriteString("real")
	case KindString:
		b.WriteString("string")
	case KindUnit:
		b.WriteString("unit")
	case KindBase:
		b.WriteString(t.Name)
	case KindVar:
		b.WriteByte('\'')
		var buf [32]byte
		b.Write(t.appendName(buf[:0]))
	case KindSet:
		b.WriteString("{")
		t.Elts[0].write(b, 0)
		b.WriteString("}")
	case KindBag:
		b.WriteString("{|")
		t.Elts[0].write(b, 0)
		b.WriteString("|}")
	case KindArray:
		b.WriteString("[[")
		t.Elts[0].write(b, 0)
		b.WriteString("]]")
		if t.Dims != 1 {
			fmt.Fprintf(b, "_%d", t.Dims)
		}
	case KindTuple:
		if prec >= 1 {
			b.WriteString("(")
		}
		for i, e := range t.Elts {
			if i > 0 {
				b.WriteString(" * ")
			}
			e.write(b, 1)
		}
		if prec >= 1 {
			b.WriteString(")")
		}
	case KindFunc:
		if prec >= 1 {
			b.WriteString("(")
		}
		t.Elts[0].write(b, 1)
		b.WriteString(" -> ")
		t.Elts[1].write(b, 0)
		if prec >= 1 {
			b.WriteString(")")
		}
	default:
		fmt.Fprintf(b, "<bad kind %d>", t.Kind)
	}
}
