// Package ast defines the abstract syntax of NRCA, the nested relational
// calculus with multidimensional arrays (figure 1 of the paper), extended
// with:
//
//   - real and string literals (the implementation's base types, section 4.2);
//   - the O(n) row-major array literal [[n1,...,nk; e0,...]] of section 3;
//   - the ranked union constructs ⋃_r and ⊎_r and the bag constructs of the
//     expressiveness study (section 6);
//   - free variables referring to registered external primitives
//     (section 4.1, "Openness").
//
// Surface AQL (comprehensions, patterns, blocks) is desugared into this
// calculus by package desugar; the optimizer (package opt) rewrites it; the
// evaluator (package eval) executes it.
//
// Every node implements Children/WithChildren for generic traversal and
// Binders, which reports the variables each child is evaluated under; the
// rewriter uses these to implement capture-avoiding rules generically. The
// walkers of this module read children and binders through Open, which
// fills a caller-owned buffer instead of allocating; Children and Binders
// stay for the rules users write against aql.Expr.
package ast

import "fmt"

// Expr is a core-calculus expression.
type Expr interface {
	// Children returns the immediate subexpressions in a fixed order.
	Children() []Expr
	// WithChildren returns a copy of the node with the subexpressions
	// replaced. len(kids) must equal len(Children()).
	WithChildren(kids []Expr) Expr
	// Binders returns, for each child, the variables bound in that child's
	// scope by this node. Children and Binders are index-aligned. The
	// result is read-only: nodes that bind nothing share one slice of nil
	// entries, and a binding node may return its own fields, so a caller
	// must neither write to it nor append to its entries.
	Binders() [][]string
	// String renders the expression in a concrete syntax close to the
	// paper's notation.
	String() string
}

// CmpOp is a comparison operator (figure 1, Booleans row).
type CmpOp string

// Comparison operators.
const (
	OpEq CmpOp = "="
	OpNe CmpOp = "<>"
	OpLt CmpOp = "<"
	OpGt CmpOp = ">"
	OpLe CmpOp = "<="
	OpGe CmpOp = ">="
)

// ArithOp is an arithmetic operator (figure 1, Naturals row). Subtraction
// is monus on naturals. The operators are overloaded at reals by the
// typechecker.
type ArithOp string

// Arithmetic operators.
const (
	OpAdd ArithOp = "+"
	OpSub ArithOp = "-" // monus on nat
	OpMul ArithOp = "*"
	OpDiv ArithOp = "/"
	OpMod ArithOp = "%"
)

// --- Variables and functions -------------------------------------------

// Var is a variable occurrence: a lambda- or comprehension-bound variable,
// a top-level val, or the name of a registered primitive.
type Var struct{ Name string }

// Param is the input placeholder $name of a prepared query: a typed hole
// filled per execution from the argument frame. It is a leaf — macro
// expansion and substitution never touch it, and the optimizer treats it as
// an opaque constant (its value is unknown at rewrite time).
type Param struct{ Name string }

// Lam is lambda abstraction λx.e. Patterns are desugared away before the
// core calculus, so the parameter is a bare variable.
type Lam struct {
	Param string
	Body  Expr
}

// App is function application e1(e2).
type App struct{ Fn, Arg Expr }

// --- Products ------------------------------------------------------------

// Tuple is (e1, ..., ek) with k >= 2, or the unit value () with k == 0.
type Tuple struct{ Elems []Expr }

// Proj is π_{i,k}(e), the i-th projection (1-based) from a k-tuple.
type Proj struct {
	I, K  int
	Tuple Expr
}

// --- Sets and bags -------------------------------------------------------

// Each collection construct is one node. Bag selects its bag analogue of
// section 6; the zero value is the set form. KindOf tells the two apart, so
// rules, spans and traces still see ten constructors.

// Empty is {}, or {||} when Bag.
type Empty struct{ Bag bool }

// Singleton is {e}, or {|e|} when Bag.
type Singleton struct {
	Elem Expr
	Bag  bool
}

// Union is e1 ∪ e2, or e1 ⊎ e2 (multiplicities add) when Bag.
type Union struct {
	L, R Expr
	Bag  bool
}

// BigUnion is ⋃{ e1 | x ∈ e2 }: the union of the sets obtained by applying
// λx.e1 to each element of the set e2; when Bag, ⊎{| e1 | x ∈ e2 |}.
type BigUnion struct {
	Head Expr
	Var  string
	Over Expr
	Bag  bool
}

// RankUnion is ⋃_r{ e1 | x_i ∈ e2 }: like BigUnion, but the body is also
// given the 1-based rank i of x in the linear order on e2 (section 6). When
// Bag it is ⊎_r{| e1 | x_i ∈ e2 |}, and equal values receive consecutive
// ranks.
type RankUnion struct {
	Head    Expr
	Var     string // x, bound to each element
	RankVar string // i, bound to the element's rank (1-based)
	Over    Expr
	Bag     bool
}

// Get is get(e): the unique element of a singleton set, ⊥ otherwise.
type Get struct{ Set Expr }

// --- Booleans and conditionals -------------------------------------------

// BoolLit is true or false.
type BoolLit struct{ Val bool }

// If is if e1 then e2 else e3.
type If struct{ Cond, Then, Else Expr }

// Cmp is e1 op e2 for op ∈ {=, <>, <, >, <=, >=}. Comparison is at any
// orderable object type, via the lifted linear order <=_t.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// --- Natural numbers ------------------------------------------------------

// NatLit is a natural-number constant.
type NatLit struct{ Val int64 }

// RealLit is a real constant (implementation extension).
type RealLit struct{ Val float64 }

// StringLit is a string constant (implementation extension).
type StringLit struct{ Val string }

// Arith is e1 op e2 for op ∈ {+, -, *, /, %}, overloaded at nat and real.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// Gen is gen(e) = {0, ..., e-1}.
type Gen struct{ N Expr }

// Sum is Σ{ e1 | x ∈ e2 }: the sum of λx.e1 applied to each element of e2.
type Sum struct {
	Head Expr
	Var  string
	Over Expr
}

// --- Arrays ---------------------------------------------------------------

// ArrayTab is the tabulation construct [[ e | i1 < e1, ..., ik < ek ]]: the
// k-dimensional array whose j-th dimension has length e_j and whose values
// are given by λ(i1,...,ik).e — a bounded λ-abstraction (section 2).
type ArrayTab struct {
	Head   Expr
	Idx    []string // the bound index variables i1, ..., ik
	Bounds []Expr   // the dimension lengths e1, ..., ek
}

// Subscript is e1[e2]: array subscripting (partial function application).
// For k-dimensional arrays the index is a k-tuple of naturals.
type Subscript struct{ Arr, Index Expr }

// Dim is dim_k(e): the dimensions of an array — a nat when k = 1, a k-tuple
// of nats otherwise.
type Dim struct {
	K   int
	Arr Expr
}

// Index is index_k(e): converts a set of (key, value) pairs with keys in N^k
// into the k-dimensional array of groups of values (figure 1; section 2).
type Index struct {
	K   int
	Set Expr
}

// MkArray is the efficient row-major literal [[ n1,...,nk ; e0, e1, ... ]]
// of section 3. Dims are the k dimension expressions; Elems the values in
// row-major order. It is ⊥ if the element count does not match the product
// of the dimensions.
type MkArray struct {
	Dims  []Expr
	Elems []Expr
}

// --- Errors ---------------------------------------------------------------

// Bottom is the error value ⊥, introduced explicitly so that optimization
// rules can express partiality (sections 2 and 5). With Index set it is the
// ⊥ of an out-of-bounds subscript, the else branch of β^p: it evaluates the
// index components Index, then the dimension lengths Shape of the array
// they miss, and states the evaluator's diagnostic for them, the one the
// subscript it replaces states. Its children are Index, then Shape.
type Bottom struct{ Index, Shape []Expr }

// --- Children / WithChildren / Binders -------------------------------------

// unbound is the shared, read-only Binders result of a node with n
// children that binds nothing; only nodes with more children than the
// shared table covers allocate.
func unbound(n int) [][]string {
	if n <= len(noBinders) {
		return noBinders[:n:n]
	}
	return make([][]string, n)
}

var noBinders [16][]string

// Var
func (e *Var) Children() []Expr           { return nil }
func (e *Var) WithChildren(k []Expr) Expr { return e }
func (e *Var) Binders() [][]string        { return nil }

// Param
func (e *Param) Children() []Expr           { return nil }
func (e *Param) WithChildren(k []Expr) Expr { return e }
func (e *Param) Binders() [][]string        { return nil }

// Lam
func (e *Lam) Children() []Expr           { return []Expr{e.Body} }
func (e *Lam) WithChildren(k []Expr) Expr { return Rebuild(e, k) }
func (e *Lam) Binders() [][]string        { return [][]string{{e.Param}} }

// App
func (e *App) Children() []Expr           { return []Expr{e.Fn, e.Arg} }
func (e *App) WithChildren(k []Expr) Expr { return Rebuild(e, k) }
func (e *App) Binders() [][]string        { return unbound(2) }

// Tuple
func (e *Tuple) Children() []Expr           { return e.Elems }
func (e *Tuple) WithChildren(k []Expr) Expr { return &Tuple{Elems: k} }
func (e *Tuple) Binders() [][]string        { return unbound(len(e.Elems)) }

// Proj
func (e *Proj) Children() []Expr           { return []Expr{e.Tuple} }
func (e *Proj) WithChildren(k []Expr) Expr { return Rebuild(e, k) }
func (e *Proj) Binders() [][]string        { return unbound(1) }

// Empty
func (e *Empty) Children() []Expr           { return nil }
func (e *Empty) WithChildren(k []Expr) Expr { return e }
func (e *Empty) Binders() [][]string        { return nil }

// Singleton
func (e *Singleton) Children() []Expr           { return []Expr{e.Elem} }
func (e *Singleton) WithChildren(k []Expr) Expr { return Rebuild(e, k) }
func (e *Singleton) Binders() [][]string        { return unbound(1) }

// Union
func (e *Union) Children() []Expr           { return []Expr{e.L, e.R} }
func (e *Union) WithChildren(k []Expr) Expr { return Rebuild(e, k) }
func (e *Union) Binders() [][]string        { return unbound(2) }

// BigUnion
func (e *BigUnion) Children() []Expr           { return []Expr{e.Head, e.Over} }
func (e *BigUnion) WithChildren(k []Expr) Expr { return Rebuild(e, k) }
func (e *BigUnion) Binders() [][]string        { return [][]string{{e.Var}, nil} }

// RankUnion
func (e *RankUnion) Children() []Expr           { return []Expr{e.Head, e.Over} }
func (e *RankUnion) WithChildren(k []Expr) Expr { return Rebuild(e, k) }
func (e *RankUnion) Binders() [][]string        { return [][]string{{e.Var, e.RankVar}, nil} }

// Get
func (e *Get) Children() []Expr           { return []Expr{e.Set} }
func (e *Get) WithChildren(k []Expr) Expr { return Rebuild(e, k) }
func (e *Get) Binders() [][]string        { return unbound(1) }

// BoolLit
func (e *BoolLit) Children() []Expr           { return nil }
func (e *BoolLit) WithChildren(k []Expr) Expr { return e }
func (e *BoolLit) Binders() [][]string        { return nil }

// If
func (e *If) Children() []Expr           { return []Expr{e.Cond, e.Then, e.Else} }
func (e *If) WithChildren(k []Expr) Expr { return Rebuild(e, k) }
func (e *If) Binders() [][]string        { return unbound(3) }

// Cmp
func (e *Cmp) Children() []Expr           { return []Expr{e.L, e.R} }
func (e *Cmp) WithChildren(k []Expr) Expr { return Rebuild(e, k) }
func (e *Cmp) Binders() [][]string        { return unbound(2) }

// NatLit
func (e *NatLit) Children() []Expr           { return nil }
func (e *NatLit) WithChildren(k []Expr) Expr { return e }
func (e *NatLit) Binders() [][]string        { return nil }

// RealLit
func (e *RealLit) Children() []Expr           { return nil }
func (e *RealLit) WithChildren(k []Expr) Expr { return e }
func (e *RealLit) Binders() [][]string        { return nil }

// StringLit
func (e *StringLit) Children() []Expr           { return nil }
func (e *StringLit) WithChildren(k []Expr) Expr { return e }
func (e *StringLit) Binders() [][]string        { return nil }

// Arith
func (e *Arith) Children() []Expr           { return []Expr{e.L, e.R} }
func (e *Arith) WithChildren(k []Expr) Expr { return Rebuild(e, k) }
func (e *Arith) Binders() [][]string        { return unbound(2) }

// Gen
func (e *Gen) Children() []Expr           { return []Expr{e.N} }
func (e *Gen) WithChildren(k []Expr) Expr { return Rebuild(e, k) }
func (e *Gen) Binders() [][]string        { return unbound(1) }

// Sum
func (e *Sum) Children() []Expr           { return []Expr{e.Head, e.Over} }
func (e *Sum) WithChildren(k []Expr) Expr { return Rebuild(e, k) }
func (e *Sum) Binders() [][]string        { return [][]string{{e.Var}, nil} }

// ArrayTab
func (e *ArrayTab) Children() []Expr {
	kids := make([]Expr, 0, len(e.Bounds)+1)
	kids = append(kids, e.Head)
	kids = append(kids, e.Bounds...)
	return kids
}
func (e *ArrayTab) WithChildren(k []Expr) Expr {
	return &ArrayTab{Head: k[0], Idx: e.Idx, Bounds: k[1:]}
}
func (e *ArrayTab) Binders() [][]string {
	// The head is evaluated under all index variables; the bounds under none.
	b := make([][]string, len(e.Bounds)+1)
	b[0] = e.Idx
	return b
}

// Subscript
func (e *Subscript) Children() []Expr           { return []Expr{e.Arr, e.Index} }
func (e *Subscript) WithChildren(k []Expr) Expr { return Rebuild(e, k) }
func (e *Subscript) Binders() [][]string        { return unbound(2) }

// Dim
func (e *Dim) Children() []Expr           { return []Expr{e.Arr} }
func (e *Dim) WithChildren(k []Expr) Expr { return Rebuild(e, k) }
func (e *Dim) Binders() [][]string        { return unbound(1) }

// Index
func (e *Index) Children() []Expr           { return []Expr{e.Set} }
func (e *Index) WithChildren(k []Expr) Expr { return Rebuild(e, k) }
func (e *Index) Binders() [][]string        { return unbound(1) }

// MkArray
func (e *MkArray) Children() []Expr {
	kids := make([]Expr, 0, len(e.Dims)+len(e.Elems))
	kids = append(kids, e.Dims...)
	kids = append(kids, e.Elems...)
	return kids
}
func (e *MkArray) WithChildren(k []Expr) Expr {
	return &MkArray{Dims: k[:len(e.Dims)], Elems: k[len(e.Dims):]}
}
func (e *MkArray) Binders() [][]string { return unbound(len(e.Dims) + len(e.Elems)) }

// Bottom
func (e *Bottom) Children() []Expr {
	if e.Index == nil {
		return nil
	}
	return append(append([]Expr(nil), e.Index...), e.Shape...)
}
func (e *Bottom) WithChildren(k []Expr) Expr {
	if e.Index == nil {
		return e
	}
	return &Bottom{Index: k[:len(e.Index):len(e.Index)], Shape: k[len(e.Index):]}
}
func (e *Bottom) Binders() [][]string { return unbound(len(e.Index) + len(e.Shape)) }

// sanity check: all nodes implement Expr.
var (
	_ Expr = (*Var)(nil)
	_ Expr = (*Param)(nil)
	_ Expr = (*Lam)(nil)
	_ Expr = (*App)(nil)
	_ Expr = (*Tuple)(nil)
	_ Expr = (*Proj)(nil)
	_ Expr = (*Empty)(nil)
	_ Expr = (*Singleton)(nil)
	_ Expr = (*Union)(nil)
	_ Expr = (*BigUnion)(nil)
	_ Expr = (*RankUnion)(nil)
	_ Expr = (*Get)(nil)
	_ Expr = (*BoolLit)(nil)
	_ Expr = (*If)(nil)
	_ Expr = (*Cmp)(nil)
	_ Expr = (*NatLit)(nil)
	_ Expr = (*RealLit)(nil)
	_ Expr = (*StringLit)(nil)
	_ Expr = (*Arith)(nil)
	_ Expr = (*Gen)(nil)
	_ Expr = (*Sum)(nil)
	_ Expr = (*ArrayTab)(nil)
	_ Expr = (*Subscript)(nil)
	_ Expr = (*Dim)(nil)
	_ Expr = (*Index)(nil)
	_ Expr = (*MkArray)(nil)
	_ Expr = (*Bottom)(nil)
)

// Kind identifies a node's constructor. The optimizer states each rule's
// left side as a tree of kinds (opt.Pattern) and indexes its rules by the
// kind at the root.
type Kind uint8

// The node kinds, one per constructor of the calculus: a collection node
// has one kind for its set form and one for its bag form. KindOther is the
// kind of an Expr implemented outside this package.
const (
	KindOther Kind = iota
	KindVar
	KindParam
	KindLam
	KindApp
	KindTuple
	KindProj
	KindEmptySet
	KindSingleton
	KindUnion
	KindBigUnion
	KindGet
	KindBoolLit
	KindIf
	KindCmp
	KindNatLit
	KindRealLit
	KindStringLit
	KindArith
	KindGen
	KindSum
	KindArrayTab
	KindSubscript
	KindDim
	KindIndex
	KindMkArray
	KindBottom
	KindEmptyBag
	KindSingletonBag
	KindBagUnion
	KindBigBagUnion
	KindRankUnion
	KindRankBagUnion

	// NumKinds is one more than the largest Kind, for kind-indexed tables.
	NumKinds
)

var kindNames = [NumKinds]string{
	KindOther: "Other", KindVar: "Var", KindParam: "Param", KindLam: "Lam", KindApp: "App",
	KindTuple: "Tuple", KindProj: "Proj", KindEmptySet: "EmptySet",
	KindSingleton: "Singleton", KindUnion: "Union", KindBigUnion: "BigUnion",
	KindGet: "Get", KindBoolLit: "BoolLit", KindIf: "If", KindCmp: "Cmp",
	KindNatLit: "NatLit", KindRealLit: "RealLit", KindStringLit: "StringLit",
	KindArith: "Arith", KindGen: "Gen", KindSum: "Sum", KindArrayTab: "ArrayTab",
	KindSubscript: "Subscript", KindDim: "Dim", KindIndex: "Index", KindMkArray: "MkArray",
	KindBottom: "Bottom", KindEmptyBag: "EmptyBag", KindSingletonBag: "SingletonBag",
	KindBagUnion: "BagUnion", KindBigBagUnion: "BigBagUnion", KindRankUnion: "RankUnion",
	KindRankBagUnion: "RankBagUnion",
}

// String is the constructor name, e.g. "ArrayTab".
func (k Kind) String() string { return kindNames[k] }

// KindOf returns the kind of e with a single type switch.
func KindOf(e Expr) Kind {
	switch n := e.(type) {
	case *Var:
		return KindVar
	case *Param:
		return KindParam
	case *Lam:
		return KindLam
	case *App:
		return KindApp
	case *Tuple:
		return KindTuple
	case *Proj:
		return KindProj
	case *Empty:
		return setOrBag(n.Bag, KindEmptySet)
	case *Singleton:
		return setOrBag(n.Bag, KindSingleton)
	case *Union:
		return setOrBag(n.Bag, KindUnion)
	case *BigUnion:
		return setOrBag(n.Bag, KindBigUnion)
	case *RankUnion:
		return setOrBag(n.Bag, KindRankUnion)
	case *Get:
		return KindGet
	case *BoolLit:
		return KindBoolLit
	case *If:
		return KindIf
	case *Cmp:
		return KindCmp
	case *NatLit:
		return KindNatLit
	case *RealLit:
		return KindRealLit
	case *StringLit:
		return KindStringLit
	case *Arith:
		return KindArith
	case *Gen:
		return KindGen
	case *Sum:
		return KindSum
	case *ArrayTab:
		return KindArrayTab
	case *Subscript:
		return KindSubscript
	case *Dim:
		return KindDim
	case *Index:
		return KindIndex
	case *MkArray:
		return KindMkArray
	case *Bottom:
		return KindBottom
	}
	return KindOther
}

// bagKind maps the kind of each set construct to its bag analogue.
var bagKind = [NumKinds]Kind{
	KindEmptySet: KindEmptyBag, KindSingleton: KindSingletonBag, KindUnion: KindBagUnion,
	KindBigUnion: KindBigBagUnion, KindRankUnion: KindRankBagUnion,
}

// setOrBag is k, the kind of a set construct, or its bag analogue when bag.
func setOrBag(bag bool, k Kind) Kind {
	if bag {
		return bagKind[k]
	}
	return k
}

// AllNodeNames lists every constructor name; tests use it to check that
// a traversal covers every node type.
func AllNodeNames() []string { return append([]string(nil), kindNames[KindOther+1:]...) }

// NodeName returns the constructor name of e, for diagnostics.
func NodeName(e Expr) string {
	if k := KindOf(e); k != KindOther {
		return k.String()
	}
	return fmt.Sprintf("%T", e)
}
