// Package parser implements the AQL surface syntax (section 3 of the paper):
// comprehensions with generators and filters, patterns, pattern-matching
// lambdas (fn P => e), let blocks, infix operators, literals for all complex
// object types, and the top-level declaration forms of section 4 (val, macro,
// readval, writeval).
//
// The parser produces a surface AST; package desugar translates it into the
// core calculus of package ast using the tables of figure 2.
package parser

import "github.com/aqldb/aql/internal/scan"

// Expr is a surface expression.
type Expr interface{ Pos() scan.Pos }

// Ident is a variable or primitive reference.
type Ident struct {
	Name string
	At   scan.Pos
}

// NatLit is a natural literal.
type NatLit struct {
	Val int64
	At  scan.Pos
}

// RealLit is a real literal.
type RealLit struct {
	Val float64
	At  scan.Pos
}

// StringLit is a string literal.
type StringLit struct {
	Val string
	At  scan.Pos
}

// BoolLit is true or false.
type BoolLit struct {
	Val bool
	At  scan.Pos
}

// BottomLit is the error literal _|_.
type BottomLit struct{ At scan.Pos }

// ParamE is the input placeholder $name: a typed hole filled per execution
// from the argument frame of a prepared query.
type ParamE struct {
	Name string
	At   scan.Pos
}

// TupleE is (e1, ..., ek); k = 0 is the unit value. (e) parses as e.
type TupleE struct {
	Elems []Expr
	At    scan.Pos
}

// SetE is the set literal {e1, ..., en}, or the bag literal {|e1, ..., en|}
// when Bag.
type SetE struct {
	Elems []Expr
	Bag   bool
	At    scan.Pos
}

// ArrayE is an array literal: [[e1, ..., en]] or the row-major form
// [[n1, ..., nk; e0, ..., e_{n1*...*nk-1}]] of section 3.
type ArrayE struct {
	Dims  []Expr // nil for the 1-dimensional bracket form
	Elems []Expr
	At    scan.Pos
}

// TabE is the array tabulation [[ e | \i1 < e1, ..., \ik < ek ]] — the
// paper's core construct for defining a k-dimensional array from a function
// of its indices (section 2).
type TabE struct {
	Head   Expr
	Idx    []string
	Bounds []Expr
	At     scan.Pos
}

func (e *TabE) Pos() scan.Pos { return e.At }

// Comp is a comprehension { e | Q1, ..., Qn } (or a bag comprehension with
// {| |} brackets).
type Comp struct {
	Head  Expr
	Quals []Qual
	Bag   bool
	At    scan.Pos
}

// Fn is a pattern-matching lambda: fn P => e.
type Fn struct {
	Pat  Pat
	Body Expr
	At   scan.Pos
}

// LetDecl is one `val P = e` declaration of a let block.
type LetDecl struct {
	Pat Pat
	E   Expr
}

// Let is let val P1 = e1 ... val Pn = en in e end.
type Let struct {
	Decls []LetDecl
	Body  Expr
	At    scan.Pos
}

// IfE is if e1 then e2 else e3.
type IfE struct {
	Cond, Then, Else Expr
	At               scan.Pos
}

// Bin is an infix application: arithmetic (+ - * / %), comparison
// (= <> < > <= >=), logical (and, or), and membership (mem).
type Bin struct {
	Op   string
	L, R Expr
	At   scan.Pos
}

// Not is the prefix logical negation.
type Not struct {
	E  Expr
	At scan.Pos
}

// AppE is function application f!e.
type AppE struct {
	Fn, Arg Expr
	At      scan.Pos
}

// SubE is array subscripting e[i1, ..., ik].
type SubE struct {
	Arr     Expr
	Indices []Expr
	At      scan.Pos
}

// SumMap is summap(f)!e, the surface notation for Σ{ f(x) | x ∈ e }
// (section 4.2).
type SumMap struct {
	F, Over Expr
	At      scan.Pos
}

func (e *Ident) Pos() scan.Pos     { return e.At }
func (e *NatLit) Pos() scan.Pos    { return e.At }
func (e *RealLit) Pos() scan.Pos   { return e.At }
func (e *StringLit) Pos() scan.Pos { return e.At }
func (e *BoolLit) Pos() scan.Pos   { return e.At }
func (e *BottomLit) Pos() scan.Pos { return e.At }
func (e *ParamE) Pos() scan.Pos    { return e.At }
func (e *TupleE) Pos() scan.Pos    { return e.At }
func (e *SetE) Pos() scan.Pos      { return e.At }
func (e *ArrayE) Pos() scan.Pos    { return e.At }
func (e *Comp) Pos() scan.Pos      { return e.At }
func (e *Fn) Pos() scan.Pos        { return e.At }
func (e *Let) Pos() scan.Pos       { return e.At }
func (e *IfE) Pos() scan.Pos       { return e.At }
func (e *Bin) Pos() scan.Pos       { return e.At }
func (e *Not) Pos() scan.Pos       { return e.At }
func (e *AppE) Pos() scan.Pos      { return e.At }
func (e *SubE) Pos() scan.Pos      { return e.At }
func (e *SumMap) Pos() scan.Pos    { return e.At }

// Qual is a comprehension qualifier: a generator, an array generator, a
// binding, or a filter.
type Qual interface{ qual() }

// GenQ is the generator P <- e.
type GenQ struct {
	Pat Pat
	Src Expr
}

// ArrGenQ is the array generator [P1 : P2] <- e, sugar for iterating over
// the domain of the array e, matching the index against P1 and the value
// against P2 (section 3).
type ArrGenQ struct {
	IdxPat, ValPat Pat
	Src            Expr
}

// BindQ is the binding P == e, shorthand for P <- {e}.
type BindQ struct {
	Pat Pat
	E   Expr
}

// FilterQ is a boolean filter expression.
type FilterQ struct{ E Expr }

func (*GenQ) qual()    {}
func (*ArrGenQ) qual() {}
func (*BindQ) qual()   {}
func (*FilterQ) qual() {}

// Pat is a pattern: P ::= (P1,...,Pk) | _ | c | x | \x (section 3).
type Pat interface{ pat() }

// PVar is the binding pattern \x.
type PVar struct{ Name string }

// PRef is the non-binding pattern x: matches only the value currently bound
// to x.
type PRef struct{ Name string }

// PWild is the wildcard pattern _.
type PWild struct{}

// PConst is a constant pattern: matches only that constant.
type PConst struct{ E Expr }

// PTuple is the tuple pattern (P1, ..., Pk).
type PTuple struct{ Elems []Pat }

func (*PVar) pat()   {}
func (*PRef) pat()   {}
func (*PWild) pat()  {}
func (*PConst) pat() {}
func (*PTuple) pat() {}

// Stmt is a top-level statement in the AQL read-eval-print loop
// (section 4).
type Stmt interface{ stmt() }

// ValDecl is `val \x = e;`: evaluate e and keep the complex object.
type ValDecl struct {
	Name string
	E    Expr
}

// MacroDecl is `macro \m = e;`: keep the query for substitution into later
// queries.
type MacroDecl struct {
	Name string
	E    Expr
}

// ReadVal is `readval \x using READER at e;` (section 4.1).
type ReadVal struct {
	Name   string
	Reader string
	At     Expr
}

// WriteVal is `writeval e using WRITER at e';`.
type WriteVal struct {
	E      Expr
	Writer string
	At     Expr
}

// ExprStmt is a bare query `e;`.
type ExprStmt struct{ E Expr }

func (*ValDecl) stmt()   {}
func (*MacroDecl) stmt() {}
func (*ReadVal) stmt()   {}
func (*WriteVal) stmt()  {}
func (*ExprStmt) stmt()  {}
