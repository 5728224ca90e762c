// Package object implements the complex-object library of the AQL system
// (Libkin, Machlin, Wong, SIGMOD 1996, section 4.1): the runtime values that
// queries evaluate to.
//
// A complex object is a boolean, a natural number, a real, a string, a value
// of an uninterpreted base type, a k-tuple of complex objects, a finite set
// of complex objects, a finite bag of complex objects (used by the
// expressiveness constructions of section 6), a k-dimensional array of
// complex objects, or the error value ⊥. Function values also appear at
// runtime (lambda closures and registered external primitives — the paper's
// CO.Funct), but they are not objects: they cannot be stored in collections
// whose contents must be linearly ordered.
//
// Sets are kept canonical — sorted by the total linear order Compare and
// deduplicated — so set equality is structural equality and the order-based
// constructs of section 6 (rank, ⋃_r) are well defined. Bags are kept sorted
// with multiplicities preserved. Arrays are dense and row-major.
package object

import (
	"context"
	"fmt"
	"math"
	"strings"
)

// Kind discriminates the run-time alternatives of a Value. It is one byte so
// that it shares a word with Value.B.
type Kind uint8

// The kinds of runtime values. The zero kind is KInvalid, so that the zero
// Value is not mistaken for any legal object (in particular not for ⊥).
const (
	KInvalid Kind = iota // zero value of Value; never a legal object
	KBottom              // ⊥, the error value
	KBool
	KNat
	KReal
	KString
	KBase  // value of an uninterpreted base type: a (type name, literal) pair
	KTuple // k-tuple, k >= 2 (or unit when len(Elems) == 0)
	KSet   // canonical: sorted, deduplicated
	KBag   // sorted, duplicates preserved
	KArray // dense row-major k-dimensional array
	KFunc  // closure or external primitive; not an object type
)

// String returns the kind name, for diagnostics.
func (k Kind) String() string {
	switch k {
	case KInvalid:
		return "invalid"
	case KBottom:
		return "bottom"
	case KBool:
		return "bool"
	case KNat:
		return "nat"
	case KReal:
		return "real"
	case KString:
		return "string"
	case KBase:
		return "base"
	case KTuple:
		return "tuple"
	case KSet:
		return "set"
	case KBag:
		return "bag"
	case KArray:
		return "array"
	case KFunc:
		return "function"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Value is a runtime complex object. Values are immutable by convention:
// no code in this module mutates a Value after construction, so values may
// be shared freely (including across goroutines).
//
// The struct is what every eager array cell, frame slot, set element and
// boxed result of both engines is, so it holds inline only what a scalar
// or a collection header needs (80 bytes); what strings, base values,
// diagnosed ⊥, functions and lazy arrays carry sits behind the one cold
// pointer. The compiled engine does not pass numbers between nodes as
// Values: numeric nodes return an unboxed 32-byte scalar, and a Value is
// built once, where a result is stored (internal/compile/scalar.go).
type Value struct {
	Kind  Kind
	B     bool    // KBool
	N     int64   // KNat: always >= 0
	R     float64 // KReal
	Elems []Value // KTuple components; KSet/KBag elements (canonical order); KArray row-major cells, len == product(Shape), nil when lazy
	Shape []int   // KArray: dimension lengths, len(Shape) == k >= 1

	// c is nil for bool, nat, real, tuple, set, bag, eager array and the
	// undiagnosed ⊥, which therefore allocate nothing of their own.
	c *cold
}

// cold is the part of a Value no scalar needs. It is written once, by the
// constructor, and shared by every copy of the Value.
type cold struct {
	s    string                     // KString; KBase: the literal; KBottom: the diagnostic
	base string                     // KBase: the base-type name
	fn   func(Value) (Value, error) // KFunc: the entry any caller may use
	// code is what the engine that made a KFunc knows about it beyond fn
	// (its closure record); nil for primitives and foreign functions.
	code any
	// lazy, when non-nil, marks a KArray whose cells live in a backing
	// store (tile cache) instead of Elems. See lazy.go.
	lazy ArrayBacking
}

// Str returns the string payload: the text of a KString, the literal of a
// KBase, the diagnostic of a KBottom (empty when it has none).
func (v Value) Str() string {
	if v.c == nil {
		return ""
	}
	return v.c.s
}

// BaseType returns the base-type name of a KBase value.
func (v Value) BaseType() string {
	if v.c == nil {
		return ""
	}
	return v.c.base
}

// Fn returns the Go function behind a KFunc value, nil for any other kind.
func (v Value) Fn() func(Value) (Value, error) {
	if v.c == nil {
		return nil
	}
	return v.c.fn
}

// Code returns what FuncWithCode attached to a function value, or nil.
func (v Value) Code() any {
	if v.c == nil {
		return nil
	}
	return v.c.code
}

// Bottom is the error value ⊥. The message is carried for diagnostics only;
// all bottoms are equal as values.
func Bottom(msg string) Value {
	if msg == "" {
		return Value{Kind: KBottom}
	}
	return Value{Kind: KBottom, c: &cold{s: msg}}
}

// IsBottom reports whether v is the error value.
func (v Value) IsBottom() bool { return v.Kind == KBottom }

// Bool returns a boolean object.
func Bool(b bool) Value { return Value{Kind: KBool, B: b} }

// Nat returns a natural-number object. Negative arguments are a programming
// error in the evaluator (naturals are closed under the paper's operations:
// subtraction is monus) and panic.
func Nat(n int64) Value {
	if n < 0 {
		panic(fmt.Sprintf("object.Nat: negative value %d", n))
	}
	return Value{Kind: KNat, N: n}
}

// Real returns a real-number object.
func Real(r float64) Value { return Value{Kind: KReal, R: r} }

// String_ returns a string object. (Named with a trailing underscore to
// avoid colliding with the Stringer method.)
func String_(s string) Value { return Value{Kind: KString, c: &cold{s: s}} }

// Base returns a value of the uninterpreted base type named typ with the
// given literal representation.
func Base(typ, lit string) Value { return Value{Kind: KBase, c: &cold{base: typ, s: lit}} }

// Tuple returns a k-tuple object. Following the paper's convention, products
// have arity >= 2; a 0-ary tuple is the unit value and a 1-ary "tuple" is
// the component itself.
func Tuple(elems ...Value) Value {
	if len(elems) == 1 {
		return elems[0]
	}
	return Value{Kind: KTuple, Elems: elems}
}

// Unit is the empty tuple.
var Unit = Value{Kind: KTuple}

// Func wraps a Go function as a runtime function value.
func Func(fn func(Value) (Value, error)) Value { return FuncWithCode(fn, nil) }

// FuncWithCode is Func with the making engine's own record of the function
// attached, for that engine to recognise through Code; fn must remain a
// complete entry for callers that do not.
func FuncWithCode(fn func(Value) (Value, error), code any) Value {
	return Value{Kind: KFunc, c: &cold{fn: fn, code: code}}
}

// True and False are the boolean constants.
var (
	True  = Bool(true)
	False = Bool(false)
)

// AsNat returns the natural-number payload, or an error if v is not a nat.
func (v Value) AsNat() (int64, error) {
	if v.Kind != KNat {
		return 0, fmt.Errorf("expected nat, got %s", v.Kind)
	}
	return v.N, nil
}

// AsBool returns the boolean payload, or an error if v is not a bool.
func (v Value) AsBool() (bool, error) {
	if v.Kind != KBool {
		return false, fmt.Errorf("expected bool, got %s", v.Kind)
	}
	return v.B, nil
}

// AsReal returns the real payload. A nat is promoted to real, matching the
// numeric overloading of the surface language.
func (v Value) AsReal() (float64, error) {
	switch v.Kind {
	case KReal:
		return v.R, nil
	case KNat:
		return float64(v.N), nil
	}
	return 0, fmt.Errorf("expected real, got %s", v.Kind)
}

// Proj returns the i-th component (0-based) of a tuple.
func (v Value) Proj(i int) (Value, error) {
	if v.Kind != KTuple {
		return Value{}, fmt.Errorf("projection from non-tuple %s", v.Kind)
	}
	if i < 0 || i >= len(v.Elems) {
		return Value{}, fmt.Errorf("projection index %d out of range for %d-tuple", i+1, len(v.Elems))
	}
	return v.Elems[i], nil
}

// IsFinite reports whether a real value is finite; used by drivers that must
// reject NaN (NaN breaks the total order).
func IsFinite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// GoString renders the value for debugging; same as String.
func (v Value) GoString() string { return v.String() }

// String renders the value in the complex-object data exchange format of
// section 3 of the paper, extended with bag brackets {| |} and with
// k-dimensional arrays in the row-major literal form
// [[ n1,...,nk ; v0, v1, ... ]]. One-dimensional arrays print as plain
// [[v0, v1, ...]]. The output is accepted by package exchange.
func (v Value) String() string {
	var b strings.Builder
	v.write(&b)
	return b.String()
}

func (v Value) write(b *strings.Builder) {
	switch v.Kind {
	case KBottom:
		b.WriteString("_|_")
		if msg := v.Str(); msg != "" {
			fmt.Fprintf(b, "(* %s *)", msg)
		}
	case KBool:
		if v.B {
			b.WriteString("true")
		} else {
			b.WriteString("false")
		}
	case KNat:
		fmt.Fprintf(b, "%d", v.N)
	case KReal:
		s := fmt.Sprintf("%g", v.R)
		b.WriteString(s)
		// Guarantee the literal re-reads as a real, not a nat.
		if !strings.ContainsAny(s, ".eE") && !strings.Contains(s, "Inf") && !strings.Contains(s, "NaN") {
			b.WriteString(".0")
		}
	case KString:
		fmt.Fprintf(b, "%q", v.Str())
	case KBase:
		fmt.Fprintf(b, "%s#%q", v.BaseType(), v.Str())
	case KTuple:
		b.WriteString("(")
		for i, e := range v.Elems {
			if i > 0 {
				b.WriteString(", ")
			}
			e.write(b)
		}
		b.WriteString(")")
	case KSet:
		b.WriteString("{")
		for i, e := range v.Elems {
			if i > 0 {
				b.WriteString(", ")
			}
			e.write(b)
		}
		b.WriteString("}")
	case KBag:
		b.WriteString("{|")
		for i, e := range v.Elems {
			if i > 0 {
				b.WriteString(", ")
			}
			e.write(b)
		}
		b.WriteString("|}")
	case KArray:
		b.WriteString("[[")
		if len(v.Shape) > 1 {
			for i, n := range v.Shape {
				if i > 0 {
					b.WriteString(", ")
				}
				fmt.Fprintf(b, "%d", n)
			}
			b.WriteString("; ")
		}
		// Cell-at-a-time through the backing: rendering never holds a
		// whole lazy array in memory.
		for i, n := 0, v.Size(); i < n; i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			if c, ok := v.displayCell(b, i); ok {
				c.write(b)
			}
		}
		b.WriteString("]]")
	case KFunc:
		b.WriteString("fn")
	default:
		fmt.Fprintf(b, "<bad kind %d>", v.Kind)
	}
}

// displayCell returns cell i of array v for rendering, the one read of a lazy
// array outside an execution: under context.Background, with a failed read
// written to b in place of the cell (ok is false).
func (v Value) displayCell(b *strings.Builder, i int) (c Value, ok bool) {
	c, err := v.CellAtCtx(context.Background(), i)
	if err != nil {
		fmt.Fprintf(b, "<read error: %v>", err)
		return Value{}, false
	}
	return c, true
}

// Pretty renders the value the way the paper's read-eval-print loop does,
// with arrays shown as (index):value pairs, truncated to at most max entries
// per array:
//
//	[[(0):0, (1):31, (2):28, ...]]
func (v Value) Pretty(max int) string {
	var b strings.Builder
	v.pretty(&b, max)
	return b.String()
}

func (v Value) pretty(b *strings.Builder, max int) {
	switch v.Kind {
	case KArray:
		b.WriteString("[[")
		// A truncated preview fetches only the cells it shows. The REPL
		// echoes every readval through here: materializing would drag the
		// whole variable into memory before the first real query runs.
		n := v.Size()
		shown := n
		if max > 0 && shown > max {
			shown = max
		}
		for i := 0; i < shown; i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			idx := unflatten(i, v.Shape)
			b.WriteString("(")
			for j, x := range idx {
				if j > 0 {
					b.WriteString(",")
				}
				fmt.Fprintf(b, "%d", x)
			}
			b.WriteString("):")
			if c, ok := v.displayCell(b, i); ok {
				c.pretty(b, max)
			}
		}
		if shown < n {
			b.WriteString(", ...")
		}
		b.WriteString("]]")
	case KTuple:
		b.WriteString("(")
		for i, e := range v.Elems {
			if i > 0 {
				b.WriteString(", ")
			}
			e.pretty(b, max)
		}
		b.WriteString(")")
	case KSet, KBag:
		open, close := "{", "}"
		if v.Kind == KBag {
			open, close = "{|", "|}"
		}
		b.WriteString(open)
		n := len(v.Elems)
		shown := n
		if max > 0 && shown > max {
			shown = max
		}
		for i := 0; i < shown; i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			v.Elems[i].pretty(b, max)
		}
		if shown < n {
			b.WriteString(", ...")
		}
		b.WriteString(close)
	default:
		v.write(b)
	}
}
