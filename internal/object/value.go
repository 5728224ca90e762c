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
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"
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
// section 3 of the paper (see AppendText), reading a lazy array's cells one
// at a time outside any execution. The output is accepted by package
// exchange, except where a function is written fn or a failed cell read
// <read error: ...>.
func (v Value) String() string {
	b, _ := AppendText(nil, v, display)
	return string(b)
}

// A Reader appends to dst what AppendText cannot write from a value's own
// fields: cell i of array v (normally by AppendText with the same Reader),
// or, when v is a function and i is -1, what stands for it. An error ends
// the encoding. The Reader is the one thing that differs between the
// display (String, Pretty) and the wire (package exchange).
type Reader func(dst []byte, v Value, i int) ([]byte, error)

// AppendText appends v to dst in the complex-object data exchange format of
// section 3 of the paper, extended with bag brackets {| |} and with
// k-dimensional arrays in the row-major literal form
// [[ n1,...,nk ; v0, v1, ... ]]. One-dimensional arrays are plain
// [[v0, v1, ...]]. A ⊥ diagnostic is a (* ... *) comment. Array cells and
// functions are appended through read.
func AppendText(dst []byte, v Value, read Reader) ([]byte, error) {
	switch v.Kind {
	case KBottom:
		dst = append(dst, "_|_"...)
		if msg := v.Str(); msg != "" {
			dst = appendComment(dst, msg)
		}
	case KBool:
		dst = strconv.AppendBool(dst, v.B)
	case KNat:
		dst = strconv.AppendInt(dst, v.N, 10)
	case KReal:
		n := len(dst)
		dst = strconv.AppendFloat(dst, v.R, 'g', -1, 64)
		// Guarantee the literal re-reads as a real, not a nat.
		if !bytes.ContainsAny(dst[n:], ".eIN") {
			dst = append(dst, ".0"...)
		}
	case KString:
		dst = strconv.AppendQuote(dst, v.Str())
	case KBase:
		dst = append(dst, v.BaseType()...)
		dst = strconv.AppendQuote(append(dst, '#'), v.Str())
	case KTuple:
		return appendSeq(dst, "(", v.Elems, ")", read)
	case KSet:
		return appendSeq(dst, "{", v.Elems, "}", read)
	case KBag:
		return appendSeq(dst, "{|", v.Elems, "|}", read)
	case KArray:
		dst = append(dst, "[["...)
		if len(v.Shape) > 1 {
			for i, n := range v.Shape {
				if i > 0 {
					dst = append(dst, ", "...)
				}
				dst = strconv.AppendInt(dst, int64(n), 10)
			}
			dst = append(dst, "; "...)
		}
		// Every cell takes at least one byte and a separator.
		n := v.Size()
		dst = slices.Grow(dst, 3*n)
		for i := 0; i < n; i++ {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			var err error
			if dst, err = read(dst, v, i); err != nil {
				return dst, err
			}
		}
		dst = append(dst, "]]"...)
	case KFunc:
		return read(dst, v, -1)
	default:
		dst = fmt.Appendf(dst, "<bad kind %d>", v.Kind)
	}
	return dst, nil
}

func appendSeq(dst []byte, open string, elems []Value, close string, read Reader) ([]byte, error) {
	dst = append(dst, open...)
	for i, e := range elems {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		var err error
		if dst, err = AppendText(dst, e, read); err != nil {
			return dst, err
		}
	}
	return append(dst, close...), nil
}

// appendComment appends msg as a (* msg *) comment. The exchange reader
// nests comments, so a space goes between any two bytes of msg that would
// open or close one: "(*" is written "( *" and "*)" is written "* )".
func appendComment(dst []byte, msg string) []byte {
	dst = append(dst, "(* "...)
	for i := 0; i < len(msg); i++ {
		if i > 0 && (msg[i-1] == '(' && msg[i] == '*' || msg[i-1] == '*' && msg[i] == ')') {
			dst = append(dst, ' ')
		}
		dst = append(dst, msg[i])
	}
	return append(dst, " *)"...)
}

// display is the Reader of String and Pretty: it reads cells one at a time,
// so rendering never holds a whole lazy array in memory, and writes a
// function as fn.
func display(dst []byte, v Value, i int) ([]byte, error) {
	if v.Kind == KFunc {
		return append(dst, "fn"...), nil
	}
	dst, c, ok := displayCell(dst, v, i)
	if !ok {
		return dst, nil
	}
	return AppendText(dst, c, display)
}

// displayCell returns cell i of array v for rendering, the one read of a lazy
// array outside an execution: under context.Background, with a failed read
// appended to dst in place of the cell (ok is false).
func displayCell(dst []byte, v Value, i int) (_ []byte, c Value, ok bool) {
	c, err := v.CellAtCtx(context.Background(), i)
	if err != nil {
		return fmt.Appendf(dst, "<read error: %v>", err), Value{}, false
	}
	return dst, c, true
}

// Pretty renders the value the way the paper's read-eval-print loop does,
// with arrays shown as (index):value pairs, truncated to at most max entries
// per array:
//
//	[[(0):0, (1):31, (2):28, ...]]
func (v Value) Pretty(max int) string {
	return string(v.appendPretty(nil, max))
}

func (v Value) appendPretty(dst []byte, max int) []byte {
	switch v.Kind {
	case KArray:
		dst = append(dst, "[["...)
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
				dst = append(dst, ", "...)
			}
			dst = append(dst, '(')
			for j, x := range unflatten(i, v.Shape) {
				if j > 0 {
					dst = append(dst, ',')
				}
				dst = strconv.AppendInt(dst, int64(x), 10)
			}
			dst = append(dst, "):"...)
			d, c, ok := displayCell(dst, v, i)
			if dst = d; ok {
				dst = c.appendPretty(dst, max)
			}
		}
		if shown < n {
			dst = append(dst, ", ..."...)
		}
		return append(dst, "]]"...)
	case KTuple:
		dst = append(dst, '(')
		for i, e := range v.Elems {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = e.appendPretty(dst, max)
		}
		return append(dst, ')')
	case KSet, KBag:
		open, close := "{", "}"
		if v.Kind == KBag {
			open, close = "{|", "|}"
		}
		dst = append(dst, open...)
		n := len(v.Elems)
		shown := n
		if max > 0 && shown > max {
			shown = max
		}
		for i := 0; i < shown; i++ {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = v.Elems[i].appendPretty(dst, max)
		}
		if shown < n {
			dst = append(dst, ", ..."...)
		}
		return append(dst, close...)
	}
	dst, _ = AppendText(dst, v, display)
	return dst
}
