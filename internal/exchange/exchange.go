// Package exchange implements the complex-object data exchange format of
// section 3 of the AQL paper. The format is the textual grammar
//
//	co ::= cb | cn | true | false | (co, ..., co) | {co, ..., co} | [[co, ..., co]]
//
// extended, as in our object model, with reals, strings, uninterpreted base
// values (name#"literal"), bags ({|co, ..., co|}), the error value _|_, and
// the efficient row-major k-dimensional array literal
// [[n1, ..., nk; co, ..., co]] that section 3 adds for O(n) construction.
//
// Any driver that can produce a byte stream in this format can be registered
// as an AQL reader (section 4.1, "I/O and the NetCDF Interface"); package
// netcdf and the example weather generator both use it. Writing is exact:
// Write(v) produces text that Read parses back to a value Equal to v
// (up to bottom diagnostics, which are not values).
package exchange

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"

	"github.com/aqldb/aql/internal/object"
)

// Write serializes a complex object to w in the exchange format.
func Write(w io.Writer, v object.Value) error {
	b, err := object.AppendText(nil, v, wire)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// WriteString serializes a complex object to a string.
func WriteString(v object.Value) (string, error) {
	b, err := object.AppendText(nil, v, wire)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// wire is the exchange's object.Reader: it reads an eager array's cells and
// refuses a lazy array (an execution reads one whole first,
// eval.Materialize) and a function, neither of which is a complex object.
func wire(dst []byte, v object.Value, i int) ([]byte, error) {
	switch {
	case v.Kind == object.KFunc:
		return dst, errors.New("exchange: function values cannot be serialized")
	case v.IsLazy():
		return dst, errors.New("exchange: cannot serialize an unmaterialized lazy array")
	}
	return object.AppendText(dst, v.Elems[i], wire)
}

// Limits bounds what Read will accept from untrusted input. The zero value
// is unlimited (the historical behaviour); services reading exchange text
// off the wire should set both fields.
type Limits struct {
	// MaxBytes caps the input size in bytes (0 = unlimited).
	MaxBytes int64
	// MaxDepth caps composite nesting — sets, bags, tuples and arrays each
	// add one level (0 = unlimited).
	MaxDepth int
}

// LimitError is the typed error ReadLimits returns when input exceeds a
// guard; Kind is "bytes" or "depth" and Limit the bound that tripped.
type LimitError struct {
	Kind  string
	Limit int64
}

func (e *LimitError) Error() string {
	if e.Kind == "bytes" {
		return fmt.Sprintf("exchange: input exceeds %d bytes", e.Limit)
	}
	return fmt.Sprintf("exchange: nesting exceeds depth %d", e.Limit)
}

// Read parses one complex object from r. The input is read fully into
// memory first; exchange values are in-memory objects in any case.
func Read(r io.Reader) (object.Value, error) {
	return ReadLimits(r, Limits{})
}

// ReadLimits is Read under input guards: inputs over lim.MaxBytes or nested
// deeper than lim.MaxDepth fail with a *LimitError instead of being
// materialized.
func ReadLimits(r io.Reader, lim Limits) (object.Value, error) {
	if lim.MaxBytes > 0 {
		r = io.LimitReader(r, lim.MaxBytes+1)
	}
	src, err := io.ReadAll(r)
	if err != nil {
		return object.Value{}, fmt.Errorf("exchange: %w", err)
	}
	if lim.MaxBytes > 0 && int64(len(src)) > lim.MaxBytes {
		return object.Value{}, &LimitError{Kind: "bytes", Limit: lim.MaxBytes}
	}
	return ReadStringLimits(string(src), lim)
}

// ReadString parses one complex object from a string.
func ReadString(s string) (object.Value, error) {
	return ReadStringLimits(s, Limits{})
}

// ReadStringLimits is ReadString under input guards; see ReadLimits.
func ReadStringLimits(s string, lim Limits) (object.Value, error) {
	if lim.MaxBytes > 0 && int64(len(s)) > lim.MaxBytes {
		return object.Value{}, &LimitError{Kind: "bytes", Limit: lim.MaxBytes}
	}
	p := &parser{src: s, maxDepth: lim.MaxDepth}
	v, err := p.value()
	if err != nil {
		return object.Value{}, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return object.Value{}, p.errf("trailing input after value")
	}
	return v, nil
}

type parser struct {
	src      string
	pos      int
	depth    int
	maxDepth int
}

// enter charges one composite nesting level; exit with p.depth--.
func (p *parser) enter() error {
	p.depth++
	if p.maxDepth > 0 && p.depth > p.maxDepth {
		return &LimitError{Kind: "depth", Limit: int64(p.maxDepth)}
	}
	return nil
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("exchange: offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

func (p *parser) readByte() (byte, error) {
	if p.pos >= len(p.src) {
		return 0, io.EOF
	}
	b := p.src[p.pos]
	p.pos++
	return b, nil
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) {
		b := p.src[p.pos]
		if b == '(' && p.pos+1 < len(p.src) && p.src[p.pos+1] == '*' {
			p.pos += 2
			p.skipComment()
			continue
		}
		if !unicode.IsSpace(rune(b)) {
			return
		}
		p.pos++
	}
}

// skipComment consumes a (* ... *) comment body; "(*" is already consumed.
// Comments nest, as in Standard ML.
func (p *parser) skipComment() {
	depth := 1
	for depth > 0 && p.pos < len(p.src) {
		switch {
		case strings.HasPrefix(p.src[p.pos:], "(*"):
			depth++
			p.pos += 2
		case strings.HasPrefix(p.src[p.pos:], "*)"):
			depth--
			p.pos += 2
		default:
			p.pos++
		}
	}
}

// peekStr reports whether the next bytes equal s without consuming them.
func (p *parser) peekStr(s string) bool {
	return strings.HasPrefix(p.src[p.pos:], s)
}

// eat consumes s if it is next; reports whether it did.
func (p *parser) eat(s string) bool {
	if !p.peekStr(s) {
		return false
	}
	p.pos += len(s)
	return true
}

func (p *parser) expect(s string) error {
	p.skipSpace()
	if !p.eat(s) {
		return p.errf("expected %q", s)
	}
	return nil
}

func (p *parser) value() (object.Value, error) {
	p.skipSpace()
	switch {
	case p.eat("_|_"):
		return object.Bottom(""), nil
	case p.eat("true"):
		return object.True, nil
	case p.eat("false"):
		return object.False, nil
	case p.eat("[["):
		if err := p.enter(); err != nil {
			return object.Value{}, err
		}
		defer func() { p.depth-- }()
		return p.array()
	case p.eat("{|"):
		if err := p.enter(); err != nil {
			return object.Value{}, err
		}
		defer func() { p.depth-- }()
		elems, err := p.seq("|}")
		if err != nil {
			return object.Value{}, err
		}
		return object.Bag(elems...), nil
	case p.eat("{"):
		if err := p.enter(); err != nil {
			return object.Value{}, err
		}
		defer func() { p.depth-- }()
		elems, err := p.seq("}")
		if err != nil {
			return object.Value{}, err
		}
		return object.Set(elems...), nil
	case p.eat("("):
		if err := p.enter(); err != nil {
			return object.Value{}, err
		}
		defer func() { p.depth-- }()
		elems, err := p.seq(")")
		if err != nil {
			return object.Value{}, err
		}
		return object.Tuple(elems...), nil
	case p.peekStr(`"`):
		s, err := p.quoted()
		if err != nil {
			return object.Value{}, err
		}
		return object.String_(s), nil
	default:
		return p.scalar()
	}
}

// seq parses "co, co, ..., co CLOSE" (possibly empty).
func (p *parser) seq(close string) ([]object.Value, error) {
	p.skipSpace()
	if p.eat(close) {
		return nil, nil
	}
	var elems []object.Value
	for {
		v, err := p.value()
		if err != nil {
			return nil, err
		}
		elems = append(elems, v)
		p.skipSpace()
		if p.eat(",") {
			continue
		}
		if p.eat(close) {
			return elems, nil
		}
		return nil, p.errf("expected %q or %q in sequence", ",", close)
	}
}

// array parses the body after "[[": either a 1-d literal "co, ... ]]" or a
// row-major k-d literal "n1, ..., nk; co, ... ]]".
func (p *parser) array() (object.Value, error) {
	p.skipSpace()
	if p.eat("]]") {
		return object.Vector(), nil
	}
	var elems []object.Value
	for {
		v, err := p.value()
		if err != nil {
			return object.Value{}, err
		}
		elems = append(elems, v)
		p.skipSpace()
		if p.eat(",") {
			continue
		}
		if p.eat(";") {
			return p.arrayBody(elems)
		}
		if p.eat("]]") {
			return object.Vector(elems...), nil
		}
		return object.Value{}, p.errf("expected \",\", \";\" or \"]]\" in array literal")
	}
}

// arrayBody parses the values of a k-d row-major literal whose dimension
// prefix has been parsed into dims.
func (p *parser) arrayBody(dims []object.Value) (object.Value, error) {
	shape := make([]int, len(dims))
	for i, d := range dims {
		n, err := d.AsNat()
		if err != nil {
			return object.Value{}, p.errf("array dimension %d is not a natural number", i+1)
		}
		shape[i] = int(n)
	}
	data, err := p.seq("]]")
	if err != nil {
		return object.Value{}, err
	}
	v, err := object.Array(shape, data)
	if err != nil {
		return object.Value{}, p.errf("%v", err)
	}
	return v, nil
}

// quoted parses a Go-style double-quoted string literal. The result is a
// copy: a value read from the text must not keep the whole text alive.
func (p *parser) quoted() (string, error) {
	start := p.pos
	if b, err := p.readByte(); err != nil || b != '"' {
		return "", p.errf("expected string literal")
	}
	for escaped := false; ; {
		b, err := p.readByte()
		if err != nil {
			return "", p.errf("unterminated string literal")
		}
		if b == '"' && !escaped {
			break
		}
		escaped = b == '\\' && !escaped
	}
	raw := p.src[start:p.pos]
	s, err := strconv.Unquote(raw)
	if err != nil {
		return "", p.errf("bad string literal %s: %v", raw, err)
	}
	return strings.Clone(s), nil
}

// scalar parses a number (nat or real) or an identifier-led base value
// name#"literal".
func (p *parser) scalar() (object.Value, error) {
	start := p.pos
	for p.pos < len(p.src) {
		c := rune(p.src[p.pos])
		if !unicode.IsLetter(c) && !unicode.IsDigit(c) && c != '.' && c != '_' && c != '+' && c != '-' {
			break
		}
		p.pos++
	}
	s := p.src[start:p.pos]
	if p.eat("#") {
		// Base value: name#"literal".
		if s == "" {
			return object.Value{}, p.errf("base value with empty type name")
		}
		lit, err := p.quoted()
		if err != nil {
			return object.Value{}, err
		}
		return object.Base(strings.Clone(s), lit), nil
	}
	if s == "" {
		return object.Value{}, p.errf("expected a value")
	}
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		if n < 0 {
			return object.Value{}, p.errf("negative literal %d is not a natural number", n)
		}
		return object.Nat(n), nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		if !object.IsFinite(f) {
			return object.Value{}, p.errf("non-finite real literal %q", s)
		}
		return object.Real(f), nil
	}
	return object.Value{}, p.errf("bad literal %q", s)
}
