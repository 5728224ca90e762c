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
// The lexical rules are AQL's own (package scan): white space and nested
// (* ... *) comments separate tokens, and a string or a base literal is a
// Go-quoted string. A number is a scan.Number: digits, an optional
// fraction, an optional exponent; it is a real iff it has a fraction or an
// exponent, and only a real may carry a leading '-'. A base value's name is
// an identifier that the type syntax reads as a base type
// (types.IsBaseName), so nat#"3" is refused. Every read is bounded: nesting
// deeper than MaxDepth composites fails with a *LimitError, and a k-d
// literal's cells grow with the text read, never from its header. A caller
// reading from the network caps the bytes itself (the server uses
// http.MaxBytesReader).
//
// Any driver that can produce a byte stream in this format can be registered
// as an AQL reader (section 4.1, "I/O and the NetCDF Interface"); package
// netcdf and the example weather generator both use it. Writing is exact:
// Write(v) produces text that Read parses back to a value Equal to v
// (up to bottom diagnostics, which are not values), and Read accepts
// exactly what Write produces for some value.
package exchange

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/scan"
	"github.com/aqldb/aql/internal/types"
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

// MaxDepth bounds the composite nesting every read accepts: sets, bags,
// tuples and arrays each add one level. It keeps a hostile or corrupted
// text from exhausting the reader's stack.
const MaxDepth = 10_000

// LimitError is the typed error a read returns when the input nests deeper
// than MaxDepth; Kind is "depth" and Limit the bound that tripped.
type LimitError struct {
	Kind  string
	Limit int64
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("exchange: nesting exceeds depth %d", e.Limit)
}

// Read parses one complex object from r. The input is read fully into
// memory first; exchange values are in-memory objects in any case.
func Read(r io.Reader) (object.Value, error) {
	src, err := io.ReadAll(r)
	if err != nil {
		return object.Value{}, fmt.Errorf("exchange: %w", err)
	}
	return ReadString(string(src))
}

// ReadString parses one complex object from a string.
func ReadString(s string) (object.Value, error) {
	p := &parser{src: s}
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
	src   string
	pos   int
	depth int
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("exchange: offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

// skipSpace skips white space and comments; a comment left open runs to
// the end of the text.
func (p *parser) skipSpace() { p.pos, _ = scan.Space(p.src, p.pos) }

// eat consumes s if it is next; reports whether it did.
func (p *parser) eat(s string) bool {
	if !strings.HasPrefix(p.src[p.pos:], s) {
		return false
	}
	p.pos += len(s)
	return true
}

// value parses one complex object, dispatching on its first byte.
func (p *parser) value() (object.Value, error) {
	p.skipSpace()
	if p.pos == len(p.src) {
		return object.Value{}, p.errf("expected a value")
	}
	switch p.src[p.pos] {
	case '_':
		if p.eat("_|_") {
			return object.Bottom(""), nil
		}
	case 't':
		if p.eat("true") {
			return object.True, nil
		}
	case 'f':
		if p.eat("false") {
			return object.False, nil
		}
	case '"':
		s, err := p.quoted()
		if err != nil {
			return object.Value{}, err
		}
		return object.String_(s), nil
	case '[':
		if p.eat("[[") {
			return p.array()
		}
	case '{':
		if p.eat("{|") {
			return p.composite("|}", object.Bag)
		}
		p.pos++
		return p.composite("}", object.Set)
	case '(':
		p.pos++
		return p.composite(")", object.Tuple)
	}
	return p.scalar()
}

// enter charges one composite nesting level, failing past MaxDepth; leave
// returns it.
func (p *parser) enter() error {
	if p.depth == MaxDepth {
		return &LimitError{Kind: "depth", Limit: MaxDepth}
	}
	p.depth++
	return nil
}

func (p *parser) leave() { p.depth-- }

// composite parses the elements of a bag, set or tuple up to close, its
// opening bracket consumed, and builds the value.
func (p *parser) composite(close string, build func(...object.Value) object.Value) (object.Value, error) {
	if err := p.enter(); err != nil {
		return object.Value{}, err
	}
	defer p.leave()
	elems, err := p.seq(close)
	if err != nil {
		return object.Value{}, err
	}
	return build(elems...), nil
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
	if err := p.enter(); err != nil {
		return object.Value{}, err
	}
	defer p.leave()
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
	if p.pos == len(p.src) || p.src[p.pos] != '"' {
		p.pos = min(p.pos+1, len(p.src)) // the offset is past the byte found
		return "", p.errf("expected string literal")
	}
	start := p.pos
	end, ok := scan.StringEnd(p.src, start)
	p.pos = end
	if !ok {
		return "", p.errf("unterminated string literal")
	}
	raw := p.src[start:end]
	s, err := strconv.Unquote(raw)
	if err != nil {
		return "", p.errf("bad string literal %s: %v", raw, err)
	}
	return strings.Clone(s), nil
}

// scalar parses a number or a base value name#"literal". It first takes
// the maximal run of letters, digits and "_.+-", the token an error names.
func (p *parser) scalar() (object.Value, error) {
	start := p.pos
	for p.pos < len(p.src) {
		if b := p.src[p.pos]; b < utf8.RuneSelf {
			if !literalByte[b] {
				break
			}
			p.pos++
			continue
		}
		r, n := utf8.DecodeRuneInString(p.src[p.pos:])
		if !scan.IsLetter(r) && !unicode.IsDigit(r) {
			break
		}
		p.pos += n
	}
	s := p.src[start:p.pos]
	if p.eat("#") {
		switch {
		case s == "":
			return object.Value{}, p.errf("base value with empty type name")
		case !types.IsBaseName(s):
			return object.Value{}, p.errf("%q is not a base type name", s)
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
	digits := strings.TrimPrefix(s, "-")
	end, real := scan.Number(digits, 0)
	switch {
	case end == 0 || end < len(digits):
		// Not a number. What the writer prints for a non-finite real
		// (+Inf, -Inf, NaN) is named as such.
		if f, err := strconv.ParseFloat(s, 64); err == nil && !object.IsFinite(f) {
			return object.Value{}, p.errf("non-finite real literal %q", s)
		}
	case real:
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			return object.Real(f), nil
		}
	case len(digits) < len(s):
		return object.Value{}, p.errf("negative literal %s is not a natural number", s)
	default:
		if n, err := strconv.ParseInt(s, 10, 64); err == nil {
			return object.Nat(n), nil
		}
	}
	return object.Value{}, p.errf("bad literal %q", s)
}

// literalByte marks the ASCII bytes of a literal's run.
var literalByte = func() (t [utf8.RuneSelf]bool) {
	for _, b := range "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_.+-" {
		t[b] = true
	}
	return t
}()
