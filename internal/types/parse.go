package types

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/aqldb/aql/internal/scan"
)

// Parse parses a type written in the paper's concrete syntax, as produced by
// Type.String:
//
//	bool | nat | real | string | ident          base types
//	t1 * t2 * ... * tk                           products
//	{t}                                          sets
//	{|t|}                                        bags
//	[[t]] | [[t]]_k                              arrays
//	t1 -> t2                                     functions (right associative)
//	(t)                                          grouping
//	't                                           type variables
//
// White space, comments and identifiers follow AQL's lexical rules
// (package scan).
func Parse(src string) (*Type, error) {
	p := &typeParser{src: src}
	t, err := p.arrow()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("type %q: trailing input at offset %d", src, p.pos)
	}
	return t, nil
}

// MustParse is Parse that panics on error; for tests and static tables.
func MustParse(src string) *Type {
	t, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return t
}

type typeParser struct {
	src string
	pos int
}

func (p *typeParser) skipSpace() { p.pos, _ = scan.Space(p.src, p.pos) }

func (p *typeParser) has(s string) bool {
	p.skipSpace()
	if strings.HasPrefix(p.src[p.pos:], s) {
		p.pos += len(s)
		return true
	}
	return false
}

func (p *typeParser) errf(format string, args ...any) error {
	return fmt.Errorf("type %q at offset %d: %s", p.src, p.pos, fmt.Sprintf(format, args...))
}

// arrow ::= product ('->' arrow)?
func (p *typeParser) arrow() (*Type, error) {
	left, err := p.product()
	if err != nil {
		return nil, err
	}
	if p.has("->") {
		right, err := p.arrow()
		if err != nil {
			return nil, err
		}
		return Func(left, right), nil
	}
	return left, nil
}

// product ::= atom ('*' atom)*
func (p *typeParser) product() (*Type, error) {
	first, err := p.atom()
	if err != nil {
		return nil, err
	}
	elts := []*Type{first}
	for p.has("*") {
		next, err := p.atom()
		if err != nil {
			return nil, err
		}
		elts = append(elts, next)
	}
	if len(elts) == 1 {
		return first, nil
	}
	return Tuple(elts...), nil
}

func (p *typeParser) atom() (*Type, error) {
	p.skipSpace()
	switch {
	case p.has("[["):
		elem, err := p.arrow()
		if err != nil {
			return nil, err
		}
		if !p.has("]]") {
			return nil, p.errf("expected ]]")
		}
		k := 1
		if p.has("_") {
			n, err := p.number()
			if err != nil {
				return nil, err
			}
			k = n
		}
		if k < 1 {
			return nil, p.errf("array dimensionality must be >= 1, got %d", k)
		}
		return Array(elem, k), nil
	case p.has("{|"):
		elem, err := p.arrow()
		if err != nil {
			return nil, err
		}
		if !p.has("|}") {
			return nil, p.errf("expected |}")
		}
		return Bag(elem), nil
	case p.has("{"):
		elem, err := p.arrow()
		if err != nil {
			return nil, err
		}
		if !p.has("}") {
			return nil, p.errf("expected }")
		}
		return Set(elem), nil
	case p.has("("):
		t, err := p.arrow()
		if err != nil {
			return nil, err
		}
		if !p.has(")") {
			return nil, p.errf("expected )")
		}
		return t, nil
	case p.has("'"):
		name := p.ident()
		if name == "" {
			return nil, p.errf("expected type-variable name after '")
		}
		return Var(name), nil
	default:
		name := p.ident()
		if name == "" {
			return nil, p.errf("expected a type")
		}
		if t := named[name]; t != nil {
			return t, nil
		}
		return Base(name), nil
	}
}

// named holds the type syntax's reserved names; every other identifier
// names a base type.
var named = map[string]*Type{
	"bool": Bool, "nat": Nat, "real": Real, "string": String, "unit": Unit,
	"int": Nat, // the paper's session output prints nat as int in places
}

// IsBaseName reports whether the type syntax reads name as a base type: an
// identifier that is not a reserved name.
func IsBaseName(name string) bool {
	return name != "" && scan.Ident(name, 0) == len(name) && named[name] == nil
}

func (p *typeParser) ident() string {
	p.skipSpace()
	start := p.pos
	p.pos = scan.Ident(p.src, p.pos)
	return p.src[start:p.pos]
}

func (p *typeParser) number() (int, error) {
	p.skipSpace()
	start := p.pos
	end, real := scan.Number(p.src, p.pos)
	if end == start || real {
		return 0, p.errf("expected a number")
	}
	p.pos = end
	n, err := strconv.Atoi(p.src[start:end])
	if err != nil {
		return 0, p.errf("bad number: %v", err)
	}
	return n, nil
}
