package cost

import (
	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/trace"
)

// sval is the static abstraction of a runtime value: what the estimator
// can know about an expression's value without running it. The zero sval
// is "unknown". Fields are independent facts; a nat literal is both a
// known nat and a known cardinality-1 scalar.
type sval struct {
	natKnown bool
	nat      int64

	// cardKnown is the output cardinality: element count for sets and
	// bags, total cells for arrays, 1 for scalars and tuples.
	cardKnown bool
	card      int64

	shapeKnown bool
	shape      []int64

	tupleKnown bool
	elems      []sval
}

// scalarSval is a value known to be a single scalar (card 1) of unknown
// magnitude.
func scalarSval() sval { return sval{cardKnown: true, card: 1} }

func natSval(n int64) sval { return sval{natKnown: true, nat: n, cardKnown: true, card: 1} }

func collSval(card int64) sval { return sval{cardKnown: true, card: card} }

// cardOf projects the output-cardinality fact onto a trace.Card.
func cardOf(v sval) trace.Card {
	if v.cardKnown {
		return known(v.card)
	}
	return unknown()
}

// natOf projects the known-nat fact onto a trace.Card.
func natOf(v sval) trace.Card {
	if v.natKnown {
		return known(v.nat)
	}
	return unknown()
}

// scope is the static environment of comprehension- and lambda-bound
// variables. A binding shadows the global of the same name even when its
// static value is unknown.
type scope struct {
	parent *scope
	name   string
	v      sval
}

func (sc *scope) bind(name string, v sval) *scope {
	if name == "" {
		return sc
	}
	return &scope{parent: sc, name: name, v: v}
}

func (sc *scope) lookup(name string) (sval, bool) {
	for s := sc; s != nil; s = s.parent {
		if s.name == name {
			return s.v, true
		}
	}
	return sval{}, false
}

// globalSval abstracts a global's runtime value.
func globalSval(v object.Value) sval {
	switch v.Kind {
	case object.KNat:
		return natSval(v.N)
	case object.KBool, object.KReal, object.KString, object.KBase, object.KFunc:
		return scalarSval()
	case object.KSet, object.KBag:
		return collSval(int64(len(v.Elems)))
	case object.KArray:
		shape := make([]int64, len(v.Shape))
		for i, d := range v.Shape {
			shape[i] = int64(d)
		}
		return sval{shapeKnown: true, shape: shape, cardKnown: true, card: int64(v.Size())}
	case object.KTuple:
		elems := make([]sval, len(v.Elems))
		for i, el := range v.Elems {
			elems[i] = globalSval(el)
		}
		return sval{tupleKnown: true, elems: elems, cardKnown: true, card: 1}
	}
	return sval{}
}

// natOp applies a nat arithmetic operator by the kernel's one rule,
// eval.ArithNum; ok is false when the result is ⊥ (a zero divisor, an
// overflow), which the estimator treats as unknown.
func natOp(op ast.ArithOp, a, b int64) (int64, bool) {
	x, bot, err := eval.ArithNum(op, eval.Num{N: a}, eval.Num{N: b})
	return x.N, bot == nil && err == nil
}

// sval statically evaluates e under env: known nats propagate through
// arithmetic, projections, dim of global arrays, gen, desugared lets;
// known cardinalities through set/bag constructors. Anything it cannot
// prove is the zero sval, "unknown".
func (es *estimator) sval(e ast.Expr, env *scope) sval {
	switch n := e.(type) {
	case *ast.NatLit:
		return natSval(n.Val)
	case *ast.BoolLit, *ast.RealLit, *ast.StringLit:
		return scalarSval()

	case *ast.Var:
		if v, ok := env.lookup(n.Name); ok {
			return v
		}
		if g, ok := es.globals[n.Name]; ok {
			return globalSval(g)
		}
		return sval{}
	case *ast.Param:
		// A prepared-query placeholder: by definition unknown until
		// execution.
		return sval{}

	case *ast.Arith:
		l, r := es.sval(n.L, env), es.sval(n.R, env)
		if l.natKnown && r.natKnown {
			if v, ok := natOp(n.Op, l.nat, r.nat); ok {
				return natSval(v)
			}
			return sval{}
		}
		return scalarSval()
	case *ast.Cmp, *ast.Sum:
		return scalarSval()

	case *ast.Tuple:
		elems := make([]sval, len(n.Elems))
		for i, el := range n.Elems {
			elems[i] = es.sval(el, env)
		}
		return sval{tupleKnown: true, elems: elems, cardKnown: true, card: 1}
	case *ast.Proj:
		t := es.sval(n.Tuple, env)
		if t.tupleKnown && n.I >= 1 && n.I <= len(t.elems) {
			return t.elems[n.I-1]
		}
		return sval{}

	case *ast.Dim:
		a := es.sval(n.Arr, env)
		if a.shapeKnown && len(a.shape) == n.K {
			if n.K == 1 {
				return natSval(a.shape[0])
			}
			elems := make([]sval, len(a.shape))
			for i, d := range a.shape {
				elems[i] = natSval(d)
			}
			return sval{tupleKnown: true, elems: elems, cardKnown: true, card: 1}
		}
		return scalarSval()

	case *ast.ArrayTab:
		shape := make([]int64, len(n.Bounds))
		total := int64(1)
		for i, b := range n.Bounds {
			bv := es.sval(b, env)
			if !bv.natKnown {
				return sval{}
			}
			shape[i] = bv.nat
			var ok bool
			if total, ok = natOp(ast.OpMul, total, bv.nat); !ok {
				return sval{}
			}
		}
		return sval{shapeKnown: true, shape: shape, cardKnown: true, card: total}

	case *ast.MkArray:
		shape := make([]int64, len(n.Dims))
		total := int64(1)
		for i, d := range n.Dims {
			dv := es.sval(d, env)
			if !dv.natKnown {
				return sval{}
			}
			shape[i] = dv.nat
			var ok bool
			if total, ok = natOp(ast.OpMul, total, dv.nat); !ok {
				return sval{}
			}
		}
		if total != int64(len(n.Elems)) {
			return sval{} // ⊥: element count mismatch
		}
		return sval{shapeKnown: true, shape: shape, cardKnown: true, card: total}

	case *ast.Subscript, *ast.Get, *ast.Index, *ast.If, *ast.Bottom:
		return sval{}

	case *ast.Gen:
		m := es.sval(n.N, env)
		if m.natKnown {
			return collSval(m.nat) // {0..m-1}: m distinct naturals
		}
		return sval{}

	case *ast.Empty:
		return collSval(0)
	case *ast.Singleton:
		return collSval(1)

	case *ast.Union:
		l, r := es.sval(n.L, env), es.sval(n.R, env)
		// A bag union adds cardinalities. Set union deduplicates, so its
		// cardinality is only known when one side is statically empty.
		if l.cardKnown && r.cardKnown && (n.Bag || l.card == 0 || r.card == 0) {
			return collSval(l.card + r.card)
		}
		return sval{}

	case *ast.BigUnion:
		return es.bigUnionSval(n.Head, n.Var, "", n.Over, env, n.Bag)
	case *ast.RankUnion:
		return es.bigUnionSval(n.Head, n.Var, n.RankVar, n.Over, env, n.Bag)

	case *ast.App:
		if lam, ok := n.Fn.(*ast.Lam); ok {
			// Desugared let: the application's value is the body's under
			// the bound argument.
			return es.sval(lam.Body, env.bind(lam.Param, es.sval(n.Arg, env)))
		}
		return sval{}
	case *ast.Lam:
		return scalarSval()
	}
	return sval{}
}

// bigUnionSval is the static value of ⋃/⊎/⋃_r/⊎_r: bags concatenate
// (cardinalities multiply when the head's is binding-independent); sets
// deduplicate, so only the statically-empty cases are known.
func (es *estimator) bigUnionSval(head ast.Expr, varName, rankVar string, over ast.Expr,
	env *scope, bag bool) sval {
	ov := es.sval(over, env)
	if ov.cardKnown && ov.card == 0 {
		return collSval(0)
	}
	headEnv := env.bind(varName, sval{})
	if rankVar != "" {
		headEnv = headEnv.bind(rankVar, scalarSval())
	}
	hd := es.sval(head, headEnv)
	if ov.cardKnown && hd.cardKnown && hd.card == 0 {
		return collSval(0)
	}
	if bag && ov.cardKnown && hd.cardKnown {
		if total, ok := natOp(ast.OpMul, ov.card, hd.card); ok {
			return collSval(total)
		}
	}
	return sval{}
}
