// Package rank implements the expressiveness constructions of section 6 of
// the paper, which characterize what arrays add to a complex-object query
// language:
//
//   - Theorem 6.1: NRCA (the array calculus) has the same expressive power
//     as NRC^aggr(gen) — the nested relational calculus with arithmetic,
//     summation and the gen construct. The key ingredient is the object
//     translation (·)° that encodes a k-dimensional array as the set of its
//     (index, value) pairs (its graph).
//
//   - Theorem 6.2: NRC_r (NRC plus naturals, gen, and the ranked union
//     ⋃_r) and its bag analogue NBC_r also have the power of NRCA: adding
//     arrays amounts to adding ranking uniformly across collections.
//
// The package provides fragment checkers (which syntactically verify that a
// core expression stays inside NRC^aggr(gen), NRC_r or NBC_r), the object
// translation and its inverse, and the rank operator itself. The
// accompanying tests demonstrate the theorems empirically: array queries
// and their translated counterparts agree on random inputs.
package rank

import (
	"fmt"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/types"
)

// Fragment names a sublanguage of the core calculus.
type Fragment int

// The fragments of section 6.
const (
	NRC        Fragment = iota // pure nested relational calculus (sets)
	NRCAggr                    // NRC + arithmetic + summation ("theoretical SQL")
	NRCAggrGen                 // NRC^aggr + gen — Theorem 6.1's equivalent of NRCA
	NRCr                       // NRC + naturals + gen + ⋃_r — Theorem 6.2
	NBCr                       // bag analogue of NRC_r
)

// String names the fragment.
func (f Fragment) String() string {
	switch f {
	case NRC:
		return "NRC"
	case NRCAggr:
		return "NRC^aggr"
	case NRCAggrGen:
		return "NRC^aggr(gen)"
	case NRCr:
		return "NRC_r"
	case NBCr:
		return "NBC_r"
	}
	return fmt.Sprintf("fragment(%d)", int(f))
}

// Check verifies that e lies inside the fragment, returning an error naming
// the first construct outside it. Arithmetic comparisons and the linear
// order are available in every fragment (they are NRC primitives over base
// types, lifted by [21]).
func Check(e ast.Expr, f Fragment) error {
	name := ast.NodeName(e)
	// The switch is on kinds, not Go types: a set construct and its bag
	// analogue are one node type, told apart by KindOf.
	switch ast.KindOf(e) {
	// Available everywhere: functions, products, booleans, comparisons.
	case ast.KindVar, ast.KindLam, ast.KindApp, ast.KindTuple, ast.KindProj,
		ast.KindBoolLit, ast.KindIf, ast.KindCmp, ast.KindStringLit, ast.KindRealLit,
		ast.KindGet, ast.KindBottom:

	// Set constructs: in all set-based fragments.
	case ast.KindEmptySet, ast.KindSingleton, ast.KindUnion, ast.KindBigUnion:
		if f == NBCr {
			return fmt.Errorf("rank: %s is a set construct, outside %s", name, f)
		}

	// Naturals and arithmetic.
	case ast.KindNatLit, ast.KindArith:
		if f == NRC {
			return fmt.Errorf("rank: %s requires arithmetic, outside %s", name, f)
		}

	// Summation: NRC^aggr and above; definable in NRC_r/NBC_r, so allowed.
	case ast.KindSum:
		if f == NRC {
			return fmt.Errorf("rank: summation is outside %s", f)
		}

	// gen: NRC^aggr(gen), NRC_r, NBC_r.
	case ast.KindGen:
		if f == NRC || f == NRCAggr {
			return fmt.Errorf("rank: gen is outside %s", f)
		}

	// Ranked unions.
	case ast.KindRankUnion:
		if f != NRCr {
			return fmt.Errorf("rank: ⋃_r is only in NRC_r, not %s", f)
		}
	case ast.KindRankBagUnion:
		if f != NBCr {
			return fmt.Errorf("rank: ⊎_r is only in NBC_r, not %s", f)
		}

	// Bag constructs.
	case ast.KindEmptyBag, ast.KindSingletonBag, ast.KindBagUnion, ast.KindBigBagUnion:
		if f != NBCr {
			return fmt.Errorf("rank: %s is a bag construct, outside %s", name, f)
		}

	// Array constructs: never inside the array-free fragments.
	case ast.KindArrayTab, ast.KindSubscript, ast.KindDim, ast.KindIndex, ast.KindMkArray:
		return fmt.Errorf("rank: %s is an array construct, outside %s", name, f)

	default:
		return fmt.Errorf("rank: unhandled node %s", name)
	}
	var buf ast.Buf
	kids, _ := ast.Open(e, &buf)
	for _, kid := range kids {
		if err := Check(kid, f); err != nil {
			return err
		}
	}
	return nil
}

// --- The object translation (·)° of Theorem 6.1 -----------------------------

// TranslateValue implements the object translation of Theorem 6.1: every
// array in the object becomes the set of its (index, translated value)
// pairs — its graph. Non-array structure is preserved (the paper's
// error-flag component is unnecessary here because we translate proper
// values; ⊥ stays ⊥).
func TranslateValue(v object.Value) (object.Value, error) {
	switch v.Kind {
	case object.KBool, object.KNat, object.KReal, object.KString,
		object.KBase, object.KBottom:
		return v, nil
	case object.KTuple:
		elems := make([]object.Value, len(v.Elems))
		for i, e := range v.Elems {
			t, err := TranslateValue(e)
			if err != nil {
				return object.Value{}, err
			}
			elems[i] = t
		}
		return object.Tuple(elems...), nil
	case object.KSet, object.KBag:
		elems := make([]object.Value, len(v.Elems))
		for i, e := range v.Elems {
			t, err := TranslateValue(e)
			if err != nil {
				return object.Value{}, err
			}
			elems[i] = t
		}
		if v.Kind == object.KBag {
			return object.Bag(elems...), nil
		}
		return object.Set(elems...), nil
	case object.KArray:
		g, err := object.Graph(v)
		if err != nil {
			return object.Value{}, err
		}
		elems := make([]object.Value, len(g.Elems))
		for i, pair := range g.Elems {
			tv, err := TranslateValue(pair.Elems[1])
			if err != nil {
				return object.Value{}, err
			}
			elems[i] = object.Tuple(pair.Elems[0], tv)
		}
		return object.Set(elems...), nil
	}
	return object.Value{}, fmt.Errorf("rank: cannot translate %s value", v.Kind)
}

// UntranslateValue inverts TranslateValue at the given NRCA type: sets of
// (index, value) pairs at array positions are folded back into dense
// arrays. The type directs the inversion — exactly the "modulo some
// translation between the type systems" caveat of Theorem 6.1.
func UntranslateValue(v object.Value, typ *types.Type) (object.Value, error) {
	switch typ.Kind {
	case types.KindBool, types.KindNat, types.KindReal, types.KindString, types.KindBase:
		return v, nil
	case types.KindTuple:
		if v.Kind != object.KTuple || len(v.Elems) != len(typ.Elts) {
			return object.Value{}, fmt.Errorf("rank: %s value does not match %s", v.Kind, typ)
		}
		elems := make([]object.Value, len(v.Elems))
		for i, e := range v.Elems {
			u, err := UntranslateValue(e, typ.Elts[i])
			if err != nil {
				return object.Value{}, err
			}
			elems[i] = u
		}
		return object.Tuple(elems...), nil
	case types.KindSet, types.KindBag:
		if v.Kind != object.KSet && v.Kind != object.KBag {
			return object.Value{}, fmt.Errorf("rank: %s value at collection type %s", v.Kind, typ)
		}
		elems := make([]object.Value, len(v.Elems))
		for i, e := range v.Elems {
			u, err := UntranslateValue(e, typ.Elem())
			if err != nil {
				return object.Value{}, err
			}
			elems[i] = u
		}
		if typ.Kind == types.KindBag {
			return object.Bag(elems...), nil
		}
		return object.Set(elems...), nil
	case types.KindArray:
		if v.Kind != object.KSet {
			return object.Value{}, fmt.Errorf("rank: array encodings are sets, got %s", v.Kind)
		}
		k := typ.Dims
		// Determine the shape from the maximal index in each dimension.
		shape := make([]int, k)
		idxs := make([][]int, len(v.Elems))
		for n, pair := range v.Elems {
			if pair.Kind != object.KTuple || len(pair.Elems) != 2 {
				return object.Value{}, fmt.Errorf("rank: array encoding element is not a pair")
			}
			idx, err := object.IndexOf(pair.Elems[0], k)
			if err != nil {
				return object.Value{}, err
			}
			idxs[n] = idx
			for d, i := range idx {
				if i+1 > shape[d] {
					shape[d] = i + 1
				}
			}
		}
		size := 1
		for _, n := range shape {
			size *= n
		}
		if size != len(v.Elems) {
			return object.Value{}, fmt.Errorf("rank: encoding of %d pairs does not fill shape %v", len(v.Elems), shape)
		}
		data := make([]object.Value, size)
		for n, pair := range v.Elems {
			u, err := UntranslateValue(pair.Elems[1], typ.Elem())
			if err != nil {
				return object.Value{}, err
			}
			off := 0
			for d, i := range idxs[n] {
				off = off*shape[d] + i
			}
			data[off] = u
		}
		return object.Array(shape, data)
	}
	return object.Value{}, fmt.Errorf("rank: cannot untranslate at type %s", typ)
}

// --- Derived operators of section 6 ------------------------------------------

// RankExpr builds rank(X) = ⋃_r{ {(x, i)} | x_i ∈ X }: the set of (element,
// 1-based rank) pairs in the linear order of X.
func RankExpr(set ast.Expr) ast.Expr {
	return &ast.RankUnion{
		Head: &ast.Singleton{Elem: &ast.Tuple{Elems: []ast.Expr{
			&ast.Var{Name: "x"}, &ast.Var{Name: "i"}}}},
		Var:     "x",
		RankVar: "i",
		Over:    set,
	}
}

// BagRankExpr is the NBC_r analogue over bags; equal elements receive
// consecutive ranks.
func BagRankExpr(bag ast.Expr) ast.Expr {
	return &ast.RankUnion{
		Head: &ast.Singleton{Elem: &ast.Tuple{Elems: []ast.Expr{
			&ast.Var{Name: "x"}, &ast.Var{Name: "i"}}}, Bag: true},
		Var:     "x",
		RankVar: "i",
		Over:    bag,
		Bag:     true,
	}
}
