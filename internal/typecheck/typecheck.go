// Package typecheck implements the type system of NRCA (figure 1 of the
// paper) as a unification-based inference pass over the core calculus.
//
// The paper's calculus is simply typed, but the surface language omits
// annotations: lambda parameters, empty literals and ⊥ get their types by
// inference. Registered globals (external primitives, macros, vals) act as
// type schemes — any type variables in their declared types are freshened at
// each use, which gives the derived operators their natural polymorphism
// (min : {'a} -> 'a and so on) without a full Hindley–Milner let rule.
//
// Arithmetic is overloaded at nat and real: operand types are unified and
// constrained to be numeric; unconstrained numeric variables default to nat,
// matching the paper's presentation where ℕ is the numeric type.
package typecheck

import (
	"fmt"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/types"
)

// Checker carries inference state. A Checker is single-use: create one per
// query with New, call Infer once, then read the solved type.
type Checker struct {
	u       types.Unifier // links the checker's own variables only
	fresh   int           // the number of the last variable made
	globals map[string]*types.Type
	numeric []*types.Type          // types constrained to be nat or real
	ordered []*types.Type          // types constrained to be orderable (no functions)
	params  map[string]*types.Type // $name placeholders, typed once per name
}

// New returns a checker that resolves free variables against the given
// global type environment.
func New(globals map[string]*types.Type) *Checker {
	if globals == nil {
		globals = map[string]*types.Type{}
	}
	return &Checker{globals: globals}
}

// Infer computes the type of a closed-except-globals expression, solving
// all constraints. The returned type may still contain type variables if
// the query is polymorphic (e.g. the bare empty set).
func Infer(e ast.Expr, globals map[string]*types.Type) (*types.Type, error) {
	c := New(globals)
	t, err := c.infer(e, nil)
	if err != nil {
		return nil, err
	}
	if err := c.solve(); err != nil {
		return nil, err
	}
	return types.Resolve(t), nil
}

// InferParams is Infer for parameterized queries: alongside the query type it
// returns the solved type of every $name placeholder. A placeholder gets one
// type variable on first occurrence and reuses it on repeats, so a single
// $name used at two incompatible types is a prepare-time error, not a
// bind-time one.
func InferParams(e ast.Expr, globals map[string]*types.Type) (*types.Type, map[string]*types.Type, error) {
	c := New(globals)
	t, err := c.infer(e, nil)
	if err != nil {
		return nil, nil, err
	}
	if err := c.solve(); err != nil {
		return nil, nil, err
	}
	params := make(map[string]*types.Type, len(c.params))
	for name, pt := range c.params {
		params[name] = types.Resolve(pt)
	}
	return types.Resolve(t), params, nil
}

// tenv is the local type environment (lambda and comprehension binders).
type tenv struct {
	name string
	typ  *types.Type
	next *tenv
}

func (e *tenv) bind(name string, t *types.Type) *tenv {
	return &tenv{name: name, typ: t, next: e}
}

func (e *tenv) lookup(name string) (*types.Type, bool) {
	for ; e != nil; e = e.next {
		if e.name == name {
			return e.typ, true
		}
	}
	return nil, false
}

func (c *Checker) newVar() *types.Type {
	c.fresh++
	return types.NumberedVar("t", c.fresh)
}

// freshen instantiates a global's declared type as a type scheme: each
// distinct variable becomes a fresh one, numbered in order of first
// occurrence, and a ground type comes back as is. The instance is a copy,
// so unification never links a variable of the stored type; and the
// renaming takes one step — a fresh variable is never looked up again — so
// a stored variable named like the fresh one it maps to (`val E = {}` is
// stored as {'t1}; a new checker's first variable is 't1) cannot send the
// lookup round a cycle.
func (c *Checker) freshen(t *types.Type) *types.Type {
	var r types.Renamer
	return r.Apply(t, c.newVar)
}

func (c *Checker) unify(a, b *types.Type, what string) error {
	if err := c.u.Unify(a, b); err != nil {
		return fmt.Errorf("typecheck: %s: %w", what, err)
	}
	return nil
}

// unifyAt is unify for a context that names an operator, an arity or a
// position: where formats it, and runs only if the unification fails.
func (c *Checker) unifyAt(a, b *types.Type, where func() string) error {
	if err := c.u.Unify(a, b); err != nil {
		return fmt.Errorf("typecheck: %s: %w", where(), err)
	}
	return nil
}

// solve applies the deferred constraints: numeric types must be nat or real
// (unbound variables default to nat); ordered types must not contain
// function types.
func (c *Checker) solve() error {
	for _, t := range c.numeric {
		r := t.Root()
		switch r.Kind {
		case types.KindNat, types.KindReal:
		case types.KindVar:
			_ = c.u.Unify(r, types.Nat) // an unbound variable: cannot fail
		default:
			return fmt.Errorf("typecheck: arithmetic requires nat or real, got %s", r)
		}
	}
	for _, t := range c.ordered {
		if r := t.Root(); !r.IsObject() {
			return fmt.Errorf("typecheck: comparison requires an orderable object type, got %s", r)
		}
	}
	return nil
}

func (c *Checker) infer(e ast.Expr, env *tenv) (*types.Type, error) {
	switch n := e.(type) {
	case *ast.Var:
		if t, ok := env.lookup(n.Name); ok {
			return t, nil
		}
		if t, ok := c.globals[n.Name]; ok {
			return c.freshen(t), nil
		}
		return nil, fmt.Errorf("typecheck: unknown identifier %q", n.Name)

	case *ast.Param:
		if t, ok := c.params[n.Name]; ok {
			return t, nil
		}
		if c.params == nil {
			c.params = map[string]*types.Type{}
		}
		t := c.newVar()
		c.params[n.Name] = t
		return t, nil

	case *ast.Lam:
		a := c.newVar()
		body, err := c.infer(n.Body, env.bind(n.Param, a))
		if err != nil {
			return nil, err
		}
		return types.Func(a, body), nil

	case *ast.App:
		f, err := c.infer(n.Fn, env)
		if err != nil {
			return nil, err
		}
		a, err := c.infer(n.Arg, env)
		if err != nil {
			return nil, err
		}
		r := c.newVar()
		if err := c.unify(f, types.Func(a, r), "application"); err != nil {
			return nil, err
		}
		return r, nil

	case *ast.Tuple:
		elts := make([]*types.Type, len(n.Elems))
		for i, x := range n.Elems {
			t, err := c.infer(x, env)
			if err != nil {
				return nil, err
			}
			elts[i] = t
		}
		return types.Tuple(elts...), nil

	case *ast.Proj:
		t, err := c.infer(n.Tuple, env)
		if err != nil {
			return nil, err
		}
		elts := make([]*types.Type, n.K)
		for i := range elts {
			elts[i] = c.newVar()
		}
		if err := c.unifyAt(t, types.Tuple(elts...), func() string { return fmt.Sprintf("projection pi_%d,%d", n.I, n.K) }); err != nil {
			return nil, err
		}
		return elts[n.I-1], nil

	case *ast.Empty:
		return collection(n.Bag)(c.newVar()), nil

	case *ast.Singleton:
		t, err := c.infer(n.Elem, env)
		if err != nil {
			return nil, err
		}
		return collection(n.Bag)(t), nil

	case *ast.Union:
		what := "union"
		if n.Bag {
			what = "bag union"
		}
		l, err := c.infer(n.L, env)
		if err != nil {
			return nil, err
		}
		r, err := c.infer(n.R, env)
		if err != nil {
			return nil, err
		}
		if err := c.unify(l, r, what); err != nil {
			return nil, err
		}
		if err := c.unify(l, collection(n.Bag)(c.newVar()), what); err != nil {
			return nil, err
		}
		return l, nil

	case *ast.BigUnion:
		source, body := "big union source", "big union body"
		if n.Bag {
			source, body = "big bag union source", "big bag union body"
		}
		return c.bigUnion(n.Head, n.Var, "", n.Over, n.Bag, env, source, body)

	case *ast.RankUnion:
		return c.bigUnion(n.Head, n.Var, n.RankVar, n.Over, n.Bag, env, "ranked union source", "ranked union body")

	case *ast.Get:
		t, err := c.infer(n.Set, env)
		if err != nil {
			return nil, err
		}
		a := c.newVar()
		if err := c.unify(t, types.Set(a), "get"); err != nil {
			return nil, err
		}
		return a, nil

	case *ast.BoolLit:
		return types.Bool, nil

	case *ast.If:
		cond, err := c.infer(n.Cond, env)
		if err != nil {
			return nil, err
		}
		if err := c.unify(cond, types.Bool, "if condition"); err != nil {
			return nil, err
		}
		th, err := c.infer(n.Then, env)
		if err != nil {
			return nil, err
		}
		el, err := c.infer(n.Else, env)
		if err != nil {
			return nil, err
		}
		if err := c.unify(th, el, "if branches"); err != nil {
			return nil, err
		}
		return th, nil

	case *ast.Cmp:
		l, err := c.infer(n.L, env)
		if err != nil {
			return nil, err
		}
		r, err := c.infer(n.R, env)
		if err != nil {
			return nil, err
		}
		if err := c.unifyAt(l, r, func() string { return "comparison " + string(n.Op) }); err != nil {
			return nil, err
		}
		c.ordered = append(c.ordered, l)
		return types.Bool, nil

	case *ast.NatLit:
		return types.Nat, nil
	case *ast.RealLit:
		return types.Real, nil
	case *ast.StringLit:
		return types.String, nil

	case *ast.Arith:
		l, err := c.infer(n.L, env)
		if err != nil {
			return nil, err
		}
		r, err := c.infer(n.R, env)
		if err != nil {
			return nil, err
		}
		if err := c.unifyAt(l, r, func() string { return "arithmetic " + string(n.Op) }); err != nil {
			return nil, err
		}
		c.numeric = append(c.numeric, l)
		return l, nil

	case *ast.Gen:
		t, err := c.infer(n.N, env)
		if err != nil {
			return nil, err
		}
		if err := c.unify(t, types.Nat, "gen"); err != nil {
			return nil, err
		}
		return types.Set(types.Nat), nil

	case *ast.Sum:
		over, err := c.infer(n.Over, env)
		if err != nil {
			return nil, err
		}
		a := c.newVar()
		if err := c.unify(over, types.Set(a), "sum source"); err != nil {
			return nil, err
		}
		head, err := c.infer(n.Head, env.bind(n.Var, a))
		if err != nil {
			return nil, err
		}
		c.numeric = append(c.numeric, head)
		return head, nil

	case *ast.ArrayTab:
		e2 := env
		for _, iv := range n.Idx {
			e2 = e2.bind(iv, types.Nat)
		}
		for j, b := range n.Bounds {
			t, err := c.infer(b, env)
			if err != nil {
				return nil, err
			}
			if err := c.unifyAt(t, types.Nat, func() string { return fmt.Sprintf("tabulation bound %d", j+1) }); err != nil {
				return nil, err
			}
		}
		head, err := c.infer(n.Head, e2)
		if err != nil {
			return nil, err
		}
		return types.Array(head, len(n.Idx)), nil

	case *ast.Subscript:
		arrT, err := c.infer(n.Arr, env)
		if err != nil {
			return nil, err
		}
		idxT, err := c.infer(n.Index, env)
		if err != nil {
			return nil, err
		}
		k, err := c.subscriptArity(arrT, idxT)
		if err != nil {
			return nil, err
		}
		a := c.newVar()
		if err := c.unify(arrT, types.Array(a, k), "subscript array"); err != nil {
			return nil, err
		}
		if err := c.unify(idxT, types.NatTuple(k), "subscript index"); err != nil {
			return nil, err
		}
		return a, nil

	case *ast.Dim:
		t, err := c.infer(n.Arr, env)
		if err != nil {
			return nil, err
		}
		if err := c.unifyAt(t, types.Array(c.newVar(), n.K), func() string { return fmt.Sprintf("dim_%d", n.K) }); err != nil {
			return nil, err
		}
		return types.NatTuple(n.K), nil

	case *ast.Index:
		t, err := c.infer(n.Set, env)
		if err != nil {
			return nil, err
		}
		a := c.newVar()
		want := types.Set(types.Tuple(types.NatTuple(n.K), a))
		if err := c.unifyAt(t, want, func() string { return fmt.Sprintf("index_%d", n.K) }); err != nil {
			return nil, err
		}
		return types.Array(types.Set(a), n.K), nil

	case *ast.MkArray:
		for j, d := range n.Dims {
			t, err := c.infer(d, env)
			if err != nil {
				return nil, err
			}
			if err := c.unifyAt(t, types.Nat, func() string { return fmt.Sprintf("array literal dimension %d", j+1) }); err != nil {
				return nil, err
			}
		}
		a := c.newVar()
		for i, x := range n.Elems {
			t, err := c.infer(x, env)
			if err != nil {
				return nil, err
			}
			if err := c.unifyAt(t, a, func() string { return fmt.Sprintf("array literal element %d", i) }); err != nil {
				return nil, err
			}
		}
		return types.Array(a, len(n.Dims)), nil

	case *ast.Bottom:
		return c.newVar(), nil

	}
	return nil, fmt.Errorf("typecheck: unhandled node %s", ast.NodeName(e))
}

// bigUnion types ⋃{ head | x ∈ over } (or ⊎ when bag), and its ranked form
// when rankVar is set: over and head are collections of the node's sort,
// and head is checked with x bound to an element of over and rankVar, if
// any, to its nat rank.
func (c *Checker) bigUnion(head ast.Expr, x, rankVar string, over ast.Expr, bag bool, env *tenv, sourceWhat, bodyWhat string) (*types.Type, error) {
	coll := collection(bag)
	ot, err := c.infer(over, env)
	if err != nil {
		return nil, err
	}
	a := c.newVar()
	if err := c.unify(ot, coll(a), sourceWhat); err != nil {
		return nil, err
	}
	inner := env.bind(x, a)
	if rankVar != "" {
		inner = inner.bind(rankVar, types.Nat)
	}
	ht, err := c.infer(head, inner)
	if err != nil {
		return nil, err
	}
	if err := c.unify(ht, coll(c.newVar()), bodyWhat); err != nil {
		return nil, err
	}
	return ht, nil
}

// collection is the type constructor of sets, or of bags when bag.
func collection(bag bool) func(*types.Type) *types.Type {
	if bag {
		return types.Bag
	}
	return types.Set
}

// subscriptArity determines the dimensionality of a subscript from whatever
// is known about the array or index type. The paper writes e[e1,...,ek]
// with k syntactically evident; after desugaring, k is recovered from the
// solved types.
func (c *Checker) subscriptArity(arrT, idxT *types.Type) (int, error) {
	if r := arrT.Root(); r.Kind == types.KindArray {
		return r.Dims, nil
	}
	switch r := idxT.Root(); r.Kind {
	case types.KindNat:
		return 1, nil
	case types.KindTuple:
		for _, e := range r.Elts {
			if k := e.Root().Kind; k != types.KindNat && k != types.KindVar {
				return 0, fmt.Errorf("typecheck: subscript index components must be nat, got %s", r)
			}
		}
		return len(r.Elts), nil
	case types.KindVar:
		// Neither side pins the dimensionality; default to 1, the common
		// case, and let unification reject if it is wrong.
		return 1, nil
	default:
		return 0, fmt.Errorf("typecheck: subscript index must be nat or a tuple of nats, got %s", r)
	}
}
