package algebra

import (
	"fmt"
	"strings"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/object"
)

// Translate compiles a core-calculus expression into an algebra arrow,
// eliminating variables the way relational algebra eliminates the
// variables of relational calculus (section 6).
//
// envVars lists the free variables bound by the arrow's input, innermost
// last; the input value is the left-nested pair ((((), x1), x2), ..., xn).
// globals resolves the remaining free variables: non-function values
// become constants, function values may appear only in application
// position (the algebra is first-order — as are the calculi of [19] that
// the paper builds on).
func Translate(e ast.Expr, envVars []string, globals map[string]object.Value) (Term, error) {
	t := &translator{globals: globals}
	return t.tr(e, envVars)
}

type translator struct {
	globals map[string]object.Value
}

// lookup builds the projection path for a variable: Snd ∘ Fst^k, where k
// is the distance from the right end of the environment.
func (t *translator) lookup(name string, env []string) (Term, bool) {
	for i := len(env) - 1; i >= 0; i-- {
		if env[i] != name {
			continue
		}
		var path Term = Snd{}
		for k := len(env) - 1 - i; k > 0; k-- {
			path = Compose{G: path, F: Fst{}}
		}
		return path, true
	}
	return nil, false
}

func (t *translator) tr(e ast.Expr, env []string) (Term, error) {
	switch n := e.(type) {
	case *ast.Var:
		if path, ok := t.lookup(n.Name, env); ok {
			return path, nil
		}
		if v, ok := t.globals[n.Name]; ok {
			if v.Kind == object.KFunc {
				return nil, fmt.Errorf("algebra: function %q may only be applied (the algebra is first-order)", n.Name)
			}
			return ConstOf{V: v}, nil
		}
		return nil, fmt.Errorf("algebra: unbound variable %q", n.Name)

	case *ast.Lam:
		return nil, fmt.Errorf("algebra: bare lambda has no first-order arrow form")

	case *ast.App:
		arg, err := t.tr(n.Arg, env)
		if err != nil {
			return nil, err
		}
		switch fn := n.Fn.(type) {
		case *ast.Lam:
			// Let-binding: body over the extended environment, fed (γ, arg).
			body, err := t.tr(fn.Body, append(append([]string{}, env...), fn.Param))
			if err != nil {
				return nil, err
			}
			return Compose{G: body, F: PairOf{Fs: []Term{Ident{}, arg}}}, nil
		case *ast.Var:
			if _, shadowed := t.lookup(fn.Name, env); !shadowed {
				if v, ok := t.globals[fn.Name]; ok && v.Kind == object.KFunc {
					return Prim{Name: fn.Name, Fn: v.Fn(), Arg: arg}, nil
				}
			}
		}
		return nil, fmt.Errorf("algebra: application of a computed function has no first-order arrow form")

	case *ast.Tuple:
		if len(n.Elems) == 0 {
			return ConstOf{V: object.Unit}, nil
		}
		fs := make([]Term, len(n.Elems))
		for i, x := range n.Elems {
			f, err := t.tr(x, env)
			if err != nil {
				return nil, err
			}
			fs[i] = f
		}
		return PairOf{Fs: fs}, nil

	case *ast.Proj:
		inner, err := t.tr(n.Tuple, env)
		if err != nil {
			return nil, err
		}
		return Compose{G: ProjAt{I: n.I, K: n.K}, F: inner}, nil

	// A bag node breaks out to the error below: the algebra has no bags.
	case *ast.Empty:
		if n.Bag {
			break
		}
		return EmptyOf{}, nil

	case *ast.Singleton:
		if n.Bag {
			break
		}
		inner, err := t.tr(n.Elem, env)
		if err != nil {
			return nil, err
		}
		return SingOf{F: inner}, nil

	case *ast.Union:
		if n.Bag {
			break
		}
		l, err := t.tr(n.L, env)
		if err != nil {
			return nil, err
		}
		r, err := t.tr(n.R, env)
		if err != nil {
			return nil, err
		}
		return UnionOf{L: l, R: r}, nil

	case *ast.BigUnion:
		if n.Bag {
			break
		}
		over, err := t.tr(n.Over, env)
		if err != nil {
			return nil, err
		}
		head, err := t.tr(n.Head, append(append([]string{}, env...), n.Var))
		if err != nil {
			return nil, err
		}
		return Ext{F: head, Over: over}, nil

	case *ast.Get:
		inner, err := t.tr(n.Set, env)
		if err != nil {
			return nil, err
		}
		return GetOf{F: inner}, nil

	case *ast.BoolLit:
		return ConstOf{V: object.Bool(n.Val)}, nil
	case *ast.NatLit:
		return ConstOf{V: object.Nat(n.Val)}, nil
	case *ast.RealLit:
		return ConstOf{V: object.Real(n.Val)}, nil
	case *ast.StringLit:
		return ConstOf{V: object.String_(n.Val)}, nil

	case *ast.If:
		c, err := t.tr(n.Cond, env)
		if err != nil {
			return nil, err
		}
		th, err := t.tr(n.Then, env)
		if err != nil {
			return nil, err
		}
		el, err := t.tr(n.Else, env)
		if err != nil {
			return nil, err
		}
		return CondOf{C: c, T: th, E: el}, nil

	case *ast.Cmp:
		l, err := t.tr(n.L, env)
		if err != nil {
			return nil, err
		}
		r, err := t.tr(n.R, env)
		if err != nil {
			return nil, err
		}
		return CmpOf{Op: n.Op, L: l, R: r}, nil

	case *ast.Arith:
		l, err := t.tr(n.L, env)
		if err != nil {
			return nil, err
		}
		r, err := t.tr(n.R, env)
		if err != nil {
			return nil, err
		}
		return ArithOf{Op: n.Op, L: l, R: r}, nil

	case *ast.Gen:
		inner, err := t.tr(n.N, env)
		if err != nil {
			return nil, err
		}
		return GenOf{F: inner}, nil

	case *ast.Sum:
		over, err := t.tr(n.Over, env)
		if err != nil {
			return nil, err
		}
		head, err := t.tr(n.Head, append(append([]string{}, env...), n.Var))
		if err != nil {
			return nil, err
		}
		return SumOf{F: head, Over: over}, nil

	case *ast.ArrayTab:
		bounds := make([]Term, len(n.Bounds))
		for j, b := range n.Bounds {
			f, err := t.tr(b, env)
			if err != nil {
				return nil, err
			}
			bounds[j] = f
		}
		k := len(n.Idx)
		head := n.Head
		idxName := ast.Fresh("alg")
		if k == 1 {
			head = ast.Subst(head, n.Idx[0], &ast.Var{Name: idxName})
		} else {
			// The MkArr combinator supplies the whole index tuple; the
			// calculus head sees the components, so rewrite i_j into
			// π_{j,k}(idx).
			for j, iv := range n.Idx {
				head = ast.Subst(head, iv, &ast.Proj{I: j + 1, K: k, Tuple: &ast.Var{Name: idxName}})
			}
		}
		f, err := t.tr(head, append(append([]string{}, env...), idxName))
		if err != nil {
			return nil, err
		}
		return MkArr{F: f, Bounds: bounds}, nil

	case *ast.Subscript:
		arr, err := t.tr(n.Arr, env)
		if err != nil {
			return nil, err
		}
		idx, err := t.tr(n.Index, env)
		if err != nil {
			return nil, err
		}
		return SubOf{Arr: arr, Index: idx}, nil

	case *ast.Dim:
		inner, err := t.tr(n.Arr, env)
		if err != nil {
			return nil, err
		}
		return DimOf{K: n.K, F: inner}, nil

	case *ast.Index:
		inner, err := t.tr(n.Set, env)
		if err != nil {
			return nil, err
		}
		return IndexOf{K: n.K, F: inner}, nil

	case *ast.MkArray:
		dims := make([]Term, len(n.Dims))
		for j, d := range n.Dims {
			f, err := t.tr(d, env)
			if err != nil {
				return nil, err
			}
			dims[j] = f
		}
		elems := make([]Term, len(n.Elems))
		for i, x := range n.Elems {
			f, err := t.tr(x, env)
			if err != nil {
				return nil, err
			}
			elems[i] = f
		}
		return LitArr{Dims: dims, Elems: elems}, nil

	case *ast.Bottom:
		return BottomOf{}, nil
	}
	return nil, fmt.Errorf("algebra: %s has no arrow form (the NRCA algebra covers sets and arrays, not bags or ranked unions)", ast.NodeName(e))
}

// LitArr is the arrow form of the row-major literal construct.
type LitArr struct {
	Dims  []Term
	Elems []Term
}

// Apply evaluates dimensions and elements and assembles the array; a
// mismatched element count is ⊥, as in the calculus.
func (l LitArr) Apply(in object.Value) (object.Value, error) {
	shape := make([]int, len(l.Dims))
	size := 1
	for j, d := range l.Dims {
		v, err := d.Apply(in)
		if err != nil {
			return object.Value{}, err
		}
		if v.IsBottom() {
			return v, nil
		}
		n, err := v.AsNat()
		if err != nil {
			return object.Value{}, fmt.Errorf("algebra: literal dimension %d: %w", j+1, err)
		}
		shape[j] = int(n)
		size *= int(n)
	}
	if size != len(l.Elems) {
		return object.Bottom("algebra: array literal shape mismatch"), nil
	}
	data := make([]object.Value, len(l.Elems))
	for i, f := range l.Elems {
		v, err := f.Apply(in)
		if err != nil {
			return object.Value{}, err
		}
		if v.IsBottom() {
			return v, nil
		}
		data[i] = v
	}
	return object.Array(shape, data)
}

func (l LitArr) String() string {
	parts := make([]string, len(l.Elems))
	for i, f := range l.Elems {
		parts[i] = f.String()
	}
	return "lit_arr[" + strings.Join(parts, ", ") + "]"
}

// EnvValue packs bindings into the left-nested environment pair that
// translated arrows expect.
func EnvValue(vals ...object.Value) object.Value {
	acc := object.Unit
	for _, v := range vals {
		acc = object.Tuple(acc, v)
	}
	return acc
}

// Size returns the number of combinators in a term, for the tests'
// translation-growth checks.
func Size(t Term) int {
	switch n := t.(type) {
	case Compose:
		return 1 + Size(n.F) + Size(n.G)
	case PairOf:
		s := 1
		for _, f := range n.Fs {
			s += Size(f)
		}
		return s
	case Prim:
		return 1 + Size(n.Arg)
	case CondOf:
		return 1 + Size(n.C) + Size(n.T) + Size(n.E)
	case CmpOf:
		return 1 + Size(n.L) + Size(n.R)
	case ArithOf:
		return 1 + Size(n.L) + Size(n.R)
	case SingOf:
		return 1 + Size(n.F)
	case UnionOf:
		return 1 + Size(n.L) + Size(n.R)
	case Ext:
		return 1 + Size(n.F) + Size(n.Over)
	case GetOf:
		return 1 + Size(n.F)
	case GenOf:
		return 1 + Size(n.F)
	case SumOf:
		return 1 + Size(n.F) + Size(n.Over)
	case MkArr:
		s := 1 + Size(n.F)
		for _, b := range n.Bounds {
			s += Size(b)
		}
		return s
	case SubOf:
		return 1 + Size(n.Arr) + Size(n.Index)
	case DimOf:
		return 1 + Size(n.F)
	case IndexOf:
		return 1 + Size(n.F)
	case LitArr:
		s := 1
		for _, f := range n.Dims {
			s += Size(f)
		}
		for _, f := range n.Elems {
			s += Size(f)
		}
		return s
	}
	return 1
}
