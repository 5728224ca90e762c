package typecheck

import (
	"fmt"

	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/types"
)

// TypeOf computes the type of a complex object, for registering vals (data
// read from files, literals) in the global type environment. Empty
// collections get type-variable element types; since globals are treated as
// type schemes, an empty set can later be used at any element type.
//
// Function values carry no type information and must be registered with an
// explicit type (as the paper's RegisterCO does); TypeOf rejects them.
func TypeOf(v object.Value) (*types.Type, error) {
	n := 0
	return typeOf(v, &n)
}

func typeOf(v object.Value, fresh *int) (*types.Type, error) {
	switch v.Kind {
	case object.KBool:
		return types.Bool, nil
	case object.KNat:
		return types.Nat, nil
	case object.KReal:
		return types.Real, nil
	case object.KString:
		return types.String, nil
	case object.KBase:
		return types.Base(v.BaseType()), nil
	case object.KBottom:
		*fresh++
		return types.NumberedVar("v", *fresh), nil
	case object.KTuple:
		elts := make([]*types.Type, len(v.Elems))
		for i, e := range v.Elems {
			t, err := typeOf(e, fresh)
			if err != nil {
				return nil, err
			}
			elts[i] = t
		}
		return types.Tuple(elts...), nil
	case object.KSet, object.KBag:
		elem, err := elemType(v.Elems, fresh)
		if err != nil {
			return nil, err
		}
		if v.Kind == object.KBag {
			return types.Bag(elem), nil
		}
		return types.Set(elem), nil
	case object.KArray:
		if v.IsLazy() {
			// Lazy arrays are numeric NetCDF variables (or spilled copies
			// of them): typed without materializing the cells. Cells are
			// reals, with ⊥ for non-finite values — same element type a
			// materialized read would produce.
			return types.Array(types.Real, len(v.Shape)), nil
		}
		elem, err := elemType(v.Elems, fresh)
		if err != nil {
			return nil, err
		}
		return types.Array(elem, len(v.Shape)), nil
	case object.KFunc:
		return nil, fmt.Errorf("typecheck: function values must be registered with an explicit type")
	}
	return nil, fmt.Errorf("typecheck: cannot type %s value", v.Kind)
}

// elemType computes the common type of a collection's elements by unifying
// the types of all of them (elements may disagree in variable positions,
// e.g. a set containing {} and {1}).
func elemType(elems []object.Value, fresh *int) (*types.Type, error) {
	if len(elems) == 0 {
		*fresh++
		return types.NumberedVar("v", *fresh), nil
	}
	var u types.Unifier
	acc, err := typeOf(elems[0], fresh)
	if err != nil {
		return nil, err
	}
	for _, e := range elems[1:] {
		t, err := typeOf(e, fresh)
		if err != nil {
			return nil, err
		}
		if err := u.Unify(acc, t); err != nil {
			return nil, fmt.Errorf("typecheck: heterogeneous collection: %w", err)
		}
	}
	return types.Resolve(acc), nil
}
