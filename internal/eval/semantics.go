// Engine-shared operational semantics. The interpreter (eval.go) and the
// compiled engine (internal/compile) must agree bit for bit: same result
// values, same ⊥ diagnostics, same error strings, same counter charging
// events. Every semantic rule that both engines execute lives here once, so
// parity is structural rather than maintained by hand.

package eval

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/object"
)

// InterruptInterval is how many evaluator steps pass between context /
// deadline checks in either engine; a power of two so the amortized check
// reduces to a mask test.
const InterruptInterval = 256

// CheckInterrupt reports context cancellation or deadline expiry as a
// *ResourceError; engines call it amortized every InterruptInterval steps.
// timeout is the configured Limits.Timeout, reported as the tripped limit
// when the engine-computed deadline has passed.
func CheckInterrupt(ctx context.Context, deadline time.Time, timeout time.Duration) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			kind := ResourceCancelled
			if errors.Is(err, context.DeadlineExceeded) {
				kind = ResourceTimeout
			}
			return &ResourceError{Kind: kind, Cause: err}
		}
	}
	if !deadline.IsZero() && time.Now().After(deadline) {
		return &ResourceError{Kind: ResourceTimeout, Limit: int64(timeout), Cause: context.DeadlineExceeded}
	}
	return nil
}

// SatAdd adds two non-negative counts, saturating at MaxInt64: both engines'
// cell counters, which a huge tabulation's charge could overflow.
func SatAdd(a, b int64) int64 {
	if b > math.MaxInt64-a {
		return math.MaxInt64
	}
	return a + b
}

// EvalCmp applies a comparison operator to two evaluated, non-⊥ operands.
// Function values admit no decidable equality, so comparing them is a
// kind error rather than ⊥.
func EvalCmp(op ast.CmpOp, l, r object.Value) (object.Value, error) {
	if l.Kind == object.KFunc || r.Kind == object.KFunc {
		return object.Value{}, fmt.Errorf("eval: comparison of function values")
	}
	c := object.Compare(l, r)
	switch op {
	case ast.OpEq:
		return object.Bool(c == 0), nil
	case ast.OpNe:
		return object.Bool(c != 0), nil
	case ast.OpLt:
		return object.Bool(c < 0), nil
	case ast.OpGt:
		return object.Bool(c > 0), nil
	case ast.OpLe:
		return object.Bool(c <= 0), nil
	case ast.OpGe:
		return object.Bool(c >= 0), nil
	}
	return object.Value{}, fmt.Errorf("eval: bad comparison op %q", op)
}

// GetValue implements get: the unique element of a singleton set; ⊥ on any
// other cardinality (section 3's partial inverse of the singleton former).
func GetValue(s object.Value) (object.Value, error) {
	if s.Kind != object.KSet {
		return object.Value{}, fmt.Errorf("eval: get on %s", s.Kind)
	}
	if len(s.Elems) != 1 {
		return object.Bottom(fmt.Sprintf("get on a set of cardinality %d", len(s.Elems))), nil
	}
	return s.Elems[0], nil
}

// GenSet builds {0, 1, ..., m-1}; the caller has already charged m cells.
func GenSet(m int64) object.Value {
	elems := make([]object.Value, m)
	for i := int64(0); i < m; i++ {
		elems[i] = object.Nat(i)
	}
	// Naturals in ascending order are already canonical.
	return object.SetFromSorted(elems)
}

// SumAcc accumulates a summation body-by-body, overloading at nat and real
// exactly as the interpreter always has: a nat total is tracked alongside
// the real total, and the first real-valued body commits the sum to real.
type SumAcc struct {
	accN   int64
	accR   float64
	isReal bool
}

// Add folds one body value into the accumulator; non-numeric values are a
// kind error.
func (a *SumAcc) Add(v object.Value) error {
	switch v.Kind {
	case object.KNat:
		a.accN += v.N
		a.accR += float64(v.N)
	case object.KReal:
		a.isReal = true
		a.accR += v.R
	default:
		return fmt.Errorf("eval: sum of non-numeric %s", v.Kind)
	}
	return nil
}

// Value returns the accumulated sum at the committed numeric kind.
func (a *SumAcc) Value() object.Value {
	if a.isReal {
		return object.Real(a.accR)
	}
	return object.Nat(a.accN)
}

// CheckedDim implements dim_k: the extent of a k-dimensional array, with a
// kind error when the static dimension annotation disagrees with the value.
func CheckedDim(a object.Value, k int) (object.Value, error) {
	if a.Kind == object.KArray && len(a.Shape) != k {
		return object.Value{}, fmt.Errorf("eval: dim_%d of %d-dimensional array", k, len(a.Shape))
	}
	return object.DimValue(a)
}

// Arith applies an arithmetic operator to two evaluated numeric operands,
// overloading at nat and real. On naturals, subtraction is monus and
// division/modulus by zero is ⊥. On reals, subtraction is exact and
// division by zero is ⊥; modulus follows math.Mod.
func Arith(op ast.ArithOp, l, r object.Value) (object.Value, error) {
	if l.Kind == object.KNat && r.Kind == object.KNat {
		a, b := l.N, r.N
		switch op {
		case ast.OpAdd:
			return object.Nat(a + b), nil
		case ast.OpSub: // monus
			if a < b {
				return object.Nat(0), nil
			}
			return object.Nat(a - b), nil
		case ast.OpMul:
			return object.Nat(a * b), nil
		case ast.OpDiv:
			if b == 0 {
				return object.Bottom("division by zero"), nil
			}
			return object.Nat(a / b), nil
		case ast.OpMod:
			if b == 0 {
				return object.Bottom("modulus by zero"), nil
			}
			return object.Nat(a % b), nil
		}
		return object.Value{}, fmt.Errorf("eval: bad arithmetic op %q", op)
	}
	a, err := l.AsReal()
	if err != nil {
		return object.Value{}, fmt.Errorf("eval: arithmetic: %w", err)
	}
	b, err := r.AsReal()
	if err != nil {
		return object.Value{}, fmt.Errorf("eval: arithmetic: %w", err)
	}
	var f float64
	switch op {
	case ast.OpAdd:
		f = a + b
	case ast.OpSub:
		f = a - b
	case ast.OpMul:
		f = a * b
	case ast.OpDiv:
		if b == 0 {
			return object.Bottom("division by zero"), nil
		}
		f = a / b
	case ast.OpMod:
		if b == 0 {
			return object.Bottom("modulus by zero"), nil
		}
		f = math.Mod(a, b)
	default:
		return object.Value{}, fmt.Errorf("eval: bad arithmetic op %q", op)
	}
	if !object.IsFinite(f) {
		return object.Bottom("non-finite arithmetic result"), nil
	}
	return object.Real(f), nil
}
