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
	"math/bits"
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

// Materialize is the one place an execution reads a lazy array whole: both
// engines call it on a comparison's operands, a primitive's argument and
// every set or bag element, the session on a writer's data, the server on a
// result before encoding it. It returns v itself when v holds no lazy array;
// otherwise a copy in which every lazy array, in v or inside its tuples and
// eager-array cells, is read through its backing under ctx, so the reads
// count in the execution's report and a failed read is an error. Each copy
// is charged to charge, an engine's cell budget, before it is read; callers
// outside an execution pass nil. Sets and bags are not searched: their
// elements were materialized on the way in.
func Materialize(ctx context.Context, v object.Value, charge func(int64) error) (object.Value, error) {
	if !holdsLazy(&v) {
		return v, nil
	}
	if v.IsLazy() {
		if charge != nil {
			if err := charge(int64(v.Size())); err != nil {
				return object.Value{}, err
			}
		}
		cells, err := v.CellsCtx(ctx)
		if err != nil {
			return object.Value{}, fmt.Errorf("eval: materializing lazy array: %w", err)
		}
		return object.Array(v.Shape, cells)
	}
	elems := append([]object.Value(nil), v.Elems...)
	for i := range elems {
		var err error
		if elems[i], err = Materialize(ctx, elems[i], charge); err != nil {
			return object.Value{}, err
		}
	}
	v.Elems = elems
	return v, nil
}

// holdsLazy reports whether v is, or holds in a tuple or eager-array cell,
// a lazy array. An array's cells share one type, so one whose first non-⊥
// cell is neither an array nor a tuple holds none, and is not scanned.
func holdsLazy(v *object.Value) bool {
	if v.Kind != object.KArray && v.Kind != object.KTuple {
		return false
	}
	for i := range v.Elems {
		if k := v.Elems[i].Kind; (k == object.KArray || k == object.KTuple) && holdsLazy(&v.Elems[i]) {
			return true
		} else if v.Kind == object.KArray && k != object.KArray && k != object.KTuple && k != object.KBottom {
			return false
		}
	}
	return v.IsLazy()
}

// EvalCmp applies a comparison operator to two evaluated, non-⊥ operands.
// Function values admit no decidable equality, so comparing them is a
// kind error rather than ⊥. Two numbers compare by CmpNum, anything else by
// object.Compare, after Materialize charges and reads a lazy operand.
func EvalCmp(ctx context.Context, charge func(int64) error, op ast.CmpOp, l, r object.Value) (object.Value, error) {
	if l.Kind == object.KFunc || r.Kind == object.KFunc {
		return object.Value{}, fmt.Errorf("eval: comparison of function values")
	}
	for _, v := range [...]*object.Value{&l, &r} {
		var err error
		if *v, err = Materialize(ctx, *v, charge); err != nil {
			return object.Value{}, err
		}
	}
	var c int
	a, aok := numOf(&l)
	b, bok := numOf(&r)
	if aok && bok {
		c = CmpNum(a, b)
	} else {
		c = object.Compare(l, r)
	}
	holds, err := CmpHolds(op, c)
	if err != nil {
		return object.Value{}, err
	}
	return object.Bool(holds), nil
}

// CmpHolds reports whether comparison op holds of two operands whose
// three-way comparison is c.
func CmpHolds(op ast.CmpOp, c int) (bool, error) {
	switch op {
	case ast.OpEq:
		return c == 0, nil
	case ast.OpNe:
		return c != 0, nil
	case ast.OpLt:
		return c < 0, nil
	case ast.OpGt:
		return c > 0, nil
	case ast.OpLe:
		return c <= 0, nil
	case ast.OpGe:
		return c >= 0, nil
	}
	return false, fmt.Errorf("eval: bad comparison op %q", op)
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

// SumBlock is the block length of the one summation order: a Σ's terms go,
// in iteration order, into consecutive blocks of SumBlock terms.
const SumBlock = 64

// sumLevels bounds the binary counter: 2^(sumLevels-1) blocks of SumBlock
// terms exceed any int64 count.
const sumLevels = 58

// SumAcc accumulates a summation term by term, overloading at nat and real:
// a nat sum stays nat until the first real term commits it to real; a nat
// total past the int64 range is the kernel's nat overflow ⊥ (nat addends
// are non-negative, so a Σ overflows exactly when its total does, however
// it was cut). It owns the one summation order of real terms, which every
// engine and every split of a Σ shares:
//
//   - terms go, by their position in the Σ, into consecutive blocks of
//     SumBlock terms, and each block is a left fold from zero;
//   - block sums are combined pairwise by a binary counter keyed on the
//     block's position: the nodes are the aligned dyadic runs of blocks,
//     each the sum of its two halves, left + right;
//   - the total folds the counter's pending nodes, leftmost first, from
//     zero, then the last, partial block.
//
// The order does not depend on how the Σ was cut: an accumulator started
// at a block boundary (Start) builds exactly the nodes that lie inside its
// range, and Absorb pushes them into the accumulator of the terms before
// it, where they combine as the serial counter would have. A Σ of at most
// SumBlock terms is the plain left fold. The state is O(log n).
type SumAcc struct {
	nat int64
	// signs is the OR of every running nat total: negative once one has
	// left the int64 range, which a later term cannot undo.
	signs  int64
	isReal bool
	// blk is the left fold of the current block's n terms; block is the
	// current block's position in the Σ, and from the first block's.
	blk         float64
	n           int
	block, from int64
	// nodes[k] holds, when bit k of have is set, the pending node of 2^k
	// blocks that ends where the current block begins.
	nodes [sumLevels]float64
	have  uint64
	// lead holds, in order, the nodes of an accumulator started mid-Σ whose
	// left sibling lies before its start; the accumulator of the terms
	// before it combines them (Absorb).
	lead []sumNode
}

// sumNode is a node of 2^level blocks.
type sumNode struct {
	x     float64
	level int
}

// Start positions an empty accumulator at term off of its Σ, a multiple of
// SumBlock: the first term it is given is the Σ's term off.
func (a *SumAcc) Start(off int64) {
	if off%SumBlock != 0 {
		panic(fmt.Sprintf("eval: sum split at term %d, not a block boundary", off))
	}
	a.block, a.from = off/SumBlock, off/SumBlock
}

// Add folds one body value into the accumulator; non-numeric values are a
// kind error.
func (a *SumAcc) Add(v object.Value) error {
	x, ok := numOf(&v)
	if !ok {
		return fmt.Errorf("eval: sum of non-numeric %s", v.Kind)
	}
	if a.AddNum(x) {
		a.EndBlock()
	}
	return nil
}

// AddNum folds one numeric term into the current block and reports
// whether the term ended it, in which case the caller calls EndBlock before
// the next term. It is small enough to inline into an engine's loop, which
// EndBlock, once a block, is not.
func (a *SumAcc) AddNum(x Num) bool {
	if x.Real {
		a.isReal = true
		a.blk += x.R
	} else {
		a.nat += x.N
		a.signs |= a.nat
		a.blk += float64(x.N)
	}
	a.n++
	return a.n == SumBlock
}

// EndBlock pushes the ended block's sum into the counter and starts the
// next block.
func (a *SumAcc) EndBlock() {
	a.push(a.blk, 0)
	a.blk, a.n = 0, 0
}

// push adds a node of 2^level blocks that starts at the current block: it
// combines with the pending left siblings it completes, and becomes a lead
// node when its left sibling lies before the accumulator's start.
func (a *SumAcc) push(x float64, level int) {
	at := a.block >> level
	a.block += 1 << level
	for ; at&1 == 1; at >>= 1 {
		if a.have&(1<<level) == 0 {
			a.lead = append(a.lead, sumNode{x, level})
			return
		}
		x = a.nodes[level] + x
		a.have &^= 1 << level
		level++
	}
	a.nodes[level] = x
	a.have |= 1 << level
}

// Absorb appends the terms b accumulated to a's: b was started (Start)
// where a's terms end, which is a block boundary.
func (a *SumAcc) Absorb(b *SumAcc) {
	if a.n != 0 || a.block != b.from {
		panic(fmt.Sprintf("eval: sum part from block %d absorbed at term %d", b.from, a.block*SumBlock+int64(a.n)))
	}
	a.nat += b.nat
	a.signs |= b.signs | a.nat
	a.isReal = a.isReal || b.isReal
	for _, nd := range b.lead {
		a.push(nd.x, nd.level)
	}
	for k := sumLevels - 1; k >= 0; k-- {
		if b.have&(1<<k) != 0 {
			a.push(b.nodes[k], k)
		}
	}
	a.blk, a.n = b.blk, b.n
}

// Num returns the accumulated sum at the committed numeric kind. A nat
// total past the int64 range, or a real total that is not finite, is the
// kernel's ⊥, returned as bot.
func (a *SumAcc) Num() (x Num, bot *object.Value) {
	if !a.isReal {
		if a.signs < 0 {
			return Num{}, &natOverflow
		}
		return Num{N: a.nat}, nil
	}
	r := 0.0
	for k := sumLevels - 1; k >= 0; k-- {
		if a.have&(1<<k) != 0 {
			r += a.nodes[k]
		}
	}
	if r += a.blk; !object.IsFinite(r) {
		return Num{}, &nonFinite
	}
	return Num{R: r, Real: true}, nil
}

// Value returns the accumulated sum at the committed numeric kind, or the
// non-finite ⊥.
func (a *SumAcc) Value() object.Value {
	x, bot := a.Num()
	if bot != nil {
		return *bot
	}
	return x.Value()
}

// OutOfBounds is the value of an out-of-bounds ⊥ node (ast.Bottom with an
// Index): vals are the values of its k index components, then of its
// dimension lengths, none of them ⊥.
func OutOfBounds(vals []object.Value, k int) (object.Value, error) {
	ns := make([]int, len(vals))
	for i := range vals {
		n, err := vals[i].AsNat()
		if err != nil {
			return object.Value{}, fmt.Errorf("eval: subscript: %w", err)
		}
		ns[i] = int(n)
	}
	return object.OutOfBounds(ns[:k], ns[k:]), nil
}

// CheckedDim implements dim_k: the extent of a k-dimensional array, with a
// kind error when the static dimension annotation disagrees with the value.
func CheckedDim(a object.Value, k int) (object.Value, error) {
	if a.Kind == object.KArray && len(a.Shape) != k {
		return object.Value{}, fmt.Errorf("eval: dim_%d of %d-dimensional array", k, len(a.Shape))
	}
	return object.DimValue(a)
}

// Num is a number as the numeric kernel sees it: the natural N, or the real
// R when Real is set. The kernel — ArithNum, CmpNum, SumAcc — is the one
// statement of the nat/real rules; the interpreter hands it operands through
// numOf, the compiled engine straight from its unboxed scalar form.
type Num struct {
	N    int64
	R    float64
	Real bool
}

// numOf returns *v as a kernel operand; ok is false when it is not a
// number.
func numOf(v *object.Value) (x Num, ok bool) {
	switch v.Kind {
	case object.KNat:
		return Num{N: v.N}, true
	case object.KReal:
		return Num{R: v.R, Real: true}, true
	}
	return Num{}, false
}

// Float returns x promoted to real.
func (x Num) Float() float64 {
	if x.Real {
		return x.R
	}
	return float64(x.N)
}

// Value boxes x.
func (x Num) Value() object.Value {
	if x.Real {
		return object.Real(x.R)
	}
	return object.Nat(x.N)
}

// The ⊥ values the kernel yields, shared and never written: callers copy
// them out.
var (
	divByZero   = object.Bottom("division by zero")
	modByZero   = object.Bottom("modulus by zero")
	nonFinite   = object.Bottom("non-finite arithmetic result")
	natOverflow = object.Bottom("nat overflow")
)

// ArithNum applies an arithmetic operator to two numbers, overloading at
// nat and real: on two naturals it is the Nat rule of op, otherwise a nat
// operand is promoted to real and it is the Real rule. bot is non-nil
// exactly when the result is ⊥.
func ArithNum(op ast.ArithOp, a, b Num) (x Num, bot *object.Value, err error) {
	if !a.Real && !b.Real {
		var n int64
		switch op {
		case ast.OpAdd:
			n, bot = NatAdd(a.N, b.N)
		case ast.OpSub:
			n, bot = NatSub(a.N, b.N)
		case ast.OpMul:
			n, bot = NatMul(a.N, b.N)
		case ast.OpDiv:
			n, bot = NatDiv(a.N, b.N)
		case ast.OpMod:
			n, bot = NatMod(a.N, b.N)
		default:
			return Num{}, nil, fmt.Errorf("eval: bad arithmetic op %q", op)
		}
		return Num{N: n}, bot, nil
	}
	p, q := a.Float(), b.Float()
	var f float64
	switch op {
	case ast.OpAdd:
		f, bot = RealAdd(p, q)
	case ast.OpSub:
		f, bot = RealSub(p, q)
	case ast.OpMul:
		f, bot = RealMul(p, q)
	case ast.OpDiv:
		f, bot = RealDiv(p, q)
	case ast.OpMod:
		f, bot = RealMod(p, q)
	default:
		return Num{}, nil, fmt.Errorf("eval: bad arithmetic op %q", op)
	}
	return Num{R: f, Real: true}, bot, nil
}

// The kernel's rules, one operator at one kind each: the result, or the ⊥
// it is instead (bot non-nil, the result then 0). ArithNum dispatches to
// them, and the compiled engine's lanes call them lane by lane, so each
// rule is stated here once. Each is small enough to inline.
//
// On naturals, subtraction is monus, division and modulus by zero are ⊥,
// and a sum or product past the int64 range is ⊥.

func NatAdd(p, q int64) (n int64, bot *object.Value) {
	if s := p + q; s >= 0 {
		return s, nil
	}
	return 0, &natOverflow
}

func NatSub(p, q int64) (n int64, bot *object.Value) {
	if p < q {
		return 0, nil
	}
	return p - q, nil
}

func NatMul(p, q int64) (n int64, bot *object.Value) {
	if hi, lo := bits.Mul64(uint64(p), uint64(q)); hi != 0 || lo > math.MaxInt64 {
		return 0, &natOverflow
	}
	return p * q, nil
}

func NatDiv(p, q int64) (n int64, bot *object.Value) {
	if q == 0 {
		return 0, &divByZero
	}
	return p / q, nil
}

func NatMod(p, q int64) (n int64, bot *object.Value) {
	if q == 0 {
		return 0, &modByZero
	}
	return p % q, nil
}

// On reals, subtraction is exact, division and modulus by zero are ⊥,
// modulus follows math.Mod, and a non-finite result is ⊥.

func RealAdd(p, q float64) (f float64, bot *object.Value) { return finite(p + q) }

func RealSub(p, q float64) (f float64, bot *object.Value) { return finite(p - q) }

func RealMul(p, q float64) (f float64, bot *object.Value) { return finite(p * q) }

func RealDiv(p, q float64) (f float64, bot *object.Value) {
	if q == 0 {
		return 0, &divByZero
	}
	return finite(p / q)
}

func RealMod(p, q float64) (f float64, bot *object.Value) {
	if q == 0 {
		return 0, &modByZero
	}
	return finite(math.Mod(p, q))
}

// finite is f, or the non-finite ⊥.
func finite(f float64) (float64, *object.Value) {
	if !object.IsFinite(f) {
		return 0, &nonFinite
	}
	return f, nil
}

// CmpNum compares two numbers three-way, a nat beside a real by magnitude:
// object.Compare's order restricted to numbers.
func CmpNum(a, b Num) int {
	if !a.Real && !b.Real {
		switch {
		case a.N < b.N:
			return -1
		case a.N > b.N:
			return 1
		}
		return 0
	}
	switch p, q := a.Float(), b.Float(); {
	case p < q:
		return -1
	case p > q:
		return 1
	}
	return 0
}

// Arith applies an arithmetic operator to two evaluated operands by
// ArithNum; a non-numeric operand is a kind error.
func Arith(op ast.ArithOp, l, r object.Value) (object.Value, error) {
	a, aok := numOf(&l)
	b, bok := numOf(&r)
	if !aok || !bok {
		_, err := l.AsReal()
		if err == nil {
			_, err = r.AsReal()
		}
		return object.Value{}, fmt.Errorf("eval: arithmetic: %w", err)
	}
	x, bot, err := ArithNum(op, a, b)
	if err != nil {
		return object.Value{}, err
	}
	if bot != nil {
		return *bot, nil
	}
	return x.Value(), nil
}
