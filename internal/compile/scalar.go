package compile

import (
	"fmt"
	"math"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/tile"
)

// The scalar form. Numbers travel between compiled nodes unboxed: a node of
// a numeric kind — a variable or $name read, a nat, real or bool literal,
// arithmetic, a comparison, a conditional, a subscript, a summation, and
// gen, whose range is carried by its bound (kRange) — is lowered once, to a
// scalarExpr returning a 32-byte scalar rather than an 80-byte
// object.Value. Go copies a struct above 64 bytes through the
// runtime's duffcopy/duffzero; a scalar and its error come back in
// registers.
//
// Each node is lowered in one form only, and the parent asks for the form it
// consumes: compile for an object.Value, compileScalar for a scalar. A
// numeric node in a boxed position sits behind the box adapter (boxed); any
// other node in a scalar position sits behind the unbox adapter (unboxed).
// Values are boxed once, at the edge: a tabulation boxes the cell it writes,
// an application's argument, a tuple's component.

// scalar is one value in the scalar form: a nat (n), a real (r), a bool
// (n is 0 or 1) or a range (n members) inline; any other value, and ⊥,
// through v. v points at storage that holds the value until the consumer
// reads it — an eager array cell, a boxed cell of a resident tile, a frame
// slot, a $name argument, a global, the frame's park slot of the node that
// produced it, or one of eval's shared ⊥ values — and is nil only for the
// undiagnosed ⊥.
type scalar struct {
	k object.Kind
	n int64
	r float64
	v *object.Value
}

// scalarExpr is a node lowered in the scalar form; its step charges, kind
// checks, ⊥ propagation and error strings are the boxed form's.
type scalarExpr func(fr *frame) (scalar, error)

// kRange is the private scalar kind of gen!m: the set {0, ..., m-1}, not
// built, with m in n. Σ and the big unions count through it (members); any
// other consumer gets the set from box, which builds it (eval.GenSet).
const kRange = object.KFunc + 1

// box returns s as an object.Value.
func (s scalar) box() object.Value {
	switch s.k {
	case object.KNat:
		return object.Value{Kind: object.KNat, N: s.n}
	case object.KReal:
		return object.Value{Kind: object.KReal, R: s.r}
	case object.KBool:
		return object.Value{Kind: object.KBool, B: s.n != 0}
	case kRange:
		return eval.GenSet(s.n)
	}
	if s.v != nil {
		return *s.v
	}
	return object.Value{Kind: s.k}
}

// store boxes s into *dst, which holds the zero Value: a number or a bool
// by its payload fields alone, without building the 80-byte value first.
func (s scalar) store(dst *object.Value) {
	switch s.k {
	case object.KNat:
		dst.Kind, dst.N = object.KNat, s.n
	case object.KReal:
		dst.Kind, dst.R = object.KReal, s.r
	case object.KBool:
		dst.Kind, dst.B = object.KBool, s.n != 0
	default:
		*dst = s.box()
	}
}

// num returns s as an operand of eval's numeric kernel; ok is false when s
// is not a number.
func (s scalar) num() (x eval.Num, ok bool) {
	return eval.Num{N: s.n, R: s.r, Real: s.k == object.KReal}, s.k == object.KNat || s.k == object.KReal
}

// numScalar is a kernel result in the scalar form.
func numScalar(x eval.Num) scalar {
	if x.Real {
		return scalar{k: object.KReal, r: x.R}
	}
	return scalar{k: object.KNat, n: x.N}
}

func boolScalar(b bool) scalar {
	if b {
		return scalar{k: object.KBool, n: 1}
	}
	return scalar{k: object.KBool}
}

// scalarAt reads the value at p, which stays put until the scalar is
// consumed.
func scalarAt(p *object.Value) scalar {
	switch p.Kind {
	case object.KNat:
		return scalar{k: object.KNat, n: p.N}
	case object.KReal:
		return scalar{k: object.KReal, r: p.R}
	case object.KBool:
		return boolScalar(p.B)
	}
	return scalar{k: p.Kind, v: p}
}

// hold returns v, which has no address of its own, in the scalar form:
// inline when it is a number or a bool, otherwise parked in the frame's park
// slot i. Each lowered site owns its slot, and a consumer reads a scalar
// before the site that made it runs again, so the parked value stays put.
// (The switch is scalarAt's, spelled out: scalarAt(&v) would move every v
// to the heap.)
func (fr *frame) hold(i int, v object.Value) scalar {
	switch v.Kind {
	case object.KNat:
		return scalar{k: object.KNat, n: v.N}
	case object.KReal:
		return scalar{k: object.KReal, r: v.R}
	case object.KBool:
		return boolScalar(v.B)
	}
	p := &fr.park[i]
	*p = v
	return scalar{k: v.Kind, v: p}
}

// park reserves a park slot for one lowered site.
func (c *compiler) park() int {
	c.parks++
	return c.parks - 1
}

// site numbers one lowered subscript site, for its tile cursor.
func (c *compiler) site() int {
	c.sites++
	return c.sites - 1
}

// boxed is the box adapter: a scalar-form node's boxed entry.
func boxed(op scalarExpr) compiledExpr {
	return func(fr *frame) (object.Value, error) {
		s, err := op(fr)
		return s.box(), err
	}
}

// unboxed is the unbox adapter: a boxed-form node's scalar entry.
func (c *compiler) unboxed(op compiledExpr) scalarExpr {
	i := c.park()
	return func(fr *frame) (scalar, error) {
		v, err := op(fr)
		if err != nil {
			return scalar{}, err
		}
		return fr.hold(i, v), nil
	}
}

// constant is a leaf whose value is fixed at lowering: one step, then s.
func constant(s scalar) scalarExpr {
	return func(fr *frame) (scalar, error) {
		if err := fr.m.step(); err != nil {
			return scalar{}, err
		}
		return s, nil
	}
}

// lowerScalar lowers e in the scalar form when its kind is a numeric one,
// and returns nil for every other kind. Counter-charging points, kind
// checks, ⊥ propagation and error strings follow eval.Evaluator.eval case by
// case, as compileNode's do.
func (c *compiler) lowerScalar(e ast.Expr) scalarExpr {
	switch n := e.(type) {
	case *ast.Var:
		if slot, ok := c.lookup(n.Name); ok {
			return func(fr *frame) (scalar, error) {
				if err := fr.m.step(); err != nil {
					return scalar{}, err
				}
				return scalarAt(&fr.slots[slot]), nil
			}
		}
		if v, ok := c.globals[n.Name]; ok {
			return constant(scalarAt(&v))
		}
		name := n.Name
		return func(fr *frame) (scalar, error) {
			if err := fr.m.step(); err != nil {
				return scalar{}, err
			}
			return scalar{}, fmt.Errorf("eval: unbound variable %q", name)
		}

	case *ast.Param:
		// A placeholder costs exactly what a literal leaf costs — one step,
		// no cells — so a prepared execution's counters are byte-identical
		// to the same query with the argument substituted as a literal.
		idx := c.params.slot(n.Name)
		name := n.Name
		return func(fr *frame) (scalar, error) {
			if err := fr.m.step(); err != nil {
				return scalar{}, err
			}
			if ex := fr.ex; idx < len(ex.argOK) && ex.argOK[idx] {
				return scalarAt(&ex.args[idx]), nil
			}
			return scalar{}, fmt.Errorf("eval: unbound parameter $%s", name)
		}

	case *ast.NatLit:
		return constant(scalar{k: object.KNat, n: object.Nat(n.Val).N})

	case *ast.RealLit:
		return constant(scalar{k: object.KReal, r: n.Val})

	case *ast.BoolLit:
		return constant(boolScalar(n.Val))

	case *ast.Arith:
		l, r := c.compileScalar(n.L), c.compileScalar(n.R)
		op := n.Op
		return func(fr *frame) (scalar, error) {
			if err := fr.m.step(); err != nil {
				return scalar{}, err
			}
			lv, err := l(fr)
			if err != nil || lv.k == object.KBottom {
				return lv, err
			}
			rv, err := r(fr)
			if err != nil || rv.k == object.KBottom {
				return rv, err
			}
			a, aok := lv.num()
			b, bok := rv.num()
			if !aok || !bok {
				// Not two numbers: eval.Arith states the kind error.
				_, err := eval.Arith(op, lv.box(), rv.box())
				return scalar{}, err
			}
			x, bot, err := eval.ArithNum(op, a, b)
			if err != nil {
				return scalar{}, err
			}
			if bot != nil {
				return scalarAt(bot), nil
			}
			return numScalar(x), nil
		}

	case *ast.Cmp:
		l, r := c.compileScalar(n.L), c.compileScalar(n.R)
		op := n.Op
		return func(fr *frame) (scalar, error) {
			if err := fr.m.step(); err != nil {
				return scalar{}, err
			}
			lv, err := l(fr)
			if err != nil || lv.k == object.KBottom {
				return lv, err
			}
			rv, err := r(fr)
			if err != nil || rv.k == object.KBottom {
				return rv, err
			}
			a, aok := lv.num()
			b, bok := rv.num()
			if !aok || !bok {
				v, err := eval.EvalCmp(fr.m.ctx, fr.m.chargeAlloc, op, lv.box(), rv.box())
				return boolScalar(v.B), err
			}
			holds, err := eval.CmpHolds(op, eval.CmpNum(a, b))
			return boolScalar(holds), err
		}

	case *ast.If:
		cond := c.compileScalar(n.Cond)
		then := c.compileScalar(n.Then)
		els := c.compileScalar(n.Else)
		return func(fr *frame) (scalar, error) {
			if err := fr.m.step(); err != nil {
				return scalar{}, err
			}
			cv, err := cond(fr)
			if err != nil || cv.k == object.KBottom {
				return cv, err
			}
			if cv.k != object.KBool {
				_, err := cv.box().AsBool()
				return scalar{}, fmt.Errorf("eval: if condition: %w", err)
			}
			if cv.n != 0 {
				return then(fr)
			}
			return els(fr)
		}

	case *ast.Subscript:
		return c.lowerSubscript(n)

	case *ast.Sum:
		return c.lowerSum(n)

	case *ast.Gen:
		bound := c.compileScalar(n.N)
		return func(fr *frame) (scalar, error) {
			if err := fr.m.step(); err != nil {
				return scalar{}, err
			}
			b, err := bound(fr)
			if err != nil || b.k == object.KBottom {
				return b, err
			}
			if b.k != object.KNat {
				_, err := b.box().AsNat()
				return scalar{}, fmt.Errorf("eval: gen: %w", err)
			}
			fr.m.used.SetOps++
			if err := fr.m.chargeAlloc(b.n); err != nil {
				return scalar{}, err
			}
			return scalar{k: kRange, n: b.n}, nil
		}
	}
	return nil
}

// members returns what a loop over s iterates, with kind s's kind: a set's
// or bag's elements and their count, or, for a range, no elements and its
// length m (kind KSet). Any other kind has no members.
func (s scalar) members() (kind object.Kind, elems []object.Value, n int64) {
	switch s.k {
	case kRange:
		return object.KSet, nil, s.n
	case object.KSet, object.KBag:
		return s.k, s.v.Elems, int64(len(s.v.Elems))
	}
	return s.k, nil, 0
}

// loopVar returns a loop's variable slot, made a nat first when the loop
// counts through a range (elems nil), so that rebind sets its payload
// alone. Only the loop writes the slot while it runs.
func (fr *frame) loopVar(slot int, elems []object.Value) *object.Value {
	x := &fr.slots[slot]
	if elems == nil {
		*x = object.Value{Kind: object.KNat}
	}
	return x
}

// rebind binds loop variable x to member i: the nat i of a range (elems
// nil), or elems[i]. A nat over a nat rebinds the payload alone, as a
// tabulation rebinds its index slots.
func rebind(x *object.Value, elems []object.Value, i int64) {
	if elems == nil {
		x.N = i
	} else if e := &elems[i]; e.Kind == object.KNat && x.Kind == object.KNat {
		x.N = e.N
	} else {
		*x = *e
	}
}

// lowerSubscript lowers a[i]. A 1-D array with a nat index, and a 2-D array
// with a pair of nats, reach the cell directly — in place when the array is
// eager; every other case (other ranks, non-nat indexes, kind errors) takes
// object.SubValueCtx over the boxed operands, the interpreter's route, so
// diagnostics are identical.
//
// Matrix subscripts a[(e1,e2)] are fused: the index tuple is lowered by
// lowerPair, which keeps the tuple node's step, depth guard and span but
// never builds the tuple.
func (c *compiler) lowerSubscript(n *ast.Subscript) scalarExpr {
	arr := c.compileScalar(n.Arr)
	if tup, ok := n.Index.(*ast.Tuple); ok && len(tup.Elems) == 2 {
		index, held := c.lowerPair(tup)
		park, site := c.park(), c.site()
		return func(fr *frame) (scalar, error) {
			if err := fr.m.step(); err != nil {
				return scalar{}, err
			}
			a, err := arr(fr)
			if err != nil || a.k == object.KBottom {
				return a, err
			}
			ix, err := index(fr)
			if err != nil {
				return scalar{}, err
			}
			if ix.ik == object.KBottom {
				return scalarAt(&fr.park[held]), nil
			}
			if a.k == object.KArray && len(a.v.Shape) == 2 && ix.ik == object.KNat && ix.jk == object.KNat {
				i, j, shape := ix.i, ix.j, a.v.Shape
				if i < int64(shape[0]) && j < int64(shape[1]) {
					return fr.cell(site, park, a.v, int(i*int64(shape[1])+j))
				}
				return fr.hold(park, object.Bottom(fmt.Sprintf("index %v out of bounds for shape %v", []int{int(i), int(j)}, shape))), nil
			}
			return fr.sub(park, a, object.Tuple(fr.component(ix.ik, ix.i, held), fr.component(ix.jk, ix.j, held+1)))
		}
	}
	index := c.compileScalar(n.Index)
	park, site := c.park(), c.site()
	return func(fr *frame) (scalar, error) {
		if err := fr.m.step(); err != nil {
			return scalar{}, err
		}
		a, err := arr(fr)
		if err != nil || a.k == object.KBottom {
			return a, err
		}
		i, err := index(fr)
		if err != nil || i.k == object.KBottom {
			return i, err
		}
		if a.k == object.KArray && len(a.v.Shape) == 1 && i.k == object.KNat {
			if i.n >= int64(a.v.Shape[0]) {
				return fr.hold(park, object.Bottom(fmt.Sprintf("index [%d] out of bounds for shape %v", i.n, a.v.Shape))), nil
			}
			return fr.cell(site, park, a.v, int(i.n))
		}
		return fr.sub(park, a, i.box())
	}
}

// index2 is a fused 2-D subscript's index: the components i and j, of
// kinds ik and jk. A component that is not a nat is parked, in the first or
// second of the pair's two park slots; when the tuple is ⊥ (ik is KBottom)
// that ⊥ is in the first. Four word-sized fields keep it in registers.
type index2 struct {
	i, j   int64
	ik, jk object.Kind
}

// lowerPair lowers the index tuple of a fused matrix subscript: the tuple
// node's step, then its components in order with ⊥ short-circuiting, under
// the tuple node's own depth guard and span — the counters, depth and span
// tree of evaluating the tuple, without building it. It returns the first
// of the two park slots it reserved.
func (c *compiler) lowerPair(tup *ast.Tuple) (func(*frame) (index2, error), int) {
	e0, e1 := c.compileScalar(tup.Elems[0]), c.compileScalar(tup.Elems[1])
	held := c.park()
	c.park()
	return wrap(c, tup, func(fr *frame) (index2, error) {
		if err := fr.m.step(); err != nil {
			return index2{}, err
		}
		i, err := e0(fr)
		if err != nil {
			return index2{}, err
		}
		if i.k != object.KNat {
			fr.park[held] = i.box()
			if i.k == object.KBottom {
				return index2{ik: object.KBottom}, nil
			}
		}
		j, err := e1(fr)
		if err != nil {
			return index2{}, err
		}
		if j.k == object.KBottom {
			fr.park[held] = j.box()
			return index2{ik: object.KBottom}, nil
		}
		if j.k != object.KNat {
			fr.park[held+1] = j.box()
		}
		return index2{i: i.n, j: j.n, ik: i.k, jk: j.k}, nil
	}), held
}

// component returns an index2 component, of kind k, as a value: n for a
// nat, else what lowerPair parked in slot.
func (fr *frame) component(k object.Kind, n int64, slot int) object.Value {
	if k == object.KNat {
		return object.Nat(n)
	}
	return fr.park[slot]
}

// cell reads cell off of array a, which is in bounds: in place when a is
// eager (a lazy array has no Elems); through the site's tile cursor when a
// reads from the tile cache, a real or nat cell straight off the packed
// tile; through the backing otherwise.
func (fr *frame) cell(site, park int, a *object.Value, off int) (scalar, error) {
	if off < len(a.Elems) {
		return scalarAt(&a.Elems[off]), nil
	}
	if ta, ok := a.Backing().(*tile.Array); ok {
		cells, i, err := fr.m.cursor(site).Read(fr.m.ctx, ta, off)
		switch {
		case err != nil:
			return scalar{}, err
		case cells.Bottoms != nil:
			return fr.hold(park, cells.At(i)), nil
		case cells.Reals != nil:
			return scalar{k: object.KReal, r: cells.Reals[i]}, nil
		case cells.Nats != nil:
			return scalar{k: object.KNat, n: cells.Nats[i]}, nil
		}
		return scalarAt(&cells.Boxed[i]), nil
	}
	v, err := a.CellAtCtx(fr.m.ctx, off)
	if err != nil {
		return scalar{}, err
	}
	return fr.hold(park, v), nil
}

// sub is the general subscript, object.SubValueCtx on the boxed operands.
func (fr *frame) sub(park int, a scalar, index object.Value) (scalar, error) {
	v, err := object.SubValueCtx(fr.m.ctx, a.box(), index)
	if err != nil {
		return scalar{}, err
	}
	return fr.hold(park, v), nil
}

// sumCode is a compiled Σ{ head | var ∈ over }.
type sumCode struct {
	fanSite
	over, head scalarExpr
	slot, park int
}

// lowerSum lowers Σ{ head | var ∈ over }: the head in the scalar form,
// accumulated by eval.SumAcc's rule and order, over a set, a bag or a
// range. A Σ that is enough work fans out through the one fan-out (tab.go),
// in chunks of whole eval.SumBlock blocks, so the order — and the sum, bit
// for bit — is the serial one. A step budget keeps a Σ serial: its trip
// must fall on the step a serial run trips at.
func (c *compiler) lowerSum(n *ast.Sum) scalarExpr {
	s := &sumCode{over: c.compileScalar(n.Over), slot: c.bind(n.Var)}
	s.init(c, n)
	s.head = c.compileScalar(n.Head)
	c.unbind(1)
	s.park = c.park()
	return s.eval
}

func (s *sumCode) eval(fr *frame) (scalar, error) {
	m := fr.m
	if err := m.step(); err != nil {
		return scalar{}, err
	}
	o, err := s.over(fr)
	if err != nil || o.k == object.KBottom {
		return o, err
	}
	kind, elems, count := o.members()
	if kind != object.KSet && kind != object.KBag {
		return scalar{}, fmt.Errorf("eval: sum over %s", kind)
	}
	m.used.Iterations += count
	n, before := int(count), m.used.Steps
	var acc eval.SumAcc
	var p Partial
	if chunk, nw := m.split(n, s.steps.Load(), eval.SumBlock); nw > 1 && m.limits.MaxSteps == 0 {
		parts := make([]eval.SumAcc, nw)
		p = m.fanOut(fr, &s.fanSite, 0, n, chunk, true, func(w int, wfr *frame, lo, hi int, ln *lane) Partial {
			parts[w].Start(int64(lo))
			return s.scan(wfr, elems, lo, hi, &parts[w], ln)
		})
		if p.first(true) == math.MaxInt64 {
			for w := range parts {
				acc.Absorb(&parts[w])
			}
		}
	} else {
		p = s.scan(fr, elems, 0, n, &acc, nil)
	}
	switch {
	case p.Err != nil && (p.BottomOff < 0 || p.ErrOff < p.BottomOff):
		return scalar{}, p.Err
	case p.BottomOff >= 0:
		return fr.hold(s.park, p.Bottom), nil
	}
	s.note(m, n, before)
	x, bot := acc.Num()
	if bot != nil {
		return scalarAt(bot), nil
	}
	return numScalar(x), nil
}

// scan folds the head over members [lo, hi) of the Σ's collection (elems,
// or a range's nats when nil) into acc, in order, up to the first ⊥ or
// error, which it reports in the Partial. ln is the scan's lane when it is
// a fan-out's, nil on a serial scan.
func (s *sumCode) scan(fr *frame, elems []object.Value, lo, hi int, acc *eval.SumAcc, ln *lane) Partial {
	p := Partial{Lo: int64(lo), Hi: int64(hi), BottomOff: -1}
	x, head := fr.loopVar(s.slot, elems), s.head
	for i := lo; i < hi; i++ {
		if ln != nil && ln.past(i) {
			break
		}
		rebind(x, elems, int64(i))
		v, err := head(fr)
		if err == nil && v.k != object.KBottom {
			if a, ok := v.num(); ok {
				if acc.AddNum(a) {
					acc.EndBlock()
				}
				continue
			}
			err = acc.Add(v.box())
		}
		if err != nil {
			p.ErrOff, p.Err = int64(i), err
		} else {
			p.BottomOff, p.Bottom = int64(i), v.box()
		}
		if ln != nil {
			ln.event(i)
		}
		break
	}
	return p
}
