package compile

import (
	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/eval"
)

// wrap adds what a lowered node gets beyond its own code, in whichever form
// it was lowered (boxed, scalar, or a fused subscript's index pair): the
// recursion-depth guard when a depth limit is configured, and the span
// wrapper when the lowering's plan gives the node a span. The span wrapper
// sits outside the depth guard so profiled invocation counts match the
// interpreter, whose span hook precedes its depth check. Both are separate
// wrappers rather than logic in the hot path, so an unprofiled execution
// without a depth limit runs exactly the node's own code.
func wrap[T any](c *compiler, e ast.Expr, op func(*frame) (T, error)) func(*frame) (T, error) {
	if max := c.limits.MaxDepth; max > 0 {
		op = depthGuard(op, max)
	}
	if id, ok := c.prof.ID(e); ok {
		op = profWrap(op, c.prof, id)
	}
	return op
}

// depthGuard bounds the recursion depth around a node; a trip leaves the
// node's step uncharged, as the interpreter's depth check does.
func depthGuard[T any](op func(*frame) (T, error), max int) func(*frame) (T, error) {
	return func(fr *frame) (T, error) {
		m := fr.m
		m.depth++
		if m.depth > max {
			m.depth--
			var zero T
			return zero, &eval.ResourceError{Kind: eval.ResourceDepth, Limit: int64(max), Used: int64(max) + 1}
		}
		v, err := op(fr)
		m.depth--
		return v, err
	}
}

// profWrap wraps a node closure in span recording against span id of plan;
// emitted only for nodes the plan covers, so at ProfOff the engine's code is
// exactly the unprofiled closures. The wrapper reads the machine's profiling
// context at run time (not compile time) because a program's profiled
// closures serve every execution at their level, each measuring into its own
// context, and because functions escape executions: the body of a val of
// function type lowered under profiling runs on the machine of whatever
// query applies it, whose context measures against another plan. The
// wrapper records only into a context of its own plan and otherwise costs
// the nil check and one comparison.
//
// The accounting is eval.ProfCtx's Count / Enter / Exit, the one span hook
// both engines call.
func profWrap[T any](op func(*frame) (T, error), plan *eval.SpanPlan, id int) func(*frame) (T, error) {
	return func(fr *frame) (T, error) {
		m := fr.m
		p := m.prof
		if p == nil || p.Plan != plan || !p.Count(id) {
			return op(fr)
		}
		var f eval.SpanFrame
		p.Enter(&f, id, &m.used)
		v, err := op(fr)
		p.Exit(&f, &m.used)
		return v, err
	}
}
