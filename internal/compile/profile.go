package compile

import (
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/object"
)

// profWrap wraps a compiled node closure in span recording against span id
// of plan; emitted by compile only for nodes the plan covers, so at ProfOff
// the engine's code is exactly the unprofiled closures. The wrapper reads the
// machine's profiling context at run time (not compile time) because a
// program's profiled closures serve every execution at their level, each
// measuring into its own context, and because functions escape executions:
// the body of a val of function type lowered under profiling runs on the
// machine of whatever query applies it, whose context measures against
// another plan. The wrapper records only into a context of its own plan and
// otherwise costs the nil check and one comparison.
//
// The accounting is eval.ProfCtx's Count / Enter / Exit, the one span hook
// both engines call.
func profWrap(op compiledExpr, plan *eval.SpanPlan, id int) compiledExpr {
	return func(fr *frame) (object.Value, error) {
		m := fr.m
		p := m.prof
		if p == nil || p.Plan != plan || !p.Count(id) {
			return op(fr)
		}
		f := p.Enter(id, m.counters())
		v, err := op(fr)
		p.Exit(&f, m.counters())
		return v, err
	}
}
