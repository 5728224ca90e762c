package compile

import "github.com/aqldb/aql/internal/object"

// profWrap wraps a compiled node closure in span recording; emitted by
// compile only for nodes the span plan covers, so at ProfOff the engine's
// code is exactly the unprofiled closures. The wrapper reads the machine's
// profiling context at run time (not compile time) because a program's
// profiled closures serve every execution at their level, each measuring
// into its own context, and because closures escape executions: a
// top-level val of function type compiled under profiling later runs on a
// guest machine (see machine.machineFor), which never profiles — its span
// IDs belong to another execution — and must then cost nothing but the nil
// check.
//
// The accounting is eval.ProfCtx's Count / Enter / Exit, the one span hook
// both engines call.
func profWrap(op compiledExpr, id int) compiledExpr {
	return func(fr *frame) (object.Value, error) {
		m := fr.m
		p := m.prof
		if p == nil || !p.Count(id) {
			return op(fr)
		}
		f := p.Enter(id, m.counters())
		v, err := op(fr)
		p.Exit(&f, m.counters())
		return v, err
	}
}
