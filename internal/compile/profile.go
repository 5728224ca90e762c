package compile

import (
	"time"

	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/object"
)

// profWrap wraps a compiled node closure in span recording; emitted by
// compile only for nodes the span plan covers, so at ProfOff the engine's
// code is exactly the unprofiled closures. The wrapper reads the machine's
// profiling context at run time (not compile time) because closures escape
// evaluations: a top-level val of function type compiled under profiling
// later runs on a guest machine (see machine.machineFor), which never
// profiles — its span IDs belong to another plan — and must then cost
// nothing but the nil check.
//
// The accounting mirrors eval.Evaluator.evalSpan exactly: count the
// invocation; on measured invocations snapshot the machine counters and
// exchange the context's Child* accumulators around the execution, so self
// time and self counters exclude profiled descendants.
func profWrap(op compiledExpr, id int) compiledExpr {
	return func(fr *frame) (object.Value, error) {
		m := fr.m
		p := m.prof
		if p == nil {
			return op(fr)
		}
		s := &p.Slots[id]
		inv := s.Inv.Add(1)
		if !p.Full && (inv-1)&(eval.SampleInterval-1) != 0 {
			return op(fr)
		}
		steps0 := m.steps
		cells0 := m.cells
		tabs0 := m.tabs
		setOps0 := m.setOps
		iters0 := m.iters
		savedWall := p.ChildWallNs.Swap(0)
		savedSteps := p.ChildSteps.Swap(0)
		savedCells := p.ChildCells.Swap(0)
		savedTabs := p.ChildTabs.Swap(0)
		savedSetOps := p.ChildSetOps.Swap(0)
		savedIters := p.ChildIters.Swap(0)
		t0 := time.Now()
		v, err := op(fr)
		d := int64(time.Since(t0))
		dSteps := m.steps - steps0
		dCells := m.cells - cells0
		dTabs := m.tabs - tabs0
		dSetOps := m.setOps - setOps0
		dIters := m.iters - iters0
		s.Measured.Add(1)
		s.WallNs.Add(d)
		s.SelfNs.Add(d - p.ChildWallNs.Load())
		s.Steps.Add(dSteps - p.ChildSteps.Load())
		s.Cells.Add(dCells - p.ChildCells.Load())
		s.Tabs.Add(dTabs - p.ChildTabs.Load())
		s.SetOps.Add(dSetOps - p.ChildSetOps.Load())
		s.Iters.Add(dIters - p.ChildIters.Load())
		p.ChildWallNs.Store(savedWall + d)
		p.ChildSteps.Store(savedSteps + dSteps)
		p.ChildCells.Store(savedCells + dCells)
		p.ChildTabs.Store(savedTabs + dTabs)
		p.ChildSetOps.Store(savedSetOps + dSetOps)
		p.ChildIters.Store(savedIters + dIters)
		return v, err
	}
}
