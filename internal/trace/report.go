package trace

import "time"

// maxRuleFirings caps the optimizer trace kept per report; firings beyond
// it are counted by rule name in RulesDropped. The optimizer's own
// application budget is 100k, far beyond what a report can usefully show.
const maxRuleFirings = 4096

// Span is an open phase timing; obtain with StartPhase, close with End.
// The zero Span is a no-op.
type Span struct {
	r     *QueryReport
	name  string
	start time.Time
}

// StartPhase starts timing the named pipeline phase; on a nil report it
// returns a no-op Span.
func (r *QueryReport) StartPhase(name string) Span {
	if r == nil {
		return Span{}
	}
	return Span{r: r, name: name, start: time.Now()}
}

// End folds the span's elapsed time into its phase.
func (s Span) End() {
	if s.r != nil {
		s.r.addPhase(s.name, time.Since(s.start))
	}
}

// RuleFired appends one optimizer rule application to the report's trace,
// counting it by name in RulesDropped beyond the cap (the map is made at the
// first firing dropped); the signature matches
// opt.Optimizer.OptimizeTraced's hook.
func (r *QueryReport) RuleFired(phase, rule string, nodesBefore, nodesAfter int) {
	if r == nil {
		return
	}
	if len(r.Rules) < maxRuleFirings {
		r.Rules = append(r.Rules, RuleFiring{
			Phase: phase, Rule: rule,
			NodesBefore: nodesBefore, NodesAfter: nodesAfter,
		})
		return
	}
	if r.RulesDropped == nil {
		r.RulesDropped = map[string]int{}
	}
	r.RulesDropped[rule]++
}

// RuleFirings returns the number of rule firings the report saw, kept in
// Rules or counted in RulesDropped.
func (r *QueryReport) RuleFirings() int {
	n := len(r.Rules)
	for _, d := range r.RulesDropped {
		n += d
	}
	return n
}
