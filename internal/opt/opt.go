// Package opt implements the AQL optimizer (section 5 of the paper): a
// phased rewriting engine whose rule bases are extensible at runtime.
//
// The standard optimizer has three phases, mirroring the paper:
//
//  1. "normalize" — the equational theory of NRC (β for functions, π for
//     products, vertical and horizontal fusion of set loops, filter
//     promotion, conditional and arithmetic simplification) extended with
//     the three array rules of section 5:
//
//     (β^p)  [[e1 | i < e2]][e3]  ~>  if e3 < e2 then e1{i := e3} else ⊥
//     (η^p)  [[e[i] | i < len(e)]]  ~>  e
//     (δ^p)  len([[e1 | i < e2]])  ~>  e2
//
//  2. "constraints" — the redundant bound-check elimination rules of
//     section 5 (true/false propagation into tabulation bodies, gen loops
//     and conditional branches), plus the conditional folding needed to
//     consume the introduced constants.
//
//  3. "motion" — code motion: loop-invariant collection-valued expressions
//     are hoisted out of tabulation and set-loop bodies.
//
// β-reduction is guarded so normalization never duplicates run-time work:
// an argument is inlined only if it is cheap to re-evaluate, if it is a
// tabulation (which the array rules then fuse away), or if the variable is
// used at most once and not inside a loop body. Hoisted bindings therefore
// stay hoisted.
package opt

import (
	"fmt"
	"sync"

	"github.com/aqldb/aql/internal/ast"
)

// Rule is a single rewrite rule. Apply inspects the root of e and either
// returns the rewritten expression with fired = true, or e unchanged.
type Rule struct {
	Name  string
	Apply func(e ast.Expr) (out ast.Expr, fired bool)
}

// Phase is a named, ordered rule base applied to a fixpoint.
type Phase struct {
	Name  string
	Rules []Rule
}

// Optimizer is a sequence of phases. The zero value is an empty optimizer;
// New returns the paper's standard configuration.
type Optimizer struct {
	Phases []Phase
	// MaxApplications bounds the total number of rule firings per
	// Optimize call, guarding against non-terminating user rules.
	MaxApplications int
	// Stats counts rule firings by name, accumulated across Optimize
	// calls. Reset by ResetStats. Callers wanting a stable view should use
	// StatsSnapshot, which copies under the stats lock; concurrent
	// Optimize calls update the counters under the same lock, so parallel
	// sessions sharing an optimizer never corrupt the map.
	Stats map[string]int

	// statsMu guards Stats (concurrent Optimize calls fire rules in
	// parallel; the rewrite itself is purely functional over the AST).
	statsMu sync.Mutex
}

// New returns the standard three-phase optimizer.
func New() *Optimizer {
	return &Optimizer{
		Phases: []Phase{
			{Name: "normalize", Rules: NormalizeRules()},
			{Name: "constraints", Rules: append(ConstraintRules(), CleanupRules()...)},
			// Constraint elimination exposes new normal-form redexes (e.g.
			// η^p applies only once the β^p guards are gone), so normalize
			// once more before code motion.
			{Name: "renormalize", Rules: NormalizeRules()},
			{Name: "motion", Rules: MotionRules()},
		},
		MaxApplications: 100000,
		Stats:           map[string]int{},
	}
}

// NewNormalizeOnly returns an optimizer with just the normalization phase;
// used by the benchmarks to isolate phase effects.
func NewNormalizeOnly() *Optimizer {
	return &Optimizer{
		Phases:          []Phase{{Name: "normalize", Rules: NormalizeRules()}},
		MaxApplications: 100000,
		Stats:           map[string]int{},
	}
}

// AddRule appends a rule to the named phase, creating the phase if absent —
// the dynamic rule registration of section 4.1.
func (o *Optimizer) AddRule(phase string, r Rule) {
	for i := range o.Phases {
		if o.Phases[i].Name == phase {
			o.Phases[i].Rules = append(o.Phases[i].Rules, r)
			return
		}
	}
	o.Phases = append(o.Phases, Phase{Name: phase, Rules: []Rule{r}})
}

// ResetStats clears the firing counters.
func (o *Optimizer) ResetStats() {
	o.statsMu.Lock()
	o.Stats = map[string]int{}
	o.statsMu.Unlock()
}

// StatsSnapshot returns a copy of the cumulative firing counters, so
// callers can neither corrupt the live counts nor observe them mid-update.
func (o *Optimizer) StatsSnapshot() map[string]int {
	o.statsMu.Lock()
	defer o.statsMu.Unlock()
	out := make(map[string]int, len(o.Stats))
	for k, v := range o.Stats {
		out[k] = v
	}
	return out
}

// countFiring bumps a rule's firing counter under the stats lock.
func (o *Optimizer) countFiring(rule string) {
	o.statsMu.Lock()
	if o.Stats == nil {
		o.Stats = map[string]int{}
	}
	o.Stats[rule]++
	o.statsMu.Unlock()
}

// Optimize rewrites e through all phases. It never fails: if the
// application budget runs out the current state is returned.
//
// Rule application order is deterministic: phases run in slice order, each
// phase's rules are tried in slice order at every node of a bottom-up
// traversal, and the first matching rule wins. Two Optimize calls on equal
// inputs therefore produce identical rewrites AND identical firing
// sequences — which is what makes EXPLAIN output stable and diffable.
func (o *Optimizer) Optimize(e ast.Expr) ast.Expr {
	return o.OptimizeTraced(e, nil)
}

// OptimizeTraced is Optimize with a per-call firing hook (nil for none)
// that observes every rule firing: the phase it fired in, the rule name,
// and the node count of the rewritten subtree before and after. Node
// counting only happens when a hook is passed. Because the hook is an
// argument rather than shared state, concurrent OptimizeTraced calls on
// one optimizer are safe: the rewrite is purely functional over the AST and
// the firing counters are lock-protected.
func (o *Optimizer) OptimizeTraced(e ast.Expr, hook func(phase, rule string, nodesBefore, nodesAfter int)) ast.Expr {
	fuel := o.MaxApplications
	if fuel <= 0 {
		fuel = 100000
	}
	for _, ph := range o.Phases {
		e = o.runPhase(e, ph, &fuel, hook)
	}
	return e
}

// runPhase applies the phase's rules bottom-up in repeated passes until a
// full pass fires nothing.
func (o *Optimizer) runPhase(e ast.Expr, ph Phase, fuel *int, hook func(string, string, int, int)) ast.Expr {
	for pass := 0; pass < 200; pass++ {
		out, fired := o.pass(e, ph, fuel, hook)
		e = out
		if !fired || *fuel <= 0 {
			return e
		}
	}
	return e
}

// pass transforms e bottom-up once, applying the first matching rule at
// each node repeatedly (bounded) before moving up.
func (o *Optimizer) pass(e ast.Expr, ph Phase, fuel *int, hook func(string, string, int, int)) (ast.Expr, bool) {
	anyFired := false
	kids := e.Children()
	if len(kids) > 0 {
		newKids := make([]ast.Expr, len(kids))
		changed := false
		for i, kid := range kids {
			nk, fired := o.pass(kid, ph, fuel, hook)
			newKids[i] = nk
			if fired {
				anyFired = true
			}
			if nk != kid {
				changed = true
			}
		}
		if changed {
			e = e.WithChildren(newKids)
		}
	}
	for local := 0; local < 20 && *fuel > 0; local++ {
		fired := false
		for _, r := range ph.Rules {
			out, ok := r.Apply(e)
			if !ok {
				continue
			}
			*fuel--
			o.countFiring(r.Name)
			if hook != nil {
				// Node counts are subtree-local: the firing rewrote e
				// into out, and counting those two subtrees is cheap
				// relative to the rewrite itself.
				hook(ph.Name, r.Name, ast.CountNodes(e), ast.CountNodes(out))
			}
			anyFired, fired = true, true
			// The rewrite may expose redexes below the new root; re-run
			// the bottom-up pass on it.
			out, _ = o.pass(out, ph, fuel, hook)
			e = out
			break
		}
		if !fired {
			break
		}
	}
	return e, anyFired
}

// String describes the optimizer's configuration.
func (o *Optimizer) String() string {
	s := "optimizer["
	for i, ph := range o.Phases {
		if i > 0 {
			s += " -> "
		}
		s += fmt.Sprintf("%s(%d rules)", ph.Name, len(ph.Rules))
	}
	return s + "]"
}
