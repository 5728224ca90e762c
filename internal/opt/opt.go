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
//
// Heads optionally lists the node kinds Apply can fire on, and the
// optimizer then offers the rule only nodes of those kinds; a rule must not
// list Heads that leave out a kind it fires on. A rule without Heads (any
// rule registered through aql.Session.AddRule that does not set them) is
// tried at every node. Either way a node's candidate rules are tried in
// their slice order, so Heads decides which rules are skipped, never which
// rule fires first.
type Rule struct {
	Name  string
	Heads []ast.Kind
	Apply func(e ast.Expr) (out ast.Expr, fired bool)
}

// Phase is a named, ordered rule base applied to a fixpoint. Change Rules
// through AddRule, which keeps the per-kind index current; a Phase whose
// Rules were built or re-sliced by hand is indexed afresh on every call.
type Phase struct {
	Name  string
	Rules []Rule

	index *ruleIndex
}

// ruleIndex holds, for each node kind, the rules of a phase that can fire
// on it, in slice order.
type ruleIndex struct {
	from   []Rule // the Rules slice the index was built from
	byHead [ast.NumKinds][]Rule
}

func newRuleIndex(rules []Rule) *ruleIndex {
	ix := &ruleIndex{from: rules}
	for _, r := range rules {
		if len(r.Heads) == 0 {
			for k := range ix.byHead {
				ix.byHead[k] = append(ix.byHead[k], r)
			}
			continue
		}
		for _, k := range r.Heads {
			ix.byHead[k] = append(ix.byHead[k], r)
		}
	}
	return ix
}

// rulesByHead returns the phase's index, rebuilding it when Rules is no
// longer the slice it was built from. A rebuilt index is not stored, so
// concurrent Optimize calls never write to the phase.
func (ph *Phase) rulesByHead() *[ast.NumKinds][]Rule {
	ix := ph.index
	if ix == nil || len(ix.from) != len(ph.Rules) ||
		(len(ph.Rules) > 0 && &ix.from[0] != &ph.Rules[0]) {
		ix = newRuleIndex(ph.Rules)
	}
	return &ix.byHead
}

func newPhase(name string, rules []Rule) Phase {
	return Phase{Name: name, Rules: rules, index: newRuleIndex(rules)}
}

// Optimizer is a sequence of phases. The zero value is an empty optimizer;
// New returns the paper's standard configuration.
type Optimizer struct {
	Phases []Phase
	// MaxApplications bounds the total number of rule firings per
	// Optimize call, guarding against non-terminating user rules.
	MaxApplications int
	// Stats counts rule firings by name, accumulated across Optimize
	// calls. Callers wanting a stable view should use StatsSnapshot, which copies under the stats lock; concurrent
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
			newPhase("normalize", NormalizeRules()),
			newPhase("constraints", append(ConstraintRules(), CleanupRules()...)),
			// Constraint elimination exposes new normal-form redexes (e.g.
			// η^p applies only once the β^p guards are gone), so normalize
			// once more before code motion.
			newPhase("renormalize", NormalizeRules()),
			newPhase("motion", MotionRules()),
		},
		MaxApplications: 100000,
		Stats:           map[string]int{},
	}
}

// NewNormalizeOnly returns an optimizer with just the normalization phase;
// used by the benchmarks to isolate phase effects.
func NewNormalizeOnly() *Optimizer {
	return &Optimizer{
		Phases:          []Phase{newPhase("normalize", NormalizeRules())},
		MaxApplications: 100000,
		Stats:           map[string]int{},
	}
}

// AddRule appends a rule to the named phase, creating the phase if absent —
// the dynamic rule registration of section 4.1.
func (o *Optimizer) AddRule(phase string, r Rule) {
	for i := range o.Phases {
		if ph := &o.Phases[i]; ph.Name == phase {
			ph.Rules = append(ph.Rules, r)
			ph.index = newRuleIndex(ph.Rules)
			return
		}
	}
	o.Phases = append(o.Phases, newPhase(phase, []Rule{r}))
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
// Rule application order is deterministic: phases run in slice order, and
// at every node of a bottom-up traversal the phase's rules that can fire
// on the node's kind (Rule.Heads; every rule without Heads) are tried in
// slice order, the first matching rule winning. Two Optimize calls on equal
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
	for i := range o.Phases {
		ph := &o.Phases[i]
		r := &rewrite{o: o, phase: ph.Name, byHead: ph.rulesByHead(), fuel: &fuel, hook: hook}
		e = r.run(e)
	}
	return e
}

// rewrite is one phase of one Optimize call.
type rewrite struct {
	o      *Optimizer
	phase  string
	byHead *[ast.NumKinds][]Rule
	fuel   *int
	hook   func(string, string, int, int)
	// capped is set when a node of the current pass used up its
	// maxLocalRounds while its rules were still firing.
	capped bool
}

// maxLocalRounds bounds the rule firings at one node of one pass.
const maxLocalRounds = 20

// run applies the phase's rules bottom-up. One pass leaves no redex unless
// a node ran out of local rounds: pass normalizes every child before it
// tries the node, re-passes each rewritten subtree before trying the node
// again, and a rule's Apply sees only the subtree it is given, so a node
// whose rules stopped firing, over normalized children, is normal. Only a
// capped pass is followed by another, until one is not capped or the fuel
// runs out.
func (r *rewrite) run(e ast.Expr) ast.Expr {
	for pass := 0; pass < 200; pass++ {
		r.capped = false
		e = r.pass(e)
		if !r.capped || *r.fuel <= 0 {
			return e
		}
	}
	return e
}

// pass transforms e bottom-up once, applying the first matching rule at
// each node repeatedly (bounded) before moving up.
func (r *rewrite) pass(e ast.Expr) ast.Expr {
	var buf, out ast.Buf
	kids, _ := ast.Open(e, &buf)
	var newKids []ast.Expr // copied at the first child that changes
	for i, kid := range kids {
		nk := r.pass(kid)
		if nk == kid {
			continue
		}
		if newKids == nil {
			newKids = out.Copy(kids)
		}
		newKids[i] = nk
	}
	if newKids != nil {
		e = ast.Rebuild(e, newKids)
	}
	for local := 0; *r.fuel > 0; local++ {
		if local == maxLocalRounds {
			r.capped = true
			break
		}
		fired := false
		for _, rule := range r.byHead[ast.KindOf(e)] {
			out, ok := rule.Apply(e)
			if !ok {
				continue
			}
			*r.fuel--
			r.o.countFiring(rule.Name)
			if r.hook != nil {
				// Node counts are subtree-local: the firing rewrote e
				// into out, and counting those two subtrees is cheap
				// relative to the rewrite itself.
				r.hook(r.phase, rule.Name, ast.CountNodes(e), ast.CountNodes(out))
			}
			fired = true
			// The rewrite may expose redexes below the new root; re-run
			// the bottom-up pass on it.
			e = r.pass(out)
			break
		}
		if !fired {
			break
		}
	}
	return e
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
