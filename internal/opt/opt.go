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
// An Optimizer is one rule base, never changed once built: WithRule derives
// an extended copy, so a plan that optimized with one optimizer saw exactly
// its rules, and concurrent Optimize calls share it without a lock. Rule
// firings are not counted here; OptimizeTraced hands each one to its
// caller's hook.
//
// β-reduction is guarded so normalization never duplicates run-time work:
// an argument is inlined only if it is cheap to re-evaluate, if it is a
// tabulation (which the array rules then fuse away), or if the variable is
// used at most once and not inside a loop body. Hoisted bindings therefore
// stay hoisted.
package opt

import (
	"slices"

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

// Phase is a named, ordered rule base applied to a fixpoint, with its rules
// indexed by head. Phases are built by New, NewNormalizeOnly and WithRule
// and never changed afterwards.
type Phase struct {
	Name  string
	Rules []Rule

	// byHead holds, for each node kind, the rules that can fire on it, in
	// slice order.
	byHead *[ast.NumKinds][]Rule
}

func newPhase(name string, rules []Rule) Phase {
	byHead := new([ast.NumKinds][]Rule)
	for _, r := range rules {
		if len(r.Heads) == 0 {
			for k := range byHead {
				byHead[k] = append(byHead[k], r)
			}
			continue
		}
		for _, k := range r.Heads {
			byHead[k] = append(byHead[k], r)
		}
	}
	return Phase{Name: name, Rules: rules, byHead: byHead}
}

// Optimizer is a sequence of phases: one rule base, immutable once built,
// so any number of concurrent Optimize calls read it without a lock. The
// zero value is an empty optimizer; New returns the paper's standard
// configuration, and WithRule derives an extended one.
type Optimizer struct {
	Phases []Phase
	// MaxApplications bounds the total number of rule firings per
	// Optimize call, guarding against non-terminating user rules.
	MaxApplications int
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
	}
}

// NewNormalizeOnly returns an optimizer with just the normalization phase;
// used by the benchmarks to isolate phase effects.
func NewNormalizeOnly() *Optimizer {
	return &Optimizer{
		Phases:          []Phase{newPhase("normalize", NormalizeRules())},
		MaxApplications: 100000,
	}
}

// WithRule returns o with r appended to the named phase, or with a new phase
// holding r if o has none of that name — the dynamic rule registration of
// section 4.1. o is unchanged: the touched phase gets a fresh rule slice
// and index, and the others are shared.
func (o *Optimizer) WithRule(phase string, r Rule) *Optimizer {
	out := &Optimizer{Phases: slices.Clone(o.Phases), MaxApplications: o.MaxApplications}
	for i, ph := range out.Phases {
		if ph.Name == phase {
			out.Phases[i] = newPhase(phase, append(slices.Clip(ph.Rules), r))
			return out
		}
	}
	out.Phases = append(out.Phases, newPhase(phase, []Rule{r}))
	return out
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
// one optimizer are safe: the rewrite is purely functional over the AST,
// and the optimizer is never written.
func (o *Optimizer) OptimizeTraced(e ast.Expr, hook func(phase, rule string, nodesBefore, nodesAfter int)) ast.Expr {
	fuel := o.MaxApplications
	if fuel <= 0 {
		fuel = 100000
	}
	for _, ph := range o.Phases {
		r := &rewrite{phase: ph.Name, byHead: ph.byHead, fuel: &fuel, hook: hook}
		e = r.run(e)
	}
	return e
}

// rewrite is one phase of one Optimize call.
type rewrite struct {
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
