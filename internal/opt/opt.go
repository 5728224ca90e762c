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
// Every rule states its left side once, as data: Rule.Match is a list of
// patterns, trees of node kinds (ast.Kind) with holes. Each phase indexes
// its rules by the patterns' root kinds, and a pass offers a rule a node
// only when one of its patterns matches, so a rule's Apply checks only
// what a kind tree cannot say, and no rule about sets can fire on a bag.
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

// Rule is a single rewrite rule: a left side stated as data (Match) and a
// right side in Go (Apply), which returns the rewritten expression with
// fired = true, or e unchanged.
//
// The optimizer offers a rule a node only when one of its Match patterns
// matches it, so Apply may assert without checking every node type a
// pattern fixes; it checks only what a kind tree cannot say (alpha
// equality, free variables, arities, names). A rule without Match (a rule
// registered through aql.Session.AddRule that does not set it) is tried at
// every node. Either way a node's candidate rules are tried in their slice
// order, so Match decides which rules are skipped, never which rule fires
// first.
type Rule struct {
	Name  string
	Match []Pattern
	Apply func(e ast.Expr) (out ast.Expr, fired bool)
}

// Pattern is a tree of node kinds that a term matches when its root is of
// kind Kind and its i-th child, in ast.Open's order, matches Kids[i]. A
// child past len(Kids) matches any term. A pattern of KindOther, such as
// the zero Pattern Any, is a hole: it matches any term.
type Pattern struct {
	Kind ast.Kind
	Kids []Pattern
}

// Any is the hole: the zero Pattern.
var Any Pattern

// P returns the pattern of a k node whose leading children match kids.
func P(k ast.Kind, kids ...Pattern) Pattern { return Pattern{Kind: k, Kids: kids} }

// matches reports whether e matches p.
func (p *Pattern) matches(e ast.Expr) bool {
	if p.Kind == ast.KindOther {
		return true
	}
	if ast.KindOf(e) != p.Kind {
		return false
	}
	if len(p.Kids) == 0 {
		return true
	}
	var buf ast.Buf
	kids, _ := ast.Open(e, &buf)
	return p.fits(&children{kids: kids})
}

// fits reports whether c, the children of a node whose kind the caller
// has already compared with p's, match p's child patterns.
func (p *Pattern) fits(c *children) bool {
	if len(p.Kids) > len(c.kids) {
		return false
	}
	for i := range p.Kids {
		q := &p.Kids[i]
		if q.Kind == ast.KindOther {
			continue
		}
		if c.kind(i) != q.Kind || len(q.Kids) > 0 && !q.matches(c.kids[i]) {
			return false
		}
	}
	return true
}

// children is a node's children with the kinds of the leading ones kept
// once computed: a node's candidate rules mostly compare the same child.
type children struct {
	kids []ast.Expr
	// kinds holds 1 + the kind of each leading child, 0 until computed.
	kinds [3]ast.Kind
}

func (c *children) kind(i int) ast.Kind {
	if i < len(c.kinds) && c.kinds[i] != 0 {
		return c.kinds[i] - 1
	}
	k := ast.KindOf(c.kids[i])
	if i < len(c.kinds) {
		c.kinds[i] = 1 + k
	}
	return k
}

// Phase is a named, ordered rule base applied to a fixpoint, with its rules
// indexed by the root kinds of their patterns. Phases are built by New and
// WithRule and never changed afterwards.
type Phase struct {
	Name  string
	Rules []Rule

	// byHead holds, for each node kind, the rules that can fire on it, in
	// slice order.
	byHead *[ast.NumKinds][]candidate
}

// candidate is a rule offered the nodes of one kind whose children one of
// lhs, the rule's patterns rooted at that kind, fits. A rule with a
// pattern that names none of the children, a rule without Match included,
// has lhs nil and is offered every node of the kind.
type candidate struct {
	Rule
	lhs []Pattern
}

// offered reports whether c is offered a node whose children are kids.
func (c *candidate) offered(kids *children) bool {
	for i := range c.lhs {
		if c.lhs[i].fits(kids) {
			return true
		}
	}
	return c.lhs == nil
}

func newPhase(name string, rules []Rule) Phase {
	byHead := new([ast.NumKinds][]candidate)
	for _, r := range rules {
		for k := range byHead {
			var lhs []Pattern
			whole := len(r.Match) == 0 // a pattern matches every k node
			for _, p := range r.Match {
				switch {
				case p.Kind == ast.KindOther || p.Kind == ast.Kind(k) && len(p.Kids) == 0:
					whole = true
				case p.Kind == ast.Kind(k):
					lhs = append(lhs, p)
				}
			}
			if whole {
				byHead[k] = append(byHead[k], candidate{r, nil})
			} else if lhs != nil {
				byHead[k] = append(byHead[k], candidate{r, lhs})
			}
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
	// Optimize call, guarding against non-terminating user rules; zero
	// means defaultFuel.
	MaxApplications int
}

// defaultFuel is the firing budget of an Optimizer whose MaxApplications
// is not positive.
const defaultFuel = 100000

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
// at every node of a bottom-up traversal the phase's rules with a pattern
// that matches the node (Rule.Match; every rule without Match) are tried
// in slice order, the first rule that fires winning. Two Optimize calls on
// equal inputs therefore produce identical rewrites AND identical firing
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
		fuel = defaultFuel
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
	byHead *[ast.NumKinds][]candidate
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
	var buf ast.Buf
	kids, _ := ast.Open(e, &buf)
	for i, kid := range kids {
		if nk := r.pass(kid); nk != kid {
			e = r.rebuild(e, kids, i, nk)
			kids, _ = ast.Open(e, &buf)
			break
		}
	}
	for local := 0; *r.fuel > 0; local++ {
		if local == maxLocalRounds {
			r.capped = true
			break
		}
		cands := r.byHead[ast.KindOf(e)]
		if len(cands) == 0 {
			break
		}
		next := r.fire(e, kids, cands)
		if next == nil {
			break
		}
		// The rewrite may expose redexes below the new root; re-run the
		// bottom-up pass on it.
		e = r.pass(next)
		kids, _ = ast.Open(e, &buf)
	}
	return e
}

// rebuild returns e with kids[i], its first child that changed, replaced
// by nk, and each later child passed in turn. Only a node whose child
// changed needs a second buffer for its new children, so only this path
// zeroes one.
func (r *rewrite) rebuild(e ast.Expr, kids []ast.Expr, i int, nk ast.Expr) ast.Expr {
	var out ast.Buf
	newKids := out.Copy(kids)
	newKids[i] = nk
	for j := i + 1; j < len(kids); j++ {
		newKids[j] = r.pass(kids[j])
	}
	return ast.Rebuild(e, newKids)
}

// fire applies the first of cands, the phase's rules for e's kind, that is
// offered e, whose children are kids, and fires, and returns its result,
// or nil if none fires.
func (r *rewrite) fire(e ast.Expr, kids []ast.Expr, cands []candidate) ast.Expr {
	ch := children{kids: kids}
	for i := range cands {
		c := &cands[i]
		if !c.offered(&ch) {
			continue
		}
		out, ok := c.Apply(e)
		if !ok {
			continue
		}
		*r.fuel--
		if r.hook != nil {
			// Node counts are subtree-local: the firing rewrote e into
			// out, and counting those two subtrees is cheap relative to
			// the rewrite itself.
			r.hook(r.phase, c.Name, ast.CountNodes(e), ast.CountNodes(out))
		}
		return out
	}
	return nil
}
