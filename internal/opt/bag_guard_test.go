package opt

import (
	"testing"

	"github.com/aqldb/aql/internal/ast"
)

// A set node and its bag analogue share one Go type, so a type assertion
// alone would let a rule about sets rewrite a bag; a rule's patterns tell
// them apart by kind. Each row below is a set-only rule's redex with one
// or more of its nodes in bag form; neither the rule, offered the term
// through its patterns, nor the whole optimizer may rewrite it. The twin
// rules (union-empty, bigunion-empty, bigunion-singleton) fire on sets and
// bags alike, but never on a mix of the two.

func bag(e ast.Expr) ast.Expr { return &ast.Singleton{Elem: e, Bag: true} }

func bigU(head ast.Expr, x string, over ast.Expr, isBag bool) ast.Expr {
	return &ast.BigUnion{Head: head, Var: x, Over: over, Bag: isBag}
}

func union(l, r ast.Expr, isBag bool) ast.Expr { return &ast.Union{L: l, R: r, Bag: isBag} }

func ifc(c, th, el ast.Expr) ast.Expr { return &ast.If{Cond: c, Then: th, Else: el} }

func sumOver(head ast.Expr, x string, over ast.Expr) ast.Expr {
	return &ast.Sum{Head: head, Var: x, Over: over}
}

var (
	emptySet = &ast.Empty{}
	emptyBag = &ast.Empty{Bag: true}
)

var bagGuardCases = []struct {
	rule string
	set  ast.Expr   // the rule's redex, all sets: the rule fires
	bags []ast.Expr // the same redex with bag nodes: nothing fires
}{
	{"union-idempotent", union(sing(v("x")), sing(v("x")), false), []ast.Expr{
		union(bag(v("x")), bag(v("x")), true),
	}},
	{"bigunion-union", bigU(sing(v("x")), "x", union(v("S"), v("T"), false), false), []ast.Expr{
		bigU(bag(v("x")), "x", union(v("B"), v("C"), true), true),
		bigU(bag(v("x")), "x", union(v("S"), v("T"), false), true),
		bigU(sing(v("x")), "x", union(v("B"), v("C"), true), false),
	}},
	{"vertical-fusion", bigU(sing(v("x")), "x", bigU(sing(v("y")), "y", v("S"), false), false), []ast.Expr{
		bigU(bag(v("x")), "x", bigU(bag(v("y")), "y", v("B"), true), true),
		bigU(bag(v("x")), "x", bigU(sing(v("y")), "y", v("S"), false), true),
		bigU(sing(v("x")), "x", bigU(bag(v("y")), "y", v("B"), true), false),
	}},
	{"horizontal-fusion", union(
		bigU(sing(v("x")), "x", v("S"), false),
		bigU(sing(arith(ast.OpAdd, v("y"), nat(1))), "y", v("S"), false), false), []ast.Expr{
		union(
			bigU(bag(v("x")), "x", v("B"), true),
			bigU(bag(arith(ast.OpAdd, v("y"), nat(1))), "y", v("B"), true), true),
		union(
			bigU(sing(v("x")), "x", v("S"), false),
			bigU(sing(arith(ast.OpAdd, v("y"), nat(1))), "y", v("S"), false), true),
		union(
			bigU(bag(v("x")), "x", v("S"), true),
			bigU(sing(arith(ast.OpAdd, v("y"), nat(1))), "y", v("S"), false), false),
		union(
			bigU(sing(v("x")), "x", v("S"), false),
			bigU(bag(arith(ast.OpAdd, v("y"), nat(1))), "y", v("S"), true), false),
	}},
	{"filter-promotion", bigU(ifc(v("c"), sing(v("x")), emptySet), "x", v("S"), false), []ast.Expr{
		bigU(ifc(v("c"), bag(v("x")), emptyBag), "x", v("B"), true),
		bigU(ifc(v("c"), bag(v("x")), emptySet), "x", v("B"), true),
		bigU(ifc(v("c"), sing(v("x")), emptyBag), "x", v("S"), false),
	}},
	{"if-source-hoist", bigU(sing(v("x")), "x", ifc(v("c"), v("S"), v("T")), false), []ast.Expr{
		bigU(bag(v("x")), "x", ifc(v("c"), v("B"), v("C")), true),
	}},
	{"minmax-singleton", app(v("min"), sing(v("x"))), []ast.Expr{
		app(v("min"), bag(v("x"))),
		app(v("max"), bag(v("x"))),
	}},
	{"get-singleton", &ast.Get{Set: sing(v("x"))}, []ast.Expr{
		&ast.Get{Set: bag(v("x"))},
	}},
	{"sum-empty", sumOver(v("x"), "x", emptySet), []ast.Expr{
		sumOver(v("x"), "x", emptyBag),
	}},
	{"sum-singleton", sumOver(v("x"), "x", sing(v("y"))), []ast.Expr{
		sumOver(v("x"), "x", bag(v("y"))),
	}},
	{"union-empty", union(emptySet, v("S"), false), []ast.Expr{
		union(emptyBag, v("S"), false),
		union(v("S"), emptyBag, false),
		union(emptySet, v("B"), true),
		union(v("B"), emptySet, true),
	}},
	{"bigunion-empty", bigU(sing(v("x")), "x", emptySet, false), []ast.Expr{
		bigU(sing(v("x")), "x", emptyBag, false),
		bigU(emptyBag, "x", v("S"), false),
		bigU(bag(v("x")), "x", emptySet, true),
		bigU(emptySet, "x", v("B"), true),
	}},
	{"bigunion-singleton", bigU(sing(v("x")), "x", sing(v("y")), false), []ast.Expr{
		bigU(sing(v("x")), "x", bag(v("y")), false),
		bigU(bag(v("x")), "x", sing(v("y")), true),
	}},
}

// offer gives e to r as a pass does: through the head index and r's
// patterns, then r's Apply.
func offer(r Rule, e ast.Expr) (ast.Expr, bool) {
	fuel := 1
	var buf ast.Buf
	kids, _ := ast.Open(e, &buf)
	byHead := newPhase("", []Rule{r}).byHead
	out := (&rewrite{byHead: byHead, fuel: &fuel}).fire(e, kids, byHead[ast.KindOf(e)])
	return out, out != nil
}

func TestSetRulesNeverFireOnBags(t *testing.T) {
	rules := map[string]Rule{}
	for _, r := range NormalizeRules() {
		rules[r.Name] = r
	}
	for _, tc := range bagGuardCases {
		rule, ok := rules[tc.rule]
		if !ok {
			t.Fatalf("no rule %q", tc.rule)
		}
		if _, fired := offer(rule, tc.set); !fired {
			t.Errorf("%s: does not fire on its set redex %s", tc.rule, tc.set)
		}
		for _, e := range tc.bags {
			if out, fired := offer(rule, e); fired {
				t.Errorf("%s: fired on %s, giving %s", tc.rule, e, out)
			}
			var firings []string
			got := New().OptimizeTraced(e, func(_, rule string, _, _ int) { firings = append(firings, rule) })
			if len(firings) > 0 || !ast.AlphaEqual(got, e) {
				t.Errorf("%s: optimizing %s fired %v, giving %s", tc.rule, e, firings, got)
			}
		}
	}
}

func TestPatternMatches(t *testing.T) {
	filterPromotion := P(ast.KindBigUnion, P(ast.KindIf, Any, Any, P(ast.KindEmptySet)))
	for _, c := range []struct {
		name string
		p    Pattern
		e    ast.Expr
		want bool
	}{
		{"hole/var", Any, v("x"), true},
		{"hole/bag", Any, bag(v("x")), true},
		{"hole child", P(ast.KindApp, Any, P(ast.KindVar)), app(lam("x", v("x")), v("y")), true},
		{"past Kids", P(ast.KindBigUnion), bigU(sing(v("x")), "x", v("S"), false), true},
		{"past Kids, one given", P(ast.KindBigUnion, P(ast.KindSingleton)), bigU(sing(v("x")), "x", v("S"), false), true},
		{"more Kids than children", P(ast.KindGet, Any, Any), &ast.Get{Set: v("S")}, false},
		{"wrong root", P(ast.KindUnion), v("x"), false},
		{"set kind on a bag", P(ast.KindSingleton), bag(v("x")), false},
		{"bag kind on a set", P(ast.KindSingletonBag), sing(v("x")), false},
		{"bag kind on a bag", P(ast.KindSingletonBag), bag(v("x")), true},
		{"bag pattern, set child", P(ast.KindBigBagUnion, Any, P(ast.KindEmptyBag)), bigU(bag(v("x")), "x", emptySet, true), false},
		{"depth 3", filterPromotion, bigU(ifc(v("c"), sing(v("x")), emptySet), "x", v("S"), false), true},
		{"depth 3, bag leaf", filterPromotion, bigU(ifc(v("c"), sing(v("x")), emptyBag), "x", v("S"), false), false},
		{"depth 3, other leaf", filterPromotion, bigU(ifc(v("c"), sing(v("x")), v("T")), "x", v("S"), false), false},
		{"depth 3, bag root", filterPromotion, bigU(ifc(v("c"), sing(v("x")), emptySet), "x", v("S"), true), false},
		{"depth 3, no If", filterPromotion, bigU(sing(v("x")), "x", v("S"), false), false},
	} {
		if got := c.p.matches(c.e); got != c.want {
			t.Errorf("%s: %v matches %s = %v, want %v", c.name, c.p, c.e, got, c.want)
		}
	}
}

// TestBuiltinRulesStateTheirLeftSide checks that every standard rule has a
// pattern, so the head index offers it only the nodes its Apply asserts.
func TestBuiltinRulesStateTheirLeftSide(t *testing.T) {
	for _, ph := range New().Phases {
		for _, r := range ph.Rules {
			if len(r.Match) == 0 {
				t.Errorf("phase %s: rule %s has no Match", ph.Name, r.Name)
			}
		}
	}
}

// TestNearMissesAreNotOffered optimizes terms whose root a rule's pattern
// names but one of whose children it does not: the rule must not be
// offered them, or its Apply, which asserts what the pattern fixes, would
// panic.
func TestNearMissesAreNotOffered(t *testing.T) {
	for _, e := range []ast.Expr{
		app(proj(1, 2, v("p")), sing(v("x"))),        // minmax-singleton's function is a name
		ifc(v("c"), &ast.BoolLit{Val: true}, v("x")), // if-fold's else is a literal
	} {
		if got := optimize(e); !ast.AlphaEqual(got, e) {
			t.Errorf("optimizing %s gave %s", e, got)
		}
	}
}
