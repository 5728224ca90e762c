package opt

import (
	"math/rand"

	"github.com/aqldb/aql/internal/ast"
)

// CorpusCase is one optimizer input of the behaviour golden
// (golden_test.go). Fuel, when nonzero, overrides MaxApplications.
type CorpusCase struct {
	Name string
	Expr ast.Expr
	Fuel int
}

// UnitCorpus returns the inputs of the rule tests in opt_test.go and
// trace_test.go, named after the test they come from.
func UnitCorpus() []CorpusCase {
	expensive := &ast.Index{K: 1, Set: &ast.BigUnion{
		Head: sing(tup(v("x"), v("x"))), Var: "x", Over: v("S")}}
	invariant := app(v("count"), &ast.BigUnion{Head: sing(v("x")), Var: "x", Over: v("S")})
	c := cmp(ast.OpLt, v("x"), v("y"))
	termination := ast.Expr(v("x"))
	for i := 0; i < 30; i++ {
		termination = app(lam("x", arith(ast.OpAdd, v("x"), v("x"))), termination)
	}
	return []CorpusCase{
		{Name: "BetaP", Expr: sub(tab(arith(ast.OpMul, v("i"), nat(2)), []string{"i"}, v("n")), v("k"))},
		{Name: "BetaPMultiDim", Expr: sub(tab(arith(ast.OpAdd, v("i"), v("j")), []string{"i", "j"}, v("m"), v("n")),
			tup(v("a"), v("b")))},
		{Name: "EtaP", Expr: tab(sub(v("A"), v("i")), []string{"i"}, dim(1, v("A")))},
		{Name: "EtaP/2d", Expr: tab(sub(v("M"), tup(v("i"), v("j"))), []string{"i", "j"},
			proj(1, 2, dim(2, v("M"))), proj(2, 2, dim(2, v("M"))))},
		{Name: "EtaP/swapped", Expr: tab(sub(v("M"), tup(v("j"), v("i"))), []string{"i", "j"},
			proj(1, 2, dim(2, v("M"))), proj(2, 2, dim(2, v("M"))))},
		{Name: "DeltaP", Expr: dim(1, tab(arith(ast.OpMul, v("i"), v("i")), []string{"i"}, v("n")))},
		{Name: "DeltaP/2d", Expr: dim(2, tab(v("i"), []string{"i", "j"}, v("m"), v("n")))},
		{Name: "TransposeDerivation", Expr: transposeOf(tab(arith(ast.OpAdd, arith(ast.OpMul, v("i"), nat(10)), v("j")),
			[]string{"i", "j"}, v("m"), v("n")))},
		{Name: "TransposeDerivationSemantics", Expr: transposeOf(tab(arith(ast.OpAdd, arith(ast.OpMul, v("i"), nat(10)), v("j")),
			[]string{"i", "j"}, nat(2), nat(3)))},
		{Name: "ZipSubseqNormalization/left", Expr: zipOf(subseqOf(v("A"), v("i"), v("j")), subseqOf(v("B"), v("i"), v("j")))},
		{Name: "ZipSubseqNormalization/right", Expr: subseqOf(zipOf(v("A"), v("B")), v("i"), v("j"))},
		{Name: "ZipSubseqSemanticsAgree/left", Expr: zipOf(subseqOf(v("A"), nat(1), nat(3)), subseqOf(v("B"), nat(1), nat(3)))},
		{Name: "ZipSubseqSemanticsAgree/right", Expr: subseqOf(zipOf(v("A"), v("B")), nat(1), nat(3))},
		{Name: "ConstraintEliminationInTab", Expr: tab(&ast.If{
			Cond: cmp(ast.OpLt, v("i"), v("n")), Then: arith(ast.OpMul, v("i"), nat(2)), Else: &ast.Bottom{},
		}, []string{"i"}, v("n"))},
		{Name: "ConstraintEliminationInGenLoop", Expr: &ast.BigUnion{
			Head: &ast.If{Cond: cmp(ast.OpLt, v("i"), v("n")), Then: sing(v("i")), Else: &ast.Empty{}},
			Var:  "i", Over: &ast.Gen{N: v("n")},
		}},
		{Name: "ConstraintEliminationInConditionals/then", Expr: &ast.If{
			Cond: c, Then: &ast.If{Cond: cmp(ast.OpLt, v("x"), v("y")), Then: v("a"), Else: v("b")}, Else: v("d"),
		}},
		{Name: "ConstraintEliminationInConditionals/else", Expr: &ast.If{
			Cond: c, Then: v("a"), Else: &ast.If{Cond: cmp(ast.OpLt, v("x"), v("y")), Then: v("b"), Else: v("d")},
		}},
		{Name: "ConstraintEliminationRespectsScope", Expr: tab(dim(1, tab(
			&ast.If{Cond: cmp(ast.OpLt, v("i"), v("n")), Then: v("i"), Else: nat(0)},
			[]string{"i"}, v("q"))), []string{"i"}, v("n"))},
		{Name: "BetaGuard/expensive", Expr: app(lam("h", tab(arith(ast.OpAdd, sub(v("h"), v("i")), dim(1, v("h"))),
			[]string{"i"}, nat(10))), expensive)},
		{Name: "BetaGuard/cheap", Expr: app(lam("x", arith(ast.OpAdd, v("x"), v("x"))), v("y"))},
		{Name: "BetaGuard/single-use", Expr: app(lam("x", sing(v("x"))), expensive)},
		{Name: "VerticalFusion", Expr: &ast.BigUnion{
			Head: sing(v("x")), Var: "x",
			Over: &ast.BigUnion{Head: sing(arith(ast.OpAdd, v("y"), nat(1))), Var: "y", Over: v("S")},
		}},
		{Name: "FilterPromotion", Expr: &ast.BigUnion{
			Head: &ast.If{Cond: cmp(ast.OpLt, v("a"), v("b")), Then: sing(v("x")), Else: &ast.Empty{}},
			Var:  "x", Over: v("S"),
		}},
		{Name: "FilterPromotion/dependent", Expr: &ast.BigUnion{
			Head: &ast.If{Cond: cmp(ast.OpLt, v("x"), v("b")), Then: sing(v("x")), Else: &ast.Empty{}},
			Var:  "x", Over: v("S"),
		}},
		{Name: "HorizontalFusion", Expr: &ast.Union{
			L: &ast.BigUnion{Head: sing(arith(ast.OpAdd, v("x"), nat(1))), Var: "x", Over: v("S")},
			R: &ast.BigUnion{Head: sing(arith(ast.OpMul, v("y"), nat(2))), Var: "y", Over: v("S")},
		}},
		{Name: "ConstantFolding/add", Expr: arith(ast.OpAdd, nat(2), nat(3))},
		{Name: "ConstantFolding/monus", Expr: arith(ast.OpSub, nat(2), nat(5))},
		{Name: "ConstantFolding/div0", Expr: arith(ast.OpDiv, nat(1), nat(0))},
		{Name: "ConstantFolding/cmp", Expr: cmp(ast.OpLt, nat(1), nat(2))},
		{Name: "ConstantFolding/if", Expr: &ast.If{Cond: cmp(ast.OpLt, nat(1), nat(2)), Then: v("a"), Else: v("b")}},
		{Name: "GetSingleton", Expr: &ast.Get{Set: sing(v("x"))}},
		{Name: "LoopInvariantHoisting", Expr: tab(arith(ast.OpAdd, v("i"), invariant), []string{"i"}, v("n"))},
		{Name: "HoistingPreservesSemantics", Expr: tab(arith(ast.OpAdd, v("i"), invariant), []string{"i"}, nat(4))},
		{Name: "DynamicRuleRegistration", Expr: app(v("reverse"), app(v("reverse"), v("A")))},
		{Name: "OptimizerTermination", Expr: termination, Fuel: 2000},
		{Name: "RuleTraceDeterministic/query0", Expr: sub(tab(arith(ast.OpMul, v("i"), v("i")), []string{"i"}, nat(10)), nat(4))},
		{Name: "RuleTraceDeterministic/query1", Expr: dim(1, tab(v("i"), []string{"i"}, nat(7)))},
		{Name: "RuleTraceDeterministic/query2", Expr: tab(sub(tab(arith(ast.OpAdd, v("i"), nat(1)), []string{"i"}, nat(9)), v("j")),
			[]string{"j"}, nat(9))},
		{Name: "HoistSkipsCodeNotRunEveryIteration/branch", Expr: untakenBranchTab()},
		{Name: "HoistSkipsCodeNotRunEveryIteration/nested-body", Expr: nestedBodyTab()},
		{Name: "HoistZeroTripLoopDeviation", Expr: zeroTripTab()},
	}
}

// RandomExprs returns n terms of the semantics property test's generator
// (randomExpr, depth 4), drawn from seed.
func RandomExprs(seed int64, n int) []ast.Expr {
	rng := rand.New(rand.NewSource(seed))
	out := make([]ast.Expr, n)
	for i := range out {
		out[i] = randomExpr(rng, 4, nil)
	}
	return out
}
