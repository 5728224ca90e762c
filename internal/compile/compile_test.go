package compile

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/object"
)

// engine runs expressions the way a session runs a bare query: each
// EvalExpr lowers a fresh Program over globals under limits and runs it once
// with opts, keeping the outcome for Counters.
type engine struct {
	globals map[string]object.Value
	limits  eval.Limits
	opts    ExecOpts
	out     Outcome
}

func (e *engine) EvalExpr(ctx context.Context, expr ast.Expr) (object.Value, error) {
	return NewProgram(expr, e.globals, e.limits).Run(ctx, e.opts, &e.out)
}

func (e *engine) Counters() eval.Counters { return e.out.Counters }

// evaluator is what these tests need of an engine: the interpreter and
// engine both have it.
type evaluator interface {
	EvalExpr(context.Context, ast.Expr) (object.Value, error)
	Counters() eval.Counters
}

func run(t *testing.T, e *engine, expr ast.Expr) object.Value {
	t.Helper()
	v, err := e.EvalExpr(context.Background(), expr)
	if err != nil {
		t.Fatalf("EvalExpr(%s): %v", expr, err)
	}
	return v
}

func nat(n int64) ast.Expr   { return &ast.NatLit{Val: n} }
func v(name string) ast.Expr { return &ast.Var{Name: name} }

// TestSlotShadowing exercises the resolve pass where it can go wrong:
// rebinding the same name in nested scopes must address distinct slots.
// ((λx. ((λx. x+1) (x*2)) + x) 5) = (5*2+1) + 5 = 16.
func TestSlotShadowing(t *testing.T) {
	inner := &ast.App{
		Fn:  &ast.Lam{Param: "x", Body: &ast.Arith{Op: ast.OpAdd, L: v("x"), R: nat(1)}},
		Arg: &ast.Arith{Op: ast.OpMul, L: v("x"), R: nat(2)},
	}
	outer := &ast.App{
		Fn:  &ast.Lam{Param: "x", Body: &ast.Arith{Op: ast.OpAdd, L: inner, R: v("x")}},
		Arg: nat(5),
	}
	got := run(t, &engine{}, outer)
	if !object.Equal(got, object.Nat(16)) {
		t.Errorf("shadowed application = %s, want 16", got)
	}
}

// TestLoopRebindShadowing: a tabulation index shadowing an enclosing lambda
// parameter must not clobber the outer binding after the loop.
// (λi. [[ i | i < 3 ]][0] + i) 10 = 0 + 10.
func TestLoopRebindShadowing(t *testing.T) {
	tab := &ast.ArrayTab{Head: v("i"), Idx: []string{"i"}, Bounds: []ast.Expr{nat(3)}}
	body := &ast.Arith{
		Op: ast.OpAdd,
		L:  &ast.Subscript{Arr: tab, Index: nat(0)},
		R:  v("i"),
	}
	expr := &ast.App{Fn: &ast.Lam{Param: "i", Body: body}, Arg: nat(10)}
	got := run(t, &engine{}, expr)
	if !object.Equal(got, object.Nat(10)) {
		t.Errorf("= %s, want 10 (tabulation index leaked into the outer slot)", got)
	}
}

// TestClosureCapturesByValue: a closure must freeze its captured bindings at
// creation. Σ_{x∈{1,2,3}} f(x) where f = (λx. λy. x*10+y) applied per
// element — each closure sees its own x.
func TestClosureCapturesByValue(t *testing.T) {
	// sum over gen!4 of ((λy. y*x) 2)  with x the loop variable:
	// Σ_{x∈{0,1,2,3}} 2x = 12.
	expr := &ast.Sum{
		Var:  "x",
		Over: &ast.Gen{N: nat(4)},
		Head: &ast.App{
			Fn:  &ast.Lam{Param: "y", Body: &ast.Arith{Op: ast.OpMul, L: v("y"), R: v("x")}},
			Arg: nat(2),
		},
	}
	got := run(t, &engine{}, expr)
	if !object.Equal(got, object.Nat(12)) {
		t.Errorf("sum of per-iteration closures = %s, want 12", got)
	}
}

// TestEscapedClosure: a function value returned from EvalExpr keeps working
// after the evaluation that created it ends (top-level vals of function
// type escape this way).
func TestEscapedClosure(t *testing.T) {
	e := &engine{}
	f := run(t, e, &ast.Lam{Param: "x", Body: &ast.Arith{Op: ast.OpAdd, L: v("x"), R: nat(1)}})
	if f.Kind != object.KFunc {
		t.Fatalf("lam = %s, want a function", f.Kind)
	}
	got, err := f.Fn()(object.Nat(41))
	if err != nil {
		t.Fatal(err)
	}
	if !object.Equal(got, object.Nat(42)) {
		t.Errorf("escaped closure = %s, want 42", got)
	}
}

// TestUnboundVarLazyError: compilation never fails; an unbound variable
// errors only if executed, so one in the untaken branch of a conditional is
// harmless (the interpreter behaves identically).
func TestUnboundVarLazyError(t *testing.T) {
	e := &engine{}
	got := run(t, e, &ast.If{Cond: &ast.BoolLit{Val: true}, Then: nat(1), Else: v("nope")})
	if !object.Equal(got, object.Nat(1)) {
		t.Errorf("= %s, want 1", got)
	}
	_, err := e.EvalExpr(context.Background(), v("nope"))
	if err == nil || err.Error() != `eval: unbound variable "nope"` {
		t.Errorf("unbound variable error = %v", err)
	}
}

// TestGlobalsResolved: globals resolve at compile time against the
// program's snapshot.
func TestGlobalsResolved(t *testing.T) {
	e := &engine{globals: map[string]object.Value{"g": object.Nat(7)}}
	got := run(t, e, &ast.Arith{Op: ast.OpAdd, L: v("g"), R: nat(1)})
	if !object.Equal(got, object.Nat(8)) {
		t.Errorf("global read = %s, want 8", got)
	}
}

// TestAllNodesCompile runs one expression per AST node type through the
// compiled engine, so a node added to the language without a compileNode
// case fails here rather than at a user's query. Globals supply the free
// variables; every expression must evaluate without an "unhandled node"
// error.
func TestAllNodesCompile(t *testing.T) {
	globals := map[string]object.Value{
		"f": object.Func(func(x object.Value) (object.Value, error) { return x, nil }),
		"x": object.Nat(1),
		"p": object.Tuple(object.Nat(1), object.Nat(2)),
		"S": object.Set(object.Nat(1), object.Nat(2)),
		"B": object.Bag(object.Nat(1), object.Nat(1)),
		"A": object.Vector(object.Nat(4), object.Nat(5)),
		"G": object.Set(object.Tuple(object.Nat(0), object.Nat(9))),
	}
	exprs := []ast.Expr{
		v("x"),
		param("q"),
		&ast.Lam{Param: "x", Body: v("x")},
		&ast.App{Fn: v("f"), Arg: v("x")},
		&ast.Tuple{Elems: []ast.Expr{nat(1), nat(2)}},
		&ast.Proj{I: 1, K: 2, Tuple: v("p")},
		&ast.Empty{},
		&ast.Singleton{Elem: nat(1)},
		&ast.Union{L: &ast.Empty{}, R: &ast.Singleton{Elem: nat(1)}},
		&ast.BigUnion{Head: &ast.Singleton{Elem: v("x")}, Var: "x", Over: v("S")},
		&ast.Get{Set: &ast.Singleton{Elem: nat(3)}},
		&ast.BoolLit{Val: true},
		&ast.If{Cond: &ast.BoolLit{Val: true}, Then: nat(1), Else: nat(2)},
		&ast.Cmp{Op: ast.OpEq, L: nat(1), R: nat(1)},
		nat(7),
		&ast.RealLit{Val: 2.5},
		&ast.StringLit{Val: "s"},
		&ast.Arith{Op: ast.OpAdd, L: nat(1), R: nat(2)},
		&ast.Gen{N: nat(5)},
		&ast.Sum{Head: v("x"), Var: "x", Over: v("S")},
		&ast.ArrayTab{Head: v("i"), Idx: []string{"i"}, Bounds: []ast.Expr{nat(3)}},
		&ast.Subscript{Arr: v("A"), Index: nat(0)},
		&ast.Dim{K: 1, Arr: v("A")},
		&ast.Index{K: 1, Set: v("G")},
		&ast.MkArray{Dims: []ast.Expr{nat(2)}, Elems: []ast.Expr{nat(1), nat(2)}},
		&ast.Bottom{},
		&ast.Empty{Bag: true},
		&ast.Singleton{Elem: nat(1), Bag: true},
		&ast.Union{L: &ast.Empty{Bag: true}, R: &ast.Singleton{Elem: nat(1), Bag: true}, Bag: true},
		&ast.BigUnion{Head: &ast.Singleton{Elem: v("x"), Bag: true}, Var: "x", Over: v("B"), Bag: true},
		&ast.RankUnion{Head: &ast.Singleton{Elem: v("i")}, Var: "x", RankVar: "i", Over: v("S")},
		&ast.RankUnion{Head: &ast.Singleton{Elem: v("i"), Bag: true}, Var: "x", RankVar: "i", Over: v("B"), Bag: true},
	}
	if len(exprs) != len(ast.AllNodeNames()) {
		t.Fatalf("test covers %d node types, ast declares %d", len(exprs), len(ast.AllNodeNames()))
	}
	covered := map[string]bool{}
	for _, expr := range exprs {
		covered[ast.NodeName(expr)] = true
		e := &engine{globals: globals, opts: ExecOpts{Args: map[string]object.Value{"q": object.Nat(1)}}}
		if _, err := e.EvalExpr(context.Background(), expr); err != nil {
			if strings.Contains(err.Error(), "unhandled node") {
				t.Errorf("%s: %v", ast.NodeName(expr), err)
			} else {
				t.Errorf("%s: unexpected error %v", ast.NodeName(expr), err)
			}
		}
	}
	for _, name := range ast.AllNodeNames() {
		if !covered[name] {
			t.Errorf("node %s not covered", name)
		}
	}
}

// TestStepBudget: the compiled engine enforces MaxSteps with the same
// structured error as the interpreter.
func TestStepBudget(t *testing.T) {
	e := &engine{opts: ExecOpts{Limits: eval.Limits{MaxSteps: 50}}}
	big := &ast.ArrayTab{Head: v("i"), Idx: []string{"i"}, Bounds: []ast.Expr{nat(100000)}}
	_, err := e.EvalExpr(context.Background(), big)
	var re *eval.ResourceError
	if !errors.As(err, &re) || re.Kind != eval.ResourceSteps {
		t.Fatalf("err = %v, want a steps ResourceError", err)
	}
	if c := e.Counters(); c.Steps <= 50-1 {
		t.Errorf("Counters().Steps = %d, want the consumption reported on abort", c.Steps)
	}
}

// TestDepthBudget: MaxDepth wraps every node in a depth guard and forces
// serial tabulation; deep recursion trips it.
func TestDepthBudget(t *testing.T) {
	e := &engine{limits: eval.Limits{MaxDepth: 10}}
	// Nest arithmetic deeper than the limit.
	expr := ast.Expr(nat(1))
	for i := 0; i < 50; i++ {
		expr = &ast.Arith{Op: ast.OpAdd, L: expr, R: nat(1)}
	}
	_, err := e.EvalExpr(context.Background(), expr)
	var re *eval.ResourceError
	if !errors.As(err, &re) || re.Kind != eval.ResourceDepth {
		t.Fatalf("err = %v, want a depth ResourceError", err)
	}
}

// TestCountersMatchInterp: the two engines charge identical counters on a
// workload touching tabulation, set algebra, summation and closures.
func TestCountersMatchInterp(t *testing.T) {
	// [[ Σ_{x∈gen!(i+1)} x | i < 10 ]] plus a union and an index build.
	tab := &ast.ArrayTab{
		Head: &ast.Sum{
			Var:  "x",
			Over: &ast.Gen{N: &ast.Arith{Op: ast.OpAdd, L: v("i"), R: nat(1)}},
			Head: v("x"),
		},
		Idx:    []string{"i"},
		Bounds: []ast.Expr{nat(10)},
	}
	expr := &ast.Tuple{Elems: []ast.Expr{
		tab,
		&ast.Union{L: &ast.Singleton{Elem: nat(1)}, R: &ast.Singleton{Elem: nat(2)}},
	}}

	interp := eval.New(nil)
	want, err := interp.EvalExpr(context.Background(), expr)
	if err != nil {
		t.Fatal(err)
	}
	compiled := &engine{}
	got, err := compiled.EvalExpr(context.Background(), expr)
	if err != nil {
		t.Fatal(err)
	}
	if !object.Equal(got, want) {
		t.Fatalf("values differ: %s vs %s", got, want)
	}
	if ic, cc := interp.Counters(), compiled.Counters(); ic != cc {
		t.Errorf("counters differ:\ninterp   %+v\ncompiled %+v", ic, cc)
	}
}
