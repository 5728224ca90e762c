package eval

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/object"
)

// sumOverGen builds sum{ i | i ∈ gen(n) }, a query that burns ~n steps.
func sumOverGen(n int64) ast.Expr {
	return &ast.Sum{
		Head: &ast.Var{Name: "i"},
		Var:  "i",
		Over: &ast.Gen{N: &ast.NatLit{Val: n}},
	}
}

// slowTabulate builds [[ sum{j | j ∈ gen(inner)} | i < outer ]]: many steps
// per cell, so interrupts land mid-tabulation while the result stays small.
func slowTabulate(outer, inner int64) ast.Expr {
	return &ast.ArrayTab{
		Head: &ast.Sum{
			Head: &ast.Var{Name: "j"},
			Var:  "j",
			Over: &ast.Gen{N: &ast.NatLit{Val: inner}},
		},
		Idx:    []string{"i"},
		Bounds: []ast.Expr{&ast.NatLit{Val: outer}},
	}
}

func wantResourceError(t *testing.T, err error, kind ResourceKind) *ResourceError {
	t.Helper()
	if err == nil {
		t.Fatalf("expected a %s ResourceError, got nil", kind)
	}
	var re *ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("expected *ResourceError, got %T: %v", err, err)
	}
	if re.Kind != kind {
		t.Fatalf("ResourceError kind = %s, want %s (err: %v)", re.Kind, kind, re)
	}
	return re
}

func TestStepBudgetReturnsTypedError(t *testing.T) {
	ev := New(nil)
	ev.Limits.MaxSteps = 100
	_, err := ev.Eval(sumOverGen(100_000), nil)
	re := wantResourceError(t, err, ResourceSteps)
	if re.Limit != 100 {
		t.Errorf("Limit = %d, want 100", re.Limit)
	}
	if ev.Used.Steps <= 100 {
		t.Errorf("Steps = %d, want > 100 (consumption reported on abort)", ev.Used.Steps)
	}
}

func TestLimitsMaxStepsAlsoEnforced(t *testing.T) {
	ev := New(nil)
	ev.Limits.MaxSteps = 100
	_, err := ev.Eval(sumOverGen(100_000), nil)
	wantResourceError(t, err, ResourceSteps)
}

func TestMaxCellsFailsFastOnHugeTabulate(t *testing.T) {
	// A 10^9-cell tabulation must fail on the cell budget before the result
	// array is allocated; completing quickly is the whole point.
	ev := New(nil)
	ev.Limits.MaxCells = 1_000_000
	start := time.Now()
	_, err := ev.Eval(&ast.ArrayTab{
		Head:   &ast.Var{Name: "i"},
		Idx:    []string{"i"},
		Bounds: []ast.Expr{&ast.NatLit{Val: 1_000_000_000}},
	}, nil)
	wantResourceError(t, err, ResourceCells)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cell-budget abort took %s; want fail-fast", elapsed)
	}
}

func TestMaxCellsOverflowingShapeSaturates(t *testing.T) {
	// Bounds whose product overflows int64 must still trip the budget, not
	// wrap around to something small.
	ev := New(nil)
	ev.Limits.MaxCells = 1000
	_, err := ev.Eval(&ast.ArrayTab{
		Head: &ast.Var{Name: "i"},
		Idx:  []string{"i", "j", "k"},
		Bounds: []ast.Expr{
			&ast.NatLit{Val: 1 << 40},
			&ast.NatLit{Val: 1 << 40},
			&ast.NatLit{Val: 1 << 40},
		},
	}, nil)
	wantResourceError(t, err, ResourceCells)
}

func TestMaxCellsOnGen(t *testing.T) {
	ev := New(nil)
	ev.Limits.MaxCells = 100
	_, err := ev.Eval(&ast.Gen{N: &ast.NatLit{Val: 1_000_000_000}}, nil)
	wantResourceError(t, err, ResourceCells)
}

func TestMaxCellsOnIndex(t *testing.T) {
	// index_1 over {(10^9 - 1, 0)} demands a billion-cell array; the guard
	// must veto it before allocation.
	ev := New(nil)
	ev.Limits.MaxCells = 1000
	pair := &ast.Tuple{Elems: []ast.Expr{
		&ast.NatLit{Val: 999_999_999},
		&ast.NatLit{Val: 0},
	}}
	_, err := ev.Eval(&ast.Index{K: 1, Set: &ast.Singleton{Elem: pair}}, nil)
	wantResourceError(t, err, ResourceCells)
}

func TestTimeoutMidTabulate(t *testing.T) {
	ev := New(nil)
	ev.Limits.Timeout = 30 * time.Millisecond
	start := time.Now()
	// ~10^8 steps of work; far more than 30ms worth.
	_, err := ev.EvalCtx(context.Background(), slowTabulate(100_000, 1000), nil)
	re := wantResourceError(t, err, ResourceTimeout)
	if !errors.Is(re, context.DeadlineExceeded) {
		t.Errorf("timeout error should unwrap to context.DeadlineExceeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("timeout abort took %s; want roughly the 30ms deadline", elapsed)
	}
}

func TestContextDeadlineMidTabulate(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	ev := New(nil)
	_, err := ev.EvalCtx(ctx, slowTabulate(100_000, 1000), nil)
	re := wantResourceError(t, err, ResourceTimeout)
	if !errors.Is(re, context.DeadlineExceeded) {
		t.Errorf("deadline error should unwrap to context.DeadlineExceeded")
	}
}

func TestCancellationFromAnotherGoroutine(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	ev := New(nil)
	start := time.Now()
	_, err := ev.EvalCtx(ctx, slowTabulate(100_000, 1000), nil)
	re := wantResourceError(t, err, ResourceCancelled)
	if !errors.Is(re, context.Canceled) {
		t.Errorf("cancellation error should unwrap to context.Canceled")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %s to observe", elapsed)
	}
}

func TestMaxDepth(t *testing.T) {
	// Left-nest additions 1000 deep; recursion depth tracks nesting.
	var e ast.Expr = &ast.NatLit{Val: 0}
	for i := 0; i < 1000; i++ {
		e = &ast.Arith{Op: ast.OpAdd, L: e, R: &ast.NatLit{Val: 1}}
	}
	ev := New(nil)
	ev.Limits.MaxDepth = 50
	_, err := ev.Eval(e, nil)
	wantResourceError(t, err, ResourceDepth)

	// The same expression fits under a deep-enough budget.
	ev2 := New(nil)
	ev2.Limits.MaxDepth = 5000
	v, err := ev2.Eval(e, nil)
	if err != nil {
		t.Fatalf("deep budget: %v", err)
	}
	if v.N != 1000 {
		t.Errorf("value = %d, want 1000", v.N)
	}
}

func TestStaleContextClearedAfterEvalCtx(t *testing.T) {
	// A closure escaping an EvalCtx call and entered through Fn runs as an
	// evaluation of its own: the maker's (cancelled) context must not leak
	// into it.
	ctx, cancel := context.WithCancel(context.Background())
	ev := New(nil)
	lam := &ast.Lam{Param: "x", Body: &ast.Var{Name: "x"}}
	fn, err := ev.EvalCtx(ctx, lam, nil)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	v, err := fn.Fn()(object.Nat(7))
	if err != nil {
		t.Fatalf("closure after ctx cancelled: %v", err)
	}
	if v.N != 7 {
		t.Errorf("closure result = %v", v)
	}
}
