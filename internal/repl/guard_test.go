package repl

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/types"
)

// registerPanicking installs a nat -> nat primitive whose body runs fn,
// exercising the session's recovery boundary against real panic sites in
// the object/types layers.
func registerPanicking(t *testing.T, s *Session, name string, fn func()) {
	t.Helper()
	err := s.Env.RegisterPrimitive(name,
		func(object.Value) (object.Value, error) {
			fn()
			return object.Nat(0), nil
		},
		types.MustParse("nat -> nat"))
	if err != nil {
		t.Fatal(err)
	}
}

func wantPanicError(t *testing.T, err error, srcFragment string) *PanicError {
	t.Helper()
	if err == nil {
		t.Fatal("expected *PanicError, got nil")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("expected *PanicError, got %T: %v", err, err)
	}
	if !strings.Contains(pe.Src, srcFragment) {
		t.Errorf("PanicError.Src = %q, want it to contain %q", pe.Src, srcFragment)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError.Stack is empty")
	}
	return pe
}

func TestPanicFromPrimitiveRecovered(t *testing.T) {
	s := newSession(t)
	registerPanicking(t, s, "boom", func() { panic("kaboom") })
	_, _, err := s.Query("boom!1")
	pe := wantPanicError(t, err, "boom")
	if !strings.Contains(pe.Error(), "kaboom") {
		t.Errorf("error %q should mention the panic value", pe.Error())
	}

	// The session must survive: the boundary isolates the fault.
	v, _, err := s.Query("1 + 1")
	if err != nil || v.N != 2 {
		t.Fatalf("session dead after recovered panic: %v, %v", v, err)
	}
}

func TestPanicNegativeNatRecovered(t *testing.T) {
	// object.Nat panics on negative inputs (value.go); a buggy primitive
	// hitting it must surface as an error, not a crash.
	s := newSession(t)
	registerPanicking(t, s, "negnat", func() { object.Nat(-1) })
	_, _, err := s.Query("negnat!1")
	wantPanicError(t, err, "negnat")
}

func TestPanicCompareFuncsRecovered(t *testing.T) {
	// object.Compare panics on function values (compare.go); a primitive
	// that tries to canonicalize a set of closures must be contained.
	s := newSession(t)
	id := object.Func(func(v object.Value) (object.Value, error) { return v, nil })
	registerPanicking(t, s, "cmpfuncs", func() { object.Compare(id, id) })
	_, _, err := s.Query("cmpfuncs!1")
	wantPanicError(t, err, "cmpfuncs")
}

func TestPanicTypesElemRecovered(t *testing.T) {
	// types.Elem panics on non-collection types; primitives poking at
	// types at runtime are isolated the same way.
	s := newSession(t)
	registerPanicking(t, s, "badelem", func() { types.Nat.Elem() })
	_, _, err := s.Query("badelem!1")
	wantPanicError(t, err, "badelem")
}

func TestLastStepsReportedOnAbort(t *testing.T) {
	s := newSession(t)
	s.Limits.MaxSteps = 500
	_, _, err := s.Query(`summap(fn \i => i)!(gen!100000)`)
	var re *eval.ResourceError
	if !errors.As(err, &re) || re.Kind != eval.ResourceSteps {
		t.Fatalf("expected steps ResourceError, got %v", err)
	}
	if got := s.LastSteps.Load(); got <= 500 {
		t.Errorf("LastSteps = %d, want > 500 (consumption visible on abort)", got)
	}
}

func TestLastCellsReportedOnAbort(t *testing.T) {
	s := newSession(t)
	s.Limits.MaxCells = 1000
	_, _, err := s.Query("[[ i | \\i < 1000000000 ]]")
	var re *eval.ResourceError
	if !errors.As(err, &re) || re.Kind != eval.ResourceCells {
		t.Fatalf("expected cells ResourceError, got %v", err)
	}
	if got := s.LastCells.Load(); got < 1000 {
		t.Errorf("LastCells = %d, want >= limit on abort", got)
	}
}

func TestQueryCtxCancellation(t *testing.T) {
	s := newSession(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err := s.QueryCtx(ctx, `summap(fn \i => summap(fn \j => i*j)!(gen!1000))!(gen!100000)`)
	var re *eval.ResourceError
	if !errors.As(err, &re) || re.Kind != eval.ResourceCancelled {
		t.Fatalf("expected cancelled ResourceError, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Error("error should unwrap to context.Canceled")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %s to observe", elapsed)
	}
}

func TestExecCtxTimeout(t *testing.T) {
	s := newSession(t)
	s.Limits.Timeout = 30 * time.Millisecond
	_, err := s.Exec(`val \x = summap(fn \i => summap(fn \j => i*j)!(gen!1000))!(gen!100000);`)
	var re *eval.ResourceError
	if !errors.As(err, &re) || re.Kind != eval.ResourceTimeout {
		t.Fatalf("expected timeout ResourceError, got %v", err)
	}
}
