package repl

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/trace"
)

// TestCommandPrepareExec drives the loop's prepared-statement surface:
// :prepare compiles the template and reports the placeholder types,
// :exec binds scalar literals and runs it, and re-:exec with new arguments
// reuses the statement.
func TestCommandPrepareExec(t *testing.T) {
	s := newSession(t)
	ctx := context.Background()

	out, err := s.Command(ctx, `:prepare [[ i * $a + $b | \i < 5 ]]`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"type: [[nat]]", "$a : nat", "$b : nat"} {
		if !strings.Contains(out, want) {
			t.Errorf(":prepare output missing %q:\n%s", want, out)
		}
	}

	out, err = s.Command(ctx, `:exec a=2, b=1`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "[[1, 3, 5, 7, 9]]") {
		t.Errorf(":exec output = %q, want tabulated values", out)
	}
	// `it` is bound, as for a bare query.
	if v, ok := s.Env.Val("it"); !ok || v.String() != "[[1, 3, 5, 7, 9]]" {
		t.Errorf("it = %v (ok=%v), want the exec result", v, ok)
	}

	// $-sigil argument names and fresh values work on the same statement.
	out, err = s.Command(ctx, `:exec $a=0, $b=9`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "[[9, 9, 9, 9, 9]]") {
		t.Errorf("re-:exec output = %q", out)
	}

	// Bare :prepare shows the current statement.
	out, err = s.Command(ctx, `:prepare`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "prepared: [[ i * $a + $b | \\i < 5 ]]") {
		t.Errorf("bare :prepare = %q", out)
	}
}

// TestCommandExecErrors: :exec without a statement, with malformed
// arguments, and with bind failures all answer with errors, not panics.
func TestCommandExecErrors(t *testing.T) {
	s := newSession(t)
	ctx := context.Background()

	if _, err := s.Command(ctx, `:exec a=1`); err == nil ||
		!strings.Contains(err.Error(), "no prepared statement") {
		t.Errorf("exec without prepare: err = %v", err)
	}
	if _, err := s.Command(ctx, `:prepare $n + 1`); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ line, want string }{
		{`:exec n`, "expected ="},
		{`:exec n=`, "expected a scalar literal"},
		{`:exec n=1, n=2`, "duplicate argument"},
		{`:exec n=1 m=2`, "expected , or end"},
		{`:exec n=1, m=2`, "does not name a parameter"},
		{`:exec n="s"`, "expected nat, got string"},
		{`:exec`, "missing argument for parameter $n"},
		{`:exec n=-3`, "naturals are non-negative"},
	} {
		if _, err := s.Command(ctx, c.line); err == nil ||
			!strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.line, err, c.want)
		}
	}
	// Still usable after every failure.
	out, err := s.Command(ctx, `:exec n=41`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "42") {
		t.Errorf(":exec n=41 = %q, want 42", out)
	}
}

// TestParseExecArgs covers the literal kinds the loop accepts.
func TestParseExecArgs(t *testing.T) {
	args, err := parseExecArgs(`n=3, x=-1.5, s="a b", t=true, f=false`)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]object.Value{
		"n": object.Nat(3), "x": object.Real(-1.5),
		"s": object.String_("a b"), "t": object.Bool(true), "f": object.Bool(false),
	}
	if len(args) != len(want) {
		t.Fatalf("args = %v", args)
	}
	for k, w := range want {
		if got, ok := args[k]; !ok || got.String() != w.String() {
			t.Errorf("args[%s] = %v, want %v", k, got, w)
		}
	}
	if empty, err := parseExecArgs("  "); err != nil || len(empty) != 0 {
		t.Errorf("blank args = %v, %v", empty, err)
	}
}

// TestPreparedInterpEngine: the prepared path honors the session's engine
// selection — the interpreter threads the frame through its Params field.
func TestPreparedInterpEngine(t *testing.T) {
	s := newSession(t)
	if err := s.SetEngine(EngineInterp); err != nil {
		t.Fatal(err)
	}
	p, err := s.Prepare(`$a * 6`)
	if err != nil {
		t.Fatal(err)
	}
	v, err := p.Exec(context.Background(), map[string]object.Value{"a": object.Nat(7)})
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "42" {
		t.Fatalf("interp exec = %s, want 42", v)
	}
}

// preparePhases returns the phases of the session's last report other than
// eval: what a (re-)preparation costs, empty for an execution of a kept plan.
func preparePhases(t *testing.T, s *Session) []string {
	t.Helper()
	rep := s.Trace.Last()
	if rep == nil {
		t.Fatal("no trace report recorded")
	}
	var names []string
	for _, p := range rep.Phases {
		if p.Name != trace.PhaseEval {
			names = append(names, p.Name)
		}
	}
	return names
}

// TestExecKeepsPlanAcrossItBinding: every Exec ends by binding `it`. That
// must not send the next Exec of a statement that does not read `it` back
// through parse → … → compile; a statement that does read `it`, a real val
// rebinding and a registration still must.
func TestExecKeepsPlanAcrossItBinding(t *testing.T) {
	ctx := context.Background()
	s := newSession(t)
	if _, err := s.Exec(`val A = [[ i * 2 | \i < 10 ]];`); err != nil {
		t.Fatal(err)
	}
	p, err := s.Prepare(`A[$i] + $k`)
	if err != nil {
		t.Fatal(err)
	}
	exec := func(want string) {
		t.Helper()
		v, err := p.Exec(ctx, map[string]object.Value{"i": object.Nat(3), "k": object.Nat(1)})
		if err != nil {
			t.Fatal(err)
		}
		if v.String() != want {
			t.Fatalf("Exec = %s, want %s", v, want)
		}
	}
	exec("7")
	prog := p.prog
	for i := 0; i < 3; i++ {
		before := s.Env.Epoch()
		exec("7")
		if p.prog != prog {
			t.Fatalf("Exec %d re-prepared: the Program changed", i+2)
		}
		if ph := preparePhases(t, s); len(ph) != 0 {
			t.Errorf("Exec %d report carries prepare phases %v", i+2, ph)
		}
		if s.Env.Epoch() != before+1 {
			t.Errorf("Exec %d moved the epoch by %d, want 1 (the `it` binding)", i+2, s.Env.Epoch()-before)
		}
	}
	// A bind error against the kept plan is no execution: it leaves no report.
	last := s.Trace.Last()
	var be *BindError
	if _, err := p.Exec(ctx, map[string]object.Value{"i": object.Nat(3)}); !errors.As(err, &be) {
		t.Fatalf("Exec without $k: err = %v, want a *BindError", err)
	}
	if s.Trace.Last() != last || s.Trace.Active() {
		t.Error("a bind error produced (or left open) a trace report")
	}
	// A bare query binds `it` too, and invalidates as little.
	if _, _, err := s.Query(`1 + 1`); err != nil {
		t.Fatal(err)
	}
	exec("7")
	if p.prog != prog {
		t.Error("a bare query's `it` binding re-prepared the statement")
	}

	reprepared := func(what string) {
		t.Helper()
		if p.prog == prog {
			t.Errorf("%s: the statement was not re-prepared", what)
		}
		if ph := preparePhases(t, s); len(ph) == 0 {
			t.Errorf("%s: the report shows no prepare phases", what)
		}
		prog = p.prog
	}
	if _, err := s.Exec(`val A = [[ i * 3 | \i < 10 ]];`); err != nil {
		t.Fatal(err)
	}
	exec("10")
	reprepared("val rebinding")
	s.Env.RegisterReader("NOWHERE", func(object.Value) (object.Value, error) { return object.Unit, nil })
	exec("10")
	reprepared("reader registration")

	// A statement that reads `it` sees each execution's binding.
	q, err := s.Prepare(`it + $k`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"11", "12", "13"} {
		was := q.prog
		v, err := q.Exec(ctx, map[string]object.Value{"k": object.Nat(1)})
		if err != nil {
			t.Fatal(err)
		}
		if v.String() != want {
			t.Fatalf("it + 1 = %s, want %s (stale plan served?)", v, want)
		}
		if want != "11" && q.prog == was {
			t.Errorf("it + 1 = %s without re-preparing", want)
		}
	}
}

// TestExecConcurrentKeepsPlan: concurrent executions of one statement each
// bind `it`; none of those bindings may invalidate the shared plan, and each
// execution sees its own argument frame. Run under -race.
func TestExecConcurrentKeepsPlan(t *testing.T) {
	ctx := context.Background()
	s := newSession(t)
	p, err := s.Prepare(`[[ i * $a | \i < 50 ]]`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Exec(ctx, map[string]object.Value{"a": object.Nat(1)}); err != nil {
		t.Fatal(err)
	}
	prog := p.prog
	var wg sync.WaitGroup
	for g := int64(0); g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 25; round++ {
				v, err := p.Exec(ctx, map[string]object.Value{"a": object.Nat(g)})
				if err != nil {
					t.Error(err)
					return
				}
				if c, _ := v.CellAt(49); c.N != 49*g {
					t.Errorf("goroutine %d read cell %s, want %d", g, c, 49*g)
				}
			}
		}()
	}
	wg.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.prog != prog {
		t.Error("concurrent executions re-prepared the statement")
	}
}
