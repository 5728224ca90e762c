package repl

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/netcdf"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/opt"
	"github.com/aqldb/aql/internal/trace"
	"github.com/aqldb/aql/internal/types"
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
	rep := s.LastReport()
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

// TestExecKeepsPlanAcrossItBinding: a prepared statement re-prepares exactly
// when a global it read was rebound or the environment's structure changed.
// Every Exec ends by binding `it`, an ordinary val: that must not send the
// next Exec of a statement that does not read `it` back through parse → … →
// compile, nor may a rebinding of any other val it does not read. A rebinding
// of a val it reads (directly or through a macro), a val shadowing a
// primitive it reads, a registration and a rule must.
func TestExecKeepsPlanAcrossItBinding(t *testing.T) {
	ctx := context.Background()
	s := newSession(t)
	if _, err := s.Exec(`val A = [[ i * 2 | \i < 10 ]]; val B = 1; val C = [[ 5 ]];
		val Z = 1; macro \head = fn \j => C[j];`); err != nil {
		t.Fatal(err)
	}
	prepare := func(text string) *Prepared {
		t.Helper()
		p, err := s.Prepare(text)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	ik := map[string]object.Value{"i": object.Nat(3), "k": object.Nat(1)}
	k := map[string]object.Value{"k": object.Nat(1)}
	// exec runs p and checks its value, and that its report shows prepare
	// phases exactly when it re-prepared, which it returns.
	exec := func(p *Prepared, args map[string]object.Value, want string) bool {
		t.Helper()
		was := p.Prog
		v, err := p.Exec(ctx, args)
		if err != nil {
			t.Fatal(err)
		}
		if v.String() != want {
			t.Fatalf("%s = %s, want %s", p.text, v, want)
		}
		re := p.Prog != was
		if ph := preparePhases(t, s); (len(ph) != 0) != re {
			t.Errorf("%s: re-prepared %v, but its report shows prepare phases %v", p.text, re, ph)
		}
		return re
	}
	p := prepare(`A[$i] + $k`)
	exec(p, ik, "7")
	for i := 0; i < 3; i++ {
		before := s.Env.Epoch()
		if exec(p, ik, "7") {
			t.Fatalf("Exec %d re-prepared", i+2)
		}
		if s.Env.Epoch() != before+1 {
			t.Errorf("Exec %d moved the epoch by %d, want 1 (the `it` binding)", i+2, s.Env.Epoch()-before)
		}
	}
	// A bind error against the kept plan finishes its report with the error.
	var be *BindError
	if _, err := p.Exec(ctx, k); !errors.As(err, &be) {
		t.Fatalf("Exec without $i: err = %v, want a *BindError", err)
	}
	if rep := s.LastReport(); rep == nil || rep.Err != be.Error() || rep.Wall <= 0 {
		t.Errorf("a bind error's report = %+v, want a finished one carrying %q", rep, be.Error())
	}
	// A bare query binds `it` too, and invalidates as little.
	if _, _, err := s.Query(`1 + 1`); err != nil {
		t.Fatal(err)
	}
	if exec(p, ik, "7") {
		t.Error("a bare query's `it` binding re-prepared the statement")
	}

	m := prepare(`head!0 + $k`)
	c := prepare(`count!{A[$i], $k}`)
	exec(m, k, "6")
	exec(c, ik, "2")
	mustExec := func(src string) {
		if _, err := s.Exec(src); err != nil {
			t.Fatal(err)
		}
	}
	for _, row := range []struct {
		what   string
		mutate func()
		p      *Prepared
		args   map[string]object.Value
		want   string
		stale  bool
	}{
		{"rebinding a val it does not read", func() { mustExec(`val B = 2;`) }, p, ik, "7", false},
		{"rebinding a val it reads", func() { mustExec(`val A = [[ i * 3 | \i < 10 ]];`) }, p, ik, "10", true},
		{"rebinding a val its macro reads", func() { mustExec(`val C = [[ 9 ]];`) }, m, k, "10", true},
		{"rebinding a val another statement's macro reads", nil, p, ik, "10", false},
		{"a val shadowing a primitive it reads", func() {
			s.Env.SetVal("count", object.Func(func(object.Value) (object.Value, error) { return object.Nat(40), nil }),
				types.MustParse("{nat} -> nat"))
		}, c, ik, "40", true},
		{"a val shadowing a primitive it does not read", nil, p, ik, "10", false},
		{"a reader registration", func() {
			s.Env.RegisterReader("NOWHERE", func(object.Value) (object.Value, error) { return object.Unit, nil })
		}, p, ik, "10", true},
	} {
		if row.mutate != nil {
			row.mutate()
		}
		if re := exec(row.p, row.args, row.want); re != row.stale {
			t.Errorf("%s: %s re-prepared %v, want %v", row.what, row.p.text, re, row.stale)
		}
	}

	// A user rule may introduce a global the statement does not name: the
	// plan resolves it after optimizing, and its rebinding stales the plan.
	u := prepare(`$k + 99`)
	exec(u, k, "100")
	s.Env.AddRule("normalize", opt.Rule{
		Name:  "99-is-Z",
		Heads: []ast.Kind{ast.KindNatLit},
		Apply: func(e ast.Expr) (ast.Expr, bool) {
			if n, ok := e.(*ast.NatLit); ok && n.Val == 99 {
				return &ast.Var{Name: "Z"}, true
			}
			return e, false
		},
	})
	if !exec(u, k, "2") || !exec(p, ik, "10") {
		t.Error("a rule registration did not re-prepare every statement")
	}
	s.Env.SetVal("Z", object.Nat(5), types.Nat)
	if !exec(u, k, "6") {
		t.Error("rebinding a global a rule introduced did not re-prepare")
	}
	if exec(p, ik, "10") {
		t.Error("rebinding a global another statement's rule introduced re-prepared")
	}

	// A statement that reads `it` sees each execution's binding.
	q := prepare(`it + $k`)
	for _, want := range []string{"11", "12", "13"} {
		if re := exec(q, k, want); want != "11" && !re {
			t.Errorf("it + 1 = %s without re-preparing", want)
		}
	}
}

// TestPreparedOutcomeIndependentOfProfiling: a prepared statement runs under
// the session's limits at every profiling level, as a bare query does. The
// program bakes in the MaxDepth it was lowered with, so a statement
// prepared without one and executed after the session set one re-prepares,
// and every execution trips the depth budget.
func TestPreparedOutcomeIndependentOfProfiling(t *testing.T) {
	const text = `[[ i + (i * (i + (i * (i + 1)))) | \i < 4 ]]`
	ctx := context.Background()
	s := newSession(t)
	p, err := s.Prepare(text)
	if err != nil {
		t.Fatal(err)
	}
	s.Limits.MaxDepth = 3
	_, _, want := s.Query(text)
	var re *eval.ResourceError
	if !errors.As(want, &re) || re.Kind != eval.ResourceDepth {
		t.Fatalf("Query: err = %v, want a depth ResourceError", want)
	}
	for _, level := range []string{"off", "sampled", "full"} {
		if err := s.SetProfiling(level); err != nil {
			t.Fatal(err)
		}
		v, err := p.Exec(ctx, nil)
		if err == nil || err.Error() != want.Error() {
			t.Errorf("Exec at %s = %v, %v; want Query's error %q", level, v, err, want)
		}
	}
}

// TestExecConcurrentKeepsPlan: concurrent executions of one statement each
// bind `it`; none of those bindings may invalidate the shared plan, and each
// execution sees its own argument frame and builds its own report, so the
// fleet totals count every execution and all of its work. Run under -race.
func TestExecConcurrentKeepsPlan(t *testing.T) {
	const goroutines, rounds = 8, 25
	ctx := context.Background()
	s := newSession(t)
	p, err := s.Prepare(`[[ i * $a | \i < 50 ]]`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Exec(ctx, map[string]object.Value{"a": object.Nat(1)}); err != nil {
		t.Fatal(err)
	}
	steps := s.LastReport().Eval.Steps
	before := s.Fleet.Snapshot().Totals
	prog := p.Prog
	var wg sync.WaitGroup
	for g := int64(0); g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				v, err := p.Exec(ctx, map[string]object.Value{"a": object.Nat(g)})
				if err != nil {
					t.Error(err)
					return
				}
				if c, _ := v.CellAtCtx(ctx, 49); c.N != 49*g {
					t.Errorf("goroutine %d read cell %s, want %d", g, c, 49*g)
				}
			}
		}()
	}
	wg.Wait()
	after := s.Fleet.Snapshot().Totals
	if got := after.Queries - before.Queries; got != goroutines*rounds {
		t.Errorf("fleet counted %d reports of %d executions", got, goroutines*rounds)
	}
	if got, want := after.Eval.Steps-before.Eval.Steps, int64(goroutines*rounds)*steps; got != want {
		t.Errorf("fleet counted %d steps of %d executions, want %d (%d each)", got, goroutines*rounds, want, steps)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.Prog != prog {
		t.Error("concurrent executions re-prepared the statement")
	}
}

// TestPreparedExecReportsIO: an execution of a prepared statement over a
// lazy NetCDF array reports the I/O it caused, as a bare query does, and
// leaves none of it for the next statement's report.
func TestPreparedExecReportsIO(t *testing.T) {
	s := newSession(t)
	defer s.Close()
	path := writeNC1D(t, t.TempDir(), 8)
	if _, err := s.Exec(fmt.Sprintf(`readval \V using NETCDF at (%q, "series");`, path)); err != nil {
		t.Fatal(err)
	}
	p, err := s.Prepare(`[[ V[i] | \i < 8 ]]`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Exec(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if io := s.LastReport().IO; io.SlabReads != 1 || io.BytesRead != 64 || io.TileMisses == 0 {
		t.Errorf("execution's report IO = %+v, want 1 slab read of 64 bytes and a tile miss", io)
	}
	if _, _, err := s.Query(`1 + 1`); err != nil {
		t.Fatal(err)
	}
	if io := s.LastReport().IO; io.BytesRead != 0 {
		t.Errorf("the following query's report IO = %+v, want no bytes read", io)
	}
}

// spanShape renders what of a span tree is deterministic: operators,
// invocation counts and self steps and cells.
func spanShape(n *trace.SpanNode, depth int, b *strings.Builder) {
	fmt.Fprintf(b, "%*s%s x%d steps=%d cells=%d\n", 2*depth, "", n.Op, n.Invocations, n.Steps, n.Cells)
	for _, c := range n.Children {
		spanShape(c, depth+1, b)
	}
}

// TestPreparedExecSpansLikeQuery: at profiling full, an execution records
// the span tree a bare query of the same text records.
func TestPreparedExecSpansLikeQuery(t *testing.T) {
	const text = `summap(fn \i => [[ i * j | \j < 20 ]][3])!(gen!30)`
	s := newProfiledSession(t, "full")
	if _, _, err := s.Query(text); err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	spanShape(s.LastReport().Spans, 0, &want)

	p, err := s.Prepare(text)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Exec(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	rep := s.LastReport()
	if rep.Spans == nil {
		t.Fatal("execution recorded no span tree at profiling full")
	}
	var got strings.Builder
	spanShape(rep.Spans, 0, &got)
	if got.String() != want.String() {
		t.Errorf("execution's span tree:\n%s\nbare query's:\n%s", &got, &want)
	}
}

// TestPreparedExecHonoursWorkers: Session.Workers caps an execution's
// tabulation fan-out, seen as worker records on the tabulation's span.
func TestPreparedExecHonoursWorkers(t *testing.T) {
	for _, tc := range []struct {
		workers int
		fanOut  bool
	}{{4, true}, {1, false}} {
		s := newProfiledSession(t, "sampled")
		s.Workers = tc.workers
		p, err := s.Prepare(`[[ i * 2 | \i < 16384 ]]`)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Exec(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
		rep := s.LastReport()
		if rep.Spans == nil {
			t.Fatalf("Workers=%d: execution recorded no span tree at profiling sampled", tc.workers)
		}
		records := 0
		rep.Spans.Walk(func(n *trace.SpanNode) { records += len(n.Workers) })
		if (records > 0) != tc.fanOut {
			t.Errorf("Workers=%d: %d worker records, want fan-out %v", tc.workers, records, tc.fanOut)
		}
	}
}

// TestPreparedFanOutByMeasuredSteps: a tabulation fans out by its work,
// its cells times the steps per cell its last scan measured. The first
// execution of dense_compute's 48x48 matmul (2,304 cells, under the 8,192
// cells that fan out unmeasured) runs serially; every later one fans out.
// serve_mixed's 5,000-cell template measures 11 steps per cell, 55,000 in
// all, under the 65,536 that fan out, and stays serial.
func TestPreparedFanOutByMeasuredSteps(t *testing.T) {
	s := newProfiledSession(t, "sampled")
	s.Workers = 2
	if _, err := s.Exec(`val n = 48; val A = [[ (i * 7 + j) % 100 | \i < n, \j < n ]]; val B = [[ (i + j * 3) % 100 | \i < n, \j < n ]];`); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		src    string
		cells  int64
		steps  int64 // per cell; 0 leaves it unchecked
		fanOut []bool
	}{
		{`[[ summap(fn \k => A[i,k] * B[k,j])!(gen!n) | \i < n, \j < n ]]`, 2304, 0, []bool{false, true, true}},
		{`[[ (i*i + 11*i + 7) % 97 | \i < 5000 ]]`, 5000, 11, []bool{false, false, false}},
	} {
		p, err := s.Prepare(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		for run, want := range tc.fanOut {
			if _, err := p.Exec(context.Background(), nil); err != nil {
				t.Fatal(err)
			}
			rep := s.LastReport()
			records := 0
			rep.Spans.Walk(func(n *trace.SpanNode) { records += len(n.Workers) })
			if (records > 0) != want {
				t.Errorf("%s, execution %d: %d worker records, want fan-out %v", tc.src, run+1, records, want)
			}
			// The prologue is the tabulation's step and its bound's.
			if per := (rep.Eval.Steps - 2) / tc.cells; tc.steps > 0 && per != tc.steps {
				t.Errorf("%s: %d steps per cell, want %d", tc.src, per, tc.steps)
			}
		}
	}
}

// TestLazyIOFailureIsIOError: a lazy array that fails to materialize inside
// a comparison (an interface with no error return) surfaces the I/O error
// on every session path, never an internal-error panic.
func TestLazyIOFailureIsIOError(t *testing.T) {
	ctx := context.Background()
	const text = `V = W`
	for _, tc := range []struct {
		name string
		run  func(s *Session) error
	}{
		{"Session.Query", func(s *Session) error {
			_, _, err := s.Query(text)
			return err
		}},
		{"Prepared.Exec", func(s *Session) error {
			p, err := s.Prepare(text)
			if err != nil {
				t.Fatal(err)
			}
			_, err = p.Exec(ctx, nil)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newSession(t)
			defer s.Close()
			path := writeNC1D(t, t.TempDir(), 64)
			faulty := injectFaulty(t, s, path)
			for _, name := range []string{"V", "W"} {
				if _, err := s.Exec(fmt.Sprintf(`readval \%s using NETCDF at (%q, "series");`, name, path)); err != nil {
					t.Fatal(err)
				}
			}
			persistent := make([]netcdf.Fault, 16)
			for i := range persistent {
				persistent[i] = netcdf.Fault{Err: netcdf.ErrInjected}
			}
			faulty.SetSchedule(0, persistent...)
			err := tc.run(s)
			var pe *PanicError
			if err == nil || errors.As(err, &pe) {
				t.Fatalf("err = %v, want the I/O error", err)
			}
			if !errors.Is(err, netcdf.ErrInjected) || !strings.Contains(err.Error(), "materializing lazy array") {
				t.Errorf("err = %v, want a materializing-lazy-array error wrapping the injected fault", err)
			}
		})
	}
}

// TestConcurrentRePrepare: two statements over one global, re-prepared
// concurrently after each rebinding of it, share the session's optimizer.
// Run under -race: the rule-firing hook must be per call, not optimizer
// state.
func TestConcurrentRePrepare(t *testing.T) {
	ctx := context.Background()
	s := newSession(t)
	s.Env.SetVal("k", object.Nat(0), types.Nat)
	var stmts [2]*Prepared
	for i, text := range []string{`[[ i + k | \i < 4 ]][3]`, `[[ i * k | \i < 4 ]][3]`} {
		p, err := s.Prepare(text)
		if err != nil {
			t.Fatal(err)
		}
		stmts[i] = p
	}
	for round := int64(1); round <= 50; round++ {
		s.Env.SetVal("k", object.Nat(round), types.Nat)
		var wg sync.WaitGroup
		for i, want := range []int64{3 + round, 3 * round} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				v, err := stmts[i].Exec(ctx, nil)
				if err != nil {
					t.Error(err)
				} else if v.N != want {
					t.Errorf("round %d statement %d = %s, want %d", round, i, v, want)
				}
			}()
		}
		wg.Wait()
	}
}

// TestAddRuleRacesPlans registers a chain of rules, rule k rewriting the nat
// literal k to k+1, while 8 goroutines plan the query `1` (Session.Plan) and
// execute the plan (Prepared.Exec). A plan optimizes with one whole rule
// base, the one in force when it read the environment, so its answer is 1 +
// the chain firings its report recorded; a plan made stale by a later
// registration is re-prepared under a longer chain. A goroutine's answers
// never decrease. Under -race it also holds each registration apart from
// the optimizations that read the rule base.
func TestAddRuleRacesPlans(t *testing.T) {
	const rules, workers = 50, 8
	s := newSession(t)
	ctx := context.Background()
	chain := func(k int64) opt.Rule {
		return opt.Rule{
			Name:  fmt.Sprintf("chain-%d", k),
			Heads: []ast.Kind{ast.KindNatLit},
			Apply: func(e ast.Expr) (ast.Expr, bool) {
				if n, ok := e.(*ast.NatLit); ok && n.Val == k {
					return &ast.NatLit{Val: k + 1}, true
				}
				return e, false
			},
		}
	}
	var plans atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last int64
			for !stop.Load() {
				rep := &trace.QueryReport{Query: "1"}
				plan, err := s.Plan(rep, "1", s.Limits)
				if err != nil {
					t.Error(err)
					return
				}
				fired := int64(0)
				for _, f := range rep.Rules {
					if strings.HasPrefix(f.Rule, "chain-") {
						fired++
					}
				}
				st := &Prepared{s: s, text: "1", Plan: plan}
				v, err := st.Exec(ctx, nil)
				if err != nil {
					t.Error(err)
					return
				}
				switch {
				case st.Plan == plan && v.N != 1+fired:
					t.Errorf("answer %d from a plan whose report fired %d chain rules", v.N, fired)
				case st.Plan != plan && v.N < 2+fired:
					t.Errorf("answer %d from a plan re-prepared after one that fired %d chain rules", v.N, fired)
				case v.N < last:
					t.Errorf("answer %d after %d", v.N, last)
				}
				last = v.N
				plans.Add(1)
			}
		}()
	}
	for k := int64(1); k <= rules; k++ {
		s.Env.AddRule("normalize", chain(k))
		// Let every worker plan about once per registration.
		for n, deadline := plans.Load(), time.Now().Add(time.Second); plans.Load() < n+workers && time.Now().Before(deadline); {
			runtime.Gosched()
		}
	}
	stop.Store(true)
	wg.Wait()
	if v, _ := query(t, s, "1"); v.N != 1+rules {
		t.Errorf("after every registration: 1 = %d, want %d", v.N, 1+rules)
	}
}
