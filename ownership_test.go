// Counter ownership across executions: the body of a val-bound function,
// made by an earlier execution on either engine, is charged to and bounded
// by the query that applies it, on both engines — and must not put two
// goroutines on one machine. These are the session-level companions of
// internal/compile's TestCounterOwnership; CI runs them under -race with
// GOMAXPROCS=4.
package aql

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/aqldb/aql/internal/compile"
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/repl"
)

const ownershipSetup = `
val sq = fn \x => x * x + 1;
val tri = fn \n => summap(fn \i => i * n)!(gen!50);
val twice = fn \h => fn \x => h!(h!x);
val mapN = fn \h => [[ h!i | \i < 20000 ]];
`

func ownershipSession(t *testing.T) *repl.Session {
	t.Helper()
	s, err := repl.New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(ownershipSetup); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestValBoundFnCounterOwnership: a compiled val-bound fn applied by a
// tabulation, on the interpreter, on the compiled engine run serially and on
// the compiled engine fanned out over 4 workers. Value, ⊥ / error text and
// all five counters — the query's own work plus every body it applied — must
// be the serial run's, which are pinned.
func TestValBoundFnCounterOwnership(t *testing.T) {
	ctx := context.Background()
	s := ownershipSession(t)
	globals := s.Env.Globals()
	for _, tc := range []struct {
		name, src string
		want      eval.Counters
	}{
		// 5 steps per cell of the query's own, 5 of sq's body.
		{"applied in a 1e6-cell tabulation", `[[ sq!(i % 1000) | \i < 1000000 ]]`,
			eval.Counters{Steps: 10_000_002, Cells: 1_000_000, Tabulations: 1}},
		// tri makes and applies a closure of its own inside each call: 153
		// steps, a gen of 50 cells and 50 iterations per call.
		{"body makes closures", `[[ tri!(i % 7) | \i < 20000 ]]`,
			eval.Counters{Steps: 3_160_002, Cells: 1_020_000, Tabulations: 1, SetOps: 20_000, Iterations: 1_000_000}},
		// twice is handed a function of the applying query: 5 steps per
		// cell of the query's own, 1 + 5 of twice's, 2 × 3 of the query's fn.
		{"handed a function of the query", `[[ (twice!(fn \y => y + i))!i | \i < 20000 ]]`,
			eval.Counters{Steps: 340_002, Cells: 20_000, Tabulations: 1}},
		// The same inside a tabulation the val-bound fn runs itself: mapN's
		// 20000-cell loop (3 steps a cell) and each application of the
		// query's fn (3 steps) are the query's work.
		{"handed a function of the query to tabulate", `mapN!(fn \y => y * 3)`,
			eval.Counters{Steps: 120_005, Cells: 20_000, Tabulations: 1}},
		{"body goes ⊥", `[[ sq!(i % 1000) / (20000 - i) | \i < 30000 ]]`,
			eval.Counters{Steps: 420_002, Cells: 30_000, Tabulations: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			core, _, err := s.Compile(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			serial := &compiledEngine{globals: globals, opts: compile.ExecOpts{Threshold: -1}}
			fanned := &compiledEngine{globals: globals, opts: compile.ExecOpts{Threshold: 1024, Workers: 4}}
			want, err := serial.EvalExpr(ctx, core)
			if err != nil {
				t.Fatal(err)
			}
			if got := serial.Counters(); got != tc.want {
				t.Errorf("serial counters = %+v, pinned %+v", got, tc.want)
			}
			for _, eng := range []engine{eval.New(globals), fanned} {
				got, err := eng.EvalExpr(ctx, core)
				if err != nil {
					t.Fatalf("%s: %v", eng.Name(), err)
				}
				if got.String() != want.String() {
					t.Errorf("%s: value differs from the serial compiled run", eng.Name())
				}
				if c := eng.Counters(); c != tc.want {
					t.Errorf("%s counters = %+v, want %+v", eng.Name(), c, tc.want)
				}
			}
		})
	}

	t.Run("step budget inside the fan-out", func(t *testing.T) {
		core, _, err := s.Compile(`[[ sq!(i % 1000) | \i < 1000000 ]]`)
		if err != nil {
			t.Fatal(err)
		}
		const workers = 4
		e := &compiledEngine{globals: globals, opts: compile.ExecOpts{Threshold: 1024, Workers: workers, Limits: eval.Limits{MaxSteps: 500_000}}}
		_, err = e.EvalExpr(ctx, core)
		var re *eval.ResourceError
		if !errors.As(err, &re) || re.Kind != eval.ResourceSteps {
			t.Fatalf("err = %v, want a steps ResourceError", err)
		}
		if slack := int64(workers * eval.InterruptInterval); re.Used > re.Limit+slack+1 {
			t.Errorf("Used = %d, want <= Limit %d + workers*InterruptInterval %d", re.Used, re.Limit, slack)
		}
	})
}

// TestCompiledFnAppliedByInterpreters: one compiled val-bound fn value shared
// by two sessions, each applying it on the interpreter from its own
// goroutine at the same time. Each call charges the applying evaluation's
// meter, on a machine of its own: the interpreters report the maker's
// counters for the query, and nothing races on one machine.
func TestCompiledFnAppliedByInterpreters(t *testing.T) {
	maker := ownershipSession(t)
	tri, ok := maker.Env.Val("tri")
	if !ok {
		t.Fatal("tri not bound")
	}
	triType := maker.Env.GlobalTypes()["tri"]

	const src = `[[ tri!(i % 7) | \i < 20000 ]]`
	want, _, err := maker.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	wantCounters := lastEval(t, maker)
	if wantCounters.Steps != 3_160_002 || wantCounters.Cells != 1_020_000 {
		t.Fatalf("reference counters = %+v, want 3160002 steps / 1020000 cells", wantCounters)
	}

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		s, err := repl.New()
		if err != nil {
			t.Fatal(err)
		}
		s.Env.SetVal("tri", tri, triType)
		if err := s.SetEngine(repl.EngineInterp); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				got, _, err := s.Query(src)
				if err != nil {
					t.Error(err)
					return
				}
				if got.String() != want.String() {
					t.Error("interpreter session's value differs from the maker's")
				}
				if rep := s.LastReport(); rep == nil || rep.Eval != wantCounters {
					t.Errorf("interpreter session's report = %+v, want counters %+v", rep, wantCounters)
				}
			}
		}()
	}
	wg.Wait()
}

// TestValBoundBodyUnderSessionLimits: the body of a val-bound function is
// the applying query's work, so the session's budgets stop it, and a step
// budget's trip is what the query reports, on both engines.
func TestValBoundBodyUnderSessionLimits(t *testing.T) {
	const spin = `val spin = fn \n => summap(fn \i => i + n)!(gen!n);`
	for _, tc := range []struct {
		name, setup, src, wantErr string
		limits                    eval.Limits
		wantSteps                 int64 // LastSteps, when non-zero
	}{
		{"cells", `val big = fn \n => [[ i | \i < n ]];`, `(big!50000)[7]`,
			"cell budget 1000 exhausted", eval.Limits{MaxCells: 1000}, 0},
		{"steps", spin, `spin!3000000`,
			"step budget 100000 exhausted", eval.Limits{MaxSteps: 100_000}, 100_001},
		{"timeout", spin, `spin!3000000`,
			"timed out", eval.Limits{Timeout: 5 * time.Millisecond}, 0},
	} {
		for _, engine := range []string{repl.EngineCompiled, repl.EngineInterp} {
			t.Run(tc.name+"/"+engine, func(t *testing.T) {
				s, err := repl.New()
				if err != nil {
					t.Fatal(err)
				}
				if err := s.SetEngine(engine); err != nil {
					t.Fatal(err)
				}
				s.Limits = tc.limits
				if _, err := s.Exec(tc.setup); err != nil {
					t.Fatal(err)
				}
				_, _, err = s.Query(tc.src)
				var re *eval.ResourceError
				if !errors.As(err, &re) || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want a ResourceError saying %q", err, tc.wantErr)
				}
				if got := s.LastSteps.Load(); tc.wantSteps != 0 && got != tc.wantSteps {
					t.Errorf("LastSteps = %d, want %d", got, tc.wantSteps)
				}
			})
		}
	}
}

// TestInterpreterMadeHigherOrderVal: a higher-order val made by either
// engine, applied by either engine to a function of the query, costs the
// query the same: its own 5 steps per cell, twice's 1 + 5 and the query
// function's 2 × 3, whichever engine runs which body.
func TestInterpreterMadeHigherOrderVal(t *testing.T) {
	const src = `[[ (twice!(fn \y => y + i))!i | \i < 20000 ]]`
	var want string
	for _, maker := range []string{repl.EngineInterp, repl.EngineCompiled} {
		s, err := repl.New()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SetEngine(maker); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Exec(`val twice = fn \h => fn \x => h!(h!x);`); err != nil {
			t.Fatal(err)
		}
		for _, applier := range []string{repl.EngineInterp, repl.EngineCompiled} {
			if err := s.SetEngine(applier); err != nil {
				t.Fatal(err)
			}
			got, _, err := s.Query(src)
			if err != nil {
				t.Fatal(err)
			}
			if want == "" {
				want = got.String()
			} else if got.String() != want {
				t.Errorf("made on %s, applied on %s: value differs", maker, applier)
			}
			if c := lastEval(t, s); c.Steps != 340_002 || c.Cells != 20_000 || c.Tabulations != 1 {
				t.Errorf("made on %s, applied on %s: counters = %+v, want 340002 steps / 20000 cells / 1 tabulation",
					maker, applier, c)
			}
		}
	}
}

// TestEscapedClosuresAreLexicallyScoped: a function reads the $name
// arguments and globals of the execution that made it, never those of the
// query applying it, on both engines.
func TestEscapedClosuresAreLexicallyScoped(t *testing.T) {
	ctx := context.Background()
	for _, engine := range []string{repl.EngineCompiled, repl.EngineInterp} {
		t.Run(engine, func(t *testing.T) {
			s, err := repl.New()
			if err != nil {
				t.Fatal(err)
			}
			if err := s.SetEngine(engine); err != nil {
				t.Fatal(err)
			}
			exec := func(src string, a int64) string {
				t.Helper()
				p, err := s.Prepare(src)
				if err != nil {
					t.Fatal(err)
				}
				v, err := p.Exec(ctx, map[string]object.Value{"a": object.Nat(a)})
				if err != nil {
					t.Fatal(err)
				}
				return v.String()
			}
			exec(`fn \x => x + $a`, 5)
			if _, err := s.Exec(`val h = it;`); err != nil {
				t.Fatal(err)
			}
			if got := exec(`h!1 + $a`, 100); got != "106" {
				t.Errorf("h!1 + $a = %s, want 106 (h's $a is 5)", got)
			}
			if _, err := s.Exec(`val a = 1; val g = fn \x => x + a; val a = 2;`); err != nil {
				t.Fatal(err)
			}
			if v, _, err := s.Query(`g!0`); err != nil || v.String() != "1" {
				t.Errorf("g!0 = %v (err %v), want 1 (g's a is 1)", v, err)
			}
		})
	}
}
