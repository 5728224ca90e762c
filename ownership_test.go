// Counter ownership across executions: a val-bound function was made by an
// earlier execution, so its body is outside the applying query's counters on
// both engines — and must not put two goroutines on one machine. These are
// the session-level companions of internal/compile's TestCounterOwnership;
// CI runs them under -race with GOMAXPROCS=4.
package aql

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"github.com/aqldb/aql/internal/compile"
	"github.com/aqldb/aql/internal/eval"
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
// all five counters must be the serial run's, which are pinned.
func TestValBoundFnCounterOwnership(t *testing.T) {
	ctx := context.Background()
	s := ownershipSession(t)
	globals := s.Env.Globals()
	for _, tc := range []struct {
		name, src string
		want      eval.Counters
	}{
		// The body of sq is not the query's work: 5 steps per cell.
		{"applied in a 1e6-cell tabulation", `[[ sq!(i % 1000) | \i < 1000000 ]]`,
			eval.Counters{Steps: 5_000_002, Cells: 1_000_000, Tabs: 1}},
		// tri makes and applies a closure of its own inside each call.
		{"body makes closures", `[[ tri!(i % 7) | \i < 20000 ]]`,
			eval.Counters{Steps: 100_002, Cells: 20_000, Tabs: 1}},
		// twice is handed a function of the applying query: that function's
		// body IS the query's work, wherever it ends up being applied from.
		{"handed a function of the query", `[[ (twice!(fn \y => y + i))!i | \i < 20000 ]]`,
			eval.Counters{Steps: 220_002, Cells: 20_000, Tabs: 1}},
		// The same inside a tabulation the val-bound fn runs itself: mapN's
		// own 20000-cell loop is not the query's work, the 3 steps of each
		// application of the query's fn are.
		{"handed a function of the query to tabulate", `mapN!(fn \y => y * 3)`,
			eval.Counters{Steps: 60_003}},
		{"body goes ⊥", `[[ sq!(i % 1000) / (20000 - i) | \i < 30000 ]]`,
			eval.Counters{Steps: 270_002, Cells: 30_000, Tabs: 1}},
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
		e := &compiledEngine{globals: globals, opts: compile.ExecOpts{Threshold: 1024, Workers: workers, MaxSteps: 500_000}}
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
// goroutine at the same time. The calls arrive through the value's Fn entry,
// which must not charge (or race on) the machine of the execution that made
// the function.
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
	if wantCounters.Steps != 100_002 || wantCounters.Cells != 20_000 {
		t.Fatalf("reference counters = %+v, want 100002 steps / 20000 cells", wantCounters)
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
				if rep := s.Trace.Last(); rep == nil || rep.Eval != wantCounters {
					t.Errorf("interpreter session's report = %+v, want counters %+v", rep, wantCounters)
				}
			}
		}()
	}
	wg.Wait()
}

// TestValBoundBodyUnderSessionLimits: the body of a val-bound function is not
// in the applying query's counters, but the session's budgets still stop it,
// on both engines.
func TestValBoundBodyUnderSessionLimits(t *testing.T) {
	for _, tc := range []struct {
		name, setup, src, wantErr string
		limits                    eval.Limits
	}{
		{"cells", `val big = fn \n => [[ i | \i < n ]];`, `(big!50000)[7]`,
			"cell budget 1000 exhausted", eval.Limits{MaxCells: 1000}},
		{"steps", `val spin = fn \n => summap(fn \i => i + n)!(gen!n);`, `spin!3000000`,
			"step budget 100000 exhausted", eval.Limits{MaxSteps: 100_000}},
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
			})
		}
	}
}

// TestInterpreterMadeHigherOrderVal pins a known gap. A higher-order val made
// by the interpreter and applied by the compiled engine re-enters the query's
// own fn through the value's Fn entry, which cannot tell which machine the
// caller is on: the 2 × 3 steps per cell of `y + i` run on a machine of their
// own and are not reported (they are when twice is compiled too, and on the
// interpreter: 220002). Value and the other counters are unaffected.
func TestInterpreterMadeHigherOrderVal(t *testing.T) {
	s, err := repl.New()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetEngine(repl.EngineInterp); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`val twice = fn \h => fn \x => h!(h!x);`); err != nil {
		t.Fatal(err)
	}
	const src = `[[ (twice!(fn \y => y + i))!i | \i < 20000 ]]`
	want, _, err := s.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := lastEval(t, s).Steps; got != 220_002 {
		t.Errorf("interpreter steps = %d, want 220002", got)
	}
	if err := s.SetEngine(repl.EngineCompiled); err != nil {
		t.Fatal(err)
	}
	got, _, err := s.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Error("compiled value differs from the interpreter's")
	}
	if c := lastEval(t, s); c.Steps != 100_002 || c.Cells != 20_000 || c.Tabulations != 1 {
		t.Errorf("compiled counters = %+v, want 100002 steps / 20000 cells / 1 tabulation", c)
	}
}
