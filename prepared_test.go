// Differential testing of prepared (parameterized) statements: a template
// executed with an argument frame must behave byte-identically — value
// rendering, ⊥ payloads, error text, work counters — to the same query with
// the arguments substituted as literals, under both engines. This is the
// contract that makes template-keyed plan caching sound: serving a cached
// parameterized plan is observationally the same as preparing the
// substituted query from scratch.
package aql

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/repl"
	"github.com/aqldb/aql/internal/trace"
)

// preparedCorpus pairs templates with argument frames and the literal
// substitution they must match. Arguments are scalars — the substitution
// that can be written as a literal in source text.
var preparedCorpus = []struct {
	name string
	tmpl string
	args map[string]object.Value
	lit  string
}{
	{"arith", `$n + 2 * $n`,
		map[string]object.Value{"n": object.Nat(7)}, `7 + 2 * 7`},
	{"tabulation", `[[ i * i + $a * i + $b | \i < 20 ]]`,
		map[string]object.Value{"a": object.Nat(3), "b": object.Nat(5)},
		`[[ i * i + 3 * i + 5 | \i < 20 ]]`},
	{"comprehension", `{x | \x <- S, x > $t}`,
		map[string]object.Value{"t": object.Nat(2)}, `{x | \x <- S, x > 2}`},
	{"subscript", `A[$i] + A[$i]`,
		map[string]object.Value{"i": object.Nat(4)}, `A[4] + A[4]`},
	{"string-compare", `$s = "tokyo"`,
		map[string]object.Value{"s": object.String_("tokyo")}, `"tokyo" = "tokyo"`},
	{"real", `$x * 2.5`,
		map[string]object.Value{"x": object.Real(1.5)}, `1.5 * 2.5`},
	{"bool-branch", `if $b then count!S else 0`,
		map[string]object.Value{"b": object.Bool(true)}, `if true then count!S else 0`},
	{"shared-var", `$a = $b`,
		map[string]object.Value{"a": object.Nat(1), "b": object.Nat(2)}, `1 = 2`},
	// ⊥ producers: the diagnostic must render identically.
	{"bottom-subscript", `A[$i]`,
		map[string]object.Value{"i": object.Nat(100)}, `A[100]`},
	{"bottom-div", `$x / $y`,
		map[string]object.Value{"x": object.Nat(1), "y": object.Nat(0)}, `1 / 0`},
	{"bottom-in-tab", `[[ A[i + $k] | \i < 20 ]]`,
		map[string]object.Value{"k": object.Nat(0)}, `[[ A[i + 0] | \i < 20 ]]`},
}

// lastEval returns the evaluator counters of the session's most recent
// statement.
func lastEval(t *testing.T, s *repl.Session) trace.EvalCounters {
	t.Helper()
	rep := s.LastReport()
	if rep == nil {
		t.Fatal("no trace report recorded")
	}
	return rep.Eval
}

// TestPreparedDifferential runs the corpus on both engines. Unoptimized,
// the identity is exact: a placeholder read costs precisely what a literal
// leaf costs, so values, error text AND counters must match the substituted
// query byte-for-byte. Optimized, values and errors must still match, but
// counters legitimately may not — the optimizer constant-folds literals
// (`7 + 2*7` → 21) while a placeholder is an opaque leaf.
func TestPreparedDifferential(t *testing.T) {
	ctx := context.Background()
	for _, engine := range []string{repl.EngineInterp, repl.EngineCompiled} {
		t.Run(engine, func(t *testing.T) {
			for _, optimize := range []bool{false, true} {
				name := "unoptimized"
				if optimize {
					name = "optimized"
				}
				t.Run(name, func(t *testing.T) {
					s := diffSession(t)
					if err := s.SetEngine(engine); err != nil {
						t.Fatal(err)
					}
					s.SkipOptimizer = !optimize
					for _, c := range preparedCorpus {
						t.Run(c.name, func(t *testing.T) {
							p, err := s.Prepare(c.tmpl)
							if err != nil {
								t.Fatalf("prepare: %v", err)
							}
							pv, perr := p.Exec(ctx, c.args)
							pc := lastEval(t, s)
							lv, _, lerr := s.QueryCtx(ctx, c.lit)
							lc := lastEval(t, s)

							switch {
							case perr != nil && lerr == nil:
								t.Errorf("prepared errored (%v), literal succeeded (%s)", perr, lv)
							case perr == nil && lerr != nil:
								t.Errorf("literal errored (%v), prepared succeeded (%s)", lerr, pv)
							case perr != nil:
								if perr.Error() != lerr.Error() {
									t.Errorf("error text differs:\nprepared %q\nliteral  %q", perr, lerr)
								}
							default:
								// Optimized, a literal ⊥ producer may fold to an
								// explicit ⊥ whose diagnostic names the fold, while
								// the opaque placeholder form reports the runtime
								// operation; ⊥-ness must still agree.
								if optimize && pv.IsBottom() && lv.IsBottom() {
									break
								}
								if pv.String() != lv.String() {
									t.Errorf("values differ:\nprepared %s\nliteral  %s", pv, lv)
								}
							}
							if !optimize && pc != lc {
								t.Errorf("counters differ:\nprepared %+v\nliteral  %+v", pc, lc)
							}
						})
					}
				})
			}
		})
	}
}

// TestPreparedRepeatedExec: one Prepared, many argument frames — every
// execution matches its own literal substitution (no frame leaks between
// executions of the shared plan).
func TestPreparedRepeatedExec(t *testing.T) {
	ctx := context.Background()
	s := diffSession(t)
	p, err := s.Prepare(`[[ (i * $a + $b) % 31 | \i < 50 ]]`)
	if err != nil {
		t.Fatal(err)
	}
	for a := int64(1); a <= 5; a++ {
		for b := int64(0); b <= 2; b++ {
			pv, err := p.Exec(ctx, map[string]object.Value{"a": object.Nat(a), "b": object.Nat(b)})
			if err != nil {
				t.Fatalf("exec(a=%d, b=%d): %v", a, b, err)
			}
			lit := strings.NewReplacer("$a", object.Nat(a).String(), "$b", object.Nat(b).String()).
				Replace(`[[ (i * $a + $b) % 31 | \i < 50 ]]`)
			lv, _, err := s.QueryCtx(ctx, lit)
			if err != nil {
				t.Fatalf("literal %q: %v", lit, err)
			}
			if pv.String() != lv.String() {
				t.Errorf("a=%d b=%d: prepared %s != literal %s", a, b, pv, lv)
			}
		}
	}
}

// TestPreparedEpochInvalidation: a val rebinding after Prepare must be
// visible to the next Exec — the statement transparently re-prepares when
// the environment epoch moves, mirroring the server plan cache's epoch
// keying.
func TestPreparedEpochInvalidation(t *testing.T) {
	ctx := context.Background()
	s := diffSession(t)
	if _, err := s.Exec(`val N = 10;`); err != nil {
		t.Fatal(err)
	}
	p, err := s.Prepare(`N + $a`)
	if err != nil {
		t.Fatal(err)
	}
	v, err := p.Exec(ctx, map[string]object.Value{"a": object.Nat(5)})
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "15" {
		t.Fatalf("before rebind: got %s, want 15", v)
	}
	if _, err := s.Exec(`val N = 100;`); err != nil {
		t.Fatal(err)
	}
	v, err = p.Exec(ctx, map[string]object.Value{"a": object.Nat(5)})
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "105" {
		t.Fatalf("after rebind: got %s, want 105 (stale plan served?)", v)
	}
}

// TestPreparedBindErrors: strict binding — unbound placeholder, stray
// argument, and type mismatch are all *repl.BindError raised before any
// evaluation.
func TestPreparedBindErrors(t *testing.T) {
	ctx := context.Background()
	s := diffSession(t)
	p, err := s.Prepare(`$n + A[$i]`)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args map[string]object.Value
		want string
	}{
		{"missing", map[string]object.Value{"n": object.Nat(1)},
			"missing argument for parameter $i"},
		{"unknown", map[string]object.Value{"n": object.Nat(1), "i": object.Nat(2), "zz": object.Nat(3)},
			`argument "zz" does not name a parameter`},
		{"mismatch", map[string]object.Value{"n": object.Nat(1), "i": object.String_("x")},
			"argument $i: expected nat, got string"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := p.Exec(ctx, c.args)
			var be *repl.BindError
			if !errors.As(err, &be) {
				t.Fatalf("err = %v, want *repl.BindError", err)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %q, want substring %q", err, c.want)
			}
		})
	}
	// A well-typed frame still works after the failures.
	v, err := p.Exec(ctx, map[string]object.Value{"n": object.Nat(10), "i": object.Nat(0)})
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "11" {
		t.Fatalf("got %s, want 11", v)
	}
}

// TestPreparedTypeInference: placeholder types are solved at prepare time;
// a template whose placeholder usages conflict is a prepare-time type
// error, not a runtime surprise.
func TestPreparedTypeInference(t *testing.T) {
	s := diffSession(t)
	p, err := s.Prepare(`[[ A[i] | \i < $n ]]`)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Params["n"].String(); got != "nat" {
		t.Errorf("inferred $n : %s, want nat", got)
	}
	if _, err := s.Prepare(`($x + 1, $x = "s")`); err == nil {
		t.Error("conflicting placeholder usages prepared without error")
	}
}

// TestStmtGoBinding: the public API converts Go natives to complex objects
// with typed failures for values AQL cannot represent.
func TestStmtGoBinding(t *testing.T) {
	ctx := context.Background()
	s, err := NewSession()
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Prepare(`[[ i * $a | \i < $n ]]`)
	if err != nil {
		t.Fatal(err)
	}
	if names := st.ParamNames(); len(names) != 2 || names[0] != "a" || names[1] != "n" {
		t.Fatalf("ParamNames = %v, want [a n]", names)
	}
	v, err := st.Exec(ctx, map[string]any{"a": 3, "n": int64(4)})
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != `[[0, 3, 6, 9]]` {
		t.Fatalf("got %s, want [[0, 3, 6, 9]]", v)
	}

	var be *BindError
	if _, err := st.Exec(ctx, map[string]any{"a": -1, "n": 4}); !errors.As(err, &be) {
		t.Errorf("negative int: err = %v, want *BindError", err)
	}
	// Unsigned values beyond the largest nat name their argument; the
	// largest nat itself binds.
	for _, big := range []any{uint64(1) << 63, uint64(math.MaxUint64), uint(1) << 63} {
		if _, err := st.Exec(ctx, map[string]any{"a": big, "n": 4}); !errors.As(err, &be) || be.Name != "a" {
			t.Errorf("%T %v: err = %v, want *BindError naming $a", big, big, err)
		}
	}
	if v, err := st.Exec(ctx, map[string]any{"a": uint64(math.MaxInt64), "n": uint(1)}); err != nil || v.String() != `[[0]]` {
		t.Errorf("largest nat: got %v, %v; want [[0]]", v, err)
	}
	if _, err := st.Exec(ctx, map[string]any{"a": struct{}{}, "n": 4}); !errors.As(err, &be) {
		t.Errorf("unrepresentable type: err = %v, want *BindError", err)
	}
	if _, err := st.Exec(ctx, map[string]any{"a": 2.5, "n": 4}); !errors.As(err, &be) {
		t.Errorf("real where nat inferred: err = %v, want *BindError", err)
	}

	// Value passthrough and float/string/bool conversion.
	st2, err := s.Prepare(`($x, $s, $b)`)
	if err != nil {
		t.Fatal(err)
	}
	v, err = st2.Exec(ctx, map[string]any{"x": 2.5, "s": "hi", "b": true})
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != `(2.5, "hi", true)` {
		t.Fatalf("got %s, want (2.5, \"hi\", true)", v)
	}
}

// TestPreparedInterpUnbound pins the unbound-parameter error's laziness and
// text on the interpreter: only evaluated placeholders fail, with the same
// message the compiled engine produces.
func TestPreparedInterpUnbound(t *testing.T) {
	s := diffSession(t)
	if err := s.SetEngine(repl.EngineInterp); err != nil {
		t.Fatal(err)
	}
	ev := eval.New(s.Env.Globals())
	core, _, err := s.Compile(`if false then $x else 42`)
	if err != nil {
		t.Fatal(err)
	}
	v, err := ev.EvalExpr(context.Background(), core)
	if err != nil {
		t.Fatalf("untaken branch with unbound placeholder failed: %v", err)
	}
	if v.String() != "42" {
		t.Fatalf("got %s, want 42", v)
	}
	core, _, err = s.Compile(`$x + 1`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.EvalExpr(context.Background(), core); err == nil ||
		!strings.Contains(err.Error(), "unbound parameter $x") {
		t.Fatalf("err = %v, want unbound parameter $x", err)
	}
}

// TestStmtExecReport: through the public API, what an Exec cost is in
// LastReport. A repeated Exec is one eval phase (the `it` binding each Exec
// ends with moves EnvEpoch but keeps the plan); an Exec after a SetVal of a
// global the statement reads shows the re-preparation it paid for.
func TestStmtExecReport(t *testing.T) {
	ctx := context.Background()
	s, err := NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`val A = [[ i * 2 | \i < 10 ]];`); err != nil {
		t.Fatal(err)
	}
	st, err := s.Prepare(`A[$i] + $k`)
	if err != nil {
		t.Fatal(err)
	}
	phases := func() string {
		t.Helper()
		if _, err := st.Exec(ctx, map[string]any{"i": 3, "k": 1}); err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, p := range s.LastReport().Phases {
			names = append(names, p.Name)
		}
		return strings.Join(names, " ")
	}
	phases()
	epoch := s.EnvEpoch()
	if got := phases(); got != trace.PhaseEval {
		t.Errorf("second Exec's phases = %q, want only %q", got, trace.PhaseEval)
	}
	if got := s.EnvEpoch(); got != epoch+1 {
		t.Errorf("EnvEpoch moved by %d over one Exec, want 1", got-epoch)
	}
	if err := s.SetVal("A", object.NatVector(0, 0, 0, 5)); err != nil {
		t.Fatal(err)
	}
	if got := phases(); !strings.Contains(got, trace.PhaseParse) || !strings.HasSuffix(got, trace.PhaseEval) {
		t.Errorf("Exec after SetVal has phases %q, want a re-preparation then eval", got)
	}
}
