// Span-profiling overhead: the off level must cost nothing (a program runs
// the same unprofiled closures at off whatever levels it has run at) and
// the sampled level must stay within its 10% budget on the
// tabulation-heavy e19 workload.
package aql

import (
	"context"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/aqldb/aql/internal/bench"
	"github.com/aqldb/aql/internal/compile"
	"github.com/aqldb/aql/internal/cost"
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/trace"
)

// BenchmarkSpanOverhead times executions of one compiled program of the
// pure-tabulation workload at each profiling level; compare the
// sub-benchmarks to read the per-level cost directly from one run.
func BenchmarkSpanOverhead(b *testing.B) {
	s := bench.MustSession()
	core, _, err := s.Compile(`[[ (i*i + 7) % 93 | \i < 300000 ]]`)
	if err != nil {
		b.Fatal(err)
	}
	p := compile.NewProgram(core, s.Env.Globals(), eval.Limits{})
	for _, level := range []eval.ProfLevel{eval.ProfOff, eval.ProfSampled, eval.ProfFull} {
		b.Run(level.String(), func(b *testing.B) {
			ctx := context.Background()
			var out compile.Outcome
			for i := 0; i < b.N; i++ {
				if _, err := p.Run(ctx, compile.ExecOpts{Level: level}, &out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSpanOverheadSmoke enforces the profiling cost budgets on the e19
// pure-tabulation workload, as the median of per-round ratios of adjacent
// runs within one process, so machine speed and its drift divide out:
//
//   - "off", a program at off that has run at full, within offBound of
//     "baseline", an identical program that never ran profiled (catches
//     instrumentation that a profiled execution leaves behind for later
//     unprofiled ones), and
//   - "sampled" within 10% of "off" (the sampling budget).
//
// Each round runs the profiled program at full, then baseline, off and
// sampled, in reverse order every other round, so each ratio is of two
// neighbouring runs and neither side of a pair always goes first. Every
// timed run starts after a collection, so no run inherits another's
// garbage, and runs with the default worker count, as a query does.
//
// Timing gates are meaningless under the race detector and too noisy to
// run on every `go test`, so the test only runs when AQL_SPAN_SMOKE=1 —
// CI's bench-smoke job sets it.
func TestSpanOverheadSmoke(t *testing.T) {
	if os.Getenv("AQL_SPAN_SMOKE") == "" {
		t.Skip("set AQL_SPAN_SMOKE=1 to run the span-overhead gate")
	}
	s := bench.MustSession()
	core, _, err := s.Compile(`[[ (i*i + 7) % 93 | \i < 200000 ]]`)
	if err != nil {
		t.Fatal(err)
	}
	base := compile.NewProgram(core, s.Env.Globals(), eval.Limits{})
	p := compile.NewProgram(core, s.Env.Globals(), eval.Limits{})
	ctx := context.Background()
	measure := func(p *compile.Program, level eval.ProfLevel) float64 {
		var out compile.Outcome
		runtime.GC()
		t0 := time.Now()
		if _, err := p.Run(ctx, compile.ExecOpts{Level: level}, &out); err != nil {
			t.Fatal(err)
		}
		return float64(time.Since(t0))
	}

	// offBound is the spread once measured of off against baseline, not a
	// budget: the two run the very same closures, yet over 50 runs on a
	// shared 2-core x86-64 VM their best-of-24 ratio ranged 0.90–1.16 (a 2%
	// bound failed 3 and 4 of 10 runs); the median pair ratio of 20 runs
	// ranged 0.97–1.03. Wrappers that a profiled run left
	// behind would cost off what full costs, several times baseline, which
	// this still catches; that off records nothing is asserted exactly by
	// TestProfOffNoInstrumentation.
	const rounds, offBound, sampledBound = 24, 1.16, 1.10
	offRatios, sampledRatios := make([]float64, rounds), make([]float64, rounds)
	for r := range rounds {
		measure(p, eval.ProfFull)
		var b, off, sampled float64
		if r%2 == 0 {
			b = measure(base, eval.ProfOff)
			off = measure(p, eval.ProfOff)
			sampled = measure(p, eval.ProfSampled)
		} else {
			sampled = measure(p, eval.ProfSampled)
			off = measure(p, eval.ProfOff)
			b = measure(base, eval.ProfOff)
		}
		offRatios[r], sampledRatios[r] = off/b, sampled/off
	}
	offRatio, sampledRatio := median(offRatios), median(sampledRatios)
	t.Logf("median ratios over %d rounds: off %.3fx baseline, sampled %.3fx off", rounds, offRatio, sampledRatio)
	if offRatio > offBound {
		t.Errorf("profiling-off overhead %.1f%% exceeds the %.0f%% bound", 100*(offRatio-1), 100*(offBound-1))
	}
	if sampledRatio > sampledBound {
		t.Errorf("sampled-profiling overhead %.1f%% exceeds the %.0f%% budget", 100*(sampledRatio-1), 100*(sampledBound-1))
	}
}

// median returns the middle value of xs (the mean of the middle two when
// their number is even), reordering xs.
func median[T float64 | time.Duration](xs []T) T {
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// TestExplainJoinOverheadSmoke gates what :explain analyze adds to a
// full-profile run: joining the prepare-time estimate rows against the
// span tree may cost at most 10% of the profiled evaluation itself. The
// join is timed on its own, against the run that recorded the spans it
// joins; the gate compares the median of each over the rounds. Behind the
// same AQL_SPAN_SMOKE=1 as TestSpanOverheadSmoke. The estimates are built
// once outside the loop, as a plan builds them once on first use and keeps
// them for every later execution.
func TestExplainJoinOverheadSmoke(t *testing.T) {
	if os.Getenv("AQL_SPAN_SMOKE") == "" {
		t.Skip("set AQL_SPAN_SMOKE=1 to run the explain-join overhead gate")
	}
	for _, w := range []struct{ name, query string }{
		{"matmul", `[[ summap(fn \k => A[i,k] * B[k,j])!(gen!n) | \i < n, \j < n ]]`},
		{"puretab", `[[ (i*i + 7) % 93 | \i < 100000 ]]`},
	} {
		s := bench.MustSession()
		if err := s.SetProfiling("full"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Exec(bench.EngineSetup); err != nil {
			t.Fatal(err)
		}
		core, _, err := s.Compile(w.query)
		if err != nil {
			t.Fatal(err)
		}
		core = s.Optimize(core)
		est := cost.Estimate(core, s.Env.Globals())
		const rounds = 12
		runs, joins := make([]time.Duration, rounds), make([]time.Duration, rounds)
		for r := range rounds {
			rep := s.OpenReport(w.name)
			t0 := time.Now()
			err := evalReported(s, rep, core)
			t1 := time.Now()
			rep.Explain = trace.JoinEstimates(est, rep, 0)
			runs[r], joins[r] = t1.Sub(t0), time.Since(t1)
			s.FinishReport(rep, err)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Explain == nil {
				t.Fatalf("%s: no explain table joined", w.name)
			}
		}
		run, join := median(runs), median(joins)
		share := float64(join) / float64(run)
		t.Logf("%s: medians over %d rounds: full prof %v, join %v (%.3f%%)", w.name, rounds, run, join, 100*share)
		if share > 0.10 {
			t.Errorf("%s: estimate join adds %.1f%% at prof level full, budget 10%%", w.name, 100*share)
		}
	}
}
