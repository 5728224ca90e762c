// Span-profiling overhead: the off level must cost nothing (a program runs
// the same unprofiled closures at off whatever levels it has run at) and
// the sampled level must stay within its 10% budget on the
// tabulation-heavy e19 workload.
package aql

import (
	"context"
	"os"
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
// pure-tabulation workload, best-of-N within one process so machine speed
// divides out. All three configurations execute one compiled program:
//
//   - "off", timed after the program has run at full, within offBound of
//     "baseline", the same program at off (catches instrumentation that a
//     profiled execution leaves behind for later unprofiled ones), and
//   - "sampled" within 10% of "off" (the sampling budget).
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
	p := compile.NewProgram(core, s.Env.Globals(), eval.Limits{})
	ctx := context.Background()
	measure := func(level eval.ProfLevel) time.Duration {
		var out compile.Outcome
		t0 := time.Now()
		if _, err := p.Run(ctx, compile.ExecOpts{Level: level}, &out); err != nil {
			t.Fatal(err)
		}
		return time.Since(t0)
	}

	// Interleave rounds and keep per-config minima: the minimum of many
	// runs of identical code converges, so the ratios gate real overhead,
	// not scheduler noise. Stop early once both gates pass.
	//
	// offBound is the measured spread of that minimum, not a budget: off and
	// baseline run the very same closures, yet over 50 runs on a shared
	// 2-core x86-64 VM their ratio ranged 0.90–1.16 (a 2% bound failed 3
	// and 4 of 10 runs). Wrappers that a profiled run left behind would cost
	// off what full costs, several times baseline, which this still catches;
	// that off records nothing is asserted exactly by
	// TestProfOffNoInstrumentation.
	const maxRounds, offBound = 24, 1.16
	baseMin, offMin, sampledMin := time.Duration(1<<62), time.Duration(1<<62), time.Duration(1<<62)
	for r := 0; r < maxRounds; r++ {
		baseMin = min(baseMin, measure(eval.ProfOff))
		measure(eval.ProfFull)
		offMin = min(offMin, measure(eval.ProfOff))
		sampledMin = min(sampledMin, measure(eval.ProfSampled))
		if r >= 4 &&
			float64(offMin) <= offBound*float64(baseMin) &&
			float64(sampledMin) <= 1.10*float64(offMin) {
			break
		}
	}
	t.Logf("baseline %v, off %v (%.3fx), sampled %v (%.3fx vs off)",
		baseMin, offMin, float64(offMin)/float64(baseMin),
		sampledMin, float64(sampledMin)/float64(offMin))
	if float64(offMin) > offBound*float64(baseMin) {
		t.Errorf("profiling-off overhead %.1f%% exceeds the %.0f%% bound",
			100*(float64(offMin)/float64(baseMin)-1), 100*(offBound-1))
	}
	if float64(sampledMin) > 1.10*float64(offMin) {
		t.Errorf("sampled-profiling overhead %.1f%% exceeds the 10%% budget",
			100*(float64(sampledMin)/float64(offMin)-1))
	}
}

// TestExplainJoinOverheadSmoke gates what :explain analyze adds to a
// full-profile run: joining the prepare-time estimate rows against the
// span tree may cost at most 10% of the profiled evaluation itself. Same
// shape as TestSpanOverheadSmoke (interleaved, best-of-N, one process) and
// behind the same AQL_SPAN_SMOKE=1. The estimates are built once
// outside the loop, as a plan builds them once on first use and keeps them for
// every later execution, so the timed difference is the join alone.
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
		measure := func(join bool) time.Duration {
			rep := s.OpenReport(w.name)
			t0 := time.Now()
			err := evalReported(s, rep, core)
			if join {
				rep.Explain = trace.JoinEstimates(est, rep, 0)
			}
			d := time.Since(t0)
			s.FinishReport(rep, err)
			if err != nil {
				t.Fatal(err)
			}
			if join && rep.Explain == nil {
				t.Fatalf("%s: no explain table joined", w.name)
			}
			return d
		}
		const maxRounds = 12
		bare, joined := time.Duration(1<<62), time.Duration(1<<62)
		for r := 0; r < maxRounds; r++ {
			bare = min(bare, measure(false))
			joined = min(joined, measure(true))
			if r >= 2 && float64(joined) <= 1.10*float64(bare) {
				break
			}
		}
		t.Logf("%s: full prof %v, with join %v (%.3fx)", w.name, bare, joined, float64(joined)/float64(bare))
		if float64(joined) > 1.10*float64(bare) {
			t.Errorf("%s: estimate join adds %.1f%% at prof level full, budget 10%%",
				w.name, 100*(float64(joined)/float64(bare)-1))
		}
	}
}
