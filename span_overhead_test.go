// Span-profiling overhead: the off level must cost nothing (its closures
// are byte-identical to unprofiled compilation) and the sampled level must
// stay within its 10% budget on the tabulation-heavy e19 workload.
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
)

// BenchmarkSpanOverhead times the compiled engine on the pure-tabulation
// workload at each profiling level; compare the sub-benchmarks to read the
// per-level cost directly from one run.
func BenchmarkSpanOverhead(b *testing.B) {
	s := bench.MustSession()
	core, _, err := s.Compile(`[[ (i*i + 7) % 93 | \i < 300000 ]]`)
	if err != nil {
		b.Fatal(err)
	}
	globals := s.Env.Globals()
	for _, level := range []eval.ProfLevel{eval.ProfOff, eval.ProfSampled, eval.ProfFull} {
		b.Run(level.String(), func(b *testing.B) {
			ce := compile.New(globals)
			ce.SetProfiling(level)
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ce.EvalExpr(ctx, core); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSpanOverheadSmoke enforces the profiling cost budgets on the e19
// pure-tabulation workload, best-of-N within one process so machine speed
// divides out:
//
//   - "off" within 2% of an engine whose profiling API was never touched
//     (catches any failure to fully de-instrument after full→off), and
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
	globals := s.Env.Globals()
	ctx := context.Background()

	baseline := compile.New(globals) // profiling never enabled
	off := compile.New(globals)      // enabled, then switched back off
	off.SetProfiling(eval.ProfFull)
	off.SetProfiling(eval.ProfOff)
	sampled := compile.New(globals)
	sampled.SetProfiling(eval.ProfSampled)

	measure := func(ce *compile.Engine) time.Duration {
		t0 := time.Now()
		if _, err := ce.EvalExpr(ctx, core); err != nil {
			t.Fatal(err)
		}
		return time.Since(t0)
	}
	min := func(a, b time.Duration) time.Duration {
		if b < a {
			return b
		}
		return a
	}

	// Interleave rounds and keep per-config minima: the minimum of many
	// runs of identical code converges, so the ratios gate real overhead,
	// not scheduler noise. Stop early once both gates pass.
	const maxRounds = 24
	baseMin, offMin, sampledMin := time.Duration(1<<62), time.Duration(1<<62), time.Duration(1<<62)
	for r := 0; r < maxRounds; r++ {
		baseMin = min(baseMin, measure(baseline))
		offMin = min(offMin, measure(off))
		sampledMin = min(sampledMin, measure(sampled))
		if r >= 4 &&
			float64(offMin) <= 1.02*float64(baseMin) &&
			float64(sampledMin) <= 1.10*float64(offMin) {
			break
		}
	}
	t.Logf("baseline %v, off %v (%.3fx), sampled %v (%.3fx vs off)",
		baseMin, offMin, float64(offMin)/float64(baseMin),
		sampledMin, float64(sampledMin)/float64(offMin))
	if float64(offMin) > 1.02*float64(baseMin) {
		t.Errorf("profiling-off overhead %.1f%% exceeds the 2%% budget",
			100*(float64(offMin)/float64(baseMin)-1))
	}
	if float64(sampledMin) > 1.10*float64(offMin) {
		t.Errorf("sampled-profiling overhead %.1f%% exceeds the 10%% budget",
			100*(float64(sampledMin)/float64(offMin)-1))
	}
}

// TestExplainJoinOverheadSmoke gates what :explain analyze adds to a
// full-profile run: joining the prepare-time estimate tree against the
// span tree may cost at most 10% of the profiled evaluation itself. Same
// shape as TestSpanOverheadSmoke (interleaved, best-of-N, one process) and
// behind the same AQL_SPAN_SMOKE=1. The estimate tree is built once
// outside the loop, as a server builds it at prepare time, so the timed
// difference is the join alone.
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
			s.Trace.Begin(w.name)
			t0 := time.Now()
			_, err := s.Eval(core)
			if join {
				s.Trace.JoinExplain(est, 0)
			}
			d := time.Since(t0)
			rep := s.Trace.End(err)
			if err != nil {
				t.Fatal(err)
			}
			if join && (rep == nil || rep.Explain == nil) {
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
