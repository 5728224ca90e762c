// Benchmarks regenerating every measurable claim of the paper, one bench
// per experiment of DESIGN.md's index (E4, E6-E11, E15, E17, E19 and the
// ablations). Absolute numbers depend on the machine; the shapes — who
// wins, by what factor, where the asymptotics separate — are the
// reproduction targets recorded in EXPERIMENTS.md, whose machine-independent
// column is the steps/op metric every evaluation loop here reports.
package aql

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/bench"
	"github.com/aqldb/aql/internal/compile"
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/netcdf"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/opt"
	"github.com/aqldb/aql/internal/repl"
	"github.com/aqldb/aql/internal/trace"
)

// evalLoop compiles src once (optionally optimizing) and times evaluation.
func evalLoop(b *testing.B, s *repl.Session, src string, optimize bool) {
	b.Helper()
	core, _, err := s.Compile(src)
	if err != nil {
		b.Fatal(err)
	}
	evalASTLoop(b, s, core, optimize)
}

// evalASTLoop times evaluation of a prebuilt core expression and reports
// the evaluator steps one evaluation charges.
func evalASTLoop(b *testing.B, s *repl.Session, core ast.Expr, optimize bool) {
	b.Helper()
	if optimize {
		core = s.Env.Optimizer.Optimize(core)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Eval(core); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(s.LastSteps.Load()), "steps/op")
}

// --- E4: the motivating query -------------------------------------------------

func BenchmarkE4MotivatingQuery(b *testing.B) {
	s := bench.MustSession()
	bench.SetupWeather(s)
	evalLoop(b, s, bench.MotivatingQuery, true)
}

// --- E6: zip is linear with arrays, quadratic as a set join ---------------------

func BenchmarkE6ZipArray(b *testing.B) {
	for _, n := range []int{100, 200, 400, 800} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := bench.MustSession()
			bench.SetupZip(s, n)
			evalLoop(b, s, bench.ZipArrayQuery, true)
		})
	}
}

func BenchmarkE6ZipViaSets(b *testing.B) {
	for _, n := range []int{100, 200, 400, 800} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := bench.MustSession()
			bench.SetupZip(s, n)
			evalLoop(b, s, bench.ZipSetsQuery, true)
		})
	}
}

// --- E7: hist is O(n·m); hist' via index is O(m + n log n) ----------------------

var histSizes = []struct{ n, m int }{{100, 100}, {100, 400}, {100, 1600}, {400, 400}, {400, 1600}}

func BenchmarkE7Hist(b *testing.B) {
	for _, sz := range histSizes {
		b.Run(fmt.Sprintf("n=%d/m=%d", sz.n, sz.m), func(b *testing.B) {
			s := bench.MustSession()
			if _, err := s.Exec(bench.HistMacros); err != nil {
				b.Fatal(err)
			}
			bench.SetupHist(s, sz.n, sz.m)
			evalLoop(b, s, "hist!A", true)
		})
	}
}

func BenchmarkE7HistIndex(b *testing.B) {
	for _, sz := range histSizes {
		b.Run(fmt.Sprintf("n=%d/m=%d", sz.n, sz.m), func(b *testing.B) {
			s := bench.MustSession()
			if _, err := s.Exec(bench.HistMacros); err != nil {
				b.Fatal(err)
			}
			bench.SetupHist(s, sz.n, sz.m)
			evalLoop(b, s, "hist'!A", true)
		})
	}
}

// --- E8: literal arrays: monoid append vs row-major construct -------------------

func BenchmarkE8AppendLiteral(b *testing.B) {
	for _, n := range []int{50, 100, 200, 400} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := bench.MustSession()
			// Evaluate un-normalized: the claim is about the literal's
			// construction cost, which clever fusion would mask.
			evalASTLoop(b, s, bench.AppendChainExpr(n), false)
		})
	}
}

func BenchmarkE8RowMajorLiteral(b *testing.B) {
	for _, n := range []int{50, 100, 200, 400} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := bench.MustSession()
			evalASTLoop(b, s, bench.RowMajorExpr(n), false)
		})
	}
}

// --- E9: β^p, η^p, δ^p avoid materialization ------------------------------------

func BenchmarkE9BetaP(b *testing.B) {
	const n = 100000
	for _, opt := range []bool{false, true} {
		b.Run(fmt.Sprintf("optimized=%v", opt), func(b *testing.B) {
			s := bench.MustSession()
			evalASTLoop(b, s, bench.BetaPExpr(n), opt)
		})
	}
}

func BenchmarkE9EtaP(b *testing.B) {
	const n = 100000
	for _, opt := range []bool{false, true} {
		b.Run(fmt.Sprintf("optimized=%v", opt), func(b *testing.B) {
			s := bench.MustSession()
			bench.SetupVector(s, n)
			evalASTLoop(b, s, bench.EtaPExpr(), opt)
		})
	}
}

func BenchmarkE9DeltaP(b *testing.B) {
	const n = 100000
	for _, opt := range []bool{false, true} {
		b.Run(fmt.Sprintf("optimized=%v", opt), func(b *testing.B) {
			s := bench.MustSession()
			evalASTLoop(b, s, bench.DeltaPExpr(n), opt)
		})
	}
}

// --- E10: fused transpose ----------------------------------------------------------

func BenchmarkE10Transpose(b *testing.B) {
	for _, opt := range []bool{false, true} {
		b.Run(fmt.Sprintf("optimized=%v", opt), func(b *testing.B) {
			s := bench.MustSession()
			bench.SetupTranspose(s, 300, 300)
			evalLoop(b, s, bench.TransposeQuery, opt)
		})
	}
}

// --- E11: the two zip/subseq orders cost the same after normalization ----------------

func BenchmarkE11ZipSubseq(b *testing.B) {
	const n = 4000
	for _, tc := range []struct{ name, query string }{
		{"zip_then_subseq", bench.ZipThenSubseqQuery},
		{"subseq_then_zip", bench.SubseqThenZipQuery},
	} {
		b.Run(tc.name, func(b *testing.B) {
			s := bench.MustSession()
			bench.SetupZipSubseq(s, n)
			evalLoop(b, s, tc.query, true)
		})
	}
}

// --- E19: execution engines -----------------------------------------------------------

// BenchmarkE19TabulateEngines times the tabulation-heavy workloads under
// the tree-walking interpreter and the compiled engine. The acceptance
// target for the compiled engine is >=2x on the pure-tabulation workload;
// CI's bench-smoke job gates compiled <= interp on the same two workloads
// through compile.exec_ns_per_cell.* vs eval.interp_ns_per_cell.* of a
// traced dense_compute run (benchmarks/).
func BenchmarkE19TabulateEngines(b *testing.B) {
	workloads := []struct{ name, query string }{
		{"puretab", bench.PureTabQuery},
		{"matmul", bench.MatmulQuery},
	}
	for _, w := range workloads {
		for _, eng := range []string{repl.EngineInterp, repl.EngineCompiled} {
			b.Run(fmt.Sprintf("%s/engine=%s", w.name, eng), func(b *testing.B) {
				s := bench.MustSession()
				if err := s.SetEngine(eng); err != nil {
					b.Fatal(err)
				}
				if _, err := s.Exec(bench.EngineSetup); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.Exec(w.query); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(s.LastSteps.Load()), "steps/op")
			})
		}
	}
}

// --- E15: NetCDF subslab reads --------------------------------------------------------

func BenchmarkE15NetCDFSubslab(b *testing.B) {
	dir := b.TempDir()
	path := filepath.Join(dir, "bench.nc")
	nb := netcdf.NewBuilder()
	ti, _ := nb.AddDim("time", 2000)
	la, _ := nb.AddDim("lat", 10)
	lo, _ := nb.AddDim("lon", 10)
	data := make([]float64, 2000*10*10)
	for i := range data {
		data[i] = float64(i % 97)
	}
	if err := nb.AddVar("temp", netcdf.Double, []int{ti, la, lo}, nil, data); err != nil {
		b.Fatal(err)
	}
	if err := nb.WriteFile(path); err != nil {
		b.Fatal(err)
	}
	f, err := netcdf.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	// The whole-record slab, the whole variable, and one maximally strided
	// column: the three rows of EXPERIMENTS.md E15 (MB/s from SetBytes).
	for _, count := range [][]int{{720, 10, 10}, {2000, 10, 10}, {2000, 1, 1}} {
		b.Run(fmt.Sprint(count), func(b *testing.B) {
			cells := count[0] * count[1] * count[2]
			b.SetBytes(int64(cells) * 8)
			for i := 0; i < b.N; i++ {
				slab, err := f.ReadSlab("temp", []int{0, 0, 0}, count)
				if err != nil {
					b.Fatal(err)
				}
				if slab.Size() != cells {
					b.Fatal("bad slab")
				}
			}
		})
	}
}

// --- Pipeline overhead: the optimizer itself -------------------------------------------

func BenchmarkOptimizerOnMotivatingQuery(b *testing.B) {
	s := bench.MustSession()
	bench.SetupWeather(s)
	core, _, err := s.Compile(bench.MotivatingQuery)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Env.Optimizer.Optimize(core)
	}
}

// --- End-to-end sanity: the suite runs under `go test` ---------------------------------

// TestBenchWorkloadsAgree cross-checks that the rival implementations in
// each experiment compute the same result, so the benchmarks compare equal
// work.
func TestBenchWorkloadsAgree(t *testing.T) {
	// E6: array zip vs set join agree through the graph encoding.
	s := bench.MustSession()
	bench.SetupZip(s, 64)
	za, _, err := s.Query(bench.ZipArrayQuery)
	if err != nil {
		t.Fatal(err)
	}
	zs, _, err := s.Query(bench.ZipSetsQuery)
	if err != nil {
		t.Fatal(err)
	}
	zaGraph, err := object.Graph(za)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(zaGraph, zs) {
		t.Fatalf("zip mismatch: %s vs %s", zaGraph, zs)
	}

	// E7: the two histograms agree.
	s2 := bench.MustSession()
	if _, err := s2.Exec(bench.HistMacros); err != nil {
		t.Fatal(err)
	}
	bench.SetupHist(s2, 64, 50)
	h1, _, err := s2.Query("hist!A")
	if err != nil {
		t.Fatal(err)
	}
	h2, _, err := s2.Query("hist'!A")
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(h1, h2) {
		t.Fatalf("histograms disagree: %s vs %s", h1, h2)
	}

	// E8: both literal constructions denote the same array.
	s3 := bench.MustSession()
	a1, err := s3.Eval(bench.AppendChainExpr(32))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := s3.Eval(bench.RowMajorExpr(32))
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(a1, a2) {
		t.Fatalf("literals disagree: %s vs %s", a1, a2)
	}

	// E11: both orders give the same slab.
	s4 := bench.MustSession()
	bench.SetupZipSubseq(s4, 128)
	v1, _, err := s4.Query(bench.ZipThenSubseqQuery)
	if err != nil {
		t.Fatal(err)
	}
	v2, _, err := s4.Query(bench.SubseqThenZipQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(v1, v2) {
		t.Fatalf("zip/subseq orders disagree")
	}

	// E9/E10: optimized and unoptimized agree.
	s5 := bench.MustSession()
	bench.SetupTranspose(s5, 12, 9)
	core, _, err := s5.Compile(bench.TransposeQuery)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := s5.Eval(core)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := s5.Eval(s5.Env.Optimizer.Optimize(core))
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(naive, opt) {
		t.Fatal("transpose optimization changed the result")
	}
}

// --- E17: predictive caching for external arrays (section 7 future work) ----------

// BenchmarkE17CachedNetCDF reads maximally strided columns (one cell per
// row) of a 4000x50 variable: directly with ReadSlab, and subscripted out of
// the tile-cache-backed lazy array a session's readval binds.
func BenchmarkE17CachedNetCDF(b *testing.B) {
	dir := b.TempDir()
	path := filepath.Join(dir, "cache.nc")
	nb := netcdf.NewBuilder()
	ti, _ := nb.AddDim("time", 4000)
	la, _ := nb.AddDim("lat", 50)
	data := make([]float64, 4000*50)
	for i := range data {
		data[i] = float64(i % 89)
	}
	if err := nb.AddVar("temp", netcdf.Double, []int{ti, la}, nil, data); err != nil {
		b.Fatal(err)
	}
	if err := nb.WriteFile(path); err != nil {
		b.Fatal(err)
	}
	b.Run("direct", func(b *testing.B) {
		f, err := netcdf.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		defer f.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			slab, err := f.ReadSlab("temp", []int{0, i % 50}, []int{4000, 1})
			if err != nil {
				b.Fatal(err)
			}
			if slab.Size() != 4000 {
				b.Fatal("bad slab")
			}
		}
	})
	b.Run("tiled", func(b *testing.B) {
		s := bench.MustSession()
		defer s.Close()
		if _, err := s.Exec(fmt.Sprintf(`readval \T using NETCDF at (%q, "temp");`, path)); err != nil {
			b.Fatal(err)
		}
		v, _ := s.Env.Val("T")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for r := 0; r < 4000; r++ {
				if _, err := v.CellAtCtx(context.Background(), r*50+i%50); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// --- Ablation: what each optimizer phase buys ---------------------------------------

// BenchmarkAblationPhases evaluates the motivating query with no optimizer,
// the normalization phase only, and the full three-phase pipeline —
// quantifying DESIGN.md's phase-structure choice.
func BenchmarkAblationPhases(b *testing.B) {
	variants := []struct {
		name string
		mk   func() *opt.Optimizer
	}{
		{"none", nil},
		{"normalize-only", func() *opt.Optimizer { return &opt.Optimizer{Phases: opt.New().Phases[:1]} }},
		{"full", opt.New},
	}
	for _, variant := range variants {
		b.Run(variant.name, func(b *testing.B) {
			s := bench.MustSession()
			bench.SetupWeather(s)
			core, _, err := s.Compile(bench.MotivatingQuery)
			if err != nil {
				b.Fatal(err)
			}
			if variant.mk != nil {
				core = variant.mk().Optimize(core)
			}
			evalASTLoop(b, s, core, false)
		})
	}
}

// BenchmarkAblationBetaGuard shows why β is guarded against work
// duplication: a hoisted expensive binding used inside a loop must stay
// hoisted. "guarded" is the shipping optimizer; "unguarded" simulates full
// β by substituting the binding through.
func BenchmarkAblationBetaGuard(b *testing.B) {
	mkQuery := func() ast.Expr {
		// (λh. [[ count(h[i]) | i < len h ]])(index_1(...1000 pairs...))
		pairs := &ast.BigUnion{
			Head: &ast.Singleton{Elem: &ast.Tuple{Elems: []ast.Expr{
				&ast.Arith{Op: ast.OpMod, L: &ast.Var{Name: "j"}, R: &ast.NatLit{Val: 50}},
				&ast.Var{Name: "j"}}}},
			Var:  "j",
			Over: &ast.Gen{N: &ast.NatLit{Val: 1000}},
		}
		body := &ast.ArrayTab{
			Head: &ast.App{Fn: &ast.Var{Name: "count"},
				Arg: &ast.Subscript{Arr: &ast.Var{Name: "h"}, Index: &ast.Var{Name: "i"}}},
			Idx:    []string{"i"},
			Bounds: []ast.Expr{&ast.Dim{K: 1, Arr: &ast.Var{Name: "h"}}},
		}
		return &ast.App{
			Fn:  &ast.Lam{Param: "h", Body: body},
			Arg: &ast.Index{K: 1, Set: pairs},
		}
	}
	b.Run("guarded", func(b *testing.B) {
		evalASTLoop(b, bench.MustSession(), mkQuery(), true)
	})
	b.Run("unguarded", func(b *testing.B) {
		q := mkQuery().(*ast.App)
		inlined := ast.Subst(q.Fn.(*ast.Lam).Body, "h", q.Arg)
		evalASTLoop(b, bench.MustSession(), inlined, true)
	})
}

// BenchmarkGuardrailOverhead measures the cost of the execution guardrails
// (amortized cancellation checks, step/cell accounting) against the same
// query run with no limits and no context. The target is <5% on the
// guarded path: the hot loop pays two integer compares per node plus one
// ctx.Err() every 256 steps.
func BenchmarkGuardrailOverhead(b *testing.B) {
	const src = `summap(fn \i => i*i)!(gen!10000)`
	b.Run("baseline", func(b *testing.B) {
		s := bench.MustSession()
		core, _, err := s.Compile(src)
		if err != nil {
			b.Fatal(err)
		}
		core = s.Env.Optimizer.Optimize(core)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Eval(core); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("guardrails", func(b *testing.B) {
		s := bench.MustSession()
		s.Limits = eval.Limits{
			MaxSteps: 1 << 40,
			MaxCells: 1 << 40,
			MaxDepth: 1 << 20,
			Timeout:  time.Hour,
		}
		core, _, err := s.Compile(src)
		if err != nil {
			b.Fatal(err)
		}
		core = s.Env.Optimizer.Optimize(core)
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.EvalCtx(ctx, core); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTraceOverhead measures the cost of the observability layer on
// the evaluator's hot path. The evaluator only increments plain int64
// fields (exactly as it already did for steps/cells), and an execution's
// report is written a constant number of times per query, never per step.
// "baseline" evaluates with no report; "disabled" opens and finishes a
// report around each evaluation with recording off, so the report is nil;
// "enabled" evaluates with recording on and no report opened; and
// "enabled-report" builds a report per query — the eval phase span and one
// counter fold — and finishes it into the fleet aggregator and flight
// recorder.
func BenchmarkTraceOverhead(b *testing.B) {
	const src = `summap(fn \i => i*i)!(gen!10000)`
	run := func(b *testing.B, recording, report bool) {
		s := bench.MustSession()
		s.Recording.Store(recording)
		core, _, err := s.Compile(src)
		if err != nil {
			b.Fatal(err)
		}
		core = s.Env.Optimizer.Optimize(core)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !report {
				_, err = s.Eval(core)
			} else {
				rep := s.OpenReport(src)
				err = evalReported(s, rep, core)
				s.FinishReport(rep, err)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("baseline", func(b *testing.B) { run(b, false, false) })
	b.Run("disabled", func(b *testing.B) { run(b, false, true) })
	b.Run("enabled", func(b *testing.B) { run(b, true, false) })
	b.Run("enabled-report", func(b *testing.B) { run(b, true, true) })
}

// evalReported evaluates core as Session.Eval does — lowered under the
// session's limits, one execution behind the session's guard — recorded on
// rep.
func evalReported(s *repl.Session, rep *trace.QueryReport, core ast.Expr) error {
	return s.Guard(context.Background(), rep, "", func(ctx context.Context, w *repl.Work) error {
		w.Engine = repl.EngineCompiled
		prog := compile.NewProgram(core, s.Env.Globals(), s.Limits)
		_, err := prog.Run(ctx, compile.ExecOpts{Limits: s.Limits, Workers: s.Workers, Level: s.Profiling}, &w.Outcome)
		return err
	})
}
