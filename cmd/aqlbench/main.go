// Command aqlbench regenerates the experiment tables recorded in
// EXPERIMENTS.md: one table per experiment of DESIGN.md's index, reporting
// wall-clock time and evaluator steps (a machine-independent work measure)
// for each rival implementation.
//
// Usage:
//
//	aqlbench            run every experiment
//	aqlbench -exp e7    run one experiment (e4, e6, e7, e8, e9, e10, e11, e15, e17, e19, e21, e22, e23, e24, e25, a1)
//	aqlbench -quick     smaller sweeps, for smoke testing
//	aqlbench -report reports.jsonl
//	                    additionally write one trace.QueryReport JSON object
//	                    per timed query (phase times, steps, cells, I/O);
//	                    each line records which execution engine evaluated it
//	aqlbench -engine interp
//	                    run the experiments on the named engine (interp or
//	                    compiled) instead of the session default
//	aqlbench -exp e19 -engjson BENCH_engine.json -failworse
//	                    compare the engines on the tabulation workloads, write
//	                    the comparison as JSON, and fail if compiled is slower
//	                    than interp on the pure-tabulation workload
//	aqlbench -proflevel sampled -report reports.jsonl
//	                    run with operator profiling on, so each emitted report
//	                    carries a span tree attributing time to core operators
//	aqlbench -exp e19 -trajectory BENCH_trajectory.json -stamp v1.4
//	                    append the e19 measurements to the named trajectory
//	                    file (a JSON array, one entry per recorded run); the
//	                    entry label comes from -stamp so runs are reproducible
//	                    and diffable rather than wall-clock-dependent
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/bench"
	"github.com/aqldb/aql/internal/netcdf"
	"github.com/aqldb/aql/internal/opt"
	"github.com/aqldb/aql/internal/repl"
	"github.com/aqldb/aql/internal/trace"
)

var quick = flag.Bool("quick", false, "smaller sweeps")

// reportSink, when set by -report, receives one QueryReport per timed
// query as a line of JSON.
var reportSink trace.Sink

func main() {
	exp := flag.String("exp", "", "run a single experiment (e4, e6, e7, e8, e9, e10, e11, e15, e17, e19, e21, e22, e23, e24, e25, e26, a1)")
	report := flag.String("report", "", "write per-query trace.QueryReport JSON lines to this file (- for stdout)")
	engine := flag.String("engine", "", "execution engine for the experiments: interp or compiled (default: the session default)")
	engJSON := flag.String("engjson", "", "with e19: write the engine-comparison results as JSON to this file (e.g. BENCH_engine.json)")
	failWorse := flag.Bool("failworse", false, "with e19/e24/e25/e26: exit nonzero if the compiled engine is slower than interp on the pure-tabulation workload, the templated plan-cache hit rate falls below 99%, the estimate join adds more than 10% to a full-profile run, or the out-of-core sequential-scan tile hit rate falls below 90%")
	profLevel := flag.String("proflevel", "off", "operator profiling level for the experiments: off, sampled, or full")
	trajectory := flag.String("trajectory", "", "with e19: append the measurements to this JSON trajectory file (e.g. BENCH_trajectory.json)")
	stamp := flag.String("stamp", "", "label for the -trajectory entry (a version or commit id; kept a flag so runs are reproducible)")
	flag.Parse()
	if *engine != "" {
		bench.Engine = *engine
	}
	bench.Profiling = *profLevel
	if *report != "" {
		w := os.Stdout
		if *report != "-" {
			f, err := os.Create(*report)
			if err != nil {
				fmt.Fprintln(os.Stderr, "aqlbench:", err)
				os.Exit(1)
			}
			defer f.Close()
			w = f
		}
		reportSink = trace.NewJSONSink(w)
	}

	all := []struct {
		id   string
		name string
		run  func()
	}{
		{"e4", "the motivating query (section 1)", runE4},
		{"e6", "zip: arrays O(n) vs set join O(n^2) (section 1)", runE6},
		{"e7", "hist O(n*m) vs hist' O(m + n log n) (section 2)", runE7},
		{"e8", "literal arrays: append chain O(n^2) vs row-major O(n) (section 3)", runE8},
		{"e9", "the array rules beta^p / eta^p / delta^p (section 5)", runE9},
		{"e10", "fused transpose (section 5)", runE10},
		{"e11", "zip-subseq commutation (sections 1 and 5)", runE11},
		{"e19", "execution engines: interp vs compiled on tabulation workloads", runE19},
		{"e21", "query server: cold vs cached-plan latency, sustained QPS", runE21},
		{"e22", "cluster: scatter-gather speedup, hedged straggler tail latency", runE22},
		{"e23", "per-plan stats store: templated workload profiles in /debug/planstats", runE23},
		{"e24", "prepared templates: plan-cache hit rate and latency vs literal substitution", runE24},
		{"e25", "explain analyze: estimate-vs-actual join overhead and estimator accuracy", runE25},
		{"e26", "out-of-core: tiled lazy scan under a cache budget vs eager materialization", runE26},
		{"e15", "NetCDF subslab reads (section 4.1)", runE15},
		{"e17", "predictive caching for strided reads (section 7)", runE17},
		{"a1", "ablation: optimizer phase structure", runA1},
	}
	ran := false
	for _, e := range all {
		if *exp != "" && e.id != *exp {
			continue
		}
		fmt.Printf("## %s — %s\n\n", strings.ToUpper(e.id), e.name)
		e.run()
		fmt.Println()
		ran = true
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "aqlbench: unknown experiment %q\n", *exp)
		os.Exit(1)
	}
	if *engJSON != "" {
		if engResults == nil {
			fmt.Fprintln(os.Stderr, "aqlbench: -engjson requires the e19 experiment to have run")
			os.Exit(1)
		}
		data, err := json.MarshalIndent(engResults, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "aqlbench:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*engJSON, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "aqlbench:", err)
			os.Exit(1)
		}
	}
	if *trajectory != "" {
		if engResults == nil && srvResults == nil && clusterResults == nil && tmplResults == nil && e26Results == nil {
			fmt.Fprintln(os.Stderr, "aqlbench: -trajectory requires the e19, e21, e22, e24 or e26 experiment to have run")
			os.Exit(1)
		}
		if err := appendTrajectory(*trajectory, *stamp, engResults, srvResults, clusterResults, tmplResults); err != nil {
			fmt.Fprintln(os.Stderr, "aqlbench:", err)
			os.Exit(1)
		}
	}
	if *failWorse && engResults != nil {
		for _, eb := range engResults.Benchmarks {
			if eb.Name == "puretab" && eb.Speedup < 1.0 {
				fmt.Fprintf(os.Stderr, "aqlbench: compiled engine slower than interp on %s (%.2fx)\n", eb.Name, eb.Speedup)
				os.Exit(1)
			}
		}
	}
	if *failWorse && tmplResults != nil {
		if tmplResults.TemplatedHitRate < 0.99 {
			fmt.Fprintf(os.Stderr, "aqlbench: templated workload plan-cache hit rate %.1f%%, want >= 99%%\n",
				100*tmplResults.TemplatedHitRate)
			os.Exit(1)
		}
	}
	if *failWorse && e26Results != nil {
		if e26Results.TileHitRate < e26MinHitRate {
			fmt.Fprintf(os.Stderr, "aqlbench: out-of-core sequential-scan tile hit rate %.1f%%, want >= %.0f%%\n",
				100*e26Results.TileHitRate, 100*e26MinHitRate)
			os.Exit(1)
		}
		if e26Results.PeakBytes > e26Results.BudgetBytes {
			fmt.Fprintf(os.Stderr, "aqlbench: out-of-core peak residency %d exceeds budget %d\n",
				e26Results.PeakBytes, e26Results.BudgetBytes)
			os.Exit(1)
		}
	}
	if *failWorse && e25Results != nil {
		for _, eb := range e25Results.Benchmarks {
			if eb.Overhead > e25MaxOverhead {
				fmt.Fprintf(os.Stderr, "aqlbench: estimate join adds %.1f%% to %s at prof level full, want <= %.0f%%\n",
					100*eb.Overhead, eb.Name, 100*e25MaxOverhead)
				os.Exit(1)
			}
		}
	}
}

// engineBench is one row of the e19 comparison; ns_per_op figures are the
// best of the measurement repetitions, as in testing.B output.
type engineBench struct {
	Name       string  `json:"name"`
	InterpNs   int64   `json:"interp_ns_per_op"`
	CompiledNs int64   `json:"compiled_ns_per_op"`
	Speedup    float64 `json:"speedup"`
}

// engineReport is the -engjson payload (BENCH_engine.json in CI).
type engineReport struct {
	GOMAXPROCS int           `json:"gomaxprocs"`
	Benchmarks []engineBench `json:"benchmarks"`
}

// engResults holds the e19 measurements for -engjson / -failworse.
var engResults *engineReport

// trajectoryEntry is one recorded run of the engine comparison; the
// trajectory file is a JSON array of these, oldest first, so performance
// history accumulates across runs instead of being overwritten.
type trajectoryEntry struct {
	Stamp      string        `json:"stamp,omitempty"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Profiling  string        `json:"proflevel,omitempty"`
	Benchmarks []engineBench `json:"benchmarks,omitempty"`
	// Server carries the e21 query-server measurements when that
	// experiment ran (cold vs cached-plan latency, sustained QPS).
	Server *serverReport `json:"server,omitempty"`
	// Cluster carries the e22 scatter-gather measurements when that
	// experiment ran (distributed speedup, hedged tail latency).
	Cluster *clusterReport `json:"cluster,omitempty"`
	// Templated carries the e24 prepared-template measurements when that
	// experiment ran (plan-cache hit rate, cached-exec latency).
	Templated *templatedReport `json:"templated,omitempty"`
	// OutOfCore carries the e26 tiled-scan measurements when that
	// experiment ran (tile hit rate, bytes scanned vs. returned).
	OutOfCore *oocReport `json:"ooc,omitempty"`
}

// appendTrajectory appends one entry to the trajectory file, creating it
// (as a one-element array) if absent. A malformed existing file is an
// error rather than silently replaced — the history is the point. Any
// report may be nil; at least one is present (checked by the caller).
func appendTrajectory(path, stamp string, r *engineReport, sr *serverReport, cr *clusterReport, tr *templatedReport) error {
	var entries []trajectoryEntry
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &entries); err != nil {
			return fmt.Errorf("trajectory %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	entry := trajectoryEntry{
		Stamp:      stamp,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Profiling:  bench.Profiling,
		Server:     sr,
		Cluster:    cr,
		Templated:  tr,
		OutOfCore:  e26Results,
	}
	if r != nil {
		entry.GOMAXPROCS = r.GOMAXPROCS
		entry.Benchmarks = r.Benchmarks
	}
	entries = append(entries, entry)
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func runE19() {
	workloads := []struct{ name, query string }{
		{"puretab", bench.PureTabQuery},
		{"matmul", bench.MatmulQuery},
	}
	reps := 5
	if *quick {
		reps = 3
	}
	engResults = &engineReport{GOMAXPROCS: runtime.GOMAXPROCS(0)}
	fmt.Printf("| workload | interp | steps | compiled | steps | speedup |\n|---|---|---|---|---|---|\n")
	for _, w := range workloads {
		var best [2]time.Duration
		var steps [2]int64
		for ei, eng := range []string{repl.EngineInterp, repl.EngineCompiled} {
			s := bench.MustSession()
			if err := s.SetEngine(eng); err != nil {
				panic(err)
			}
			if _, err := s.Exec(bench.EngineSetup); err != nil {
				panic(err)
			}
			for r := 0; r < reps; r++ {
				start := time.Now()
				if _, err := s.Exec(w.query); err != nil {
					fmt.Fprintln(os.Stderr, "aqlbench:", err)
					os.Exit(1)
				}
				d := time.Since(start)
				if r == 0 || d < best[ei] {
					best[ei] = d
				}
				steps[ei] = s.LastSteps.Load()
				if reportSink != nil {
					if rep := s.Trace.Last(); rep != nil {
						reportSink.Emit(rep)
					}
				}
			}
		}
		speedup := float64(best[0]) / float64(best[1])
		fmt.Printf("| %s | %v | %d | %v | %d | %.2fx |\n",
			w.name, best[0].Round(time.Microsecond), steps[0],
			best[1].Round(time.Microsecond), steps[1], speedup)
		engResults.Benchmarks = append(engResults.Benchmarks, engineBench{
			Name:       w.name,
			InterpNs:   best[0].Nanoseconds(),
			CompiledNs: best[1].Nanoseconds(),
			Speedup:    speedup,
		})
	}
}

// timeQuery reports wall time and evaluator steps for one evaluation of a
// compiled query. Each evaluation runs under an open trace report labelled
// for the experiment table, so -report captures phase times and counters
// per timed query.
func timeQuery(s *repl.Session, label string, core ast.Expr) (time.Duration, int64) {
	s.Trace.Begin(label)
	start := time.Now()
	_, err := s.Eval(core)
	d := time.Since(start)
	rep := s.Trace.End(err)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aqlbench:", err)
		os.Exit(1)
	}
	if reportSink != nil && rep != nil {
		reportSink.Emit(rep)
	}
	return d, s.LastSteps.Load()
}

func compile(s *repl.Session, src string, optimize bool) ast.Expr {
	core, _, err := s.Compile(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aqlbench:", err)
		os.Exit(1)
	}
	if optimize {
		core = s.Env.Optimizer.Optimize(core)
	}
	return core
}

func runE4() {
	s := bench.MustSession()
	bench.SetupWeather(s)
	core := compile(s, bench.MotivatingQuery, true)
	d, steps := timeQuery(s, "e4:motivating", core)
	v, err := s.Eval(core)
	if err != nil {
		panic(err)
	}
	fmt.Printf("| result | wall time | evaluator steps |\n|---|---|---|\n")
	fmt.Printf("| %s | %v | %d |\n", v, d.Round(time.Microsecond), steps)
}

func runE6() {
	sizes := []int{100, 200, 400, 800}
	if *quick {
		sizes = []int{100, 200}
	}
	fmt.Printf("| n | zip (arrays) | steps | zip (set join) | steps | slowdown |\n|---|---|---|---|---|---|\n")
	for _, n := range sizes {
		s := bench.MustSession()
		bench.SetupZip(s, n)
		arr := compile(s, bench.ZipArrayQuery, true)
		setj := compile(s, bench.ZipSetsQuery, true)
		dA, stA := timeQuery(s, fmt.Sprintf("e6:zip-arrays n=%d", n), arr)
		dS, stS := timeQuery(s, fmt.Sprintf("e6:zip-sets n=%d", n), setj)
		fmt.Printf("| %d | %v | %d | %v | %d | %.1fx |\n",
			n, dA.Round(time.Microsecond), stA, dS.Round(time.Microsecond), stS,
			float64(dS)/float64(dA))
	}
}

func runE7() {
	sizes := []struct{ n, m int }{{100, 100}, {100, 400}, {100, 1600}, {400, 400}, {400, 1600}}
	if *quick {
		sizes = sizes[:2]
	}
	fmt.Printf("| n | m | hist | steps | hist' | steps | speedup |\n|---|---|---|---|---|---|---|\n")
	for _, sz := range sizes {
		s := bench.MustSession()
		if _, err := s.Exec(bench.HistMacros); err != nil {
			panic(err)
		}
		bench.SetupHist(s, sz.n, sz.m)
		slow := compile(s, "hist!A", true)
		fast := compile(s, "hist'!A", true)
		dS, stS := timeQuery(s, fmt.Sprintf("e7:hist n=%d m=%d", sz.n, sz.m), slow)
		dF, stF := timeQuery(s, fmt.Sprintf("e7:hist' n=%d m=%d", sz.n, sz.m), fast)
		fmt.Printf("| %d | %d | %v | %d | %v | %d | %.1fx |\n",
			sz.n, sz.m, dS.Round(time.Microsecond), stS, dF.Round(time.Microsecond), stF,
			float64(dS)/float64(dF))
	}
}

func runE8() {
	sizes := []int{50, 100, 200, 400}
	if *quick {
		sizes = sizes[:2]
	}
	fmt.Printf("| n | append chain | steps | row-major | steps | ratio |\n|---|---|---|---|---|---|\n")
	for _, n := range sizes {
		s := bench.MustSession()
		chain := bench.AppendChainExpr(n)
		row := bench.RowMajorExpr(n)
		dC, stC := timeQuery(s, fmt.Sprintf("e8:append-chain n=%d", n), chain)
		dR, stR := timeQuery(s, fmt.Sprintf("e8:row-major n=%d", n), row)
		fmt.Printf("| %d | %v | %d | %v | %d | %.1fx |\n",
			n, dC.Round(time.Microsecond), stC, dR.Round(time.Microsecond), stR,
			float64(dC)/float64(dR))
	}
}

func runE9() {
	n := 100000
	if *quick {
		n = 10000
	}
	fmt.Printf("| rule | query | naive steps | optimized steps |\n|---|---|---|---|\n")
	rows := []struct {
		rule string
		q    string
		e    ast.Expr
	}{
		{"beta^p", "[[ i*i | \\i < n ]][n/2]", bench.BetaPExpr(n)},
		{"eta^p", "[[ A[i] | \\i < len A ]]", bench.EtaPExpr()},
		{"delta^p", "len([[ i*i | \\i < n ]])", bench.DeltaPExpr(n)},
	}
	for _, r := range rows {
		s := bench.MustSession()
		bench.SetupVector(s, n)
		_, naive := timeQuery(s, "e9:"+r.rule+" naive", r.e)
		_, opt := timeQuery(s, "e9:"+r.rule+" optimized", s.Env.Optimizer.Optimize(r.e))
		fmt.Printf("| %s | `%s` | %d | %d |\n", r.rule, r.q, naive, opt)
	}
}

func runE10() {
	m, n := 300, 300
	if *quick {
		m, n = 60, 60
	}
	s := bench.MustSession()
	bench.SetupTranspose(s, m, n)
	naive := compile(s, bench.TransposeQuery, false)
	opt := compile(s, bench.TransposeQuery, true)
	dN, stN := timeQuery(s, "e10:transpose naive", naive)
	dO, stO := timeQuery(s, "e10:transpose fused", opt)
	fmt.Printf("| variant | wall time | steps |\n|---|---|---|\n")
	fmt.Printf("| transpose of a %dx%d tabulation, naive | %v | %d |\n", m, n, dN.Round(time.Microsecond), stN)
	fmt.Printf("| same, after normalization (fused) | %v | %d |\n", dO.Round(time.Microsecond), stO)
}

func runE11() {
	n := 4000
	if *quick {
		n = 500
	}
	fmt.Printf("| order | wall time | steps |\n|---|---|---|\n")
	for _, tc := range []struct{ name, q string }{
		{"subseq(zip(A,B))", bench.ZipThenSubseqQuery},
		{"zip(subseq A, subseq B)", bench.SubseqThenZipQuery},
	} {
		s := bench.MustSession()
		bench.SetupZipSubseq(s, n)
		core := compile(s, tc.q, true)
		d, st := timeQuery(s, "e11:"+tc.name, core)
		fmt.Printf("| %s | %v | %d |\n", tc.name, d.Round(time.Microsecond), st)
	}
}

func runE17() {
	dir, err := os.MkdirTemp("", "aqlbench")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "cache.nc")
	nb := netcdf.NewBuilder()
	ti, _ := nb.AddDim("time", 4000)
	la, _ := nb.AddDim("lat", 50)
	data := make([]float64, 4000*50)
	for i := range data {
		data[i] = float64(i % 89)
	}
	if err := nb.AddVar("temp", netcdf.Double, []int{ti, la}, nil, data); err != nil {
		panic(err)
	}
	if err := nb.WriteFile(path); err != nil {
		panic(err)
	}
	// columns times the first column, then the other 49.
	columns := func(read func(c int)) (first, rest time.Duration) {
		start := time.Now()
		read(0)
		first = time.Since(start)
		for c := 1; c < 50; c++ {
			read(c)
		}
		return first, time.Since(start) - first
	}

	// Direct: each column is 4000 one-cell runs read straight from the file.
	plain, err := netcdf.Open(path)
	if err != nil {
		panic(err)
	}
	defer plain.Close()
	pFirst, pRest := columns(func(c int) {
		if _, err := plain.ReadSlab("temp", []int{0, c}, []int{4000, 1}); err != nil {
			panic(err)
		}
	})

	// Tiled: the same columns subscripted out of the lazy array a session's
	// readval binds, through the session's tile cache at its defaults. The
	// first column walks every tile, so readahead faults the variable in.
	s := bench.MustSession()
	defer s.Close()
	if _, err := s.Exec(fmt.Sprintf(`readval \T using NETCDF at (%q, "temp");`, path)); err != nil {
		panic(err)
	}
	tiled, _ := s.Env.Val("T")
	tFirst, tRest := columns(func(c int) {
		for r := 0; r < 4000; r++ {
			if _, err := tiled.CellAtCtx(context.Background(), r*50+c); err != nil {
				panic(err)
			}
		}
	})

	us := func(d time.Duration) time.Duration { return d.Round(time.Microsecond) }
	fmt.Printf("| access | first column | other 49, per column | all 50 | bytes read |\n|---|---|---|---|---|\n")
	fmt.Printf("| direct ReadSlab | %v | %v | %v | %d |\n", us(pFirst), us(pRest/49), us(pFirst+pRest),
		plain.IOStats().BytesRead)
	fmt.Printf("| tile cache (lazy array) | %v | %v | %v | %d |\n", us(tFirst), us(tRest/49), us(tFirst+tRest),
		s.IOFileTotals().BytesRead)
	st := s.TileCache().Stats()
	fmt.Printf("\ntile cache: %d misses, %d prefetches (%d useful), %d hits, %d evictions\n",
		st.TileMisses, st.Prefetches, st.PrefetchUseful, st.TileHits, st.Evictions)
}

func runA1() {
	s := bench.MustSession()
	bench.SetupWeather(s)
	core, _, err := s.Compile(bench.MotivatingQuery)
	if err != nil {
		panic(err)
	}
	fmt.Printf("| optimizer | wall time | steps |\n|---|---|---|\n")
	for _, variant := range []struct {
		name string
		e    ast.Expr
	}{
		{"none", core},
		{"normalize only", opt.NewNormalizeOnly().Optimize(core)},
		{"full pipeline", opt.New().Optimize(core)},
	} {
		d, steps := timeQuery(s, "a1:"+variant.name, variant.e)
		fmt.Printf("| %s | %v | %d |\n", variant.name, d.Round(time.Microsecond), steps)
	}
}

func runE15() {
	dir, err := os.MkdirTemp("", "aqlbench")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
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
		panic(err)
	}
	if err := nb.WriteFile(path); err != nil {
		panic(err)
	}
	f, err := netcdf.Open(path)
	if err != nil {
		panic(err)
	}
	defer f.Close()
	fmt.Printf("| slab | wall time | MB/s |\n|---|---|---|\n")
	for _, count := range [][]int{{720, 10, 10}, {2000, 10, 10}, {2000, 1, 1}} {
		start := time.Now()
		slab, err := f.ReadSlab("temp", []int{0, 0, 0}, count)
		if err != nil {
			panic(err)
		}
		d := time.Since(start)
		mb := float64(slab.Size()*8) / (1 << 20)
		fmt.Printf("| %v | %v | %.0f |\n", count, d.Round(time.Microsecond), mb/d.Seconds())
	}
}
