package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/compile"
	"github.com/aqldb/aql/internal/cost"
	"github.com/aqldb/aql/internal/desugar"
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/exchange"
	"github.com/aqldb/aql/internal/netcdf"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/parser"
	"github.com/aqldb/aql/internal/repl"
	"github.com/aqldb/aql/internal/scan"
	"github.com/aqldb/aql/internal/server"
	"github.com/aqldb/aql/internal/tile"
	"github.com/aqldb/aql/internal/typecheck"
)

// The traced run. It calls each layer's exported functions on a seeded
// sample of every workload's inputs, whichever workload was named, because
// the driver wants every per-layer metric from every traced run. What
// -workload selects is whose operations give latency_p90_ms,
// latency_p99_ms, cpu_ms_per_op and bench.trace_overhead_share. The measured time is split between the probe
// groups by the shares below.
const (
	shareOwn      = 0.10 // the named workload's own operations, untraced, for its tail latencies
	shareRows     = 0.24 // every workload's operations through the layers, with and without spans
	shareFront    = 0.08
	shareExecute  = 0.20
	shareTile     = 0.13
	shareExchange = 0.03
	shareHandler  = 0.05
	shareLive     = 0.17 // the open-loop steps against a live aqld
)

type tracedRun struct {
	cfg config
	rep *report
	tr  *tracer
}

// slice is a share of the measured time.
func (t *tracedRun) slice(share float64) time.Duration {
	return time.Duration(share * float64(t.cfg.measureFor()))
}

// checked counts one verified operation.
func (t *tracedRun) checked(err error) {
	t.rep.attempted++
	if err != nil {
		t.rep.fail(err)
	}
}

// repeatFor calls f until d has elapsed and at least min times; it returns
// the number of calls and the time they took.
func repeatFor(ctx context.Context, d time.Duration, min int, f func(i int)) (int, time.Duration) {
	start := time.Now()
	n := 0
	for ; (n < min || time.Since(start) < d) && ctx.Err() == nil; n++ {
		f(n)
	}
	return n, time.Since(start)
}

// allocDelta runs f and returns the bytes and objects it allocated.
func allocDelta(f func()) (bytes, objects float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc - m0.TotalAlloc), float64(m1.Mallocs - m0.Mallocs)
}

func runTraced(workload string, cfg config, spanPath string) (*report, error) {
	t := &tracedRun{cfg: cfg, rep: &report{workload: workload}, tr: newTracer()}
	dense, ooc, serve := newDense(cfg), newOOC(cfg), newServe(cfg)
	// serve_mixed's inputs are its schedule; the live probes hash it.
	t.rep.inputHash = map[string]string{"dense_compute": dense.hash(), "ooc_scan": ooc.hash(),
		"plan_cold": newPlan(cfg).hash()}[workload]

	oocPath := filepath.Join(cfg.workdir, "ooc-layers.nc")
	if err := ooc.writeFile(oocPath); err != nil {
		return nil, err
	}
	bin, err := buildAqld(cfg.ctx, cfg)
	if err != nil {
		return nil, err
	}
	in, err := serve.setup(cfg.ctx, bin)
	if err != nil {
		return nil, err
	}
	defer in.close()

	steps := []func() error{
		func() error { return t.rows(workload, dense, ooc, oocPath, serve, in) },
		t.frontEndProbes,
		func() error { return t.executeProbes(dense) },
		func() error { return t.tileProbes(ooc, oocPath) },
		func() error { return t.exchangeProbes(serve) },
		func() error { return t.handlerProbes(serve) },
		func() error { return t.liveProbes(workload, serve, in) },
		func() error { return t.ownTail(workload) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
		if err := cfg.ctx.Err(); err != nil {
			return nil, err
		}
	}
	t.rep.add("bench.gomaxprocs", "count", float64(runtime.GOMAXPROCS(0)), 0)
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	t.rep.add("bench.peak_rss_mb", "MB", rss, 1)

	spans := t.tr.snapshot()
	if err := writeSpans(spanPath, spans); err != nil {
		return nil, err
	}
	fmt.Printf("%d spans written to %s\n", len(spans), spanPath)
	printShareTable(shareTable(spans))
	return t.rep, nil
}

// --- the workload x layer table ---------------------------------------------

// tableRows are the rows of the self-time table, in print order.
var tableRows = []string{"dense_compute", "plan_cold", "ooc_scan.seq", "ooc_scan.slab", "ooc_scan.strided",
	"serve_mixed.hit", "serve_mixed.large", "serve_mixed.miss", "serve_mixed.val"}

func printShareTable(table map[string]map[string]float64) {
	fmt.Println("self-time shares, workload x layer:")
	fmt.Printf("  %-20s", "")
	for _, g := range layerGroups {
		fmt.Printf(" %12s", g)
	}
	fmt.Println()
	for _, row := range tableRows {
		fmt.Printf("  %-20s", row)
		for _, g := range layerGroups {
			fmt.Printf(" %11.1f%%", 100*table[row][g])
		}
		fmt.Println()
	}
}

// rows replays every workload's operations through the layers, first with
// a nil tracer and then with spans, an equal number of each, interleaved in
// blocks so that drift hits both alike. The spans fill the table; the two
// medians give the tracing overhead.
func (t *tracedRun) rows(workload string, dense *denseWorkload, ooc *oocWorkload, oocPath string, serve *serveWorkload, in *serveInstance) error {
	ctx := t.cfg.ctx
	dl, err := newDenseLayers(dense)
	if err != nil {
		return err
	}
	pl, err := newPlanLayers(t.cfg.seed)
	if err != nil {
		return err
	}
	ol, err := newOOCLayers(ooc, oocPath, ooc.budget())
	if err != nil {
		return err
	}
	defer ol.close()
	sr, serial := newRNG(t.cfg.seed, "serve_mixed.rows"), 1<<20
	serveOne := func(tr *tracer, op int) (time.Duration, error) {
		// One request of each class, so every serve row gets spans; the
		// rebinding only every 16th time, or no hit would find its plan.
		var total time.Duration
		for class := 0; class < numClasses; class++ {
			if class == classVal && op%16 != 0 {
				continue
			}
			req := serve.gen(sr, class, &serial)
			out := serveOp(tr, in.gen, op, &req)
			if out.err != nil {
				return 0, out.err
			}
			total += out.roundTrip
		}
		return total, nil
	}

	replay := []struct {
		name string
		op   func(tr *tracer, op int) (time.Duration, error)
	}{
		{"dense_compute", dl.op}, {"plan_cold", pl.op}, {"ooc_scan", ol.op}, {"serve_mixed", serveOne},
	}
	opID := 0
	overhead := make(map[string]float64)
	for _, w := range replay {
		var plain, traced []float64
		// Blocks of 8 keep both sides' samples close in time.
		const block = 8
		repeatFor(ctx, t.slice(shareRows)/time.Duration(len(replay)), 2*block, func(i int) {
			tr := t.tr
			if (i/block)%2 == 0 {
				tr = nil
			}
			opID++
			d, err := w.op(tr, opID)
			t.checked(err)
			if err != nil {
				return
			}
			if tr == nil {
				plain = append(plain, ms(d))
			} else {
				traced = append(traced, ms(d))
			}
		})
		if len(plain) > 0 && len(traced) > 0 {
			overhead[w.name] = median(traced)/median(plain) - 1
		}
	}
	t.rep.add("bench.trace_overhead_share", "ratio", overhead[workload], 0)

	table := shareTable(t.tr.snapshot())
	share := func(metric, row, group string) {
		t.rep.add("bench.share."+metric, "ratio", table[row][group], 0)
	}
	share("dense.execute", "dense_compute", "execute")
	share("dense.tile_netcdf", "dense_compute", "tile_netcdf")
	share("plan.frontend", "plan_cold", "frontend")
	share("plan.execute", "plan_cold", "execute")
	share("ooc_seq.tile_netcdf", "ooc_scan.seq", "tile_netcdf")
	share("ooc_slab.tile_netcdf", "ooc_scan.slab", "tile_netcdf")
	share("ooc_strided.tile_netcdf", "ooc_scan.strided", "tile_netcdf")
	share("serve_hit.server_wire", "serve_mixed.hit", "server_wire")
	share("serve_large.execute", "serve_mixed.large", "execute")
	share("serve_miss.frontend", "serve_mixed.miss", "frontend")
	return nil
}

// --- front end --------------------------------------------------------------

// frontEndProbes times each front-end layer's entry point over a seeded
// sample of plan_cold's texts, one layer at a time, each fed the previous
// layer's outputs.
func (t *tracedRun) frontEndProbes() error {
	k := 200
	if t.cfg.quick {
		k = 40
	}
	sample := (&planWorkload{seed: t.cfg.seed}).sample(k)
	sess, err := repl.New()
	if err != nil {
		return err
	}
	if err := bindPlanData(sess); err != nil {
		return err
	}
	e := sess.Env

	ses := make([]parser.Expr, k)
	cores := make([]ast.Expr, k)
	expanded := make([]ast.Expr, k)
	optimized := make([]ast.Expr, k)
	var tokens, nodesDesugar, nodesMacro, nodesOut, firings float64
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	stages := []struct {
		name string
		f    func(i int)
	}{
		{"scan", func(i int) {
			toks, err := scan.Scan(sample[i].text)
			note(err)
			tokens += float64(len(toks))
		}},
		{"parser", func(i int) {
			var err error
			ses[i], err = parser.ParseExpr(sample[i].text)
			note(err)
		}},
		{"desugar", func(i int) {
			var err error
			cores[i], err = desugar.Expr(ses[i])
			note(err)
		}},
		{"env.macro", func(i int) { expanded[i] = e.ExpandMacros(cores[i]) }},
		{"typecheck", func(i int) {
			_, _, err := typecheck.InferParams(expanded[i], e.GlobalTypes())
			note(err)
		}},
		{"opt", func(i int) {
			optimized[i] = e.Optimizer.OptimizeTraced(expanded[i], func(string, string, int, int) { firings++ })
		}},
		{"cost", func(i int) { cost.Estimate(optimized[i], e.Globals()) }},
		{"compile.lower", func(i int) { compile.NewProgram(optimized[i], e.Globals(), eval.Limits{}) }},
		{"repl.prepare", func(i int) {
			_, err := sess.Prepare(sample[i].text)
			note(err)
		}},
	}
	// One pass first: it fills the intermediate outputs, counts what
	// repeats exactly, and warms each layer.
	for _, st := range stages {
		for i := 0; i < k; i++ {
			st.f(i)
		}
	}
	if firstErr != nil {
		return fmt.Errorf("front-end probe: %w", firstErr)
	}
	for i := 0; i < k; i++ {
		nodesDesugar += float64(ast.CountNodes(cores[i]))
		nodesMacro += float64(ast.CountNodes(expanded[i]))
		nodesOut += float64(ast.CountNodes(optimized[i]))
	}
	perQuery := func(x float64) float64 { return x / float64(k) }
	tokensPer, firingsPer := perQuery(tokens), perQuery(firings)

	ns := make(map[string]float64)
	allocB := make(map[string]float64)
	for _, st := range stages {
		var calls int
		var took time.Duration
		bytes, _ := allocDelta(func() {
			passes, d := repeatFor(t.cfg.ctx, t.slice(shareFront)/time.Duration(len(stages)), 1, func(int) {
				for i := 0; i < k; i++ {
					st.f(i)
				}
			})
			calls, took = passes*k, d
		})
		ns[st.name] = float64(took.Nanoseconds()) / float64(calls)
		allocB[st.name] = bytes / float64(calls)
	}
	// NewProgram estimates cost itself; what is left is lowering.
	lowerNS := ns["compile.lower"] - ns["cost"]
	parts := ns["parser"] + ns["desugar"] + ns["env.macro"] + ns["typecheck"] + ns["opt"] + ns["compile.lower"]

	// What macro expansion puts out is what the optimizer takes in.
	n := k // the sample behind every figure below
	t.rep.add("scan.ns_per_query", "ns", ns["scan"], n)
	t.rep.add("scan.tokens", "count", tokensPer, n)
	t.rep.add("scan.alloc_b", "B", allocB["scan"], n)
	t.rep.add("parser.ns_per_query", "ns", ns["parser"], n)
	t.rep.add("parser.alloc_b", "B", allocB["parser"], n)
	t.rep.add("desugar.ns_per_query", "ns", ns["desugar"], n)
	t.rep.add("desugar.nodes_out", "count", perQuery(nodesDesugar), n)
	t.rep.add("env.macro_ns_per_query", "ns", ns["env.macro"], n)
	t.rep.add("env.nodes_out", "count", perQuery(nodesMacro), n)
	t.rep.add("typecheck.ns_per_query", "ns", ns["typecheck"], n)
	t.rep.add("typecheck.alloc_b", "B", allocB["typecheck"], n)
	t.rep.add("opt.ns_per_query", "ns", ns["opt"], n)
	t.rep.add("opt.rule_firings", "count", firingsPer, n)
	t.rep.add("opt.nodes_in", "count", perQuery(nodesMacro), n)
	t.rep.add("opt.nodes_out", "count", perQuery(nodesOut), n)
	t.rep.add("opt.alloc_b", "B", allocB["opt"], n)
	t.rep.add("cost.ns_per_query", "ns", ns["cost"], n)
	t.rep.add("compile.lower_ns_per_query", "ns", lowerNS, n)
	t.rep.add("compile.lower_alloc_b", "B", allocB["compile.lower"]-allocB["cost"], n)
	t.rep.add("repl.prepare_residual_share", "ratio", (ns["repl.prepare"]-parts)/ns["repl.prepare"], n)
	t.rep.add("repl.prepare_alloc_b", "B", allocB["repl.prepare"], n)
	return nil
}

// --- execute ----------------------------------------------------------------

func (t *tracedRun) executeProbes(w *denseWorkload) error {
	ctx := t.cfg.ctx
	dl, err := newDenseLayers(w)
	if err != nil {
		return err
	}
	per := t.slice(shareExecute) / 10

	// Each statement class on the compiled engine, with the counters the
	// execution charged; these repeat exactly.
	var steps, cells, cellTotal float64
	var allocB, allocN float64
	for c, prog := range dl.progs {
		var cnt eval.Counters
		var n int
		var took time.Duration
		b, objs := allocDelta(func() {
			n, took = repeatFor(ctx, per, 2, func(int) {
				v, c2, err := prog.Execute(ctx, compile.ExecOpts{})
				if err == nil {
					err = w.check(c, v)
				}
				t.checked(err)
				cnt = c2
			})
		})
		cellsOf := float64(w.cellsOf(c))
		t.rep.add("compile.exec_ns_per_cell."+denseClasses[c], "ns", float64(took.Nanoseconds())/float64(n)/cellsOf, n)
		steps += float64(cnt.Steps)
		cells += float64(cnt.Cells)
		cellTotal += cellsOf
		allocB += b / float64(n)
		allocN += objs / float64(n)
	}
	t.rep.add("compile.exec_steps", "count", steps, 0)
	t.rep.add("compile.exec_cells", "count", cells, 0)
	t.rep.add("compile.exec_alloc_b_per_cell", "B", allocB/cellTotal, 0)
	t.rep.add("compile.exec_allocs_per_cell", "count", allocN/cellTotal, 0)

	// The same round at GOMAXPROCS 1 against N, with GC and scheduler cost.
	round := func() (p50 float64, rounds int) {
		var lat []float64
		repeatFor(ctx, per, 3, func(i int) {
			d, err := dl.op(nil, 0)
			t.checked(err)
			lat = append(lat, ms(d))
		})
		return median(lat), len(lat)
	}
	gc0, cpu0 := gcCPUSeconds()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	atN, rounds := round()
	runtime.ReadMemStats(&m1)
	gc1, cpu1 := gcCPUSeconds()
	t.rep.add("runtime.gc_cycles_per_op", "count", float64(m1.NumGC-m0.NumGC)/float64(rounds), rounds)
	t.rep.add("runtime.gc_cpu_share", "ratio", (gc1-gc0)/(cpu1-cpu0), rounds)
	t.rep.add("runtime.alloc_mb_per_op.dense", "MB", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6/float64(rounds), rounds)
	procs := runtime.GOMAXPROCS(1)
	at1, _ := round()
	runtime.GOMAXPROCS(procs)
	t.rep.add("compile.parallel_speedup", "ratio", at1/atN, 0)

	// The reference interpreter, one pass of two classes.
	for _, c := range []int{0, 2} {
		core, err := frontEnd(nil, "", -1, 0, dl.sess.Env, w.texts[c])
		if err != nil {
			return err
		}
		ev := eval.New(dl.sess.Env.Globals())
		t0 := time.Now()
		v, err := ev.EvalExpr(ctx, core)
		took := time.Since(t0)
		if err == nil {
			err = w.check(c, v)
		}
		t.checked(err)
		t.rep.add("eval.interp_ns_per_cell."+denseClasses[c], "ns", float64(took.Nanoseconds())/float64(w.cellsOf(c)), 1)
	}

	// The object library's hot entry points.
	a, _ := dl.sess.Env.Val("A")
	n := w.sz.mat
	calls, took := repeatFor(ctx, per/2, 1, func(i int) {
		for j := 0; j < 1000; j++ {
			object.Sub(a, []int{(i + j) % n, j % n})
		}
	})
	t.rep.add("object.sub_ns", "ns", float64(took.Nanoseconds())/float64(calls*1000), calls*1000)
	calls, took = repeatFor(ctx, per/2, 1, func(int) {
		object.Tabulate([]int{100, 100}, func(idx []int) (object.Value, error) {
			return object.Nat(int64(idx[0] + idx[1])), nil
		})
	})
	t.rep.add("object.tabulate_ns_per_cell", "ns", float64(took.Nanoseconds())/float64(calls*10000), calls)
	x, y := object.Tuple(object.Nat(3), object.Real(1.5)), object.Tuple(object.Nat(3), object.Real(2.5))
	calls, took = repeatFor(ctx, per/2, 1, func(int) {
		for j := 0; j < 1000; j++ {
			object.Compare(x, y)
		}
	})
	t.rep.add("object.compare_ns", "ns", float64(took.Nanoseconds())/float64(calls*1000), calls*1000)

	// Operator profiling: the matmul statement through a session at each
	// level, interleaved.
	levels := []string{"off", "sampled", "full"}
	lat := make(map[string][]float64)
	repeatFor(ctx, 2*per, len(levels), func(i int) {
		level := levels[i%len(levels)]
		if err := dl.sess.SetProfiling(level); err != nil {
			t.checked(err)
			return
		}
		t0 := time.Now()
		v, _, err := dl.sess.Query(w.texts[0])
		d := time.Since(t0)
		if err == nil {
			err = w.check(0, v)
		}
		t.checked(err)
		lat[level] = append(lat[level], ms(d))
	})
	t.rep.add("trace.sampled_overhead_share", "ratio", median(lat["sampled"])/median(lat["off"])-1, len(lat["sampled"]))
	t.rep.add("trace.full_overhead_share", "ratio", median(lat["full"])/median(lat["off"])-1, len(lat["full"]))
	return dl.sess.SetProfiling("off")
}

// gcCPUSeconds reads the runtime's estimate of CPU time spent in the
// garbage collector and in total.
func gcCPUSeconds() (gc, total float64) {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	return samples[0].Value.Float64(), samples[1].Value.Float64()
}

// --- tile and netcdf --------------------------------------------------------

func (t *tracedRun) tileProbes(w *oocWorkload, path string) error {
	ctx := t.cfg.ctx
	per := t.slice(shareTile) / 6

	// The larger-than-cache case: whole rounds, counters read where the
	// work happens. The counts cover the first countRounds rounds of a
	// cold cache, so with one client they repeat exactly; the timings go on
	// for the rest of the slice.
	const countRounds = 2
	ol, err := newOOCLayers(w, path, w.budget())
	if err != nil {
		return err
	}
	defer ol.close()
	var st tile.Counters
	var readCalls, readBytes int64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rounds, _ := repeatFor(ctx, 2*per, countRounds, func(i int) {
		_, err := ol.op(nil, 0)
		t.checked(err)
		if i == countRounds-1 {
			st, readCalls, readBytes = ol.cache.Stats(), ol.rd.calls.Load(), ol.rd.bytes.Load()
		}
	})
	runtime.ReadMemStats(&m1)
	t.rep.add("tile.hit_rate", "ratio", float64(st.TileHits)/float64(st.TileHits+st.TileMisses), countRounds)
	t.rep.add("tile.misses", "count", float64(st.TileMisses), countRounds)
	t.rep.add("tile.evictions", "count", float64(st.Evictions), countRounds)
	t.rep.add("tile.prefetches", "count", float64(st.Prefetches), countRounds)
	t.rep.add("tile.prefetch_useful_rate", "ratio", float64(st.PrefetchUseful)/float64(st.Prefetches), countRounds)
	t.rep.add("tile.read_amplification", "ratio", float64(st.BytesScanned)/float64(st.BytesReturned), countRounds)
	t.rep.add("tile.peak_resident_mb", "MB", float64(ol.cache.PeakResident())/1e6, rounds)
	fetches := float64(ol.fetches.Load())
	t.rep.add("netcdf.fetch_ns_per_tile", "ns", float64(ol.fetchNS.Load())/fetches, int(fetches))
	t.rep.add("netcdf.readat_calls", "count", float64(readCalls), countRounds)
	t.rep.add("netcdf.bytes_read", "B", float64(readBytes), countRounds)
	t.rep.add("runtime.alloc_mb_per_op.ooc", "MB", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6/float64(rounds), rounds)

	// netcdf.Read alone: the header parse.
	calls, took := repeatFor(ctx, per/4, 3, func(int) {
		_, err := netcdf.Read(ol.rd)
		t.checked(err)
	})
	t.rep.add("netcdf.open_ns", "ns", float64(took.Nanoseconds())/float64(calls), calls)

	// The fits-in-cache case: budget above the boxed variable.
	fits, err := newOOCLayers(w, path, 2*int64(w.sz.rows*w.sz.cols)*cellBytes)
	if err != nil {
		return err
	}
	defer fits.close()
	rounds, _ = repeatFor(ctx, per, 2, func(int) {
		_, err := fits.op(nil, 0)
		t.checked(err)
	})
	fs := fits.cache.Stats()
	t.rep.add("tile.hit_rate_fits", "ratio", float64(fs.TileHits)/float64(fs.TileHits+fs.TileMisses), rounds)

	// The tile layer on its own: a Fetch that serves boxed cells from
	// memory, so what is timed is the cache.
	size := w.sz.rows * w.sz.cols
	boxed := realCells(w.data)
	var fetchNS int64
	mem := func(_ context.Context, start, n int) ([]object.Value, error) {
		t0 := time.Now()
		out := boxed[start : start+n : start+n]
		fetchNS += int64(time.Since(t0))
		return out, nil
	}
	tc := w.sz.tileCells
	cfg := tile.Config{TileCells: tc, Budget: w.budget(), NoPrefetch: true}

	// Bulk sequential reads.
	calls, took = repeatFor(ctx, per/2, 1, func(int) {
		arr := tile.New(cfg).NewArray(size, mem)
		_, err := arr.CellRange(ctx, 0, size)
		t.checked(err)
	})
	t.rep.add("tile.cellrange_ns_per_cell", "ns", float64(took.Nanoseconds())/float64(calls*size), calls)

	// Single cells of a resident tile: the hit path.
	arr := tile.New(cfg).NewArray(size, mem)
	calls, took = repeatFor(ctx, per/2, 1, func(int) {
		for off := 0; off < tc; off++ {
			arr.Cell(ctx, off)
		}
	})
	t.rep.add("tile.cell_ns", "ns", float64(took.Nanoseconds())/float64(calls*tc), calls*tc)

	// One cell per tile, round and round: every access a miss, the fetch
	// time taken out.
	tiles := arr.TileCount()
	fetchNS = 0
	calls, took = repeatFor(ctx, per/2, 1, func(int) {
		for tl := 0; tl < tiles; tl++ {
			arr.Cell(ctx, tl*tc)
		}
	})
	t.rep.add("tile.self_ns_per_miss", "ns", float64(took.Nanoseconds()-fetchNS)/float64(calls*tiles), calls*tiles)

	// The same walk over the file-backed array: what a strided cell costs
	// with the real fetch under it.
	calls, took = repeatFor(ctx, per/2, 1, func(int) {
		for tl := 0; tl < tiles; tl += 2 {
			_, err := ol.arr.Cell(ctx, tl*tc)
			t.checked(err)
		}
	})
	t.rep.add("tile.strided_ns_per_cell", "ns", float64(took.Nanoseconds())/float64(calls*((tiles+1)/2)), calls)
	return nil
}

// --- exchange ---------------------------------------------------------------

func (t *tracedRun) exchangeProbes(w *serveWorkload) error {
	ctx := t.cfg.ctx
	per := t.slice(shareExchange) / 2
	n := w.sz.large
	cellsV := make([]int64, n)
	for i := range cellsV {
		cellsV[i] = (int64(i)*int64(i) + 11*int64(i) + 7) % 97
	}
	v := object.Vector(natCells(cellsV)...)
	var text string
	var calls int
	var took time.Duration
	bytes, _ := allocDelta(func() {
		calls, took = repeatFor(ctx, per, 2, func(int) {
			s, err := exchange.WriteString(v)
			if err == nil && s != w.largeWant {
				err = fmt.Errorf("exchange.WriteString: wrong text")
			}
			t.checked(err)
			text = s
		})
	})
	t.rep.add("exchange.write_ns_per_cell", "ns", float64(took.Nanoseconds())/float64(calls*n), calls)
	t.rep.add("exchange.write_alloc_b_per_cell", "B", bytes/float64(calls*n), calls)
	t.rep.add("exchange.bytes_per_cell", "B", float64(len(text))/float64(n), 0)
	calls, took = repeatFor(ctx, per, 2, func(int) {
		got, err := exchange.ReadString(text)
		if err == nil {
			err = wantNatArray(got, []int{n}, cellsV)
		}
		t.checked(err)
	})
	t.rep.add("exchange.read_ns_per_cell", "ns", float64(took.Nanoseconds())/float64(calls*n), calls)
	return nil
}

// --- server, in process -----------------------------------------------------

// handlerProbes calls Server.ServeHTTP on a ResponseRecorder, with no
// network, once per request class.
func (t *tracedRun) handlerProbes(w *serveWorkload) error {
	ctx := t.cfg.ctx
	sess, err := repl.New()
	if err != nil {
		return err
	}
	defer sess.Close()
	srv := server.New(sess, server.Config{})
	r, serial := newRNG(t.cfg.seed, "serve_mixed.handler"), 0
	call := func(class int) (time.Duration, error) {
		req := w.gen(r, class, &serial)
		hr := httptest.NewRequest(http.MethodPost, req.path, strings.NewReader(string(req.body)))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		srv.ServeHTTP(rec, hr)
		d := time.Since(t0)
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("handler %s: status %d: %.200s", classNames[class], rec.Code, rec.Body.String())
		}
		if req.want != "" && !strings.Contains(rec.Body.String(), req.want) {
			return 0, fmt.Errorf("handler %s: wrong answer", classNames[class])
		}
		return d, nil
	}
	if _, err := call(classVal); err != nil {
		return err
	}
	var allocB [numClasses]float64
	for class := 0; class < numClasses; class++ {
		var lat []float64
		bytes, _ := allocDelta(func() {
			repeatFor(ctx, t.slice(shareHandler)/numClasses, 5, func(int) {
				d, err := call(class)
				t.checked(err)
				lat = append(lat, float64(d.Nanoseconds()))
			})
		})
		t.rep.add("server.handler_ns."+classNames[class], "ns", median(lat), len(lat))
		allocB[class] = bytes / float64(len(lat))
	}
	t.rep.add("server.handler_alloc_b.hit", "B", allocB[classHit], 0)
	return nil
}

// --- server, live -----------------------------------------------------------

// liveProbes plays the four open-loop steps against the live aqld and reads
// what only a real process over loopback shows.
func (t *tracedRun) liveProbes(workload string, w *serveWorkload, in *serveInstance) error {
	before, err := in.srv.debug()
	if err != nil {
		return err
	}
	// play splits what it is given by the untraced run's shares; scale so
	// that the steps take this probe's slice.
	run, err := w.play(t.cfg.ctx, in, t.slice(shareLive))
	if err != nil {
		return err
	}
	after, err := in.srv.debug()
	if err != nil {
		return err
	}
	if workload == "serve_mixed" {
		t.rep.inputHash = run.hash
	}
	for k, s := range run.steps {
		t.rep.attempted += s.n - s.refused
		for _, e := range s.errs {
			t.rep.fail(fmt.Errorf("R%d: %w", k+1, e))
		}
	}
	var wire, unattributed []float64
	for _, o := range run.raw[0].outcomes {
		if o.class == classHit && !o.refused && o.err == nil {
			wire = append(wire, float64(o.roundTrip.Nanoseconds()-o.wallNS))
			unattributed = append(unattributed, 1-float64(o.phasesNS)/float64(o.roundTrip.Nanoseconds()))
		}
	}
	hits := float64(after.PlanCache.Hits - before.PlanCache.Hits)
	misses := float64(after.PlanCache.Misses - before.PlanCache.Misses)
	r1 := run.steps[0]
	t.rep.add("server.wire_overhead_ns", "ns", median(wire), len(wire))
	t.rep.add("server.unattributed_share", "ratio", median(unattributed), len(unattributed))
	t.rep.add("server.plan_cache_hit_rate", "ratio", hits/(hits+misses), int(hits+misses))
	t.rep.add("server.plan_cache_invalidations", "count",
		float64(after.PlanCache.Invalidations-before.PlanCache.Invalidations), 0)
	t.rep.add("server.saturated_rps", "req/s", run.saturatedRPS(), run.satOK)
	rss, err := peakRSSMB(in.srv.cmd.Process.Pid)
	if err != nil {
		return err
	}
	t.rep.add("server.peak_rss_mb", "MB", rss, 1)
	t.rep.add("loadgen.late_p99_ms", "ms", r1.lateP99, r1.n)
	t.rep.add("loadgen.backlog_max", "count", float64(r1.backlogMax), r1.n)
	t.rep.add("max_rate_ok_rps", "req/s", run.maxRateOK(), 0)
	if workload == "serve_mixed" {
		t.rep.add("latency_p90_ms", "ms", r1.p90, r1.okCount)
		t.rep.add("latency_p99_ms", "ms", r1.p99, r1.n)
		t.rep.add("cpu_ms_per_op", "ms", run.cpuMSPerOp(), run.answered)
	}
	return nil
}

// ownTail runs an in-process workload's own operations, untraced and through
// the public API, for the metrics of the named workload that are reported
// but not gated: its tail latencies and its processor time per operation.
func (t *tracedRun) ownTail(workload string) error {
	if workload == "serve_mixed" {
		return nil // taken from the live steps
	}
	inst, err := closedByName(workload, t.cfg).setup()
	if err != nil {
		return err
	}
	defer inst.close()
	run := runClosedLoop(t.cfg.ctx, inst, t.slice(shareOwn))
	t.rep.attempted += run.attempted
	for _, e := range run.errs {
		t.rep.fail(e)
	}
	if len(run.lat) == 0 {
		return fmt.Errorf("%s: no operation completed", workload)
	}
	sorted := sortedCopy(run.lat)
	t.rep.add("latency_p90_ms", "ms", percentile(sorted, 90), len(sorted))
	t.rep.add("latency_p99_ms", "ms", percentile(sorted, 99), len(sorted))
	t.rep.add("cpu_ms_per_op", "ms", ms(run.cpu)/float64(run.attempted), run.attempted)
	return nil
}
