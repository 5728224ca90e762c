// Command benchmarks is the one layered benchmark for AQL: four named
// workloads, end-to-end metrics from an untraced run and per-layer metrics
// from a traced run. See README.md beside this file and BENCHMARK.json at
// the repository root.
//
//	go run ./benchmarks -workload dense_compute -seed 1
//	go run ./benchmarks -workload plan_cold -seed 1 -trace 1
//	go run ./benchmarks -selfcheck
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"syscall"
)

var workloadNames = []string{"dense_compute", "plan_cold", "serve_mixed", "ooc_scan"}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "one of dense_compute, plan_cold, serve_mixed, ooc_scan")
	seed := flag.Int64("seed", 1, "drives every generated input")
	seconds := flag.Float64("seconds", 20, "how long the run measures")
	trace := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	quick := flag.Bool("quick", false, "sizes /16 and short steps, for the smoke test")
	selfcheck := flag.Bool("selfcheck", false, "run every workload (or only -workload) in two sets of runs and print each metric's spread")
	runs := flag.Int("runs", 5, "runs per set for -selfcheck")
	aqld := flag.String("aqld", "", "path of a built aqld (default: go build ./cmd/aqld into the scratch directory)")
	workdir := flag.String("workdir", ".bench_build", "scratch directory inside the checkout")
	spans := flag.String("spans", "", "where the traced run writes its spans (default: <workdir>/spans-<workload>-<seed>.json)")
	flag.Parse()

	// All runs use GOMAXPROCS = min(nproc, 4): one generator process with
	// no more client goroutines or connections than that.
	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)

	// Each run works in its own scratch directory, removed on every exit
	// path below.
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	scratch, err = filepath.Abs(scratch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := config{ctx: ctx, seed: *seed, seconds: *seconds, quick: *quick, workdir: scratch, aqld: *aqld}

	if *selfcheck {
		if err := runSelfcheck(cfg, *workdir, *runs, *workload); err != nil {
			fmt.Fprintln(os.Stderr, "benchmarks:", err)
			return 1
		}
		return 0
	}

	var rep *report
	switch {
	case !slices.Contains(workloadNames, *workload):
		fmt.Fprintf(os.Stderr, "benchmarks: -workload must be one of %v\n", workloadNames)
		return 2
	case *trace != 0:
		path := *spans
		if path == "" {
			path = filepath.Join(*workdir, fmt.Sprintf("spans-%s-%d.json", *workload, *seed))
		}
		rep, err = runTraced(*workload, cfg, path)
	case *workload == "serve_mixed":
		rep, err = runServeE2E(cfg)
	default:
		rep, err = runClosedE2E(closedByName(*workload, cfg), cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		return 1
	}
	printReport(rep, procs)
	if rep.failed > 0 {
		return 1
	}
	return 0
}

func closedByName(name string, cfg config) closedWorkload {
	switch name {
	case "dense_compute":
		return newDense(cfg)
	case "plan_cold":
		return newPlan(cfg)
	}
	return newOOC(cfg)
}

// printReport prints every metric by name with its unit and sample count,
// then the one JSON line the driver reads.
func printReport(rep *report, procs int) {
	fmt.Printf("workload %s  gomaxprocs %d  input_hash %s\n", rep.workload, procs, rep.inputHash)
	line := func(m metric) {
		if m.n > 0 {
			fmt.Printf("  %-44s %16.6g %-8s n=%d\n", m.name, m.value, m.unit, m.n)
		} else {
			fmt.Printf("  %-44s %16.6g %s\n", m.name, m.value, m.unit)
		}
	}
	for _, m := range rep.metrics {
		line(m)
	}
	if len(rep.extra) > 0 {
		fmt.Println("not gated, for the reader:")
		extra := append([]metric(nil), rep.extra...)
		sort.SliceStable(extra, func(i, j int) bool { return extra[i].name < extra[j].name })
		for _, m := range extra {
			line(m)
		}
	}
	share := 0.0
	if rep.attempted > 0 {
		share = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Printf("  %-44s %16.6g ratio    attempted=%d failed=%d\n", "failed_share", share, rep.attempted, rep.failed)
	for _, f := range rep.failures {
		fmt.Println("  FAILED:", f)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: rep.failed == 0 && rep.attempted > 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: make(map[string]value)}
	for _, m := range rep.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // a NaN or Inf metric: a bug in the benchmark
	}
	fmt.Println(string(b))
}
