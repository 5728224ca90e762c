package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"
)

// metric is one named measurement. n is the number of samples behind it
// (0 where a count makes no sense, such as a ratio of totals).
type metric struct {
	name  string
	unit  string
	value float64
	n     int
}

// report is what one run of one workload produces.
type report struct {
	workload  string
	inputHash string
	attempted int
	failed    int
	metrics   []metric // the tier the run was asked for: these go in the JSON line
	extra     []metric // printed by name for a reader, not part of the JSON line
	failures  []string // the first few failure messages
}

func (r *report) fail(err error) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, err.Error())
	}
}

func (r *report) add(name, unit string, value float64, n int) {
	r.metrics = append(r.metrics, metric{name, unit, value, n})
}

func (r *report) addExtra(name, unit string, value float64, n int) {
	r.extra = append(r.extra, metric{name, unit, value, n})
}

// config is what the command line fixes for a run.
type config struct {
	ctx     context.Context // cancelled by SIGINT/SIGTERM: loops stop and deferred clean-up runs
	seed    int64
	seconds float64
	quick   bool
	workdir string // scratch directory inside the checkout, removed on exit
	aqld    string // path of a built aqld, "" to build one into workdir
}

// measureFor is the measured span of a run.
func (c config) measureFor() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// A run sets its workload up from scratch at least setupMinRepeats times,
// and goes on until setupMinTotal has been spent or setupMaxRepeats is
// reached, so that a set-up of a few milliseconds is sampled often enough
// for its median to hold still. setup_s is the median, and the last
// instance is the one measured.
const (
	setupMinRepeats = 5
	setupMaxRepeats = 100
	setupMinTotal   = time.Second
)

// instance is one set-up copy of a closed-loop workload: a session with its
// data bound and its first answer checked.
type instance interface {
	// op runs operation i and checks its result. It returns the time spent
	// inside AQL only: the clock is stopped while the oracle compares.
	op(ctx context.Context, i int) (time.Duration, error)
	close()
}

// closedWorkload is an in-process workload driven by one closed-loop
// client: the next operation starts when the previous one has completed.
type closedWorkload interface {
	name() string
	hash() string
	// setup builds an instance from nothing and returns once its first
	// answer has been checked, so its wall time is setup_s.
	setup() (instance, error)
	// cellsPerOp is the number of array cells one operation produces or
	// reads, at the stated sizes; 0 where cells are not the unit of work.
	cellsPerOp() int
}

// setupMedian sets a workload up repeatedly, closing all but the last
// instance, and returns that instance with the set-up times. The smoke
// test's quick runs stop at the minimum.
func setupMedian[T interface{ close() }](quick bool, setup func() (T, error)) (T, []float64, error) {
	var inst T
	var times []float64
	begin := time.Now()
	for r := 0; r < setupMinRepeats || (!quick && r < setupMaxRepeats && time.Since(begin) < setupMinTotal); r++ {
		if r > 0 {
			inst.close()
		}
		t0 := time.Now()
		var err error
		inst, err = setup()
		if err != nil {
			return inst, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return inst, times, nil
}

// closedLoopRun is the measured part of a closed-loop workload: one untimed
// warm-up operation, then operations back to back until the time is up.
type closedLoopRun struct {
	lat       []float64 // per-operation latency, ms
	wall      time.Duration
	cpu       time.Duration // user + system time of the process
	allocMB   float64       // TotalAlloc delta per operation
	gcCycles  float64       // GC cycles per operation
	attempted int
	errs      []error
}

func runClosedLoop(ctx context.Context, inst instance, d time.Duration) closedLoopRun {
	var out closedLoopRun
	if _, err := inst.op(ctx, 0); err != nil {
		out.errs = append(out.errs, fmt.Errorf("warm-up: %w", err))
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := selfCPU()
	start := time.Now()
	for i := 1; time.Since(start) < d && ctx.Err() == nil; i++ {
		lat, err := inst.op(ctx, i)
		out.attempted++
		if err != nil {
			out.errs = append(out.errs, fmt.Errorf("op %d: %w", i, err))
			continue
		}
		out.lat = append(out.lat, ms(lat))
	}
	out.wall = time.Since(start)
	out.cpu = selfCPU() - cpu0
	runtime.ReadMemStats(&m1)
	if out.attempted > 0 {
		out.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / float64(out.attempted)
		out.gcCycles = float64(m1.NumGC-m0.NumGC) / float64(out.attempted)
	}
	return out
}

// runClosedE2E is the untraced run of an in-process workload: it reports
// the end-to-end metrics and nothing else.
func runClosedE2E(w closedWorkload, cfg config) (*report, error) {
	rep := &report{workload: w.name(), inputHash: w.hash()}
	inst, setups, err := setupMedian(cfg.quick, w.setup)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	run := runClosedLoop(cfg.ctx, inst, cfg.measureFor())
	if err := cfg.ctx.Err(); err != nil {
		return nil, err
	}
	rep.attempted = run.attempted
	for _, e := range run.errs {
		rep.fail(e)
	}
	if len(run.lat) == 0 {
		return rep, nil
	}
	sorted := sortedCopy(run.lat)
	n := len(sorted)
	opsPerS := float64(n) / run.wall.Seconds()
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	rep.add("setup_s", "s", median(setups), len(setups))
	rep.add("latency_p50_ms", "ms", percentile(sorted, 50), n)
	rep.add("ops_per_s", "1/s", opsPerS, n)
	if supported(n, 90) {
		rep.addExtra("latency_p90_ms", "ms", percentile(sorted, 90), n)
	}
	if supported(n, 99) {
		rep.addExtra("latency_p99_ms", "ms", percentile(sorted, 99), n)
	}
	if c := w.cellsPerOp(); c > 0 {
		rep.addExtra("cells_per_s", "cells/s", float64(c)*opsPerS, n)
	}
	rep.addExtra("cpu_ms_per_op", "ms", ms(run.cpu)/float64(run.attempted), run.attempted)
	rep.addExtra("peak_rss_mb", "MB", rss, 1)
	rep.addExtra("alloc_mb_per_op", "MB", run.allocMB, n)
	rep.addExtra("gc_cycles_per_op", "count", run.gcCycles, n)
	return rep, nil
}
