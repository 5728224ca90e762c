package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// -selfcheck measures the benchmark's own steadiness the way the driver
// does: every workload in two sets of runs of this same binary, each run
// with another seed, and for each end-to-end metric the spread of a set
// (the distance between its quartiles as a share of its median) and the
// difference between the two sets' medians. It then runs the traced run
// once per set and checks that the counts that must repeat exactly do.

// exactCounters are the per-layer counts that repeat exactly for a seed.
var exactCounters = []string{"compile.exec_steps", "compile.exec_cells", "opt.rule_firings", "scan.tokens",
	"tile.misses", "tile.evictions", "tile.prefetches", "netcdf.readat_calls", "netcdf.bytes_read"}

// result is the JSON line a run prints last.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// benchmarkFile is the part of BENCHMARK.json -selfcheck reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runChild runs this binary once and parses its last line.
func runChild(cfg config, workload string, seed int64, trace int) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
		"-aqld", cfg.aqld, "-workdir", cfg.workdir}
	if cfg.quick {
		args = append(args, "-quick")
	}
	cmd := exec.CommandContext(cfg.ctx, exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: no result line (%v): %v", workload, seed, runErr, err)
	}
	if runErr != nil || !res.Correct {
		return nil, fmt.Errorf("%s seed %d: failed %d of %d (%v)", workload, seed, res.Failed, res.Attempted, runErr)
	}
	return &res, nil
}

// runSelfcheck builds one aqld into this run's scratch directory for all
// its children, which make their own scratch directories under workdir.
func runSelfcheck(cfg config, workdir string, runs int, only string) error {
	bin, err := buildAqld(cfg.ctx, cfg)
	if err != nil {
		return err
	}
	cfg.aqld, cfg.workdir = bin, workdir

	bounds := make(map[string]float64)
	better := make(map[string]string)
	if b, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var bf benchmarkFile
		if err := json.Unmarshal(b, &bf); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
		for _, m := range bf.EndToEnd {
			bounds[m.Name], better[m.Name] = m.Bound, m.Better
		}
	}

	fmt.Printf("selfcheck: 2 sets x %d runs x %d workloads, %g s each, seeds %d..%d\n",
		runs, len(workloadNames), cfg.seconds, cfg.seed, cfg.seed+int64(runs)-1)
	ok := true
	for _, w := range workloadNames {
		if only != "" && w != only {
			continue
		}
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = make(map[string][]float64)
			for r := 0; r < runs; r++ {
				res, err := runChild(cfg, w, cfg.seed+int64(r), 0)
				if err != nil {
					return err
				}
				for name, m := range res.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
		}
		names := make([]string, 0, len(sets[0]))
		for name := range sets[0] {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Printf("\n%s\n  %-16s %12s %12s %12s %8s %12s %8s %8s %6s\n", w,
			"metric", "median", "q1", "q3", "spread", "median(2)", "spread2", "worse", "bound")
		for _, name := range names {
			a, b := sets[0][name], sets[1][name]
			q1, q3 := quartiles(a)
			// worse is how much the second set's median is worse than the
			// first's, as a share of the first's.
			worse := (median(b) - median(a)) / median(a)
			if better[name] == "higher" {
				worse = -worse
			}
			verdict := ""
			if bound, found := bounds[name]; found {
				verdict = "ok"
				wide := spread(a) > bound || spread(b) > bound
				if (wide && name != "setup_s") || worse > bound {
					verdict, ok = "FAIL", false
				}
				verdict = fmt.Sprintf("%6.2f %s", bound, verdict)
			}
			fmt.Printf("  %-16s %12.6g %12.6g %12.6g %7.1f%% %12.6g %7.1f%% %+7.1f%% %s\n",
				name, median(a), q1, q3, 100*spread(a), median(b), 100*spread(b), 100*worse, verdict)
		}
	}

	fmt.Printf("\ncounts that must repeat exactly (traced run, seed %d, twice):\n", cfg.seed)
	var traced [2]*result
	for s := range traced {
		if traced[s], err = runChild(cfg, "plan_cold", cfg.seed, 1); err != nil {
			return err
		}
	}
	for _, name := range exactCounters {
		a, b := traced[0].Metrics[name].Value, traced[1].Metrics[name].Value
		verdict := "equal"
		if a != b {
			verdict, ok = "DIFFER", false
		}
		fmt.Printf("  %-24s %16.10g %16.10g %s\n", name, a, b, verdict)
	}
	if !ok {
		return fmt.Errorf("selfcheck failed: see FAIL and DIFFER above")
	}
	return nil
}
