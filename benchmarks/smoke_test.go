package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
	"time"

	"github.com/aqldb/aql"
	"github.com/aqldb/aql/internal/exchange"
)

// The smoke test drives the benchmark in -quick mode (sizes /16, short
// steps) so that tier-1 notices when it stops building, stops agreeing with
// its oracles, or drifts from BENCHMARK.json. It measures nothing.

// TestMain runs from the repository root, where BENCHMARK.json and
// ./cmd/aqld are.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func quickConfig(t *testing.T, seconds float64) config {
	t.Helper()
	return config{ctx: context.Background(), seed: 7, seconds: seconds, quick: true, workdir: t.TempDir()}
}

func TestPercentileAndTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := percentile(xs, 99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	// Ten samples must lie beyond a percentile for it to be reported.
	if !supported(100, 90) || supported(99, 90) {
		t.Errorf("p90: supported(100)=%v supported(99)=%v, want true false", supported(100, 90), supported(99, 90))
	}
	if !supported(1000, 99) || supported(999, 99) {
		t.Errorf("p99: supported(1000)=%v supported(999)=%v, want true false", supported(1000, 99), supported(999, 99))
	}
	if got := samplesBeyond(130, 90); got != 13 {
		t.Errorf("samplesBeyond(130, 90) = %d, want 13", got)
	}
}

// TestQuartilesMatchDriver pins quartiles to Python's
// statistics.quantiles(values, n=4), which the driver uses.
func TestQuartilesMatchDriver(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5 = 1", got)
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "exec.a", Start: 10, End: 30, Parent: 0},
		{Name: "tile.fetch", Start: 20, End: 50, Parent: 0},  // overlaps its sibling: a parallel worker
		{Name: "tile.fetch", Start: 90, End: 120, Parent: 0}, // runs past the parent: clipped
		{Name: "netcdf.read", Start: 25, End: 45, Parent: 2},
	}
	self := selfTimes(spans)
	want := []int64{50, 20, 10, 30, 20}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, self[i], want[i])
		}
	}
	table := shareTable(spans)[""]
	sum := 0.0
	for _, v := range table {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares of a row sum to %v, want 1", sum)
	}
	if got := table["tile_netcdf"]; math.Abs(got-60.0/130) > 1e-12 {
		t.Errorf("tile_netcdf share = %v, want 60/130", got)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x", "", -1, 0)) // the untraced path must be a no-op
}

func TestScheduleSeededAndLateness(t *testing.T) {
	cfg := quickConfig(t, 1)
	hashOf := func(seed int64) (string, []request) {
		cfg.seed = seed
		w := newServe(cfg)
		serial := 0
		reqs := w.schedule(newRNG(seed, "serve_mixed.schedule"), 1000, time.Second, &serial)
		h := newInputHash()
		hashSchedule(h, reqs)
		return h.sum(), reqs
	}
	h1, reqs := hashOf(7)
	h2, _ := hashOf(7)
	h3, _ := hashOf(8)
	if h1 != h2 || h1 == h3 {
		t.Errorf("schedule hashes: same seed %s %s, other seed %s", h1, h2, h3)
	}
	if n := len(reqs); n < 850 || n > 1150 {
		t.Errorf("1 s at 1000 req/s scheduled %d arrivals", n)
	}
	classes := make(map[int]int)
	for i, r := range reqs {
		classes[r.class]++
		if i > 0 && r.due < reqs[i-1].due {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
	}
	if hit := float64(classes[classHit]) / float64(len(reqs)); hit < 0.62 || hit > 0.78 {
		t.Errorf("hit share of the mix = %.2f, want about 0.70", hit)
	}

	// A step's summary: latency runs from due time, lateness is reported,
	// and a refused request misses the limit whatever the others did.
	res := stepResult{rate: 100, wall: time.Second}
	for i := 0; i < 200; i++ {
		res.outcomes = append(res.outcomes, outcome{lat: 2 * time.Millisecond, late: time.Duration(i) * 10 * time.Microsecond})
		res.depths = append(res.depths, 1)
	}
	s := summarize(res)
	if !s.meets || s.p50 != 2 || math.Abs(s.lateP99-1.97) > 1e-9 || s.goodput != 200 {
		t.Errorf("summary of a healthy step: meets=%v p50=%v lateP99=%v goodput=%v", s.meets, s.p50, s.lateP99, s.goodput)
	}
	res.outcomes[17] = outcome{refused: true}
	if s := summarize(res); s.meets || s.refused != 1 {
		t.Errorf("a step with a refusal: meets=%v refused=%d", s.meets, s.refused)
	}
	growing := append(make([]int, 100), make([]int, 200)...)
	for i := 200; i < 300; i++ {
		growing[i] = 20
	}
	if !backlogGrowing(growing) {
		t.Error("a queue of 0 in the first third and 20 in the last is a growing backlog")
	}
	if backlogGrowing(res.depths) {
		t.Error("a constant queue depth is not a growing backlog")
	}
}

// TestOracleAgreement runs the generated queries through a real session:
// the closed forms, AQL and the exchange-format rendering must all agree.
func TestOracleAgreement(t *testing.T) {
	s, err := aql.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := bindPlanData(s); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for i, q := range (&planWorkload{seed: 7}).sample(300) {
		if seen[q.text] {
			t.Fatalf("query %d repeats an earlier text: %s", i, q.text)
		}
		seen[q.text] = true
		v, _, err := s.Query(q.text)
		if err != nil {
			t.Fatalf("%s: %v\n%s", q.family, err, q.text)
		}
		if err := q.want.check(v); err != nil {
			t.Fatalf("%s: %v\n%s", q.family, err, q.text)
		}
		if got, err := exchange.WriteString(v); err != nil || got != q.want.text() {
			t.Fatalf("%s: exchange text %q (%v), oracle %q", q.family, got, err, q.want.text())
		}
	}
	if err := (expect{kind: "nat", n: 3}).check(aql.Nat(4)); err == nil {
		t.Error("a wrong answer passed its check")
	}
	if got := (expect{kind: "array", shape: []int{2, 2}, a: []int64{1, 2, 3, 4}}).text(); got != "[[2, 2; 1, 2, 3, 4]]" {
		t.Errorf("exchange text of a 2x2 array = %q", got)
	}
	if got := (expect{kind: "pairs", a: []int64{1, 2}, b: []int64{3, 4}}).text(); got != "[[(1, 3), (2, 4)]]" {
		t.Errorf("exchange text of a pair vector = %q", got)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// declared reads one tier's metric names and units from BENCHMARK.json.
func declared(t *testing.T, tier string) map[string]string {
	t.Helper()
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(doc[tier], &ms); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// sameMetrics checks that a report carries exactly a tier's metrics.
func sameMetrics(t *testing.T, rep *report, tier string) {
	t.Helper()
	if rep.failed != 0 || rep.attempted == 0 {
		t.Errorf("%s: attempted %d, failed %d: %v", rep.workload, rep.attempted, rep.failed, rep.failures)
	}
	want := declared(t, tier)
	got := make(map[string]bool)
	for _, m := range rep.metrics {
		got[m.name] = true
		if !metricName.MatchString(m.name) {
			t.Errorf("%s: metric name %q is not made of letters, digits, _ . -", rep.workload, m.name)
		}
		if unit, found := want[m.name]; !found {
			t.Errorf("%s: metric %s is not in BENCHMARK.json %s", rep.workload, m.name, tier)
		} else if unit != m.unit {
			t.Errorf("%s: metric %s has unit %s, BENCHMARK.json says %s", rep.workload, m.name, m.unit, unit)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			t.Errorf("%s: metric %s = %v", rep.workload, m.name, m.value)
		}
	}
	var missing []string
	for name := range want {
		if !got[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("%s: BENCHMARK.json %s metrics not reported: %v", rep.workload, tier, missing)
	}
}

func TestQuickUntracedRuns(t *testing.T) {
	for _, name := range workloadNames {
		cfg := quickConfig(t, 0.3)
		var rep *report
		var err error
		if name == "serve_mixed" {
			cfg.seconds = 1.5
			rep, err = runServeE2E(cfg)
		} else {
			rep, err = runClosedE2E(closedByName(name, cfg), cfg)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameMetrics(t, rep, "end_to_end")
		// The same seed gives the same inputs.
		if name != "serve_mixed" {
			if again := closedByName(name, cfg).hash(); again != rep.inputHash {
				t.Errorf("%s: input hash %s, then %s", name, rep.inputHash, again)
			}
		}
	}
}

func TestQuickTracedRun(t *testing.T) {
	cfg := quickConfig(t, 2)
	spans := filepath.Join(cfg.workdir, "spans.json")
	rep, err := runTraced("ooc_scan", cfg, spans)
	if err != nil {
		t.Fatal(err)
	}
	sameMetrics(t, rep, "per_layer")
	b, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		Self  int64  `json:"self_ns"`
		Layer string `json:"layer"`
	}
	if err := json.Unmarshal(b, &rows); err != nil {
		t.Fatalf("span file: %v", err)
	}
	layers := make(map[string]bool)
	for _, r := range rows {
		layers[r.Layer] = true
		if r.Self < 0 {
			t.Fatalf("negative self time %d in layer %s", r.Self, r.Layer)
		}
	}
	for _, g := range layerGroups {
		if !layers[g] {
			t.Errorf("no span of layer group %s in the span file", g)
		}
	}
}
