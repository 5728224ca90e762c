package trace

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// fleetReport builds a synthetic finished report with a fixed wall time, so
// the fleet tests are deterministic (no clock reads feed the assertions).
func fleetReport(query string, wall time.Duration, err string) *QueryReport {
	return &QueryReport{
		Query: query,
		Wall:  wall,
		Phases: []PhaseTime{
			{Name: PhaseParse, Wall: wall / 4, Count: 1},
			{Name: PhaseEval, Wall: wall / 2, Count: 1},
		},
		Eval:  EvalCounters{Steps: 100, Cells: 20, Tabulations: 2, SetOps: 3, Iterations: 40},
		IO:    IOCounters{SlabReads: 1, BytesRead: 4096, TileHits: 3, TileMisses: 1},
		Rules: []RuleFiring{{Phase: "normalize", Rule: "beta"}, {Phase: "normalize", Rule: "beta"}},
		Err:   err,
	}
}

func TestAggregatorHistogramAndTotals(t *testing.T) {
	a := NewAggregator(0)
	walls := []time.Duration{
		500 * time.Nanosecond, // bucket 0 (<= 1µs)
		time.Microsecond,      // bucket 0 (inclusive bound)
		3 * time.Microsecond,  // bucket 2 (<= 4µs)
		time.Second,           // bucket 20 (<= ~1.05s)
		48 * time.Hour,        // +Inf bucket
	}
	for i, w := range walls {
		errText := ""
		if i == 0 {
			errText = "boom"
		}
		a.Emit(fleetReport(fmt.Sprintf("q%d", i), w, errText))
	}
	s := a.Snapshot()
	if s.Totals.Queries != 5 || s.Totals.Errors != 1 {
		t.Fatalf("totals = %d queries / %d errors, want 5 / 1", s.Totals.Queries, s.Totals.Errors)
	}
	if got := len(s.Latency.Buckets); got != nLatencyBuckets+1 {
		t.Fatalf("len(buckets) = %d, want %d", got, nLatencyBuckets+1)
	}
	wantBuckets := map[int]int64{0: 2, 2: 1, 20: 1, nLatencyBuckets: 1}
	var sum int64
	for i, n := range s.Latency.Buckets {
		sum += n
		if n != wantBuckets[i] {
			t.Errorf("bucket %d = %d, want %d", i, n, wantBuckets[i])
		}
	}
	if sum != s.Totals.Queries {
		t.Errorf("bucket sum %d != queries %d", sum, s.Totals.Queries)
	}
	// The histogram's _sum and _count are the totals' wall and query count.
	if s.Latency.Sum != s.Totals.Wall || s.Latency.Count != s.Totals.Queries {
		t.Errorf("latency sum/count = %v/%d, totals = %v/%d", s.Latency.Sum, s.Latency.Count, s.Totals.Wall, s.Totals.Queries)
	}
	if s.Rules["beta"] != 10 {
		t.Errorf("beta firings = %d, want 10", s.Rules["beta"])
	}
	if s.Totals.IO.BytesRead != 5*4096 {
		t.Errorf("bytes read = %d, want %d", s.Totals.IO.BytesRead, 5*4096)
	}
}

// TestAggregatorMisestimates: the fleet folds each joined explain table's
// flagged rows, the worst q-error, and an exemplar for the latest traced
// offender; a table with no flag changes nothing.
func TestAggregatorMisestimates(t *testing.T) {
	a := NewAggregator(0)
	flagged := func(traceID string, ops int, worst float64) *QueryReport {
		r := fleetReport("q", time.Millisecond, "")
		r.TraceID, r.Start = traceID, time.Unix(1000, 0)
		r.Explain = &ExplainTable{Misestimates: ops, WorstQError: worst}
		return r
	}
	a.Emit(fleetReport("clean", time.Millisecond, ""))
	a.Emit(flagged("aaaa", 2, 5))
	a.Emit(flagged("", 1, 3))
	a.Emit(flagged("bbbb", 0, 9)) // no flagged row: not a misestimate
	m := a.Snapshot().Misestimates
	if m.Ops != 3 || m.Queries != 2 || m.WorstQError != 5 {
		t.Fatalf("misestimates = %+v, want 3 ops / 2 queries / worst 5", m)
	}
	if m.Exemplar == nil || m.Exemplar.TraceID != "aaaa" || m.Exemplar.Value != 5 || m.Exemplar.Ts != 1000.001 {
		t.Fatalf("exemplar = %+v, want the traced offender", m.Exemplar)
	}
}

func TestAggregatorSlowLog(t *testing.T) {
	a := NewAggregator(3)
	for i := 1; i <= 10; i++ {
		a.Emit(fleetReport(fmt.Sprintf("q%d", i), time.Duration(i)*time.Millisecond, ""))
	}
	slow := a.Snapshot().Slow
	if len(slow) != 3 {
		t.Fatalf("slow log holds %d entries, want 3", len(slow))
	}
	for i, want := range []time.Duration{10 * time.Millisecond, 9 * time.Millisecond, 8 * time.Millisecond} {
		if slow[i].Wall != want {
			t.Errorf("slow[%d].Wall = %v, want %v", i, slow[i].Wall, want)
		}
	}
}

func TestFlightRecorderExactCapacity(t *testing.T) {
	const cap, emitted = 4, 11
	f := NewFlightRecorder(cap)
	for i := 0; i < emitted; i++ {
		f.Emit(fleetReport(fmt.Sprintf("q%d", i), time.Millisecond, ""))
	}
	if f.Cap() != cap {
		t.Fatalf("Cap() = %d, want %d", f.Cap(), cap)
	}
	if f.Total() != emitted {
		t.Fatalf("Total() = %d, want %d", f.Total(), emitted)
	}
	reports := f.Reports()
	if len(reports) != cap {
		t.Fatalf("retained %d reports, want exactly %d", len(reports), cap)
	}
	for i, r := range reports {
		if want := fmt.Sprintf("q%d", emitted-cap+i); r.Query != want {
			t.Errorf("reports[%d].Query = %q, want %q (oldest first)", i, r.Query, want)
		}
	}
}

// TestWritePrometheusGolden pins the exact exposition text for a small
// fixed snapshot; any format drift (metric names, label ordering, float
// rendering) must show up as a diff here.
func TestWritePrometheusGolden(t *testing.T) {
	a := NewAggregator(0)
	a.Emit(fleetReport("q1", 3*time.Microsecond, ""))
	a.Emit(fleetReport("q2", time.Second, "boom"))
	var b strings.Builder
	mw := NewMetricWriter(&b, false)
	writeFleetMetrics(mw, a.Snapshot())
	if err := mw.Err(); err != nil {
		t.Fatal(err)
	}
	got := b.String()

	const golden = `# HELP aql_queries_total Queries executed.
# TYPE aql_queries_total counter
aql_queries_total 2
# HELP aql_query_errors_total Queries that ended in an error.
# TYPE aql_query_errors_total counter
aql_query_errors_total 1
`
	if !strings.HasPrefix(got, golden) {
		t.Errorf("exposition prefix:\n%s\nwant:\n%s", got[:min(len(got), len(golden)+80)], golden)
	}
	for _, line := range []string{
		`aql_query_duration_seconds_bucket{le="1e-06"} 0`,
		`aql_query_duration_seconds_bucket{le="4e-06"} 1`,
		`aql_query_duration_seconds_bucket{le="+Inf"} 2`,
		`aql_query_duration_seconds_sum 1.000003`,
		`aql_query_duration_seconds_count 2`,
		`aql_phase_seconds_total{phase="parse"} 0.25000075`,
		`aql_rule_firings_total{rule="beta"} 4`,
		`aql_eval_steps_total 200`,
		`aql_eval_iterations_total 80`,
		`aql_io_bytes_read_total 8192`,
		`aql_io_tile_hits_total 6`,
	} {
		if !strings.Contains(got, line+"\n") {
			t.Errorf("exposition missing line %q\nfull output:\n%s", line, got)
		}
	}
	// The byte-block cache is gone; its families must not come back as
	// always-zero series.
	for _, family := range []string{"aql_io_cache_hits_total", "aql_io_cache_misses_total", "aql_io_prefetches_total"} {
		if strings.Contains(got, family) {
			t.Errorf("exposition still has the removed family %s", family)
		}
	}
	// Histogram buckets must be cumulative and monotone.
	var prev int64 = -1
	for _, line := range strings.Split(got, "\n") {
		if !strings.HasPrefix(line, "aql_query_duration_seconds_bucket") {
			continue
		}
		var v int64
		if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &v); err != nil {
			t.Fatalf("unparseable bucket line %q", line)
		}
		if v < prev {
			t.Errorf("bucket counts not monotone at %q", line)
		}
		prev = v
	}
}

// TestNewHandlerEndpoints checks each endpoint's status and Content-Type,
// and that unknown paths 404 rather than falling through to the summary.
func TestNewHandlerEndpoints(t *testing.T) {
	agg := NewAggregator(0)
	flight := NewFlightRecorder(2)
	rep := fleetReport("q", time.Millisecond, "")
	agg.Emit(rep)
	flight.Emit(rep)
	srv := httptest.NewServer(NewHandler(agg, flight))
	defer srv.Close()

	cases := []struct {
		path        string
		status      int
		contentType string
	}{
		{"/", 200, "application/json"},
		{"/metrics", 200, PrometheusContentType},
		{"/debug/queries", 200, "application/json"},
		{"/debug/slow", 200, "application/json"},
		{"/debug/pprof/", 200, ""},
		{"/nope", 404, ""},
		{"/metrics/extra", 404, ""},
	}
	for _, tc := range cases {
		resp, err := srv.Client().Get(srv.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.status {
			t.Errorf("GET %s = %d, want %d", tc.path, resp.StatusCode, tc.status)
		}
		if tc.contentType != "" && resp.Header.Get("Content-Type") != tc.contentType {
			t.Errorf("GET %s Content-Type = %q, want %q", tc.path, resp.Header.Get("Content-Type"), tc.contentType)
		}
		resp.Body.Close()
	}

	// Fleet endpoints degrade to 404 when their component is absent.
	bare := httptest.NewServer(NewHandler(nil, nil))
	defer bare.Close()
	for _, path := range []string{"/metrics", "/debug/queries", "/debug/slow"} {
		resp, err := bare.Client().Get(bare.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 404 {
			t.Errorf("GET %s without fleet wiring = %d, want 404", path, resp.StatusCode)
		}
		resp.Body.Close()
	}

	// The flight-recorder endpoint serves the capacity and full reports.
	resp, err := srv.Client().Get(srv.URL + "/debug/queries")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload struct {
		Capacity int           `json:"capacity"`
		Total    int64         `json:"total"`
		Reports  []QueryReport `json:"reports"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if payload.Capacity != 2 || payload.Total != 1 || len(payload.Reports) != 1 {
		t.Errorf("flight payload = %+v", payload)
	}
	if payload.Reports[0].Query != "q" {
		t.Errorf("flight report query = %q", payload.Reports[0].Query)
	}
}
