// Stitched-trace tests: a coordinator plus real worker servers must
// assemble one span tree for the whole distributed query — worker subtrees
// grafted under the coordinator's shard spans, retry and hedge attempts as
// annotated siblings — whose counters sum exactly to the flat merged
// totals, even under injected chaos. The degraded path is covered too: with
// every worker down, the aqld_cluster_* series still expose the event and
// the exposition stays grammatical in both negotiated formats.
package cluster_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/aqldb/aql/internal/cluster"
	"github.com/aqldb/aql/internal/exchange"
	"github.com/aqldb/aql/internal/trace"
)

// coordReport fetches the coordinator's flight-recorder report for the
// query that just ran (the newest distributed-mode report).
func coordReport(t *testing.T, url string) *trace.QueryReport {
	t.Helper()
	resp, err := http.Get(url + "/debug/queries")
	if err != nil {
		t.Fatalf("GET /debug/queries: %v", err)
	}
	defer resp.Body.Close()
	var doc struct {
		Reports []trace.QueryReport `json:"reports"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decode reports: %v", err)
	}
	reports := doc.Reports
	for i := len(reports) - 1; i >= 0; i-- {
		if len(reports[i].Shards) > 0 {
			return &reports[i]
		}
	}
	t.Fatal("no coordinator report in the flight recorder")
	return nil
}

// stragglerTransport stalls a shard's dispatches to one named worker, so
// with hedging on that shard's winning attempt is pinned to the other
// worker, whichever the coordinator's racy round-robin picked first.
type stragglerTransport struct {
	cluster.Transport
	slow map[int]string // shard -> the worker that stalls for it
}

func (s stragglerTransport) Shard(ctx context.Context, worker string, req *exchange.ShardRequest) (*exchange.ShardResponse, error) {
	if s.slow[req.Shard] == worker {
		t := time.NewTimer(2 * time.Second)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return s.Transport.Shard(ctx, worker, req)
}

// TestStitchedTraceTwoWorkers: a chaos schedule that forces a retry on one
// shard and a hedge on another still yields one stitched span tree with
// exact counter sums, at least two live worker subtrees, and the hedge
// loser recorded as a cancelled attempt.
func TestStitchedTraceTwoWorkers(t *testing.T) {
	want := reference(t, tabQuery)

	w1, w2 := newWorker(t), newWorker(t)
	chaos := &cluster.ChaosTransport{Inner: &cluster.HTTPTransport{}}
	chaos.Fail(0, 0, cluster.ChaosFault{Kind: cluster.FaultErr})                           // shard 0 retries
	chaos.Fail(1, 0, cluster.ChaosFault{Kind: cluster.FaultDelay, Delay: 2 * time.Second}) // shard 1 hedges
	// Shards 2 and 3 win on w1 and w2 respectively: two distinct worker
	// nodes in the tree however the four shards' picks interleave.
	pinned := stragglerTransport{Transport: chaos, slow: map[int]string{2: w2.URL, 3: w1.URL}}
	cfg := fastCfg(pinned, w1.URL, w2.URL)
	cfg.HedgeAfter = 20 * time.Millisecond
	coord := cluster.New(cfg)
	ts := newCoordServer(t, coord)

	got, _, er := postQuery(t, ts, tabQuery)
	if er != nil {
		t.Fatalf("distributed query failed: %+v", er)
	}
	assertIdentical(t, got, want)

	rep := coordReport(t, ts.URL)
	if rep.Spans == nil {
		t.Fatal("coordinator report has no stitched span tree")
	}
	if rep.ProfLevel != trace.ProfStitched {
		t.Fatalf("prof level = %q, want %q", rep.ProfLevel, trace.ProfStitched)
	}
	if err := trace.CheckStitched(rep.Spans, rep.Eval); err != nil {
		t.Fatalf("stitched invariants violated: %v", err)
	}
	if rep.Eval != want.Eval {
		t.Fatalf("flat counters %+v != single-node %+v", rep.Eval, want.Eval)
	}

	var workers, cancelled, lost, shards int
	workerNodes := map[string]bool{}
	rep.Spans.Walk(func(n *trace.SpanNode) {
		switch n.Op {
		case trace.SpanWorker:
			workers++
			workerNodes[n.Node] = true
		case trace.SpanShard:
			shards++
		case trace.SpanAttempt:
			switch n.Outcome {
			case "cancelled":
				cancelled++
			case "lost":
				lost++
			}
		}
	})
	if shards != 4 {
		t.Errorf("stitched tree has %d shard spans, want 4", shards)
	}
	if workers < 2 || len(workerNodes) < 2 {
		t.Errorf("stitched tree has %d worker subtrees over %d nodes, want >= 2 distinct",
			workers, len(workerNodes))
	}
	if cancelled == 0 {
		t.Error("hedge loser not recorded as a cancelled attempt span")
	}
	if lost == 0 {
		t.Error("failed first attempt not recorded as a lost attempt span")
	}

	// The same trace is exportable as Chrome trace-event JSON by trace id.
	if rep.TraceID == "" {
		t.Fatal("coordinator report has no trace id")
	}
	resp, err := http.Get(ts.URL + "/debug/trace/" + rep.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/trace/{trace_id} = %d", resp.StatusCode)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace export not JSON: %v", err)
	}
	var sawWorker, sawCancelled bool
	for _, e := range doc.TraceEvents {
		sawWorker = sawWorker || e.Name == trace.SpanWorker
		sawCancelled = sawCancelled || e.Name == "attempt (cancelled)"
	}
	if !sawWorker || !sawCancelled {
		t.Errorf("export missing worker/cancelled spans (worker=%v cancelled=%v)", sawWorker, sawCancelled)
	}
}

// omLineRe matches one exposition line: comment, EOF, or a sample with an
// optional OpenMetrics exemplar.
var omLineRe = regexp.MustCompile(`^(# (HELP|TYPE|EOF).*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [^ #]+( # \{[^{}]*\} [^ ]+ [0-9]+\.[0-9]+)?)$`)

// TestDegradedLocalClusterMetrics: with every worker down the query still
// answers in degraded:local mode, the aqld_cluster_* series expose the
// degradation and the local shard executions, and the exposition is
// grammatical in both the classic and the OpenMetrics format.
func TestDegradedLocalClusterMetrics(t *testing.T) {
	w1, w2 := newWorker(t), newWorker(t)
	chaos := &cluster.ChaosTransport{Inner: &cluster.HTTPTransport{}}
	chaos.SetDown(w1.URL, true)
	chaos.SetDown(w2.URL, true)
	cfg := fastCfg(chaos, w1.URL, w2.URL)
	cfg.MaxAttempts = 1
	coord := cluster.New(cfg)
	ts := newCoordServer(t, coord)

	got, _, er := postQuery(t, ts, tabQuery)
	if er != nil {
		t.Fatalf("degraded query failed: %+v", er)
	}
	if got.Mode != "degraded:local" {
		t.Fatalf("mode = %q, want degraded:local", got.Mode)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	classic, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`aqld_cluster_queries_total 1`,
		`aqld_cluster_shards_total{executor="local"} 4`,
		`aqld_cluster_shards_total{executor="remote"} 0`,
		`aqld_cluster_events_total{event="degraded"} 1`,
		"# TYPE aqld_cluster_shard_seconds histogram",
		"aqld_cluster_shard_seconds_count 4",
	} {
		if !strings.Contains(string(classic), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(string(classic), "# EOF") || strings.Contains(string(classic), "# {") {
		t.Error("classic exposition leaked OpenMetrics syntax")
	}

	// The OpenMetrics negotiation: same series, exemplar-capable grammar,
	// terminated by # EOF.
	req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	om, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Fatalf("negotiated Content-Type = %q", ct)
	}
	lines := strings.Split(strings.TrimSuffix(string(om), "\n"), "\n")
	if lines[len(lines)-1] != "# EOF" {
		t.Fatalf("OpenMetrics exposition not terminated by # EOF: %q", lines[len(lines)-1])
	}
	exemplars := 0
	for i, line := range lines {
		if !omLineRe.MatchString(line) {
			t.Fatalf("line %d not valid OpenMetrics: %q", i+1, line)
		}
		if strings.HasPrefix(line, "# TYPE ") && strings.Contains(line, "_total ") {
			t.Errorf("line %d: OpenMetrics family keeps _total: %q", i+1, line)
		}
		if strings.Contains(line, " # {") {
			exemplars++
			if !strings.Contains(line, `trace_id="`) {
				t.Errorf("line %d: exemplar without trace_id: %q", i+1, line)
			}
		}
	}
	// The degraded query ran under a (minted) trace context, so its local
	// shard observations carry exemplars on the cluster histogram.
	if exemplars == 0 {
		t.Error("no exemplars in the OpenMetrics exposition")
	}
	if !strings.Contains(string(om), "aqld_cluster_shard_seconds_bucket") {
		t.Error("OpenMetrics exposition missing the cluster shard histogram")
	}
}
