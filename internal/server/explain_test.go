package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/aqldb/aql/internal/trace"
)

// TestDebugExplainEndpoint: /debug/explain/{id} serves the joined
// estimate-vs-actual table of a recorded query as JSON, by request id or
// trace id, with Card values round-tripping as numbers or "unknown".
func TestDebugExplainEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	qr, _ := postQueryHeaders(t, ts, QueryRequest{Query: `[[ i*i | \i < 40 ]]`},
		map[string]string{"X-Request-ID": "explain-me"})

	for _, id := range []string{"explain-me", qr.TraceID} {
		resp, err := http.Get(ts.URL + "/debug/explain/" + id)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /debug/explain/%s = %d: %s", id, resp.StatusCode, b)
		}
		var tab trace.ExplainTable
		if err := json.Unmarshal(b, &tab); err != nil {
			t.Fatalf("explain table not JSON: %v", err)
		}
		// Server programs execute unprofiled closures, so the join runs in
		// root mode: one row of whole-query totals.
		if tab.Mode != "root" {
			t.Fatalf("mode = %q, want root", tab.Mode)
		}
		if len(tab.Rows) != 1 {
			t.Fatalf("rows = %d, want 1", len(tab.Rows))
		}
		row := tab.Rows[0]
		if !row.EstCells.Known || row.EstCells.N != 40 {
			t.Errorf("est cells = %v, want known 40", row.EstCells)
		}
		if row.ActCells != 40 {
			t.Errorf("act cells = %d, want 40", row.ActCells)
		}
		if row.EstCost.Known && row.QError != 1 {
			t.Errorf("known est cost scored q=%v, want exact 1", row.QError)
		}
	}

	// Unknown ids 404 with a structured error.
	resp, err := http.Get(ts.URL + "/debug/explain/no-such-id")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id = %d, want 404", resp.StatusCode)
	}
}

// TestDebugExplainUnknownCards: a parameter-bounded template's estimates
// must surface the explicit "unknown" marker through the JSON API, never a
// fabricated number.
func TestDebugExplainUnknownCards(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postQueryHeaders(t, ts, QueryRequest{
		Query: `[[ i * $a | \i < $n ]]`,
		Args:  map[string]string{"a": "3", "n": "5"},
	}, map[string]string{"X-Request-ID": "param-explain"})

	resp, err := http.Get(ts.URL + "/debug/explain/param-explain")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/explain/param-explain = %d: %s", resp.StatusCode, b)
	}
	if !strings.Contains(string(b), `"unknown"`) {
		t.Errorf("parameter-dependent table carries no unknown marker: %s", b)
	}
	var tab trace.ExplainTable
	if err := json.Unmarshal(b, &tab); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if tab.Rows[0].EstCells.Known {
		t.Errorf("parameter-bounded est cells = %v, want unknown", tab.Rows[0].EstCells)
	}
}

// TestMisestimateMetrics: the aqld_plan_misestimate_* family is always
// exposed, and a flagged misestimate increments it with the offending
// query's trace id attached as an OpenMetrics exemplar.
func TestMisestimateMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if _, _, err := postQuery(ts, QueryRequest{Query: "1 + 2"}); err != nil {
		t.Fatal(err)
	}

	scrape := func() string {
		req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
		req.Header.Set("Accept", "application/openmetrics-text")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}

	out := scrape()
	for _, want := range []string{
		"aqld_plan_misestimate_ops_total 0",
		"aqld_plan_misestimate_queries_total 0",
		"aqld_plan_misestimate_worst_q_error 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("clean scrape missing %q", want)
		}
	}

	// Exact-or-unknown estimates cannot misestimate on a single node, so
	// inject a flagged report into the fleet aggregator the query path
	// reports to.
	s.sess.Fleet.Emit(&trace.QueryReport{
		TraceID: "4bf92f3577b34da6a3ce929d0e0e4736",
		Start:   time.Unix(1000, 0), Wall: time.Millisecond,
		Explain: &trace.ExplainTable{Misestimates: 2, WorstQError: 5.0, WorstOp: "ArrayTab"},
	})
	out = scrape()
	if !strings.Contains(out, "aqld_plan_misestimate_ops_total 2") {
		t.Errorf("ops counter not incremented:\n%s", out)
	}
	if !strings.Contains(out, "aqld_plan_misestimate_queries_total 1") {
		t.Errorf("queries counter not incremented")
	}
	if !strings.Contains(out, "aqld_plan_misestimate_worst_q_error 5") {
		t.Errorf("worst q-error gauge not updated")
	}
	if !strings.Contains(out, `aqld_plan_misestimate_ops_total 2 # {trace_id="4bf92f3577b34da6a3ce929d0e0e4736"} 5 1000.001`) {
		t.Errorf("misestimate counter carries no trace_id exemplar:\n%s", out)
	}
}

// TestMisestimateMetricsSequence pins the aqld_plan_misestimate_* series,
// exemplars included (less their timestamps), after each request of a
// fixed sequence. A threshold below 1 flags every row with a known
// estimate, so real joined tables reach the fleet: the ⊥ short-circuit of
// requests 1 and 5 scores q-error 1.1666, and request 6 (real arithmetic,
// estimates unknown) flags nothing. The values are the ones the server's
// own misestimate ledger produced before the fleet aggregator took it over.
func TestMisestimateMetricsSequence(t *testing.T) {
	_, ts := newTestServer(t, Config{QErrorThreshold: 0.5})
	queries := []string{
		`1 + 2`,
		`[[ 1 / (i - i) + i | \i < 1000 ]]`,
		`[[ i*i | \i < 40 ]]`,
		`[[ if i = 500 then 1 / (i - i) else i | \i < 1000 ]]`,
		`summap(fn \i => 1 / (i - i) + i)!(gen!300)`,
		`[[ 1 / (i - i) + i | \i < 1000 ]]`,
		`[[ 1.0 / real!(i - i) + real!i | \i < 64 ]]`,
	}
	const q = "1.166611129623459"
	want := []struct {
		ops, queries, worst, exTrace, exValue string
	}{
		{"1", "1", "1", "0", "1"},
		{"2", "2", q, "1", q},
		{"3", "3", q, "2", "1"},
		{"4", "4", q, "3", "1"},
		{"5", "5", q, "4", "1"},
		{"6", "6", q, "5", q},
		{"6", "6", q, "5", q},
	}
	const tracePrefix = "4bf92f3577b34da6a3ce929d0e0e473"
	for i, src := range queries {
		postQueryHeaders(t, ts, QueryRequest{Query: src},
			map[string]string{"traceparent": fmt.Sprintf("00-%s%d-00f067aa0ba902b7-01", tracePrefix, i)})
		req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
		req.Header.Set("Accept", "application/openmetrics-text")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var got []string
		for _, line := range strings.Split(string(b), "\n") {
			if !strings.HasPrefix(line, "aqld_plan_misestimate") {
				continue
			}
			if strings.Contains(line, " # {") { // drop the exemplar's timestamp
				line = line[:strings.LastIndexByte(line, ' ')]
			}
			got = append(got, line)
		}
		w := want[i]
		ex := fmt.Sprintf(` # {trace_id="%s%s"} %s`, tracePrefix, w.exTrace, w.exValue)
		wantLines := []string{
			"aqld_plan_misestimate_ops_total " + w.ops + ex,
			"aqld_plan_misestimate_queries_total " + w.queries + ex,
			"aqld_plan_misestimate_worst_q_error " + w.worst,
		}
		if strings.Join(got, "\n") != strings.Join(wantLines, "\n") {
			t.Errorf("after request %d (%s):\n got %q\nwant %q", i, src, got, wantLines)
		}
	}
}
