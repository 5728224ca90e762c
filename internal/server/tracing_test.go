package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/aqldb/aql/internal/trace"
)

// postQueryHeaders fires one query with extra request headers and returns
// the decoded response plus the response headers.
func postQueryHeaders(t *testing.T, ts *httptest.Server, req QueryRequest, hdr map[string]string) (*QueryResponse, http.Header) {
	t.Helper()
	body, _ := json.Marshal(req)
	hreq, err := http.NewRequest("POST", ts.URL+"/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		hreq.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatalf("POST /query: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /query = %d: %s", resp.StatusCode, b)
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return &qr, resp.Header
}

// TestRequestIDHonored: a client-supplied X-Request-ID is sanitized, echoed
// on the response, and stamps the flight-recorder report.
func TestRequestIDHonored(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	qr, hdr := postQueryHeaders(t, ts, QueryRequest{Query: "1 + 2"},
		map[string]string{"X-Request-ID": "load-test:42"})
	if qr.ID != "load-test:42" {
		t.Fatalf("response id = %q, want the supplied id", qr.ID)
	}
	if hdr.Get("X-Request-ID") != "load-test:42" {
		t.Fatalf("X-Request-ID header = %q", hdr.Get("X-Request-ID"))
	}
	rep, ok := s.sess.Flight.Find("load-test:42")
	if !ok {
		t.Fatal("flight recorder has no report under the supplied id")
	}
	if rep.Query != "1 + 2" {
		t.Fatalf("report under id = %q", rep.Query)
	}

	// Hostile ids are sanitized before they are echoed anywhere.
	qr, hdr = postQueryHeaders(t, ts, QueryRequest{Query: "2 + 2"},
		map[string]string{"X-Request-ID": "a b\t<script>x=1;</script>"})
	if qr.ID != "abscriptx1script" {
		t.Fatalf("sanitized id = %q", qr.ID)
	}
	if hdr.Get("X-Request-ID") != qr.ID {
		t.Fatalf("echoed header %q != body id %q", hdr.Get("X-Request-ID"), qr.ID)
	}

	// An id that sanitizes to nothing falls back to a server-minted one.
	qr, _ = postQueryHeaders(t, ts, QueryRequest{Query: "3 + 3"},
		map[string]string{"X-Request-ID": " !!! ??? "})
	if !strings.HasPrefix(qr.ID, "q") || len(qr.ID) != 7 {
		t.Fatalf("minted id = %q, want q%%06d", qr.ID)
	}
}

// TestTraceparentHonoredAndMinted: an inbound W3C traceparent is adopted as
// the query's trace identity; without one the server mints a valid context.
// Either way the response carries the id in the body and the header.
func TestTraceparentHonoredAndMinted(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	const inbound = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	qr, hdr := postQueryHeaders(t, ts, QueryRequest{Query: "1 + 2"},
		map[string]string{"traceparent": inbound})
	if qr.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace id = %q, want the inbound one", qr.TraceID)
	}
	tc, ok := trace.ParseTraceparent(hdr.Get("traceparent"))
	if !ok || tc.TraceID != qr.TraceID {
		t.Fatalf("response traceparent %q does not carry the trace id", hdr.Get("traceparent"))
	}
	if rep, ok := s.sess.Flight.Find(qr.TraceID); !ok || rep.TraceID != qr.TraceID {
		t.Fatal("report not findable by trace id")
	}
	// Its admission wait (the fast path: bucket 0) carries it as exemplar.
	if ex := s.adm.queueWait.Snapshot().Exemplars[0]; ex == nil || ex.TraceID != qr.TraceID {
		t.Fatalf("queue-wait exemplar = %+v, want trace id %s", ex, qr.TraceID)
	}

	// No inbound context: the server mints one.
	qr, hdr = postQueryHeaders(t, ts, QueryRequest{Query: "2 + 3"}, nil)
	if len(qr.TraceID) != 32 {
		t.Fatalf("minted trace id = %q", qr.TraceID)
	}
	if tc, ok := trace.ParseTraceparent(hdr.Get("traceparent")); !ok || tc.TraceID != qr.TraceID {
		t.Fatalf("minted traceparent header = %q", hdr.Get("traceparent"))
	}

	// A malformed inbound header is ignored, not adopted.
	qr, _ = postQueryHeaders(t, ts, QueryRequest{Query: "3 + 4"},
		map[string]string{"traceparent": "00-zzzz-bad-01"})
	if len(qr.TraceID) != 32 || strings.Contains(qr.TraceID, "z") {
		t.Fatalf("malformed traceparent adopted: %q", qr.TraceID)
	}
}

// TestDebugTraceEndpoint: /debug/trace/{id} serves a recorded query as
// Chrome trace-event JSON, by request id or trace id; unknown ids 404.
func TestDebugTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	qr, _ := postQueryHeaders(t, ts, QueryRequest{Query: "1 + 2"},
		map[string]string{"X-Request-ID": "trace-me"})

	for _, id := range []string{"trace-me", qr.TraceID} {
		resp, err := http.Get(ts.URL + "/debug/trace/" + id)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /debug/trace/%s = %d", id, resp.StatusCode)
		}
		var doc struct {
			TraceEvents []map[string]any `json:"traceEvents"`
			OtherData   map[string]any   `json:"otherData"`
		}
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Fatalf("trace export not JSON: %v", err)
		}
		if len(doc.TraceEvents) == 0 {
			t.Fatal("trace export has no events")
		}
		if doc.OtherData["id"] != "trace-me" {
			t.Fatalf("otherData = %v", doc.OtherData)
		}
	}

	resp, err := http.Get(ts.URL + "/debug/trace/no-such-id")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id = %d, want 404", resp.StatusCode)
	}
}

// TestDebugPlanStats: executions aggregate into /debug/planstats under the
// plan-cache key, surviving repeated runs and keeping cache-hit counts.
func TestDebugPlanStats(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for i := 0; i < 3; i++ {
		if _, _, err := postQuery(ts, QueryRequest{Query: "[[ i*i | \\i < 50 ]]"}); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}

	resp, err := http.Get(ts.URL + "/debug/planstats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap trace.PlanStatsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(snap.Plans) != 1 {
		t.Fatalf("planstats tracks %d plans, want 1", len(snap.Plans))
	}
	p := snap.Plans[0]
	if !strings.Contains(p.Key, "@e") || !strings.Contains(p.Key, "i*i") {
		t.Fatalf("plan key = %q, want normalized query @ epoch", p.Key)
	}
	if p.Queries != 3 || p.CacheHits != 2 {
		t.Fatalf("plan profile = %d queries, %d hits", p.Queries, p.CacheHits)
	}
	if p.CellsLast != 50 || p.CellsEWMA == 0 {
		t.Fatalf("cells = last %d ewma %v", p.CellsLast, p.CellsEWMA)
	}
	if p.LatencyEWMA <= 0 {
		t.Fatalf("latency EWMA = %v", p.LatencyEWMA)
	}
}

// TestShardCarriesTrace: POST /shard adopts the request's trace id and
// returns a well-formed span subtree alongside the counters.
func TestShardCarriesTrace(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	body, _ := json.Marshal(map[string]any{
		"query": "[[ i+1 | \\i < 32 ]]", "shape": []int{32}, "start": 0, "end": 32,
		"trace_id": traceID, "parent_span": "00f067aa0ba902b7",
	})
	resp, err := http.Post(ts.URL+"/shard", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr struct {
		ID          string `json:"id"`
		TraceID     string `json:"trace_id"`
		QueueWaitNS int64  `json:"queue_wait_ns"`
		Spans       *struct {
			Op       string `json:"op"`
			WallNS   int64  `json:"wall_ns"`
			SelfNS   int64  `json:"self_ns"`
			Children []struct {
				Op     string `json:"op"`
				WallNS int64  `json:"wall_ns"`
			} `json:"children"`
		} `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil || resp.StatusCode != 200 {
		t.Fatalf("shard response: status %d, err %v", resp.StatusCode, err)
	}
	if sr.TraceID != traceID {
		t.Fatalf("shard trace id = %q", sr.TraceID)
	}
	if sr.Spans == nil || sr.Spans.Op != trace.SpanWorker {
		t.Fatalf("shard spans = %+v, want a worker root", sr.Spans)
	}
	var kids int64
	evalSeen := false
	for _, c := range sr.Spans.Children {
		kids += c.WallNS
		evalSeen = evalSeen || c.Op == trace.SpanEval
	}
	if !evalSeen {
		t.Fatal("worker tree has no eval child")
	}
	if sr.Spans.WallNS < kids {
		t.Fatalf("worker root wall %d < children %d", sr.Spans.WallNS, kids)
	}
	if rep, ok := s.sess.Flight.Find(sr.ID); !ok || rep.TraceID != traceID || rep.Mode != "shard" {
		t.Fatalf("worker report = %+v, %v", rep, ok)
	}
}
