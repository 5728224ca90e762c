package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/exchange"
	"github.com/aqldb/aql/internal/repl"
	"github.com/aqldb/aql/internal/trace"
)

// slowQuery is CPU-heavy enough (≈4M summation iterations) to still be
// in flight when a test cancels it or piles more requests behind it, yet
// allocates nothing pathological.
const slowQuery = `summap(fn \i => summap(fn \j => i*j)!(gen!2000))!(gen!2000)`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	sess, err := repl.New()
	if err != nil {
		t.Fatalf("repl.New: %v", err)
	}
	s := New(sess, cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// postQuery fires one query and decodes the response; a non-2xx status
// returns the decoded ErrorResponse as err via errorInfoError.
func postQuery(ts *httptest.Server, req QueryRequest) (*QueryResponse, int, error) {
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var er ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			return nil, resp.StatusCode, fmt.Errorf("undecodable error body: %w", err)
		}
		return nil, resp.StatusCode, &errorInfoError{er.Error}
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		return nil, resp.StatusCode, err
	}
	return &qr, resp.StatusCode, nil
}

type errorInfoError struct{ Info ErrorInfo }

func (e *errorInfoError) Error() string { return e.Info.Kind + ": " + e.Info.Message }

func TestQueryBasicAndCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	first, _, err := postQuery(ts, QueryRequest{Query: "1 + 2"})
	if err != nil {
		t.Fatalf("first query: %v", err)
	}
	if first.Value != "3" || first.Type != "nat" {
		t.Fatalf("first query: got (%s : %s), want (3 : nat)", first.Value, first.Type)
	}
	if first.Cached {
		t.Fatal("first execution of a query reported cached")
	}

	// Same query, different layout: normalization must hit the same plan.
	second, _, err := postQuery(ts, QueryRequest{Query: "  1 +\n\t2  ;"})
	if err != nil {
		t.Fatalf("second query: %v", err)
	}
	if !second.Cached {
		t.Fatal("second execution did not hit the plan cache")
	}
	if second.Value != "3" {
		t.Fatalf("cached execution value = %s, want 3", second.Value)
	}
}

// TestStringLiteralWhitespaceSignificant: normalization must not rewrite
// string literals — a query is executed exactly as submitted, and literals
// differing only in internal whitespace get distinct plans.
func TestStringLiteralWhitespaceSignificant(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	wide, _, err := postQuery(ts, QueryRequest{Query: `  "a  b"  ;`})
	if err != nil {
		t.Fatalf("wide literal: %v", err)
	}
	if wide.Value != `"a  b"` {
		t.Fatalf("wide literal value = %s, want %q (double space preserved)", wide.Value, `"a  b"`)
	}
	narrow, _, err := postQuery(ts, QueryRequest{Query: `"a b"`})
	if err != nil {
		t.Fatalf("narrow literal: %v", err)
	}
	if narrow.Cached {
		t.Fatal(`"a b" hit the plan cached for "a  b": distinct literals collided on one key`)
	}
	if narrow.Value != `"a b"` {
		t.Fatalf("narrow literal value = %s, want %q", narrow.Value, `"a b"`)
	}
	// Layout outside the literal is still insignificant: same plan.
	again, _, err := postQuery(ts, QueryRequest{Query: "\n\"a  b\"\t;"})
	if err != nil {
		t.Fatalf("re-run wide literal: %v", err)
	}
	if !again.Cached || again.Value != wide.Value {
		t.Fatalf("re-run wide literal: cached=%v value=%s, want a hit with %s", again.Cached, again.Value, wide.Value)
	}
}

// TestCacheHitSkipsPrepare is the acceptance check for the prepared-plan
// cache: a hit's phase timings must contain NO prepare phases at all —
// parse, desugar, macro expansion, typecheck, optimize and compile ran
// exactly once, at prepare time.
func TestCacheHitSkipsPrepare(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	const q = `{d | \d <- gen!30, d % 7 = 0}`
	first, _, err := postQuery(ts, QueryRequest{Query: q})
	if err != nil {
		t.Fatalf("cold query: %v", err)
	}
	hit, _, err := postQuery(ts, QueryRequest{Query: q})
	if err != nil {
		t.Fatalf("cached query: %v", err)
	}
	if !hit.Cached {
		t.Fatal("second execution was not a cache hit")
	}

	phases := func(r *QueryResponse) map[string]int64 {
		m := map[string]int64{}
		for _, p := range r.Phases {
			m[p.Name] = int64(p.Wall)
		}
		return m
	}
	cold, hot := phases(first), phases(hit)
	prepare := []string{
		trace.PhaseParse, trace.PhaseDesugar, trace.PhaseMacro,
		trace.PhaseTypecheck, trace.PhaseOptimize, trace.PhaseCompile,
	}
	for _, ph := range prepare {
		if _, ok := cold[ph]; !ok {
			t.Errorf("cold execution missing %s phase", ph)
		}
		if d, ok := hot[ph]; ok {
			t.Errorf("cache hit ran %s for %dns; prepare phases must not run on hits", ph, d)
		}
	}
	if _, ok := hot[trace.PhaseEval]; !ok {
		t.Error("cache hit missing eval phase")
	}
	if first.Value != hit.Value {
		t.Errorf("cold and cached values diverge: %s vs %s", first.Value, hit.Value)
	}
}

// TestConcurrentMixedLoad is the concurrent-load acceptance test: ≥8
// requests in flight mixing cache hits, misses and mid-flight
// cancellations, run under -race in CI. Every outcome must be a well-typed
// success or a typed error, and values must be exact.
func TestConcurrentMixedLoad(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 4, MaxQueued: 64, QueueTimeout: time.Minute})

	// Warm one plan so the load mixes hits with misses.
	warm, _, err := postQuery(ts, QueryRequest{Query: "summap(fn \\i => i)!(gen!1000)"})
	if err != nil {
		t.Fatalf("warm query: %v", err)
	}

	const (
		nHits    = 8 // re-run the warmed plan
		nMisses  = 8 // distinct queries, each a cold prepare
		nCancels = 4 // slow queries cancelled mid-flight
	)
	var wg sync.WaitGroup
	errs := make(chan error, nHits+nMisses+nCancels)

	for g := 0; g < nHits; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, _, err := postQuery(ts, QueryRequest{Query: "summap(fn \\i => i)!(gen!1000)"})
			if err != nil {
				errs <- fmt.Errorf("hit request: %w", err)
				return
			}
			if r.Value != warm.Value {
				errs <- fmt.Errorf("hit value = %s, want %s", r.Value, warm.Value)
			}
		}()
	}
	for g := 0; g < nMisses; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// n + sum(0..99) = n + 4950, a distinct query text per g.
			r, _, err := postQuery(ts, QueryRequest{Query: fmt.Sprintf("%d + summap(fn \\i => i)!(gen!100)", g)})
			if err != nil {
				errs <- fmt.Errorf("miss request %d: %w", g, err)
				return
			}
			if want := fmt.Sprint(g + 4950); r.Value != want {
				errs <- fmt.Errorf("miss %d value = %s, want %s", g, r.Value, want)
			}
		}(g)
	}
	for g := 0; g < nCancels; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			body, _ := json.Marshal(QueryRequest{Query: slowQuery})
			req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/query", bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				// The query finished under 20ms (possible on a fast machine
				// once the plan is cached); that is not a failure.
				resp.Body.Close()
				return
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				errs <- fmt.Errorf("cancelled request failed oddly: %w", err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	cs := s.CacheStats()
	if cs.Hits < nHits {
		t.Errorf("cache hits = %d, want >= %d", cs.Hits, nHits)
	}
	if cs.Misses < nMisses {
		t.Errorf("cache misses = %d, want >= %d", cs.Misses, nMisses)
	}

	// The environment must still be fully serviceable afterwards.
	r, _, err := postQuery(ts, QueryRequest{Query: "6 * 7"})
	if err != nil || r.Value != "42" {
		t.Fatalf("post-load query: %v (value %v)", err, r)
	}
}

// TestCancellationAbortsEvaluation drives the handler synchronously with a
// context that expires mid-evaluation: the response must be the typed
// resource:cancelled error, proving the request context threads into the
// evaluator rather than merely abandoning the response.
func TestCancellationAbortsEvaluation(t *testing.T) {
	s, _ := newTestServer(t, Config{})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	body, _ := json.Marshal(QueryRequest{Query: slowQuery})
	req := httptest.NewRequest("POST", "/query", bytes.NewReader(body)).WithContext(ctx)
	rr := httptest.NewRecorder()
	start := time.Now()
	s.ServeHTTP(rr, req)

	if rr.Code == http.StatusOK {
		t.Skipf("slow query finished in %s before the 30ms cancel; machine too fast for this guard", time.Since(start))
	}
	var er ErrorResponse
	if err := json.NewDecoder(rr.Body).Decode(&er); err != nil {
		t.Fatalf("decode error body: %v", err)
	}
	if er.Error.Kind != "resource:cancelled" && er.Error.Kind != "resource:timeout" {
		t.Fatalf("got error kind %q, want resource:cancelled", er.Error.Kind)
	}
	if rr.Code != statusClientClosedRequest && rr.Code != http.StatusGatewayTimeout {
		t.Fatalf("got status %d, want %d", rr.Code, statusClientClosedRequest)
	}
}

// TestPerRequestBudgets: a request's max_steps tightens only that request.
func TestPerRequestBudgets(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	_, status, err := postQuery(ts, QueryRequest{Query: "summap(fn \\i => i)!(gen!10000)", MaxSteps: 50})
	var ee *errorInfoError
	if !errors.As(err, &ee) || ee.Info.Kind != "resource:steps" {
		t.Fatalf("budgeted request: got %v (status %d), want resource:steps", err, status)
	}
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("budgeted request status = %d, want 422", status)
	}

	// The same (cached) plan with no budget succeeds.
	r, _, err := postQuery(ts, QueryRequest{Query: "summap(fn \\i => i)!(gen!10000)"})
	if err != nil {
		t.Fatalf("unbudgeted request: %v", err)
	}
	if r.Value != "49995000" {
		t.Fatalf("value = %s, want 49995000", r.Value)
	}
}

// TestRequestTimeoutNeverWidens: a request's timeout_ms only tightens the
// server's configured timeout. A millisecond count too large for a
// time.Duration must not wrap negative, which the engine reads as "no
// deadline": against a configured budget it leaves that budget in force,
// and with none configured it means no deadline, not an expired one.
func TestRequestTimeoutNeverWidens(t *testing.T) {
	const slowShard = `[[ summap(fn \j => i*j)!(gen!2000) | \i < 2000 ]]`
	for _, tc := range []struct {
		name      string
		shard     bool
		timeout   time.Duration // the server's configured Limits.Timeout
		timeoutMS int64
		query     string
		want      int
	}{
		{"query/request tightens no budget", false, 0, 10, slowQuery, http.StatusGatewayTimeout},
		{"query/max int64 keeps budget", false, 10 * time.Millisecond, math.MaxInt64, slowQuery, http.StatusGatewayTimeout},
		{"query/first overflowing count keeps budget", false, 10 * time.Millisecond, 9223372036855, slowQuery, http.StatusGatewayTimeout},
		{"query/overflow without budget is unlimited", false, 0, math.MaxInt64, "6 * 7", http.StatusOK},
		{"shard/max int64 keeps budget", true, 10 * time.Millisecond, math.MaxInt64, slowShard, http.StatusGatewayTimeout},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, Config{Limits: eval.Limits{Timeout: tc.timeout}})
			var status int
			if tc.shard {
				_, status, _ = postShard(t, ts, exchange.ShardRequest{
					Query: tc.query, Shape: []int{2000}, Start: 0, End: 2000, TimeoutMS: tc.timeoutMS})
			} else {
				_, status, _ = postQuery(ts, QueryRequest{Query: tc.query, TimeoutMS: tc.timeoutMS})
			}
			if status != tc.want {
				t.Fatalf("status = %d, want %d", status, tc.want)
			}
		})
	}
}

// TestValRebindInvalidatesPlans: binding a val bumps the environment epoch,
// so cached plans against the old environment are never served again.
func TestValRebindInvalidatesPlans(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	setVal := func(name, body string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/val/"+name, "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST /val/%s: %v", name, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("POST /val/%s: status %d: %s", name, resp.StatusCode, b)
		}
	}

	setVal("x", "40")
	r, _, err := postQuery(ts, QueryRequest{Query: "x + 2"})
	if err != nil || r.Value != "42" {
		t.Fatalf("x + 2 with x=40: %v (value %v)", err, r)
	}
	// Warm the cache, then rebind.
	if r, _, _ = postQuery(ts, QueryRequest{Query: "x + 2"}); !r.Cached {
		t.Fatal("second x + 2 was not a hit")
	}
	setVal("x", "100")
	r, _, err = postQuery(ts, QueryRequest{Query: "x + 2"})
	if err != nil {
		t.Fatalf("x + 2 after rebind: %v", err)
	}
	if r.Cached {
		t.Fatal("query served a stale plan after val rebind")
	}
	if r.Value != "102" {
		t.Fatalf("x + 2 after rebind = %s, want 102", r.Value)
	}
	if inv := s.CacheStats().Invalidations; inv < 1 {
		t.Errorf("invalidations = %d, want >= 1", inv)
	}

	// GET /val round-trips through the exchange format.
	resp, err := http.Get(ts.URL + "/val/x")
	if err != nil {
		t.Fatalf("GET /val/x: %v", err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if got := strings.TrimSpace(string(b)); got != "100" {
		t.Fatalf("GET /val/x = %q, want 100", got)
	}
}

// TestValBodyGuards: oversized and overdeep exchange bodies are rejected
// with the typed limit error, not materialized.
func TestValBodyGuards(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	deep := strings.Repeat("(1, ", valMaxDepth+2) + "1" + strings.Repeat(")", valMaxDepth+2)
	resp, err := http.Post(ts.URL+"/val/deep", "text/plain", strings.NewReader(deep))
	if err != nil {
		t.Fatalf("POST deep val: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("deep val status = %d, want 413", resp.StatusCode)
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if er.Error.Kind != "exchange:depth" {
		t.Fatalf("deep val kind = %q, want exchange:depth", er.Error.Kind)
	}

	big := strings.Repeat("1", maxValBody+2)
	resp2, err := http.Post(ts.URL+"/val/big", "text/plain", strings.NewReader(big))
	if err != nil {
		t.Fatalf("POST big val: %v", err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("big val status = %d, want 413", resp2.StatusCode)
	}
	if err := json.NewDecoder(resp2.Body).Decode(&er); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if er.Error.Kind != "exchange:bytes" {
		t.Fatalf("big val kind = %q, want exchange:bytes", er.Error.Kind)
	}
}

// TestCompileHTTPClassification: error kinds come from the PrepareError
// phase tag, never from substrings of the message — a message mentioning
// "parse" inside a type error (or vice versa) cannot misclassify.
func TestCompileHTTPClassification(t *testing.T) {
	info, status := compileHTTP(&PrepareError{Phase: "type", Err: errors.New(`cannot parse operand "parse"`)})
	if info.Kind != "type" || status != http.StatusBadRequest {
		t.Fatalf("tagged type error: kind %q status %d, want type/400", info.Kind, status)
	}
	info, _ = compileHTTP(&PrepareError{Phase: "parse", Err: errors.New("expected a type after colon")})
	if info.Kind != "parse" {
		t.Fatalf("tagged parse error: kind %q, want parse", info.Kind)
	}
	info, _ = compileHTTP(errors.New("type: parse: untagged"))
	if info.Kind != "compile" {
		t.Fatalf("untagged error: kind %q, want compile", info.Kind)
	}
}

// TestBadQueries: malformed bodies and queries map to 400 with typed kinds.
func TestBadQueries(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		req  QueryRequest
		kind string
	}{
		{"parse error", QueryRequest{Query: "1 +"}, "parse"},
		{"type error", QueryRequest{Query: `1 + "two"`}, "type"},
		{"empty", QueryRequest{Query: "   "}, "request"},
	}
	for _, c := range cases {
		_, status, err := postQuery(ts, c.req)
		var ee *errorInfoError
		if !errors.As(err, &ee) {
			t.Errorf("%s: got %v, want typed error", c.name, err)
			continue
		}
		if status != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", c.name, status)
		}
		if ee.Info.Kind != c.kind {
			t.Errorf("%s: kind = %q, want %q", c.name, ee.Info.Kind, c.kind)
		}
	}
}

// TestMetricsExposition: /metrics must expose the plan-cache and admission
// series alongside the fleet metrics.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for i := 0; i < 2; i++ {
		if _, _, err := postQuery(ts, QueryRequest{Query: "1 + 2"}); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	text := string(b)
	for _, want := range []string{
		`aqld_plan_cache_events_total{event="hit"} 1`,
		`aqld_plan_cache_events_total{event="miss"} 1`,
		`aqld_plan_cache_entries 1`,
		`aqld_admission_total{outcome="admitted"} 2`,
		// Queue wait is on the log-2 bounds of every latency family; both
		// requests took the fast path.
		`aqld_admission_queue_seconds_bucket{le="1e-06"} 2`,
		`aqld_admission_queue_seconds_bucket{le="33.554432"} 2`,
		`aqld_admission_queue_seconds_count 2`,
		"aql_queries_total", // the fleet exposition is present too
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestDebugQueriesCarriesReports: served queries appear in the flight
// recorder with the cached flag.
func TestDebugQueriesCarriesReports(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for i := 0; i < 2; i++ {
		if _, _, err := postQuery(ts, QueryRequest{Query: "2 + 3"}); err != nil {
			t.Fatalf("query: %v", err)
		}
	}
	resp, err := http.Get(ts.URL + "/debug/queries")
	if err != nil {
		t.Fatalf("GET /debug/queries: %v", err)
	}
	defer resp.Body.Close()
	var doc struct {
		Reports []trace.QueryReport `json:"reports"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decode: %v", err)
	}
	reports := doc.Reports
	if len(reports) != 2 {
		t.Fatalf("flight recorder has %d reports, want 2", len(reports))
	}
	if reports[0].Cached || !reports[1].Cached {
		t.Fatalf("cached flags = %v/%v, want false/true", reports[0].Cached, reports[1].Cached)
	}
}

// TestPolymorphicInitValServes: a val the setup script binds to a
// polymorphic value (aqld -init with `val E = {};`) is served, not a crash
// of the whole process.
func TestPolymorphicInitValServes(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.sess.Trace.SetEnabled(false)
	_, err := s.sess.Exec(`val \E = {};`)
	s.sess.Trace.SetEnabled(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{`E`, `{1} union E`} {
		qr, status, err := postQuery(ts, QueryRequest{Query: q})
		if err != nil || status != 200 {
			t.Fatalf("POST /query %s: status %d, %v", q, status, err)
		}
		t.Logf("%s : %s = %s", q, qr.Type, qr.Value)
	}
}
