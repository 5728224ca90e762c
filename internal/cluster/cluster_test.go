// Chaos-differential tests: coordinator + real worker aqld servers, with a
// ChaosTransport injecting deterministic failures. The invariant under test
// is the PR's core contract — any chaos schedule that eventually succeeds
// yields byte-identical values and exact counter totals versus single-node
// execution, and with every worker down the query still answers via
// degraded local execution with the report saying so.
package cluster_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/aqldb/aql/internal/cluster"
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/repl"
	"github.com/aqldb/aql/internal/server"
	"github.com/aqldb/aql/internal/types"
)

// tabQuery is a parallel-eligible pure tabulation: no globals, so every
// node (coordinator, workers, single-node reference) prepares an identical
// plan from the text alone.
const tabQuery = `[[ (i*i + 11*i + 7) % 97 | \i < 5000 ]]`

func newWorker(t testing.TB) *httptest.Server {
	t.Helper()
	sess, err := repl.New()
	if err != nil {
		t.Fatalf("repl.New: %v", err)
	}
	ts := httptest.NewServer(server.New(sess, server.Config{}))
	t.Cleanup(ts.Close)
	return ts
}

func newCoordServer(t testing.TB, coord *cluster.Coordinator) *httptest.Server {
	t.Helper()
	sess, err := repl.New()
	if err != nil {
		t.Fatalf("repl.New: %v", err)
	}
	ts := httptest.NewServer(server.New(sess, server.Config{Coordinator: coord}))
	t.Cleanup(ts.Close)
	return ts
}

// fastCfg returns a test-speed cluster config over the given workers: tiny
// backoffs, everything shardable, 2 shards per worker.
func fastCfg(tr cluster.Transport, workers ...string) cluster.Config {
	return cluster.Config{
		Workers:          workers,
		Transport:        tr,
		MinCells:         1,
		ShardsPerWorker:  2,
		MaxAttempts:      4,
		BaseBackoff:      time.Millisecond,
		MaxBackoff:       5 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  50 * time.Millisecond,
	}
}

func postQuery(t testing.TB, ts *httptest.Server, query string) (*server.QueryResponse, int, *server.ErrorResponse) {
	t.Helper()
	body, _ := json.Marshal(server.QueryRequest{Query: query})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /query: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var er server.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatalf("undecodable error body (status %d): %v", resp.StatusCode, err)
		}
		return nil, resp.StatusCode, &er
	}
	var qr server.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatalf("undecodable response: %v", err)
	}
	return &qr, resp.StatusCode, nil
}

// reference runs the query on a plain single-node server.
func reference(t *testing.T, query string) *server.QueryResponse {
	t.Helper()
	ref := newWorker(t)
	qr, _, er := postQuery(t, ref, query)
	if er != nil {
		t.Fatalf("reference query failed: %+v", er)
	}
	return qr
}

// assertIdentical asserts the distributed response equals the single-node
// one byte-for-byte in value and exactly in counters.
func assertIdentical(t *testing.T, got, want *server.QueryResponse) {
	t.Helper()
	if got.Value != want.Value {
		t.Errorf("value differs from single-node:\n got %.120s\nwant %.120s", got.Value, want.Value)
	}
	if got.Eval != want.Eval {
		t.Errorf("counters differ from single-node:\n got %+v\nwant %+v", got.Eval, want.Eval)
	}
	if got.Type != want.Type {
		t.Errorf("type = %s, want %s", got.Type, want.Type)
	}
}

// TestChaosDifferential: every eventually-succeeding chaos schedule yields
// the single-node answer exactly. Schedules are keyed by (shard, attempt)
// so each run is deterministic; with 2 workers and 2 shards per worker
// there are shards 0..3, and each shard's dispatches number attempts from
// 0.
func TestChaosDifferential(t *testing.T) {
	want := reference(t, tabQuery)

	schedules := map[string]map[[2]int]cluster.ChaosFault{
		"no-faults": {},
		"first-attempt-error": {
			{0, 0}: {Kind: cluster.FaultErr},
		},
		"every-shard-first-attempt-errors": {
			{0, 0}: {Kind: cluster.FaultErr},
			{1, 0}: {Kind: cluster.FaultErr},
			{2, 0}: {Kind: cluster.FaultErr},
			{3, 0}: {Kind: cluster.FaultErr},
		},
		"response-dropped-after-work": {
			// The worker completes the shard but the response is lost: the
			// retry must not double-count the first execution's work.
			{1, 0}: {Kind: cluster.FaultDrop},
		},
		"garbled-response": {
			{2, 0}: {Kind: cluster.FaultGarble},
		},
		"negative-counters": {
			// Well-formed values with counters and a queue wait no execution
			// can charge: merging them would skew the totals.
			{1, 0}: {Kind: cluster.FaultSkew},
		},
		"straggler-then-clean-retry": {
			{3, 0}: {Kind: cluster.FaultErr, Delay: 20 * time.Millisecond},
		},
		"compound-drop-then-error": {
			{0, 0}: {Kind: cluster.FaultDrop},
			{0, 1}: {Kind: cluster.FaultErr},
			{2, 0}: {Kind: cluster.FaultGarble},
			{3, 0}: {Kind: cluster.FaultDrop},
		},
	}
	for name, schedule := range schedules {
		t.Run(name, func(t *testing.T) {
			w1, w2 := newWorker(t), newWorker(t)
			chaos := &cluster.ChaosTransport{Inner: &cluster.HTTPTransport{}}
			for k, f := range schedule {
				chaos.Fail(k[0], k[1], f)
			}
			coord := cluster.New(fastCfg(chaos, w1.URL, w2.URL))
			ts := newCoordServer(t, coord)

			got, _, er := postQuery(t, ts, tabQuery)
			if er != nil {
				t.Fatalf("distributed query failed: %+v", er)
			}
			assertIdentical(t, got, want)
			if got.Mode != "distributed" {
				t.Errorf("mode = %q, want distributed", got.Mode)
			}
			if len(got.Shards) != 4 {
				t.Errorf("shards = %d, want 4", len(got.Shards))
			}
			if len(schedule) > 0 {
				if r := coord.Stats().Retries.Load(); r == 0 {
					t.Error("chaos schedule injected faults but no retries were counted")
				}
			}
		})
	}
}

// TestAllWorkersDownDegradesToLocal: with every worker unreachable the
// query still answers — identically — and both the response and the
// coordinator stats report degradation.
func TestAllWorkersDownDegradesToLocal(t *testing.T) {
	want := reference(t, tabQuery)

	chaos := &cluster.ChaosTransport{Inner: &cluster.HTTPTransport{}}
	chaos.SetDown("http://w1.invalid", true)
	chaos.SetDown("http://w2.invalid", true)
	cfg := fastCfg(chaos, "http://w1.invalid", "http://w2.invalid")
	cfg.MaxAttempts = 2
	coord := cluster.New(cfg)
	ts := newCoordServer(t, coord)

	got, _, er := postQuery(t, ts, tabQuery)
	if er != nil {
		t.Fatalf("degraded query failed: %+v", er)
	}
	assertIdentical(t, got, want)
	if got.Mode != "degraded:local" {
		t.Errorf("mode = %q, want degraded:local", got.Mode)
	}
	for _, sp := range got.Shards {
		if sp.Worker != "local" {
			t.Errorf("shard %d executed on %q, want local", sp.Shard, sp.Worker)
		}
	}
	if coord.Stats().DegradedTotal.Load() != 1 {
		t.Errorf("degraded stat = %d, want 1", coord.Stats().DegradedTotal.Load())
	}
	if coord.Stats().BreakerOpens.Load() == 0 {
		t.Error("unreachable workers never opened a breaker")
	}

	// The /metrics surface reports the degradation.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if !strings.Contains(buf.String(), `aqld_cluster_events_total{event="degraded"} 1`) {
		t.Error("metrics missing degraded counter")
	}
}

// TestLocalFallbackPanic: a registered primitive that panics, with every
// worker down, runs on the coordinator's own shard goroutines, where no
// handler-level recover is on the stack. The query fails with the typed 500
// panic envelope and the coordinator keeps serving.
func TestLocalFallbackPanic(t *testing.T) {
	chaos := &cluster.ChaosTransport{Inner: &cluster.HTTPTransport{}}
	chaos.SetDown("http://w1.invalid", true)
	chaos.SetDown("http://w2.invalid", true)
	cfg := fastCfg(chaos, "http://w1.invalid", "http://w2.invalid")
	cfg.MaxAttempts = 2

	sess, err := repl.New()
	if err != nil {
		t.Fatal(err)
	}
	natToNat, err := types.Parse("nat -> nat")
	if err != nil {
		t.Fatal(err)
	}
	explode := func(object.Value) (object.Value, error) { panic("internal invariant violated") }
	if err := sess.Env.RegisterPrimitive("explode", explode, natToNat); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(sess, server.Config{Coordinator: cluster.New(cfg)}))
	t.Cleanup(ts.Close)

	_, status, er := postQuery(t, ts, `[[ explode!i | \i < 5000 ]]`)
	if status != http.StatusInternalServerError || er == nil || er.Error.Kind != "panic" {
		t.Fatalf("status %d, envelope %+v; want 500 with kind panic", status, er)
	}
	if !strings.Contains(er.Error.Message, "internal invariant violated") {
		t.Errorf("panic message lost: %q", er.Error.Message)
	}
	got, _, er := postQuery(t, ts, tabQuery)
	if er != nil {
		t.Fatalf("coordinator dead after recovered panic: %+v", er)
	}
	if got.Mode != "degraded:local" {
		t.Errorf("mode = %q, want degraded:local", got.Mode)
	}
}

// TestWorkerKilledMidQuery is the CI cluster-chaos scenario: two live
// workers, one hard-killed while every shard's first attempt is in flight.
// Retries must land on the survivor (or fall back locally) with no counter
// drift.
func TestWorkerKilledMidQuery(t *testing.T) {
	want := reference(t, tabQuery)

	w1, w2 := newWorker(t), newWorker(t)
	chaos := &cluster.ChaosTransport{Inner: &cluster.HTTPTransport{}}
	// Hold every first attempt in flight long enough for the kill below to
	// land mid-query.
	for shard := 0; shard < 4; shard++ {
		chaos.Fail(shard, 0, cluster.ChaosFault{Kind: cluster.FaultDelay, Delay: 100 * time.Millisecond})
	}
	coord := cluster.New(fastCfg(chaos, w1.URL, w2.URL))
	ts := newCoordServer(t, coord)

	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(30 * time.Millisecond) // first attempts are now in their delay window
		w1.CloseClientConnections()
		w1.Close()
	}()
	got, _, er := postQuery(t, ts, tabQuery)
	<-done
	if er != nil {
		t.Fatalf("query failed after worker kill: %+v", er)
	}
	assertIdentical(t, got, want)
	switch got.Mode {
	case "distributed", "distributed:partial", "degraded:local":
	default:
		t.Errorf("mode = %q", got.Mode)
	}
}

// TestHedgingStraggler: a shard whose first attempt stalls far beyond
// HedgeAfter is re-dispatched to the other worker; the hedge wins, the
// result is exact, and exactly one attempt's counters are merged.
func TestHedgingStraggler(t *testing.T) {
	want := reference(t, tabQuery)

	w1, w2 := newWorker(t), newWorker(t)
	chaos := &cluster.ChaosTransport{Inner: &cluster.HTTPTransport{}}
	chaos.Fail(0, 0, cluster.ChaosFault{Kind: cluster.FaultDelay, Delay: 2 * time.Second})
	cfg := fastCfg(chaos, w1.URL, w2.URL)
	cfg.HedgeAfter = 20 * time.Millisecond
	coord := cluster.New(cfg)
	ts := newCoordServer(t, coord)

	start := time.Now()
	got, _, er := postQuery(t, ts, tabQuery)
	if er != nil {
		t.Fatalf("hedged query failed: %+v", er)
	}
	assertIdentical(t, got, want)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("hedge did not rescue the straggler: query took %s", elapsed)
	}
	if coord.Stats().Hedges.Load() == 0 {
		t.Error("no hedge was launched")
	}
	if coord.Stats().HedgeWins.Load() == 0 {
		t.Error("hedge never won against a 2s straggler")
	}
	hedged := false
	for _, sp := range got.Shards {
		hedged = hedged || sp.Hedged
	}
	if !hedged {
		t.Error("no shard span marked hedged")
	}
}

// TestBreakerReadmission: a worker that comes back after its breaker opened
// is re-admitted by a health probe once the cooldown elapses.
func TestBreakerReadmission(t *testing.T) {
	w1, w2 := newWorker(t), newWorker(t)
	chaos := &cluster.ChaosTransport{Inner: &cluster.HTTPTransport{}}
	chaos.SetDown(w1.URL, true)
	coord := cluster.New(fastCfg(chaos, w1.URL, w2.URL))
	ts := newCoordServer(t, coord)

	want := reference(t, tabQuery)
	got, _, er := postQuery(t, ts, tabQuery)
	if er != nil {
		t.Fatalf("query with one worker down failed: %+v", er)
	}
	assertIdentical(t, got, want)
	if coord.Stats().BreakerOpens.Load() == 0 {
		t.Fatal("dead worker never opened its breaker")
	}

	// Revive the worker, let the cooldown pass, and check it serves again.
	chaos.SetDown(w1.URL, false)
	time.Sleep(80 * time.Millisecond)
	servedByW1 := false
	for i := 0; i < 10 && !servedByW1; i++ {
		got, _, er = postQuery(t, ts, tabQuery)
		if er != nil {
			t.Fatalf("post-revival query failed: %+v", er)
		}
		assertIdentical(t, got, want)
		for _, sp := range got.Shards {
			if sp.Worker == w1.URL {
				servedByW1 = true
			}
		}
	}
	if !servedByW1 {
		t.Error("revived worker never served a shard again")
	}
	if coord.Stats().BreakerCloses.Load() == 0 {
		t.Error("breaker never re-closed after revival")
	}
}

// TestBottomMergeOverCluster: per-offset ⊥s (out-of-bounds subscripts over
// a val) merge to the row-major-first ⊥ with its diagnostic intact across
// the wire, byte-identical to single-node.
func TestBottomMergeOverCluster(t *testing.T) {
	// Every node binds the same vector val, so plans agree everywhere.
	vec := make([]string, 100)
	for i := range vec {
		vec[i] = fmt.Sprint(i)
	}
	valBody := "[[" + strings.Join(vec, ", ") + "]]"
	bind := func(ts *httptest.Server) {
		resp, err := http.Post(ts.URL+"/val/A", "text/plain", strings.NewReader(valBody))
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("bind val: err=%v status=%v", err, resp)
		}
		resp.Body.Close()
	}
	const query = `[[ A[i] | \i < 6000 ]]` // offsets >= 100 are out-of-bounds ⊥

	ref := newWorker(t)
	bind(ref)
	want, _, er := postQuery(t, ref, query)
	if er != nil {
		t.Fatalf("reference: %+v", er)
	}
	if !strings.HasPrefix(want.Value, "_|_") {
		t.Fatalf("reference value = %.60s, want ⊥", want.Value)
	}

	w1, w2 := newWorker(t), newWorker(t)
	bind(w1)
	bind(w2)
	chaos := &cluster.ChaosTransport{Inner: &cluster.HTTPTransport{}}
	chaos.Fail(0, 0, cluster.ChaosFault{Kind: cluster.FaultDrop}) // shard 0 holds the first ⊥; make it retry too
	coord := cluster.New(fastCfg(chaos, w1.URL, w2.URL))
	ts := newCoordServer(t, coord)
	bind(ts)

	got, _, er := postQuery(t, ts, query)
	if er != nil {
		t.Fatalf("distributed ⊥ query failed: %+v", er)
	}
	assertIdentical(t, got, want)
	if got.Mode != "distributed" {
		t.Errorf("mode = %q, want distributed", got.Mode)
	}
}

// TestWorkerBudgetTripPropagates: a worker-side deterministic failure (its
// per-shard step budget trips with HTTP 422 resource:steps) is not
// retryable — the same plan fails the same way on any worker — so the
// coordinator propagates the worker's kind and status to the client.
func TestWorkerBudgetTripPropagates(t *testing.T) {
	mk := func() *httptest.Server {
		s, err := repl.New()
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(server.New(s, server.Config{Limits: eval.Limits{MaxSteps: 100}}))
		t.Cleanup(ts.Close)
		return ts
	}
	w1, w2 := mk(), mk()
	coord := cluster.New(fastCfg(&cluster.HTTPTransport{}, w1.URL, w2.URL))
	ts := newCoordServer(t, coord)

	_, status, er := postQuery(t, ts, tabQuery)
	if er == nil {
		t.Fatal("expected worker budget trip to propagate, got success")
	}
	if status != http.StatusUnprocessableEntity || er.Error.Kind != "resource:steps" {
		t.Errorf("status %d kind %q, want 422 resource:steps", status, er.Error.Kind)
	}
	if coord.Stats().Retries.Load() != 0 {
		t.Errorf("deterministic worker failure was retried %d times", coord.Stats().Retries.Load())
	}
}
