package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/aqldb/aql/internal/exchange"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/types"
)

// postShard fires one /shard request; a non-2xx status returns the decoded
// shard error envelope.
func postShard(t *testing.T, ts *httptest.Server, req exchange.ShardRequest) (*exchange.ShardResponse, int, *exchange.ShardErrorEnvelope) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/shard", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /shard: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var er exchange.ShardErrorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatalf("undecodable shard error body (status %d): %v", resp.StatusCode, err)
		}
		return nil, resp.StatusCode, &er
	}
	var sr exchange.ShardResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("undecodable shard response: %v", err)
	}
	return &sr, resp.StatusCode, nil
}

// TestShardExecute: a valid range request returns the range's elements in
// exchange format with per-shard counters, and a repeat request hits the
// worker's plan cache.
func TestShardExecute(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := exchange.ShardRequest{
		Query: `[[ i * i | \i < 20 ]]`,
		Shape: []int{20},
		Start: 5,
		End:   12,
	}

	sr, status, er := postShard(t, ts, req)
	if er != nil {
		t.Fatalf("shard failed: status %d %+v", status, er)
	}
	if sr.BottomOff != -1 {
		t.Fatalf("bottom_off = %d, want -1", sr.BottomOff)
	}
	v, err := exchange.ReadString(sr.Values)
	if err != nil {
		t.Fatalf("values not exchange-parseable: %v\n%s", err, sr.Values)
	}
	if v.Kind != object.KArray || len(v.Elems) != 7 {
		t.Fatalf("decoded %d elements of kind %v, want 7-element vector", len(v.Elems), v.Kind)
	}
	for j, el := range v.Elems {
		i := int64(j + 5)
		if n, err := el.AsNat(); err != nil || n != i*i {
			t.Errorf("element %d = %v, want %d", j, el, i*i)
		}
	}
	if sr.Eval.Steps == 0 {
		t.Error("shard charged zero steps")
	}
	if sr.Cached {
		t.Error("first shard execution reported a plan-cache hit")
	}

	sr2, _, er2 := postShard(t, ts, req)
	if er2 != nil {
		t.Fatalf("second shard failed: %+v", er2)
	}
	if !sr2.Cached {
		t.Error("repeat shard execution missed the plan cache")
	}
	if sr2.Values != sr.Values || sr2.Eval != sr.Eval {
		t.Error("repeat shard execution differed from the first")
	}
}

// TestShardBottom: a range containing a ⊥ element answers with the first
// ⊥'s absolute offset and its diagnostic, and no values.
func TestShardBottom(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Division by zero is ⊥ at offsets 0, 3, 6, 9: the first ⊥ of range
	// [5, 10) is 6, reported as an absolute row-major offset.
	sr, status, er := postShard(t, ts, exchange.ShardRequest{
		Query: `[[ 6 / (i % 3) | \i < 10 ]]`,
		Shape: []int{10},
		Start: 5,
		End:   10,
	})
	if er != nil {
		t.Fatalf("shard failed: status %d %+v", status, er)
	}
	if sr.BottomOff != 6 {
		t.Errorf("bottom_off = %d, want 6", sr.BottomOff)
	}
	if sr.BottomMsg == "" {
		t.Error("⊥ shard shipped no diagnostic")
	}
	if sr.Values != "" {
		t.Errorf("⊥ shard shipped values: %q", sr.Values)
	}
}

// TestShardRejects: malformed envelopes, non-tabulation queries, and
// compile failures map to typed 4xx shard errors.
func TestShardRejects(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name   string
		req    exchange.ShardRequest
		status int
		kind   string
	}{
		{"empty query", exchange.ShardRequest{Shape: []int{4}, End: 4}, 400, "request"},
		{"empty shape", exchange.ShardRequest{Query: "1", End: 1}, 400, "request"},
		{"range outside space", exchange.ShardRequest{Query: "1", Shape: []int{4}, Start: 2, End: 9}, 400, "request"},
		{"not rangeable", exchange.ShardRequest{Query: "1 + 1", Shape: []int{1}, End: 1}, 400, "shard:not_rangeable"},
		{"parse error", exchange.ShardRequest{Query: "[[ ,", Shape: []int{1}, End: 1}, 400, "parse"},
		{"type error", exchange.ShardRequest{Query: `[[ i + true | \i < 4 ]]`, Shape: []int{4}, End: 4}, 400, "type"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, status, er := postShard(t, ts, tc.req)
			if er == nil {
				t.Fatal("expected a shard error")
			}
			if status != tc.status || er.Error.Kind != tc.kind {
				t.Errorf("status %d kind %q, want %d %q (message %q)",
					status, er.Error.Kind, tc.status, tc.kind, er.Error.Message)
			}
		})
	}
}

// TestShardBudget: the request's MaxSteps tightens the worker budget for
// this shard alone, tripping with the /query resource vocabulary.
func TestShardBudget(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := exchange.ShardRequest{
		Query:    `[[ i * i | \i < 1000 ]]`,
		Shape:    []int{1000},
		Start:    0,
		End:      1000,
		MaxSteps: 10,
	}
	_, status, er := postShard(t, ts, req)
	if er == nil {
		t.Fatal("expected a budget trip")
	}
	if status != http.StatusUnprocessableEntity || er.Error.Kind != "resource:steps" {
		t.Errorf("status %d kind %q, want 422 resource:steps", status, er.Error.Kind)
	}

	// The same shard with headroom succeeds: the budget was per-request.
	req.MaxSteps = 0
	if _, status, er := postShard(t, ts, req); er != nil {
		t.Fatalf("unbudgeted shard failed: status %d %+v", status, er)
	}
}

// TestShardWorkerPanic: a head that panics on one of the range's local
// fan-out goroutines — where no handler-level recover is on the stack — is
// answered with the typed 500 panic envelope, and the worker keeps serving.
func TestShardWorkerPanic(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})
	natToNat, err := types.Parse("nat -> nat")
	if err != nil {
		t.Fatal(err)
	}
	explode := func(object.Value) (object.Value, error) { panic("internal invariant violated") }
	if err := s.sess.Env.RegisterPrimitive("explode", explode, natToNat); err != nil {
		t.Fatal(err)
	}
	_, status, er := postShard(t, ts, exchange.ShardRequest{
		Query: `[[ explode!i | \i < 20000 ]]`, Shape: []int{20000}, Start: 0, End: 20000,
	})
	if status != http.StatusInternalServerError || er == nil || er.Error.Kind != "panic" {
		t.Fatalf("status %d, envelope %+v; want 500 with kind panic", status, er)
	}
	if !strings.Contains(er.Error.Message, "internal invariant violated") {
		t.Errorf("panic message lost: %q", er.Error.Message)
	}
	if _, status, er := postShard(t, ts, exchange.ShardRequest{
		Query: `[[ i * i | \i < 20 ]]`, Shape: []int{20}, Start: 5, End: 12,
	}); er != nil {
		t.Fatalf("worker dead after recovered panic: status %d %+v", status, er)
	}
}
