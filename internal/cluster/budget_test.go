package cluster_test

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/aqldb/aql/internal/cluster"
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/server"
	"github.com/aqldb/aql/internal/trace"
)

// TestStepBudgetOverCluster: a step budget binds a scattered query exactly
// as it binds the single-node run — the same status, error kind and message
// — whether the request or the server's configuration sets it, and also
// when every shard stays within it but the query as a whole does not.
func TestStepBudgetOverCluster(t *testing.T) {
	w1, w2 := newWorker(t), newWorker(t)
	coordinator := func(lim eval.Limits) *httptest.Server {
		coord := cluster.New(fastCfg(&cluster.HTTPTransport{}, w1.URL, w2.URL))
		return newServer(t, server.Config{Coordinator: coord, Limits: lim})
	}

	// The unbudgeted scatter: the query's total steps, and each shard's —
	// those of the worker tree stitched under its winning attempt, the
	// largest cumulative count in the shard's subtree.
	full, _, _ := postQuery(t, coordinator(eval.Limits{}), tabQuery)
	if full == nil || full.Mode != "distributed" {
		t.Fatalf("unbudgeted run = %+v, want a distributed success", full)
	}
	var subtreeMax func(n *trace.SpanNode) int64
	subtreeMax = func(n *trace.SpanNode) int64 {
		m := n.Steps
		for _, c := range n.Children {
			m = max(m, subtreeMax(c))
		}
		return m
	}
	var largest, sum int64
	for _, sh := range full.Shards {
		if sh.Spans == nil {
			t.Fatalf("shard %d has no span subtree", sh.Shard)
		}
		steps := subtreeMax(sh.Spans)
		largest, sum = max(largest, steps), sum+steps
	}
	if sum > full.Eval.Steps || full.Eval.Steps-sum >= largest {
		t.Fatalf("shards sum to %d steps of the query's %d: subtree counts misread", sum, full.Eval.Steps)
	}
	between := full.Eval.Steps - 1

	for _, tc := range []struct {
		name string
		cfg  eval.Limits // the servers' configured limits
		req  int64       // the request's max_steps
	}{
		{"request max_steps", eval.Limits{}, 100},
		{"configured MaxSteps", eval.Limits{MaxSteps: 100}, 0},
		{"above every shard, below the total", eval.Limits{}, between},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := server.QueryRequest{Query: tabQuery, MaxSteps: tc.req}
			_, wantStatus, want := postRequest(t, newServer(t, server.Config{Limits: tc.cfg}), req)
			if want == nil || wantStatus != http.StatusUnprocessableEntity || want.Error.Kind != "resource:steps" {
				t.Fatalf("single-node = %d %+v, want 422 resource:steps", wantStatus, want)
			}
			qr, status, got := postRequest(t, coordinator(tc.cfg), req)
			if got == nil {
				t.Fatalf("coordinator = %d (mode %q, %d steps), want %d %+v",
					status, qr.Mode, qr.Eval.Steps, wantStatus, want.Error)
			}
			if status != wantStatus || got.Error.Kind != want.Error.Kind || got.Error.Message != want.Error.Message {
				t.Errorf("coordinator = %d %+v, want %d %+v", status, got.Error, wantStatus, want.Error)
			}
		})
	}
}
