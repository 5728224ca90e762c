package cluster

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"github.com/aqldb/aql/internal/exchange"
	"github.com/aqldb/aql/internal/trace"
)

// FuzzDecodeShard feeds a worker's JSON response body through what the
// coordinator does with it: decodeShard against the range [start, start+n)
// and the capped convertSpan walk of its span subtree. Whatever the bytes,
// nothing panics; a rejected response is a transport *ShardError, the kind
// a retry or another worker can cure; an accepted one is exactly n cells or
// a ⊥ at an offset inside the range; and a converted subtree stays within
// the depth and node caps.
func FuzzDecodeShard(f *testing.F) {
	eval := trace.EvalCounters{Steps: 12, Cells: 3, Iterations: 3}
	leaf := &exchange.Span{Op: trace.SpanEval, WallNS: 40, SelfNS: 40, Eval: eval}
	for _, seed := range []struct {
		resp     exchange.ShardResponse
		start, n uint16
	}{
		{exchange.ShardResponse{Values: "[[1, 2, 3]]", BottomOff: -1, Eval: eval}, 2, 3},
		{exchange.ShardResponse{Values: "[[1.5, 2.5]]", BottomOff: -1, Eval: eval,
			Spans: &exchange.Span{Op: trace.SpanWorker, WallNS: 100, SelfNS: 60, Children: []*exchange.Span{leaf}}}, 0, 2},
		{exchange.ShardResponse{BottomOff: 7, BottomMsg: "division by zero", Eval: eval}, 5, 4},
		{exchange.ShardResponse{BottomOff: 70, Eval: eval}, 5, 4},
		{exchange.ShardResponse{Values: "[[1, 2]]", BottomOff: -1}, 0, 3},
		{exchange.ShardResponse{Values: "{1, 2, 3}", BottomOff: -1}, 0, 3},
		{exchange.ShardResponse{Values: "[[1, 2", BottomOff: -1}, 0, 2},
		{exchange.ShardResponse{Values: "[[1]]", BottomOff: -1, Eval: trace.EvalCounters{Steps: -1}}, 0, 1},
		{exchange.ShardResponse{Values: "[[1]]", BottomOff: -1, QueueWaitNS: -9}, 0, 1},
		{exchange.ShardResponse{Values: "[[1]]", BottomOff: -1,
			Spans: &exchange.Span{Op: trace.SpanWorker, WallNS: -1, Children: []*exchange.Span{leaf}}}, 0, 1},
		// One cell nested one level past exchange.MaxDepth.
		{exchange.ShardResponse{Values: "[[" + strings.Repeat("(", exchange.MaxDepth+1) + "8" +
			strings.Repeat(")", exchange.MaxDepth+1) + "]]", BottomOff: -1, Eval: eval}, 0, 1},
	} {
		body, err := json.Marshal(seed.resp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body, seed.start, seed.n)
	}

	f.Fuzz(func(t *testing.T, body []byte, start, n uint16) {
		var resp exchange.ShardResponse
		if json.Unmarshal(body, &resp) != nil {
			t.Skip() // not a response body: the transport rejects it before decoding
		}
		lo, hi := int64(start), int64(start)+int64(n%256)
		values, bottomOff, bottom, err := decodeShard(&resp, lo, hi)
		switch {
		case err != nil:
			var se *ShardError
			if !errors.As(err, &se) || se.Kind != "transport" {
				t.Fatalf("rejection %v (%T) is not a transport *ShardError", err, err)
			}
		case bottomOff >= 0:
			if bottomOff < lo || bottomOff >= hi || !bottom.IsBottom() || values != nil {
				t.Fatalf("accepted ⊥ at %d (bottom %v, %d values) for range [%d, %d)", bottomOff, bottom.IsBottom(), len(values), lo, hi)
			}
		case int64(len(values)) != hi-lo:
			t.Fatalf("accepted %d cells for range [%d, %d)", len(values), lo, hi)
		}

		budget := maxWorkerSpanNodes
		root, ok := convertSpan(resp.Spans, "w", maxWorkerSpanDepth, &budget)
		if !ok || root == nil {
			return
		}
		nodes, depth := 0, 0
		var walk func(n *trace.SpanNode, d int)
		walk = func(n *trace.SpanNode, d int) {
			nodes++
			depth = max(depth, d)
			for _, c := range n.Children {
				walk(c, d+1)
			}
		}
		walk(root, 1)
		if nodes > maxWorkerSpanNodes || depth > maxWorkerSpanDepth || nodes != maxWorkerSpanNodes-budget {
			t.Fatalf("converted %d nodes to depth %d (budget left %d), caps %d nodes, depth %d",
				nodes, depth, budget, maxWorkerSpanNodes, maxWorkerSpanDepth)
		}
		workerSubtree(&resp, "w")
	})
}
