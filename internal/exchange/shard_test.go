package exchange

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestShardResponseWireGolden pins the coordinator <-> worker JSON of a shard
// response byte for byte: counters on the envelope and a three-node span
// subtree with per-node counters. Coordinators and workers of different
// builds must keep reading each other, so the field names, their order and
// which zero values are omitted are part of the format. The response is
// built field by field, so the test does not depend on the Go type that
// backs the counters.
func TestShardResponseWireGolden(t *testing.T) {
	var resp ShardResponse
	resp.ID = "s000042"
	resp.Cached = true
	resp.Values = "[[1, 2, 3]]"
	resp.BottomOff = -1
	resp.Eval.Steps = 1234
	resp.Eval.Cells = 56
	resp.Eval.Tabulations = 1
	resp.Eval.SetOps = 2
	resp.Eval.Iterations = 7
	resp.TraceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	resp.QueueWaitNS = 1500

	queue := &Span{Op: "queue_wait", WallNS: 1500, SelfNS: 1500}
	eval := &Span{Op: "eval", WallNS: 9000, SelfNS: 9000}
	eval.Eval.Steps = 1234
	eval.Eval.Cells = 56
	eval.Eval.Tabulations = 1
	eval.Eval.SetOps = 2
	eval.Eval.Iterations = 7
	resp.Spans = &Span{Op: "worker", WallNS: 12000, SelfNS: 1500, Children: []*Span{queue, eval}}

	want := `{"id":"s000042","cached":true,"values":"[[1, 2, 3]]","bottom_off":-1,` +
		`"eval":{"steps":1234,"cells":56,"tabulations":1,"set_ops":2,"iterations":7},` +
		`"trace_id":"4bf92f3577b34da6a3ce929d0e0e4736","queue_wait_ns":1500,` +
		`"spans":{"op":"worker","wall_ns":12000,"self_ns":1500,` +
		`"eval":{"steps":0,"cells":0,"tabulations":0,"set_ops":0,"iterations":0},` +
		`"children":[{"op":"queue_wait","wall_ns":1500,"self_ns":1500,` +
		`"eval":{"steps":0,"cells":0,"tabulations":0,"set_ops":0,"iterations":0}},` +
		`{"op":"eval","wall_ns":9000,"self_ns":9000,` +
		`"eval":{"steps":1234,"cells":56,"tabulations":1,"set_ops":2,"iterations":7}}]}}`
	got, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("shard response wire format drifted:\n got %s\nwant %s", got, want)
	}

	var back ShardResponse
	if err := json.Unmarshal([]byte(want), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, resp) {
		t.Fatalf("decoding the golden body does not give the response back:\n got %+v\nwant %+v", back, resp)
	}
}
