// The cluster's only measurements: no benchmarks/ workload reaches a
// coordinator yet, so these two stay until one does. Both reuse the
// chaos-differential fixtures (real worker aqld servers over loopback).
package cluster_test

import (
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"github.com/aqldb/aql/internal/cluster"
)

// scatterQuery has a compute-heavy head (an inner reduction per element),
// so shard transport and merge cost is amortized and the scatter has real
// work to divide. The reduction length depends on i: a constant one is
// loop-invariant, and the optimizer would hoist it into a let, taking the
// tabulation out of top-level (and thus shardable) position.
const scatterQuery = `[[ summap(fn \j => (i*j) % 7)!(gen!(100 + i % 101)) | \i < 6000 ]]`

// BenchmarkScatterGather times one query on a single node and scattered
// over two workers (EXPERIMENTS.md E22). single-node over scatter above 1
// means the scatter paid off; below 1 is coordination overhead, expected
// whenever the in-process workers have no cores of their own.
func BenchmarkScatterGather(b *testing.B) {
	w1, w2 := newWorker(b), newWorker(b)
	coord := cluster.New(fastCfg(&cluster.HTTPTransport{}, w1.URL, w2.URL))
	for _, tc := range []struct {
		name string
		ts   *httptest.Server
		mode string
	}{
		{"single-node", newWorker(b), ""},
		{"scatter", newCoordServer(b, coord), "distributed"},
	} {
		b.Run(tc.name, func(b *testing.B) {
			postQuery(b, tc.ts, scatterQuery) // warm every node's plan cache
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				qr, _, er := postQuery(b, tc.ts, scatterQuery)
				if er != nil {
					b.Fatalf("query failed: %+v", er)
				}
				if qr.Mode != tc.mode {
					b.Fatalf("ran in mode %q, want %q", qr.Mode, tc.mode)
				}
			}
		})
	}
}

// BenchmarkHedgedStraggler times a cheap tabulation whose shard 0 stalls
// 60ms on its first attempt (a timer, not compute, so the result does not
// depend on core count), without hedging and with a 10ms hedge. Hedged,
// the second dispatch wins and a query costs about the hedge delay
// instead of the stall; p50-ms / p99-ms are over the b.N queries.
func BenchmarkHedgedStraggler(b *testing.B) {
	w1, w2 := newWorker(b), newWorker(b)
	for _, tc := range []struct {
		name  string
		hedge time.Duration
	}{{"unhedged", 0}, {"hedged", 10 * time.Millisecond}} {
		b.Run(tc.name, func(b *testing.B) {
			chaos := &cluster.ChaosTransport{Inner: &cluster.HTTPTransport{}}
			// Attempt numbers restart per query, so the one entry stalls
			// every query's shard 0.
			chaos.Fail(0, 0, cluster.ChaosFault{Kind: cluster.FaultDelay, Delay: 60 * time.Millisecond})
			cfg := fastCfg(chaos, w1.URL, w2.URL)
			cfg.HedgeAfter = tc.hedge
			coord := cluster.New(cfg)
			ts := newCoordServer(b, coord)
			postQuery(b, ts, tabQuery)
			wins := coord.Stats().HedgeWins.Load()
			lat := make([]time.Duration, b.N)
			b.ResetTimer()
			for i := range lat {
				start := time.Now()
				if _, _, er := postQuery(b, ts, tabQuery); er != nil {
					b.Fatalf("query failed: %+v", er)
				}
				lat[i] = time.Since(start)
			}
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			ms := func(p float64) float64 { return float64(lat[int(p*float64(len(lat)-1))]) / 1e6 }
			b.ReportMetric(ms(0.5), "p50-ms")
			b.ReportMetric(ms(0.99), "p99-ms")
			b.ReportMetric(float64(coord.Stats().HedgeWins.Load()-wins)/float64(b.N), "hedge-wins/op")
		})
	}
}
