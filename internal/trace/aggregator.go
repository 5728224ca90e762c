package trace

import (
	"sort"
	"sync"
	"time"
)

// The fleet layer: cross-query aggregates and a flight recorder. Both types
// implement Sink, and a session emits every finished report to both; both
// are safe for concurrent Emit and snapshot calls (the metrics handler reads
// them from HTTP goroutines while queries run).

// Latency histogram buckets: log-2 from 1µs to ~34s (2^25 µs), plus an
// implicit +Inf. Queries land in the first bucket whose bound is >= wall.
const nLatencyBuckets = 26

// LatencyBucketBound returns the inclusive upper bound of bucket i.
func LatencyBucketBound(i int) time.Duration {
	return time.Microsecond << uint(i)
}

// DefaultSlowCap is how many slow queries the aggregator retains.
const DefaultSlowCap = 16

// DefaultFlightCap is the default flight-recorder capacity.
const DefaultFlightCap = 64

// SlowQuery is one entry of the bounded slow-query log.
type SlowQuery struct {
	Query   string        `json:"query"`
	ID      string        `json:"id,omitempty"`
	TraceID string        `json:"trace_id,omitempty"`
	Engine  string        `json:"engine,omitempty"`
	Start   time.Time     `json:"start"`
	Wall    time.Duration `json:"wall_ns"`
	Err     string        `json:"err,omitempty"`
}

// Aggregator accumulates fleet-wide statistics across queries: a
// log-bucketed latency histogram, per-phase wall totals, per-rule firing
// counts, evaluator and NetCDF I/O totals, the misestimates of joined
// explain tables, and a bounded slow-query log. It implements Sink.
type Aggregator struct {
	mu      sync.Mutex
	totals  Totals
	latency ExemplarHistogram
	mis     Misestimates
	rules   map[string]int64
	slow    []SlowQuery // sorted by Wall, slowest first
}

// Misestimates folds the joined explain tables of the reports an Aggregator
// saw: flagged operators, queries with at least one flag, the worst q-error,
// and an exemplar pointing at the most recent traced query with a flag.
type Misestimates struct {
	Ops         int64     `json:"ops"`
	Queries     int64     `json:"queries"`
	WorstQError float64   `json:"worst_q_error"`
	Exemplar    *Exemplar `json:"exemplar,omitempty"`
}

// NewAggregator returns an aggregator keeping the DefaultSlowCap slowest
// queries.
func NewAggregator() *Aggregator {
	return &Aggregator{rules: map[string]int64{}}
}

// Emit folds one finished report into the aggregates; part of Sink.
func (a *Aggregator) Emit(r *QueryReport) {
	if a == nil || r == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.totals.add(r)
	end := r.Start.Add(r.Wall)
	a.latency.Observe(r.Wall, r.TraceID, end)
	if t := r.Explain; t != nil && t.Misestimates > 0 {
		a.mis.Ops += int64(t.Misestimates)
		a.mis.Queries++
		a.mis.WorstQError = max(a.mis.WorstQError, t.WorstQError)
		if r.TraceID != "" {
			ex := exemplarAt(r.TraceID, t.WorstQError, end)
			a.mis.Exemplar = &ex
		}
	}
	for _, f := range r.Rules {
		a.rules[f.Rule]++
	}
	sq := SlowQuery{Query: r.Query, ID: r.ID, TraceID: r.TraceID, Engine: r.Engine, Start: r.Start, Wall: r.Wall, Err: r.Err}
	i := sort.Search(len(a.slow), func(i int) bool { return a.slow[i].Wall < sq.Wall })
	if i < DefaultSlowCap {
		a.slow = append(a.slow, SlowQuery{})
		copy(a.slow[i+1:], a.slow[i:])
		a.slow[i] = sq
		if len(a.slow) > DefaultSlowCap {
			a.slow = a.slow[:DefaultSlowCap]
		}
	}
}

// bucketFor maps a wall time to its histogram bucket index.
func bucketFor(d time.Duration) int {
	for i := 0; i < nLatencyBuckets; i++ {
		if d <= LatencyBucketBound(i) {
			return i
		}
	}
	return nLatencyBuckets
}

// AggregateSnapshot is a consistent copy of an Aggregator's state.
type AggregateSnapshot struct {
	Totals Totals `json:"totals"`
	// Latency is the query wall-time histogram; its Sum and Count equal
	// Totals.Wall and Totals.Queries.
	Latency HistogramSnapshot `json:"latency"`
	// Misestimates folds the joined explain tables of the queries seen.
	Misestimates Misestimates `json:"misestimates"`
	// Rules counts optimizer rule firings by rule name.
	Rules map[string]int64 `json:"rule_firings"`
	// Slow lists the slowest queries seen, slowest first.
	Slow []SlowQuery `json:"slow"`
}

// Snapshot returns a copy of the aggregates safe to read without locks.
func (a *Aggregator) Snapshot() AggregateSnapshot {
	if a == nil {
		return AggregateSnapshot{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	s := AggregateSnapshot{
		Totals:       a.totals.clone(),
		Latency:      a.latency.Snapshot(),
		Misestimates: a.mis,
		Rules:        make(map[string]int64, len(a.rules)),
		Slow:         make([]SlowQuery, len(a.slow)),
	}
	for k, v := range a.rules {
		s.Rules[k] = v
	}
	copy(s.Slow, a.slow)
	return s
}

// FlightRecorder is a fixed-capacity ring of the last N full QueryReports,
// for post-hoc inspection through /debug/queries. It implements Sink.
type FlightRecorder struct {
	mu    sync.Mutex
	buf   []QueryReport
	next  int
	full  bool
	total int64
}

// NewFlightRecorder returns a recorder retaining the last n reports
// (DefaultFlightCap when n <= 0).
func NewFlightRecorder(n int) *FlightRecorder {
	if n <= 0 {
		n = DefaultFlightCap
	}
	return &FlightRecorder{buf: make([]QueryReport, n)}
}

// Emit stores a copy of the report, evicting the oldest at capacity; part
// of Sink.
func (f *FlightRecorder) Emit(r *QueryReport) {
	if f == nil || r == nil {
		return
	}
	f.mu.Lock()
	f.buf[f.next] = *r
	f.next++
	if f.next == len(f.buf) {
		f.next, f.full = 0, true
	}
	f.total++
	f.mu.Unlock()
}

// Cap returns the configured capacity.
func (f *FlightRecorder) Cap() int {
	if f == nil {
		return 0
	}
	return len(f.buf)
}

// Total returns how many reports have ever been recorded.
func (f *FlightRecorder) Total() int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.total
}

// Find returns a copy of the newest retained report whose request ID or
// trace ID equals id. This is what /debug/trace/{id} serves: the retention
// story for stitched traces is simply that they ride the flight recorder's
// ring alongside every other report.
func (f *FlightRecorder) Find(id string) (QueryReport, bool) {
	if f == nil || id == "" {
		return QueryReport{}, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.buf)
	if !f.full {
		n = f.next
	}
	// Scan newest to oldest.
	for k := 1; k <= n; k++ {
		i := (f.next - k + len(f.buf)) % len(f.buf)
		if f.buf[i].ID == id || f.buf[i].TraceID == id {
			return f.buf[i], true
		}
	}
	return QueryReport{}, false
}

// Reports returns the retained reports, oldest first.
func (f *FlightRecorder) Reports() []QueryReport {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []QueryReport
	if f.full {
		out = make([]QueryReport, 0, len(f.buf))
		out = append(out, f.buf[f.next:]...)
		out = append(out, f.buf[:f.next]...)
	} else {
		out = make([]QueryReport, f.next)
		copy(out, f.buf[:f.next])
	}
	return out
}

// ExemplarHistogram is a concurrency-safe log-2 latency histogram whose
// buckets carry trace-id exemplars. It backs every latency family: query
// wall time (inside the Aggregator), admission queue wait and the
// coordinator's shard round trips.
type ExemplarHistogram struct {
	mu        sync.Mutex
	buckets   [nLatencyBuckets + 1]int64
	exemplars [nLatencyBuckets + 1]Exemplar // by value: an observation allocates nothing
	sum       time.Duration
	count     int64
}

// Observe folds one observation in; ts is when it completed.
func (h *ExemplarHistogram) Observe(d time.Duration, traceID string, ts time.Time) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	bi := bucketFor(d)
	h.buckets[bi]++
	h.sum += d
	h.count++
	if traceID != "" {
		// The latest traced observation per bucket becomes the exemplar: the
		// OpenMetrics hook from "this bucket is hot" to a concrete trace.
		h.exemplars[bi] = exemplarAt(traceID, d.Seconds(), ts)
	}
}

// exemplarAt links an observation of value, completed at ts, to a trace.
func exemplarAt(traceID string, value float64, ts time.Time) Exemplar {
	return Exemplar{TraceID: traceID, Value: value, Ts: float64(ts.UnixNano()) / 1e9}
}

// HistogramSnapshot is a consistent copy of an ExemplarHistogram, in the
// shape MetricWriter.Histogram renders: per-bucket counts (last is +Inf)
// with parallel exemplars, plus sum and count.
type HistogramSnapshot struct {
	Buckets   []int64       `json:"buckets"`
	Exemplars []*Exemplar   `json:"exemplars,omitempty"`
	Sum       time.Duration `json:"sum_ns"`
	Count     int64         `json:"count"`
}

// Snapshot returns a copy safe to read without locks.
func (h *ExemplarHistogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{
		Buckets:   make([]int64, len(h.buckets)),
		Exemplars: make([]*Exemplar, len(h.exemplars)),
		Sum:       h.sum,
		Count:     h.count,
	}
	copy(s.Buckets, h.buckets[:])
	for i, ex := range h.exemplars {
		if ex.TraceID != "" {
			s.Exemplars[i] = &ex
		}
	}
	return s
}
