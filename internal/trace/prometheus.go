package trace

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// PrometheusContentType is the content type of the classic text exposition
// format.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// OpenMetricsContentType is the content type of the OpenMetrics 1.0 text
// format (the one that admits exemplars).
const OpenMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// Exemplar links one histogram observation to the distributed trace that
// produced it: the OpenMetrics mechanism by which "the p99 bucket is hot"
// dereferences to a concrete slow query's stitched trace.
type Exemplar struct {
	TraceID string  `json:"trace_id"`
	Value   float64 `json:"value"` // the observation, in the metric's unit
	Ts      float64 `json:"ts"`    // unix seconds
}

// ServeMetrics is the head of every /metrics response: it negotiates the
// format from the request's Accept header (classic Prometheus text 0.0.4
// by default, OpenMetrics 1.0 with trace-id exemplars on request), sets
// the Content-Type and writes the fleet families of the snapshot. The
// caller appends any families of its own to the returned writer and ends
// the response with WriteEOF. Hand-rolled so the trace package stays
// dependency-free; output is deterministic: labelled series are sorted by
// label value (phases in pipeline order first).
func ServeMetrics(w http.ResponseWriter, req *http.Request, s AggregateSnapshot) *MetricWriter {
	om := AcceptsOpenMetrics(req.Header.Get("Accept"))
	if om {
		w.Header().Set("Content-Type", OpenMetricsContentType)
	} else {
		w.Header().Set("Content-Type", PrometheusContentType)
	}
	b := NewMetricWriter(w, om)
	writeFleetMetrics(b, s)
	return b
}

// AcceptsOpenMetrics reports whether an Accept header asks for the
// OpenMetrics format (how Prometheus scrapers opt into exemplars).
func AcceptsOpenMetrics(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mt := strings.TrimSpace(part)
		if i := strings.IndexByte(mt, ';'); i >= 0 {
			mt = strings.TrimSpace(mt[:i])
		}
		if strings.EqualFold(mt, "application/openmetrics-text") {
			return true
		}
	}
	return false
}

func writeFleetMetrics(b *MetricWriter, s AggregateSnapshot) {
	b.Header("aql_queries_total", "counter", "Queries executed.")
	b.Val("aql_queries_total", "", s.Totals.Queries)
	b.Header("aql_query_errors_total", "counter", "Queries that ended in an error.")
	b.Val("aql_query_errors_total", "", s.Totals.Errors)

	b.Histogram("aql_query_duration_seconds", "Query wall time, log-2 buckets.", s.Latency)

	b.Header("aql_phase_seconds_total", "counter", "Wall time by pipeline phase.")
	for _, name := range phaseNames(s.Totals.PhaseWall) {
		b.Valf("aql_phase_seconds_total", `phase="`+name+`"`, s.Totals.PhaseWall[name].Seconds())
	}

	b.Header("aql_rule_firings_total", "counter", "Optimizer rule applications by rule.")
	rules := make([]string, 0, len(s.Rules))
	for r := range s.Rules {
		rules = append(rules, r)
	}
	sort.Strings(rules)
	for _, r := range rules {
		b.Val("aql_rule_firings_total", `rule="`+r+`"`, s.Rules[r])
	}

	b.Header("aql_eval_steps_total", "counter", "Evaluator steps charged.")
	b.Val("aql_eval_steps_total", "", s.Totals.Eval.Steps)
	b.Header("aql_eval_cells_total", "counter", "Collection/array cells charged.")
	b.Val("aql_eval_cells_total", "", s.Totals.Eval.Cells)
	b.Header("aql_eval_tabulations_total", "counter", "Array tabulations performed.")
	b.Val("aql_eval_tabulations_total", "", s.Totals.Eval.Tabulations)
	b.Header("aql_eval_set_ops_total", "counter", "Set/bag algebra operations.")
	b.Val("aql_eval_set_ops_total", "", s.Totals.Eval.SetOps)
	b.Header("aql_eval_iterations_total", "counter", "Comprehension loop iterations.")
	b.Val("aql_eval_iterations_total", "", s.Totals.Eval.Iterations)

	b.Header("aql_io_slab_reads_total", "counter", "NetCDF hyperslab reads.")
	b.Val("aql_io_slab_reads_total", "", s.Totals.IO.SlabReads)
	b.Header("aql_io_bytes_read_total", "counter", "NetCDF data bytes read.")
	b.Val("aql_io_bytes_read_total", "", s.Totals.IO.BytesRead)
	b.Header("aql_io_retries_total", "counter", "NetCDF transient-error retries.")
	b.Val("aql_io_retries_total", "", s.Totals.IO.Retries)
	b.Header("aql_io_faults_total", "counter", "NetCDF injected faults observed.")
	b.Val("aql_io_faults_total", "", s.Totals.IO.Faults)
	b.Header("aql_io_tile_hits_total", "counter", "Tile-cache demand hits.")
	b.Val("aql_io_tile_hits_total", "", s.Totals.IO.TileHits)
	b.Header("aql_io_tile_misses_total", "counter", "Tile-cache demand misses (tiles faulted in).")
	b.Val("aql_io_tile_misses_total", "", s.Totals.IO.TileMisses)
	b.Header("aql_io_tile_prefetches_total", "counter", "Tile readahead fetches.")
	b.Val("aql_io_tile_prefetches_total", "", s.Totals.IO.Prefetches)
	b.Header("aql_io_tile_prefetch_useful_total", "counter", "Prefetched tiles later served on demand.")
	b.Val("aql_io_tile_prefetch_useful_total", "", s.Totals.IO.PrefetchUseful)
	b.Header("aql_io_bytes_scanned_total", "counter", "Nominal bytes fetched from storage into the tile cache.")
	b.Val("aql_io_bytes_scanned_total", "", s.Totals.IO.BytesScanned)
	b.Header("aql_io_bytes_returned_total", "counter", "Nominal bytes of cells delivered to queries.")
	b.Val("aql_io_bytes_returned_total", "", s.Totals.IO.BytesReturned)
	b.Header("aql_io_spill_bytes_written_total", "counter", "Bytes written to the spill file.")
	b.Val("aql_io_spill_bytes_written_total", "", s.Totals.IO.SpillBytesWritten)
	b.Header("aql_io_spill_bytes_read_total", "counter", "Bytes read back from the spill file.")
	b.Val("aql_io_spill_bytes_read_total", "", s.Totals.IO.SpillBytesRead)
}

// phaseNames orders phase labels: standard pipeline phases first (those
// present), then any extras alphabetically.
func phaseNames(m map[string]time.Duration) []string {
	out := make([]string, 0, len(m))
	std := make(map[string]bool, len(PhaseOrder))
	for _, name := range PhaseOrder {
		std[name] = true
		if _, ok := m[name]; ok {
			out = append(out, name)
		}
	}
	var extra []string
	for name := range m {
		if !std[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	return append(out, extra...)
}

// MetricWriter renders metric families in either the classic Prometheus
// text format (version 0.0.4) or the OpenMetrics 1.0 text format. The two
// differ in family naming (OpenMetrics TYPE/HELP lines name a counter
// family without its _total suffix) and in what OpenMetrics adds: exemplars
// on histogram buckets and the terminating # EOF line. The query server
// shares this writer with the fleet exposition so its aqld_* families
// content-negotiate identically.
type MetricWriter struct {
	w   io.Writer
	om  bool
	err error
}

// NewMetricWriter returns a writer in the chosen flavor.
func NewMetricWriter(w io.Writer, openMetrics bool) *MetricWriter {
	return &MetricWriter{w: w, om: openMetrics}
}

// Err returns the first write error.
func (b *MetricWriter) Err() error { return b.err }

// Header writes the HELP and TYPE lines of one metric family. name is the
// sample name of the family's principal series (counters keep their _total
// suffix here); in OpenMetrics mode the family name drops the suffix, as
// the spec requires.
func (b *MetricWriter) Header(name, typ, help string) {
	if b.err != nil {
		return
	}
	family := name
	if b.om && typ == "counter" {
		family = strings.TrimSuffix(family, "_total")
	}
	_, b.err = fmt.Fprintf(b.w, "# HELP %s %s\n# TYPE %s %s\n", family, help, family, typ)
}

// Val writes one integer sample.
func (b *MetricWriter) Val(name, labels string, v int64) { b.ValEx(name, labels, v, nil) }

// ValEx writes one integer sample with an optional exemplar (rendered only
// in OpenMetrics mode; histogram buckets and counters admit them).
func (b *MetricWriter) ValEx(name, labels string, v int64, ex *Exemplar) {
	if b.err != nil {
		return
	}
	if labels != "" {
		labels = "{" + labels + "}"
	}
	_, b.err = fmt.Fprintf(b.w, "%s%s %d%s\n", name, labels, v, b.exemplar(ex))
}

// Valf writes one float sample.
func (b *MetricWriter) Valf(name, labels string, v float64) {
	if b.err != nil {
		return
	}
	if labels != "" {
		labels = "{" + labels + "}"
	}
	_, b.err = fmt.Fprintf(b.w, "%s%s %s\n", name, labels, strconv.FormatFloat(v, 'g', -1, 64))
}

// Histogram writes a whole histogram family from a snapshot: cumulative
// buckets on the log-2 bounds (with exemplars where available), the +Inf
// bucket, sum and count.
func (b *MetricWriter) Histogram(name, help string, h HistogramSnapshot) {
	b.Header(name, "histogram", help)
	var cum int64
	for i, n := range h.Buckets {
		cum += n
		le := "+Inf"
		if i < len(h.Buckets)-1 {
			le = strconv.FormatFloat(LatencyBucketBound(i).Seconds(), 'g', -1, 64)
		}
		var ex *Exemplar
		if i < len(h.Exemplars) {
			ex = h.Exemplars[i]
		}
		b.ValEx(name+"_bucket", `le="`+le+`"`, cum, ex)
	}
	b.Valf(name+"_sum", "", h.Sum.Seconds())
	b.Val(name+"_count", "", h.Count)
}

// exemplar renders an exemplar suffix, or "" outside OpenMetrics mode.
func (b *MetricWriter) exemplar(ex *Exemplar) string {
	if !b.om || ex == nil || ex.TraceID == "" {
		return ""
	}
	return fmt.Sprintf(" # {trace_id=\"%s\"} %s %s", ex.TraceID,
		strconv.FormatFloat(ex.Value, 'g', -1, 64),
		strconv.FormatFloat(ex.Ts, 'f', 3, 64))
}

// WriteEOF terminates an OpenMetrics exposition (no-op in classic mode).
func (b *MetricWriter) WriteEOF() {
	if b.err != nil || !b.om {
		return
	}
	_, b.err = io.WriteString(b.w, "# EOF\n")
}
