package trace

import (
	"encoding/json"
	"io"
	"log/slog"
	"sync"
)

// Sink receives finished QueryReports, once per report. Concurrent
// executions finish concurrently, so Emit must be safe for concurrent use.
type Sink interface {
	Emit(*QueryReport)
}

// SlogSink emits one structured log record per report — the operational
// sink for servers that already aggregate slog output.
type SlogSink struct {
	l *slog.Logger
}

// NewSlogSink returns a sink logging to l (slog.Default() when nil).
func NewSlogSink(l *slog.Logger) *SlogSink {
	if l == nil {
		l = slog.Default()
	}
	return &SlogSink{l: l}
}

// Emit logs the report's headline numbers at Info level.
func (s *SlogSink) Emit(r *QueryReport) {
	attrs := []any{
		slog.String("query", r.Query),
		slog.Duration("wall", r.Wall),
		slog.Int64("steps", r.Eval.Steps),
		slog.Int64("cells", r.Eval.Cells),
		slog.Int64("tabulations", r.Eval.Tabulations),
		slog.Int64("set_ops", r.Eval.SetOps),
		slog.Int64("iterations", r.Eval.Iterations),
		slog.Int("rule_firings", r.RuleFirings()),
		slog.Int("nodes_before", r.NodesBefore),
		slog.Int("nodes_after", r.NodesAfter),
	}
	for _, p := range r.Phases {
		attrs = append(attrs, slog.Duration("phase_"+p.Name, p.Wall))
	}
	if !r.IO.IsZero() {
		attrs = append(attrs,
			slog.Int64("io_slab_reads", r.IO.SlabReads),
			slog.Int64("io_bytes", r.IO.BytesRead),
			slog.Int64("io_retries", r.IO.Retries),
		)
	}
	if r.Err != "" {
		attrs = append(attrs, slog.String("err", r.Err))
		s.l.Error("aql query", attrs...)
		return
	}
	s.l.Info("aql query", attrs...)
}

// JSONSink writes one JSON-encoded QueryReport per line (aql.NewJSONSink):
// a report stream a program can tail.
type JSONSink struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewJSONSink returns a sink encoding reports to w, one per line.
func NewJSONSink(w io.Writer) *JSONSink {
	return &JSONSink{enc: json.NewEncoder(w)}
}

// Emit writes the report; encoding errors are ignored (a broken report
// stream must not fail queries).
func (s *JSONSink) Emit(r *QueryReport) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.enc.Encode(r)
}
