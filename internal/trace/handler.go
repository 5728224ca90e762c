package trace

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
)

// metricsPayload is the JSON document the summary endpoint serves:
// expvar-style cumulative counters plus one summary per report the flight
// recorder retains.
type metricsPayload struct {
	Totals Totals         `json:"totals"`
	Recent []querySummary `json:"recent"`
}

// querySummary is the compact per-query line of the summary endpoint; the
// full reports (span trees included) live on /debug/queries. It mirrors
// every dimension a debugging session pivots on: request/trace ids,
// admission queue wait, execution mode and per-shard dispatch outcomes were
// once dropped here, which made the summary view useless for exactly the
// overloaded-cluster investigations it exists for.
type querySummary struct {
	Query       string       `json:"query"`
	ID          string       `json:"id,omitempty"`
	TraceID     string       `json:"trace_id,omitempty"`
	WallNanos   int64        `json:"wall_ns"`
	QueueWait   int64        `json:"queue_wait_ns,omitempty"`
	Mode        string       `json:"mode,omitempty"`
	Eval        EvalCounters `json:"eval"`
	IO          IOCounters   `json:"io,omitempty"`
	RuleFirings int          `json:"rule_firings"`
	NodesBefore int          `json:"nodes_before"`
	NodesAfter  int          `json:"nodes_after"`
	Shards      []ShardSpan  `json:"shards,omitempty"`
	Err         string       `json:"err,omitempty"`
}

// summarize renders one report as its summary line.
func summarize(rep *QueryReport) querySummary {
	return querySummary{
		Query:       rep.Query,
		ID:          rep.ID,
		TraceID:     rep.TraceID,
		WallNanos:   int64(rep.Wall),
		QueueWait:   int64(rep.QueueWait),
		Mode:        rep.Mode,
		Eval:        rep.Eval,
		IO:          rep.IO,
		RuleFirings: rep.RuleFirings(),
		NodesBefore: rep.NodesBefore,
		NodesAfter:  rep.NodesAfter,
		Shards:      rep.Shards,
		Err:         rep.Err,
	}
}

// NewHandler routes the observability surface `aql -metricsaddr` serves
// and the query server mounts beside its own endpoints:
//
//	GET /                JSON summary: fleet totals + summaries of the
//	                     flight recorder's reports (requires agg)
//	GET /metrics         Prometheus text exposition (requires agg); serves
//	                     OpenMetrics with exemplars when Accept asks for it
//	GET /debug/queries   flight-recorder contents as JSON (requires flight)
//	GET /debug/trace/{id} one retained report as Chrome trace-event JSON,
//	                     looked up by request or trace id (requires flight)
//	GET /debug/slow      slow-query log as JSON (requires agg)
//	/debug/pprof/...     standard net/http/pprof handlers
//
// Every endpoint sets its Content-Type; unknown paths get 404 and non-GET
// methods on known paths get 405. Endpoints whose backing component is nil
// respond 404, so a partial wiring degrades to "not found" rather than
// serving empty documents.
func NewHandler(agg *Aggregator, flight *FlightRecorder) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /{$}", func(w http.ResponseWriter, req *http.Request) {
		if agg == nil {
			http.NotFound(w, req)
			return
		}
		reports := flight.Reports()
		payload := metricsPayload{Totals: agg.Snapshot().Totals, Recent: make([]querySummary, 0, len(reports))}
		for i := range reports {
			payload.Recent = append(payload.Recent, summarize(&reports[i]))
		}
		WriteJSON(w, http.StatusOK, payload)
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, req *http.Request) {
		if agg == nil {
			http.NotFound(w, req)
			return
		}
		ServeMetrics(w, req, agg.Snapshot()).WriteEOF()
	})

	mux.HandleFunc("GET /debug/trace/{id}", func(w http.ResponseWriter, req *http.Request) {
		if flight == nil {
			http.NotFound(w, req)
			return
		}
		rep, ok := flight.Find(req.PathValue("id"))
		if !ok {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = WriteChromeTrace(w, &rep)
	})

	mux.HandleFunc("GET /debug/queries", func(w http.ResponseWriter, req *http.Request) {
		if flight == nil {
			http.NotFound(w, req)
			return
		}
		WriteJSON(w, http.StatusOK, struct {
			Capacity int           `json:"capacity"`
			Total    int64         `json:"total"`
			Reports  []QueryReport `json:"reports"`
		}{flight.Cap(), flight.Total(), flight.Reports()})
	})

	mux.HandleFunc("GET /debug/slow", func(w http.ResponseWriter, req *http.Request) {
		if agg == nil {
			http.NotFound(w, req)
			return
		}
		WriteJSON(w, http.StatusOK, struct {
			Slow []SlowQuery `json:"slow"`
		}{agg.Snapshot().Slow})
	})

	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	return mux
}

// WriteJSON writes v as one response in the one JSON form both HTTP
// surfaces (this handler and the query server) speak: compact, and with
// HTML escaping off — recorded query text is full of '<', '>' and '&'
// (every tabulation has a bound), and a client must read it back verbatim.
// Encoding errors are ignored: the status line is already written.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
