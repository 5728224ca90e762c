// Package server implements aqld, the concurrent AQL query server: an
// HTTP/JSON front end hosting one shared session environment and serving
// concurrent /query requests on the compiled execution engine.
//
// Three mechanisms make one environment safe and fast to share:
//
//   - A prepared-plan cache. Each distinct query text is parsed,
//     typechecked, optimized and compiled to a slot-resolved closure
//     program once; requests for the same query execute the cached
//     compile.Program directly. Entries are keyed by the normalized query
//     text alone, and an entry is served only while the plan itself says it
//     is current (repl.Plan.Current, the test a prepared statement applies
//     too): a plan keeps the globals it read, so after a rebinding of a val
//     it reads, a macro definition or a registration, the next lookup finds
//     the plan stale and re-prepares it in place. A rebinding of a val it
//     does not read leaves it current.
//
//   - Admission control. A semaphore bounds concurrently executing
//     queries, a bounded queue absorbs bursts, and requests beyond both are
//     rejected with typed errors mapped to HTTP 429 (queue full) and 503
//     (queue timeout). The request context threads into evaluation, so a
//     client disconnect aborts the query itself, not just the response.
//
//   - Per-request observability. Every request builds a report of its own,
//     opened and finished by the calls every REPL statement and prepared
//     execution uses (repl.Session.OpenReport, FinishReport) and written
//     only by the goroutine serving the request. The finished report goes
//     to the session's fleet aggregator and flight recorder — the only
//     places reports are kept — and back to the client as phase timings in
//     the response. A cache hit carries zero parse/typecheck/optimize/
//     compile phases by construction: those phases simply never run. The
//     whole trace.NewHandler surface is mounted beside the server's own
//     endpoints.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"github.com/aqldb/aql/internal/cluster"
	"github.com/aqldb/aql/internal/compile"
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/exchange"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/repl"
	"github.com/aqldb/aql/internal/trace"
	"github.com/aqldb/aql/internal/typecheck"
)

// Request body and /val body caps.
const (
	maxQueryBody = 1 << 20 // 1 MiB of query JSON
	maxValBody   = 16 << 20
)

// Config tunes a Server. Zero fields take the package defaults.
type Config struct {
	// CacheSize bounds the prepared-plan cache (entries).
	CacheSize int
	// MaxConcurrent / MaxQueued / QueueTimeout configure admission control.
	MaxConcurrent int
	MaxQueued     int
	QueueTimeout  time.Duration
	// Limits is the per-request resource budget. MaxDepth is compiled into
	// cached plans; the other fields are per-execution defaults a request
	// may tighten (never exceed) with its own max_steps / timeout_ms.
	Limits eval.Limits
	// Workers caps per-query local fan-out, of tabulations and Σs (0 = GOMAXPROCS). A
	// coordinator node typically sets 1 so local fallback doesn't contend
	// with dispatching.
	Workers int
	// Coordinator, when non-nil, enables scatter-gather execution: queries
	// whose prepared plan is range-partitionable are scattered across its
	// workers instead of executing in-process. See internal/cluster.
	Coordinator *cluster.Coordinator
	// QErrorThreshold is the q-error above which a per-operator estimate is
	// flagged as a misestimate in joined explain tables (<= 0 selects
	// trace.DefaultQErrorThreshold).
	QErrorThreshold float64
}

// Server is the aqld HTTP handler. Create with New, serve with net/http.
type Server struct {
	sess *repl.Session
	cfg  Config

	cache *planCache
	adm   *admission

	qid atomic.Int64

	mux *http.ServeMux
}

// New wraps a session (its environment, fleet aggregator and flight
// recorder) in a query server. The session must not be used for concurrent
// REPL work while the server is running; the server owns it.
func New(sess *repl.Session, cfg Config) *Server {
	s := &Server{
		sess:  sess,
		cfg:   cfg,
		cache: newPlanCache(cfg.CacheSize),
		adm:   newAdmission(cfg.MaxConcurrent, cfg.MaxQueued, cfg.QueueTimeout),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /shard", s.handleShard)
	mux.HandleFunc("GET /val/{name}", s.handleValGet)
	mux.HandleFunc("POST /val/{name}", s.handleValSet)
	// The observability surface is trace.NewHandler, the handler `aql
	// -metricsaddr` serves, answering every path the server does not route
	// itself; the server adds its own families to /metrics and the three
	// endpoints only it can answer.
	mux.Handle("/", trace.NewHandler(sess.Fleet, sess.Flight))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/server", s.handleDebugServer)
	mux.HandleFunc("GET /debug/explain/{id}", s.handleDebugExplain)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	s.mux = mux
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// CacheStats exposes the plan cache counters (tests and /debug/server).
func (s *Server) CacheStats() CacheStats { return s.cache.stats() }

// AdmissionStats exposes the admission counters.
func (s *Server) AdmissionStats() AdmissionStats { return s.adm.stats() }

// QueryRequest is the POST /query body.
type QueryRequest struct {
	Query string `json:"query"`
	// MaxSteps, when positive, tightens the server's per-request step
	// budget for this query; it cannot exceed the configured budget.
	MaxSteps int64 `json:"max_steps,omitempty"`
	// TimeoutMS likewise tightens the evaluation wall-clock budget.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Args binds the query's $name placeholders for this execution, each
	// value in the complex-object exchange format. Binding is strict: every
	// placeholder must be bound, every argument must name a placeholder the
	// query mentions, and each value must unify with the placeholder's
	// inferred type — violations are 400s, never mid-query eval errors.
	Args map[string]string `json:"args,omitempty"`
}

// QueryResponse is the POST /query success body.
type QueryResponse struct {
	ID string `json:"id"`
	// TraceID is the distributed trace id the query ran under: honored from
	// the request's traceparent header, or minted by the server. Fetch the
	// stitched trace with GET /debug/trace/{trace_id}.
	TraceID string `json:"trace_id,omitempty"`
	Cached  bool   `json:"cached"`
	Type    string `json:"type"`
	// Value is the result in the complex-object data exchange format.
	Value string `json:"value"`
	// WallNS, Phases and Eval are read from the request's report; they are
	// empty while the session records nothing (repl.Session.Recording off).
	WallNS int64              `json:"wall_ns"`
	Phases []trace.PhaseTime  `json:"phases"`
	Eval   trace.EvalCounters `json:"eval"`
	// QueueWaitNS is time spent queued in admission control before
	// execution began; 0 when a slot was free immediately.
	QueueWaitNS int64 `json:"queue_wait_ns,omitempty"`
	// Mode and Shards describe coordinator execution (see
	// trace.QueryReport.Mode); absent on non-coordinator servers.
	Mode   string            `json:"mode,omitempty"`
	Shards []trace.ShardSpan `json:"shards,omitempty"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error ErrorInfo `json:"error"`
}

// ErrorInfo is a typed error: Kind classifies it machine-readably.
//
//	parse | type | resource:steps | resource:cells | resource:depth |
//	resource:timeout | resource:cancelled | admission:queue_full |
//	admission:queue_timeout | panic | request
type ErrorInfo struct {
	Kind    string `json:"kind"`
	Message string `json:"message"`
	// ID is set when the error occurred inside an identified query.
	ID string `json:"id,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, maxQueryBody)
	var req QueryRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, ErrorInfo{Kind: "request", Message: "bad request body: " + err.Error()})
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		writeError(w, http.StatusBadRequest, ErrorInfo{Kind: "request", Message: "empty query"})
		return
	}

	// Request identity: a sanitized client X-Request-ID wins (so the caller
	// can correlate the response, the slow log and the flight recorder with
	// its own systems); otherwise the server mints one. Echoed on every
	// response, success or error.
	id := trace.SanitizeRequestID(r.Header.Get("X-Request-ID"))
	if id == "" {
		id = fmt.Sprintf("q%06d", s.qid.Add(1))
	}
	w.Header().Set("X-Request-ID", id)

	// Trace context: honor an inbound W3C traceparent, else mint a root.
	tc, ok := trace.ParseTraceparent(r.Header.Get("traceparent"))
	if !ok {
		tc = trace.NewTraceContext()
	}
	w.Header().Set("traceparent", tc.Traceparent())

	ctx := r.Context()
	release, waited, err := s.adm.acquire(ctx, tc.TraceID)
	if err != nil {
		status, info := admissionHTTP(err)
		info.ID = id
		writeError(w, status, info)
		return
	}
	defer release()

	resp, errInfo, status := s.runQuery(ctx, id, tc, req, waited)
	if errInfo != nil {
		errInfo.ID = id
		writeError(w, status, *errInfo)
		return
	}
	trace.WriteJSON(w, http.StatusOK, resp)
}

// runQuery executes one admitted request: plan-cache lookup or prepare,
// then execution on a fresh machine, all recorded on the request's own
// report.
func (s *Server) runQuery(ctx context.Context, id string, tc trace.TraceContext, req QueryRequest, waited time.Duration) (*QueryResponse, *ErrorInfo, int) {
	norm := NormalizeQuery(req.Query)

	rep := s.sess.OpenReport(norm)
	if rep != nil {
		rep.ID, rep.TraceID, rep.QueueWait = id, tc.TraceID, waited
	}

	p, hit, err := s.plan(norm, rep)
	if err != nil {
		s.sess.FinishReport(rep, err)
		info, status := compileHTTP(err)
		return nil, &info, status
	}
	if rep != nil {
		rep.Cached = hit
	}

	opts := s.execOpts(req)
	var bindErr *ErrorInfo
	if opts.Args, bindErr = bind(p, req.Args); bindErr != nil {
		s.sess.FinishReport(rep, errors.New(bindErr.Message))
		return nil, bindErr, http.StatusBadRequest
	}
	var v object.Value
	res := &cluster.Result{} // stays empty unless the coordinator ran the query
	err = s.sess.Guard(ctx, rep, norm, func(ctx context.Context, w *repl.Work) (err error) {
		w.Engine = repl.EngineCompiled
		if s.cfg.Coordinator == nil || !p.Prog.Rangeable() {
			v, w.Counters, err = p.Prog.Execute(ctx, opts)
		} else {
			// Scatter-gather path: the coordinator's merge contract
			// guarantees the value and counters below are byte-identical to
			// what the in-process branch would produce.
			var scattered *cluster.Result
			if scattered, err = s.cfg.Coordinator.ExecuteTraced(ctx, p.Prog, norm, opts, tc); err == nil {
				res, v, w.Counters = scattered, scattered.Value, scattered.Counters
			}
		}
		if err != nil {
			return err
		}
		// The result is encoded after the guard: a lazy array in it is read
		// here, under the execution's context.
		v, err = eval.Materialize(ctx, v, nil)
		return err
	})
	if rep != nil {
		rep.Mode, rep.Shards = res.Mode, res.Shards
		// Record the stitched multi-node tree only when it verifies against
		// the merged counters: a skewed tree (a buggy worker's payload)
		// degrades to the flat report rather than serving wrong attribution.
		if res.Spans != nil && trace.CheckStitched(res.Spans, res.Counters) == nil {
			rep.Spans, rep.ProfLevel = res.Spans, trace.ProfStitched
		}
		// Join the plan's prepare-time estimates against the recorded
		// actuals before the report is finished, so the table rides every
		// copy of it (flight recorder, fleet aggregator).
		rep.Explain = trace.JoinEstimates(p.Prog.Estimates(), rep, s.cfg.QErrorThreshold)
	}
	s.sess.FinishReport(rep, err)
	if err != nil {
		info, status := execHTTP(err)
		return nil, &info, status
	}

	text, err := exchange.WriteString(v)
	if err != nil {
		return nil, &ErrorInfo{Kind: "encode", Message: err.Error()}, http.StatusInternalServerError
	}
	resp := &QueryResponse{
		ID:          id,
		TraceID:     tc.TraceID,
		Cached:      hit,
		Type:        p.Type.String(),
		Value:       text,
		QueueWaitNS: int64(waited),
		Mode:        res.Mode,
		Shards:      res.Shards,
	}
	if rep != nil {
		resp.WallNS, resp.Phases, resp.Eval = int64(rep.Wall), rep.Phases, rep.Eval
	}
	return resp, nil, 0
}

// plan returns the prepared plan for the normalized query: the cached one
// while it is Current, else a fresh one from the session's front end, which
// replaces it. The prepare phases (parse/desugar/macro/typecheck/optimize/
// compile) are timed on rep only when they actually run, which is what makes
// a hit's report carry zero prepare time.
func (s *Server) plan(norm string, rep *trace.QueryReport) (*plan, bool, error) {
	depth := s.cfg.Limits.MaxDepth
	if p, ok := s.cache.get(norm, s.sess.Env, depth); ok {
		return p, true, nil
	}
	p, err := s.sess.Plan(rep, norm, eval.Limits{MaxDepth: depth})
	if err != nil {
		return nil, false, err
	}
	s.cache.put(norm, p)
	return p, false, nil
}

// execOpts derives one execution's resource budget: the server's configured
// limits, tightened (never widened) by the request's own bounds.
func (s *Server) execOpts(req QueryRequest) compile.ExecOpts {
	lim := s.cfg.Limits
	if req.MaxSteps > 0 && (lim.MaxSteps == 0 || req.MaxSteps < lim.MaxSteps) {
		lim.MaxSteps = req.MaxSteps
	}
	// A count of milliseconds too large for a Duration bounds nothing; left
	// to the multiply it would wrap negative, which Execute reads as "no
	// deadline" — wider than any configured budget.
	if ms := req.TimeoutMS; ms > 0 && ms <= math.MaxInt64/int64(time.Millisecond) {
		if t := time.Duration(ms) * time.Millisecond; lim.Timeout == 0 || t < lim.Timeout {
			lim.Timeout = t
		}
	}
	return compile.ExecOpts{Limits: lim, Workers: s.cfg.Workers}
}

// --- /val -------------------------------------------------------------------

func (s *Server) handleValGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	v, ok := s.sess.Env.Val(name)
	if !ok {
		writeError(w, http.StatusNotFound, ErrorInfo{Kind: "request", Message: "no val " + name})
		return
	}
	// A lazy val is read whole under the request's context; no execution
	// runs, so the reads count in no report.
	v, err := eval.Materialize(r.Context(), v, nil)
	if err != nil {
		info, status := execHTTP(err)
		writeError(w, status, info)
		return
	}
	text, err := exchange.WriteString(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, ErrorInfo{Kind: "encode", Message: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, text)
}

// handleValSet binds a top-level val from an exchange-format body. Every
// cached plan that reads the val is then stale: the next lookup of each finds
// it so (repl.Plan.Current) and re-prepares; plans that do not read it stay.
func (s *Server) handleValSet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	// The body is capped like every request body; an over-long one is a
	// 413 exchange:bytes, as an over-deep one is a 413 exchange:depth.
	v, err := exchange.Read(http.MaxBytesReader(w, r.Body, maxValBody))
	if err != nil {
		var mbe *http.MaxBytesError
		var le *exchange.LimitError
		switch {
		case errors.As(err, &mbe):
			writeError(w, http.StatusRequestEntityTooLarge, ErrorInfo{Kind: "exchange:bytes", Message: fmt.Sprintf("exchange: input exceeds %d bytes", mbe.Limit)})
			return
		case errors.As(err, &le):
			writeError(w, http.StatusRequestEntityTooLarge, ErrorInfo{Kind: "exchange:" + le.Kind, Message: err.Error()})
			return
		}
		writeError(w, http.StatusBadRequest, ErrorInfo{Kind: "exchange", Message: err.Error()})
		return
	}
	typ, err := typecheck.TypeOf(v)
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrorInfo{Kind: "type", Message: err.Error()})
		return
	}

	s.sess.Env.SetVal(name, v, typ)
	trace.WriteJSON(w, http.StatusOK, map[string]any{"name": name, "type": typ.String(), "epoch": s.sess.Env.Epoch()})
}

// --- observability endpoints ------------------------------------------------

// handleMetrics appends the server's own plan-cache, admission, I/O,
// misestimate and cluster families to the fleet exposition, in whichever
// format trace.ServeMetrics negotiated.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	fleet := s.sess.Fleet.Snapshot()
	b := trace.ServeMetrics(w, r, fleet)
	cs := s.cache.stats()
	as := s.adm.stats()
	b.Header("aqld_plan_cache_entries", "gauge", "Prepared plans currently cached.")
	b.Val("aqld_plan_cache_entries", "", int64(cs.Size))
	b.Header("aqld_plan_cache_events_total", "counter", "Plan cache events by kind.")
	b.Val("aqld_plan_cache_events_total", `event="hit"`, cs.Hits)
	b.Val("aqld_plan_cache_events_total", `event="miss"`, cs.Misses)
	b.Val("aqld_plan_cache_events_total", `event="eviction"`, cs.Evictions)
	b.Val("aqld_plan_cache_events_total", `event="invalidation"`, cs.Invalidations)
	b.Header("aqld_admission_active", "gauge", "Queries currently executing.")
	b.Val("aqld_admission_active", "", int64(as.Active))
	b.Header("aqld_admission_queued", "gauge", "Queries currently waiting for a slot.")
	b.Val("aqld_admission_queued", "", int64(as.Queued))
	b.Header("aqld_admission_total", "counter", "Admission outcomes by kind.")
	b.Val("aqld_admission_total", `outcome="admitted"`, as.Admitted)
	b.Val("aqld_admission_total", `outcome="queue_full"`, as.RejectedFull)
	b.Val("aqld_admission_total", `outcome="queue_timeout"`, as.RejectedWait)
	b.Val("aqld_admission_total", `outcome="cancelled"`, as.Cancelled)
	b.Histogram("aqld_admission_queue_seconds", "Time spent queued for an execution slot.", s.adm.queueWait.Snapshot())
	// Out-of-core I/O work is counted from finished reports (the aql_io_*
	// families above); what no report can carry is read live from the
	// session's tile cache. These series are cache-wide: they include work
	// no query was recorded for, such as an unrecorded -init script's.
	tc := s.sess.TileCache()
	b.Header("aqld_io_cache_resident_bytes", "gauge", "Bytes currently resident in the tile cache, including unrecorded work.")
	b.Val("aqld_io_cache_resident_bytes", "", tc.Resident())
	b.Header("aqld_io_cache_peak_bytes", "gauge", "Peak tile-cache residency since start, including unrecorded work.")
	b.Val("aqld_io_cache_peak_bytes", "", tc.PeakResident())
	b.Header("aqld_io_tile_evictions_total", "counter", "Tiles evicted to stay within the cache budget, cache-wide including unrecorded work.")
	b.Val("aqld_io_tile_evictions_total", "", tc.Stats().Evictions)
	mis := fleet.Misestimates
	b.Header("aqld_plan_misestimate_ops_total", "counter",
		"Operators whose estimate-vs-actual q-error exceeded the threshold.")
	b.ValEx("aqld_plan_misestimate_ops_total", "", mis.Ops, mis.Exemplar)
	b.Header("aqld_plan_misestimate_queries_total", "counter",
		"Queries with at least one flagged misestimate.")
	b.ValEx("aqld_plan_misestimate_queries_total", "", mis.Queries, mis.Exemplar)
	b.Header("aqld_plan_misestimate_worst_q_error", "gauge",
		"Worst estimate-vs-actual q-error observed since start.")
	b.Valf("aqld_plan_misestimate_worst_q_error", "", mis.WorstQError)
	if coord := s.cfg.Coordinator; coord != nil {
		st := coord.Stats()
		b.Header("aqld_cluster_queries_total", "counter", "Scatter-gather query executions.")
		b.Val("aqld_cluster_queries_total", "", st.Queries.Load())
		b.Header("aqld_cluster_shards_total", "counter", "Shards dispatched, by terminal executor.")
		b.Val("aqld_cluster_shards_total", `executor="remote"`, st.RemoteShards.Load())
		b.Val("aqld_cluster_shards_total", `executor="local"`, st.LocalShards.Load())
		b.Header("aqld_cluster_events_total", "counter", "Robustness-envelope events by kind.")
		b.Val("aqld_cluster_events_total", `event="retry"`, st.Retries.Load())
		b.Val("aqld_cluster_events_total", `event="hedge"`, st.Hedges.Load())
		b.Val("aqld_cluster_events_total", `event="hedge_win"`, st.HedgeWins.Load())
		b.Val("aqld_cluster_events_total", `event="breaker_open"`, st.BreakerOpens.Load())
		b.Val("aqld_cluster_events_total", `event="breaker_close"`, st.BreakerCloses.Load())
		b.Val("aqld_cluster_events_total", `event="degraded"`, st.DegradedTotal.Load())
		b.Histogram("aqld_cluster_shard_seconds",
			"Shard round-trip time, first dispatch to winning response.", coord.ShardLatency())
	}
	b.WriteEOF()
}

// handleDebugExplain serves the joined estimate-vs-actual table of one
// flight-recorded query as JSON, looked up by request id or trace id. 404
// when no report is retained under the id, or the retained report carries
// no joined table (e.g. the query failed before execution).
func (s *Server) handleDebugExplain(w http.ResponseWriter, r *http.Request) {
	rep, ok := s.sess.Flight.Find(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ErrorInfo{Kind: "request",
			Message: "no retained report with id or trace id " + r.PathValue("id")})
		return
	}
	if rep.Explain == nil {
		writeError(w, http.StatusNotFound, ErrorInfo{Kind: "request",
			Message: "no explain table recorded for " + r.PathValue("id")})
		return
	}
	trace.WriteJSON(w, http.StatusOK, rep.Explain)
}

func (s *Server) handleDebugServer(w http.ResponseWriter, r *http.Request) {
	trace.WriteJSON(w, http.StatusOK, map[string]any{
		"plan_cache": s.cache.stats(),
		"admission":  s.adm.stats(),
		"epoch":      s.sess.Env.Epoch(),
	})
}

// --- error mapping ----------------------------------------------------------

// admissionHTTP maps a typed admission rejection to status + body.
func admissionHTTP(err error) (int, ErrorInfo) {
	var ae *AdmissionError
	if !errors.As(err, &ae) {
		return http.StatusInternalServerError, ErrorInfo{Kind: "admission", Message: err.Error()}
	}
	info := ErrorInfo{Kind: "admission:" + string(ae.Kind), Message: ae.Error()}
	switch ae.Kind {
	case AdmissionQueueFull:
		return http.StatusTooManyRequests, info
	case AdmissionQueueTimeout:
		return http.StatusServiceUnavailable, info
	default: // client went away while queued; status is best-effort
		return statusClientClosedRequest, info
	}
}

// PrepareError is the front end's phase-tagged error, under the name this
// package has always exported it by.
type PrepareError = repl.PrepareError

// compileHTTP maps prepare-phase errors (parse/desugar/type) to 400, keyed
// by the PrepareError phase tag.
func compileHTTP(err error) (ErrorInfo, int) {
	kind := "compile"
	var pe *PrepareError
	if errors.As(err, &pe) {
		kind = pe.Phase
	}
	return ErrorInfo{Kind: kind, Message: err.Error()}, http.StatusBadRequest
}

// statusClientClosedRequest is the de-facto (nginx) status for "client
// disconnected before the response"; no standard code exists.
const statusClientClosedRequest = 499

// execHTTP maps execution errors to status + body: resource errors carry
// their kind, panics map to 500.
func execHTTP(err error) (ErrorInfo, int) {
	var re *eval.ResourceError
	if errors.As(err, &re) {
		info := ErrorInfo{Kind: "resource:" + string(re.Kind), Message: err.Error()}
		switch re.Kind {
		case eval.ResourceTimeout:
			return info, http.StatusGatewayTimeout
		case eval.ResourceCancelled:
			return info, statusClientClosedRequest
		default: // steps / cells / depth: the query exceeded its budget
			return info, http.StatusUnprocessableEntity
		}
	}
	var pe *repl.PanicError
	if errors.As(err, &pe) {
		return ErrorInfo{Kind: "panic", Message: pe.Error()}, http.StatusInternalServerError
	}
	// A worker's deterministic shard failure carries the worker's own kind
	// and status; re-serve them (the same plan fails the same way here).
	var se *cluster.ShardError
	if errors.As(err, &se) {
		status := se.Status
		if status == 0 {
			status = http.StatusBadGateway
		}
		return ErrorInfo{Kind: se.Kind, Message: se.Message}, status
	}
	return ErrorInfo{Kind: "eval", Message: err.Error()}, http.StatusUnprocessableEntity
}

func writeError(w http.ResponseWriter, status int, info ErrorInfo) {
	trace.WriteJSON(w, status, ErrorResponse{Error: info})
}
