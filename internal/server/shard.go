package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/aqldb/aql/internal/compile"
	"github.com/aqldb/aql/internal/exchange"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/repl"
	"github.com/aqldb/aql/internal/trace"
)

// handleShard is the worker half of scatter-gather execution: POST /shard
// executes one contiguous row-major range of a tabulation. The request
// flows through the same admission controller and prepared-plan cache as
// /query — a shard is a query whose element loop has been range-restricted
// — so worker capacity protection and plan reuse need no separate
// machinery. Errors use the shard envelope (exchange.ShardErrorEnvelope)
// with the same kind vocabulary as /query.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, maxQueryBody)
	var req exchange.ShardRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeShardError(w, http.StatusBadRequest, "request", "bad shard body: "+err.Error(), -1, "")
		return
	}
	if err := req.Validate(); err != nil {
		writeShardError(w, http.StatusBadRequest, "request", err.Error(), -1, "")
		return
	}

	// Trace context: the coordinator ships it in the body (authoritative)
	// and as a traceparent header; either identifies this shard's report as
	// part of the distributed query's trace.
	traceID := req.TraceID
	if traceID == "" {
		if tc, ok := trace.ParseTraceparent(r.Header.Get("traceparent")); ok {
			traceID = tc.TraceID
		}
	}

	ctx := r.Context()
	release, waited, err := s.adm.acquire(ctx, traceID)
	if err != nil {
		status, info := admissionHTTP(err)
		writeShardError(w, status, info.Kind, info.Message, -1, "")
		return
	}
	defer release()

	id := fmt.Sprintf("s%06d", s.qid.Add(1))
	norm := NormalizeQuery(req.Query)

	// Shard executions record like queries: the worker's fleet totals and
	// flight recorder reflect shard work, attributable via the "shard"
	// mode stamp and the shared trace id.
	rec := trace.NewRecorder(s.sink)
	rec.Begin(norm)
	rec.RecordID(id)
	rec.RecordTraceID(traceID)
	rec.RecordMode("shard")
	rec.RecordQueueWait(waited)

	p, _, hit, err := s.plan(norm, rec)
	if err != nil {
		rec.End(err)
		info, status := compileHTTP(err)
		writeShardError(w, status, info.Kind, info.Message, -1, id)
		return
	}
	rec.RecordCached(hit)
	if !p.Prog.Rangeable() {
		rec.End(errors.New("shard: not rangeable"))
		writeShardError(w, http.StatusBadRequest, "shard:not_rangeable",
			"query's top-level expression is not a tabulation", -1, id)
		return
	}

	opts := s.execOpts(QueryRequest{MaxSteps: req.MaxSteps, TimeoutMS: req.TimeoutMS})
	// The coordinator ships the coordinator-validated argument frame with
	// every shard; re-validating here keeps a worker safe against a direct (or
	// buggy) caller. Bind failures are deterministic client errors — the
	// coordinator will not retry them elsewhere.
	var bindErr *ErrorInfo
	if opts.Args, bindErr = bind(p, req.Args); bindErr != nil {
		rec.End(errors.New(bindErr.Message))
		writeShardError(w, http.StatusBadRequest, bindErr.Kind, bindErr.Message, -1, id)
		return
	}
	var res *compile.RangeResult
	err = s.sess.Guard(ctx, rec, norm, func(ctx context.Context, w *repl.Work) (err error) {
		w.Engine = repl.EngineCompiled
		if res, err = p.Prog.ExecuteRange(ctx, opts, req.Shape, req.Start, req.End); err == nil {
			w.Counters = res.Counters
		}
		return err
	})
	rep := rec.End(err)
	if err != nil {
		info, status := execHTTP(err)
		off := int64(-1)
		var rerr *compile.RangeError
		if errors.As(err, &rerr) {
			off = rerr.Off
		}
		writeShardError(w, status, info.Kind, info.Message, off, id)
		return
	}

	resp := exchange.ShardResponse{
		ID:          id,
		Cached:      hit,
		BottomOff:   res.BottomOff,
		Eval:        res.Counters,
		TraceID:     traceID,
		QueueWaitNS: int64(waited),
		Spans:       workerSpanTree(rep, waited, res.Counters),
	}
	if res.BottomOff >= 0 {
		// The ⊥ decides the whole tabulation; its diagnostic travels as a
		// separate field because the exchange reader (correctly) drops
		// comments, which is where Write puts ⊥ payloads.
		resp.BottomMsg = res.Bottom.Str()
	} else {
		vec := object.Vector(res.Values...)
		text, werr := exchange.WriteString(vec)
		if werr != nil {
			writeShardError(w, http.StatusInternalServerError, "encode", werr.Error(), -1, id)
			return
		}
		resp.Values = text
	}
	trace.WriteJSON(w, http.StatusOK, resp)
}

// workerSpanTree builds the phase-level span subtree a worker returns for
// stitching: a "worker" root spanning queue wait plus pipeline, with one
// child per phase that actually ran (a plan-cache hit therefore shows no
// prepare children) and the eval child carrying all of the shard's
// counters. A shard runs the program's shard view, which is never
// profiled, so the worker's tree is phase-granular, not operator-granular —
// the coordinator's stitching invariants (exact counter sums, self-time
// consistency) hold regardless.
func workerSpanTree(rep *trace.QueryReport, waited time.Duration, cnt trace.EvalCounters) *exchange.Span {
	root := &exchange.Span{Op: trace.SpanWorker, WallNS: int64(rep.Wall + waited)}
	var kids int64
	add := func(op string, wall int64, eval trace.EvalCounters) {
		root.Children = append(root.Children, &exchange.Span{Op: op, WallNS: wall, SelfNS: wall, Eval: eval})
		kids += wall
	}
	if waited > 0 {
		add(trace.SpanQueueWait, int64(waited), trace.EvalCounters{})
	}
	for _, p := range rep.Phases {
		if p.Name == trace.PhaseEval {
			continue
		}
		add(p.Name, int64(p.Wall), trace.EvalCounters{})
	}
	add(trace.SpanEval, int64(rep.Phase(trace.PhaseEval)), cnt)
	if self := root.WallNS - kids; self > 0 {
		root.SelfNS = self
	}
	return root
}

func writeShardError(w http.ResponseWriter, status int, kind, msg string, off int64, id string) {
	trace.WriteJSON(w, status, exchange.ShardErrorEnvelope{Error: exchange.ShardErrorInfo{
		Kind: kind, Message: msg, Off: off, ID: id,
	}})
}
