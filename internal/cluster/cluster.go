// Package cluster implements fault-tolerant scatter-gather execution of
// parallel-eligible tabulations: a coordinator partitions the element space
// of a range-partitionable prepared plan (compile.Program.Rangeable) into
// contiguous row-major shards, ships each to worker aqld processes over the
// HTTP/JSON + exchange transport, and merges values, counters and spans
// back into exactly the single-node result.
//
// The merge contract is inherited from the engine's parallel tabulation
// kernel and makes every robustness mechanism safe by construction:
//
//   - Shards are disjoint contiguous ranges and elements are pure in the
//     index valuation, so re-executing a shard — a retry after a failure, a
//     hedge racing a straggler — recomputes identical values and identical
//     counters. The coordinator takes counters from exactly one winning
//     attempt per shard; merged totals equal single-node totals no matter
//     how many attempts failed, raced or were abandoned.
//   - Each shard reports a compile.Partial — its first ⊥ and its
//     lowest-offset deterministic error — and the coordinator folds them
//     with Partial.Merge, the rule goroutine workers merge under. Resource
//     errors (cancellation, budget trips at the coordinator) abort the
//     scatter.
//
// Failure handling: per-shard deadlines with capped exponential backoff
// retry, hedged re-dispatch of stragglers (first response wins, loser
// cancelled), per-worker circuit breakers with health-probe re-admission,
// and graceful degradation — shards whose attempts are exhausted (or that
// find no admissible worker) run locally; a query whose every shard ran
// locally is annotated "degraded:local".
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aqldb/aql/internal/compile"
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/exchange"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/trace"
)

// Config configures a Coordinator. The zero value of each field selects
// the documented default.
type Config struct {
	// Workers are the base URLs of worker aqld processes.
	Workers []string
	// Transport ships shards; nil means HTTPTransport.
	Transport Transport
	// MinCells is the smallest element space worth scattering; below it the
	// query runs locally. Default 4096.
	MinCells int64
	// ShardsPerWorker sets the shard count as len(Workers)*ShardsPerWorker
	// (capped at the element count); >1 smooths load imbalance and shrinks
	// the retry unit. Default 2.
	ShardsPerWorker int
	// MaxAttempts caps remote dispatches per shard (retries and hedges each
	// consume one) before the shard falls back to local execution.
	// Default 4.
	MaxAttempts int
	// BaseBackoff and MaxBackoff bound the capped exponential backoff
	// between a shard's attempts. Defaults 25ms and 1s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// HedgeAfter launches a second dispatch of a shard on another worker
	// when the first has not answered within this duration; the first
	// complete response wins and the loser is cancelled. 0 disables
	// hedging.
	HedgeAfter time.Duration
	// ShardTimeout bounds each dispatch attempt; 0 means no per-attempt
	// deadline (the query context still applies).
	ShardTimeout time.Duration
	// BreakerThreshold consecutive dispatch failures open a worker's
	// circuit breaker; BreakerCooldown later a single health probe may
	// re-admit it. Defaults 3 and 2s.
	BreakerThreshold int
	BreakerCooldown  time.Duration
}

func (cfg Config) withDefaults() Config {
	if cfg.Transport == nil {
		cfg.Transport = &HTTPTransport{}
	}
	if cfg.MinCells == 0 {
		cfg.MinCells = 4096
	}
	if cfg.ShardsPerWorker <= 0 {
		cfg.ShardsPerWorker = 2
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 25 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = time.Second
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 2 * time.Second
	}
	return cfg
}

// probeTimeout bounds a circuit breaker's half-open health probe.
const probeTimeout = time.Second

// Coordinator scatters range-partitionable programs across workers. Safe
// for concurrent Execute calls.
type Coordinator struct {
	cfg Config

	mu       sync.Mutex
	breakers map[string]*breaker
	next     int // round-robin cursor over cfg.Workers

	stats Stats
	// shardLatency is the shard round-trip (first dispatch to winning
	// response) distribution, with trace-id exemplars; exported on /metrics
	// as aqld_cluster_shard_seconds.
	shardLatency trace.ExemplarHistogram
}

// New returns a Coordinator over cfg.Workers.
func New(cfg Config) *Coordinator {
	return &Coordinator{cfg: cfg.withDefaults(), breakers: map[string]*breaker{}}
}

// Workers returns the configured worker URLs.
func (c *Coordinator) Workers() []string { return c.cfg.Workers }

// Stats are the coordinator's cumulative dispatch counters, exported on
// /metrics as aqld_cluster_*.
type Stats struct {
	Queries       atomic.Int64 // scatter-gather executions (local-mode short-circuits excluded)
	Shards        atomic.Int64 // shards planned
	RemoteShards  atomic.Int64 // shards answered by a worker
	LocalShards   atomic.Int64 // shards that fell back to local execution
	Retries       atomic.Int64 // re-dispatches after a failed attempt
	Hedges        atomic.Int64 // hedge dispatches launched
	HedgeWins     atomic.Int64 // hedges whose response won
	BreakerOpens  atomic.Int64 // breaker open transitions
	BreakerCloses atomic.Int64 // successful probe re-admissions
	DegradedTotal atomic.Int64 // queries answered entirely locally after failures
}

// Stats returns a pointer to the live counters (read with .Load()).
func (c *Coordinator) Stats() *Stats { return &c.stats }

// ShardLatency returns a snapshot of the shard round-trip histogram.
func (c *Coordinator) ShardLatency() trace.HistogramSnapshot { return c.shardLatency.Snapshot() }

// Result is one coordinator execution.
type Result struct {
	Value    object.Value
	Counters trace.EvalCounters
	// Mode is "distributed" (every shard remote), "distributed:partial"
	// (some shards local), "degraded:local" (every shard local, after
	// failures) or "local" (not scattered: below MinCells, no workers
	// configured, or a ⊥ bound).
	Mode string
	// Shards holds one dispatch record per shard, in shard order; nil in
	// local mode.
	Shards []trace.ShardSpan
	// Spans is the stitched whole-query span tree of a scattered execution:
	// a "scatter" root over the plan prologue and one "shard" subtree per
	// shard, each holding its dispatch attempts with the winning attempt
	// carrying the worker's own span tree. Nil in local mode. Summing self
	// counters over the tree reproduces Counters exactly (trace.CheckStitched
	// verifies).
	Spans *trace.SpanNode
}

// shardOutcome is one shard's terminal state. part.Err holds deterministic
// failures only; resource failures go through abort().
type shardOutcome struct {
	span     trace.ShardSpan
	part     compile.Partial
	values   []object.Value
	counters trace.EvalCounters
}

// Execute runs prog — whose normalized source is query, as workers must
// re-prepare it — under the scatter-gather envelope. The result is
// byte-identical to prog.Execute with exactly-equal counters whenever
// execution succeeds, whatever failures were survived along the way.
func (c *Coordinator) Execute(ctx context.Context, prog *compile.Program, query string, opts compile.ExecOpts) (*Result, error) {
	return c.ExecuteTraced(ctx, prog, query, opts, trace.TraceContext{})
}

// ExecuteTraced is Execute under a distributed trace context: the trace id
// is propagated on every shard dispatch (body fields and traceparent
// header), worker span subtrees are stitched into Result.Spans, and shard
// round-trips land in the exemplar histogram linked to tc.TraceID. A zero
// tc disables propagation but still builds the stitched tree.
func (c *Coordinator) ExecuteTraced(ctx context.Context, prog *compile.Program, query string, opts compile.ExecOpts, tc trace.TraceContext) (*Result, error) {
	if !prog.Rangeable() {
		return nil, fmt.Errorf("cluster: program is not range-partitionable")
	}
	t0 := time.Now()
	plan, err := prog.PlanShards(ctx, opts)
	if err != nil {
		return nil, err
	}
	planWall := time.Since(t0)
	if plan.Bottom.IsBottom() {
		// A ⊥ bound decides the query during planning; nothing to scatter.
		return &Result{Value: plan.Bottom, Counters: plan.Counters, Mode: "local"}, nil
	}
	if plan.Size < c.cfg.MinCells || len(c.cfg.Workers) == 0 {
		v, cnt, err := prog.Execute(ctx, opts)
		if err != nil {
			return nil, err
		}
		return &Result{Value: v, Counters: cnt, Mode: "local"}, nil
	}

	// A parameterized execution's argument frame is identical for every
	// shard (elements are pure in the index valuation AND the frame), so it
	// is encoded exactly once and shipped verbatim on each dispatch.
	encArgs, err := encodeArgs(opts.Args)
	if err != nil {
		return nil, err
	}

	c.stats.Queries.Add(1)
	nshards := len(c.cfg.Workers) * c.cfg.ShardsPerWorker
	if int64(nshards) > plan.Size {
		nshards = int(plan.Size)
	}
	c.stats.Shards.Add(int64(nshards))

	// The scatter context lets a resource failure in any shard abort the
	// rest promptly; the first such error is the query's error (siblings'
	// induced cancellations are ignored), mirroring the in-process parallel
	// kernel's failed-flag protocol.
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var abortOnce sync.Once
	var abortErr error
	abort := func(err error) {
		abortOnce.Do(func() {
			abortErr = err
			cancel()
		})
	}

	outs := make([]shardOutcome, nshards)
	var wg sync.WaitGroup
	base, rem := plan.Size/int64(nshards), plan.Size%int64(nshards)
	off := int64(0)
	for i := 0; i < nshards; i++ {
		length := base
		if int64(i) < rem {
			length++
		}
		start, end := off, off+length
		off = end
		wg.Add(1)
		go func(i int, start, end int64) {
			defer wg.Done()
			// A head that panics on a worker is answered with a retryable
			// 500, so it ends up here in local fallback with no recover on
			// the stack. It becomes the shard's error, placed at the shard's
			// first offset and typed as a worker's panic envelope would be.
			defer func() {
				if r := recover(); r != nil {
					outs[i].part = compile.Partial{Lo: start, Hi: end, BottomOff: -1, ErrOff: start, Err: &ShardError{
						Worker: "local", Status: http.StatusInternalServerError, Kind: "panic", Message: fmt.Sprint(r), Off: start}}
				}
			}()
			outs[i] = c.runShard(sctx, abort, prog, query, opts, encArgs, plan.Shape, i, start, end, tc)
		}(i, start, end)
	}
	wg.Wait()
	if abortErr != nil {
		return nil, abortErr
	}

	part := outs[0].part
	for _, o := range outs[1:] {
		part = part.Merge(o.part)
	}
	if part.Err != nil {
		return nil, part.Err
	}

	merged := plan.Counters
	spans := make([]trace.ShardSpan, nshards)
	remote, local := 0, 0
	data := make([]object.Value, plan.Size)
	for i := range outs {
		o := &outs[i]
		spans[i] = o.span
		if o.span.Worker == "local" {
			local++
		} else {
			remote++
		}
		merged = merged.Add(o.counters)
		copy(data[o.part.Lo:o.part.Hi], o.values)
	}
	mode := "distributed"
	switch {
	case local > 0 && remote > 0:
		mode = "distributed:partial"
	case local > 0 && remote == 0:
		mode = "degraded:local"
		c.stats.DegradedTotal.Add(1)
	}
	res := &Result{Counters: merged, Mode: mode, Shards: spans}
	res.Value, _ = part.Result(plan.Shape, data)

	// Stitch the whole-query span tree: scatter root over the plan prologue
	// and every shard subtree. Only the plan node and each shard's winning
	// attempt carry counters, so summing self counters over the tree
	// reproduces the merged totals exactly.
	root := trace.NewSpan(trace.SpanScatter, "coordinator", time.Since(t0))
	planSpan := trace.NewSpan(trace.SpanPlan, "coordinator", planWall)
	planSpan.SetCounters(plan.Counters).FinalizeSelf()
	root.Children = append(root.Children, planSpan)
	for i := range spans {
		if spans[i].Spans != nil {
			root.Children = append(root.Children, spans[i].Spans)
		}
	}
	res.Spans = root.FinalizeSelf()
	return res, nil
}

// encodeArgs renders a parameterized execution's argument frame in the
// exchange text format for the shard wire envelope. Frames originate from
// decoded wire values or validated API bindings, so encoding failures are
// internal errors, not user errors.
func encodeArgs(args map[string]object.Value) (map[string]string, error) {
	if len(args) == 0 {
		return nil, nil
	}
	enc := make(map[string]string, len(args))
	for name, v := range args {
		text, err := exchange.WriteString(v)
		if err != nil {
			return nil, fmt.Errorf("cluster: encoding argument $%s: %w", name, err)
		}
		enc[name] = text
	}
	return enc, nil
}

// runShard drives one shard to a terminal outcome: remote attempts with
// backoff, hedging and breaker bookkeeping, then local fallback. Every
// dispatch attempt leaves an AttemptSpan on the shard's dispatch record,
// and the winning execution's span subtree is stitched under its attempt.
func (c *Coordinator) runShard(ctx context.Context, abort func(error), prog *compile.Program, query string, opts compile.ExecOpts, encArgs map[string]string, shape []int, shard int, start, end int64, tc trace.TraceContext) shardOutcome {
	t0 := time.Now()
	out := shardOutcome{
		span: trace.ShardSpan{Shard: shard, Start: start, End: end},
		part: compile.Partial{Lo: start, Hi: end, BottomOff: -1},
	}
	req := exchange.ShardRequest{
		Query: query, Shape: shape, Start: start, End: end,
		Shard: shard, MaxSteps: opts.MaxSteps, Args: encArgs,
	}
	if opts.Limits.Timeout > 0 {
		req.TimeoutMS = opts.Limits.Timeout.Milliseconds()
	}

	attempt := 0
	backoff := c.cfg.BaseBackoff
	for attempt < c.cfg.MaxAttempts {
		if ctx.Err() != nil {
			abort(resourceCancelled(ctx))
			return out
		}
		worker, ok := c.pickWorker(ctx, "")
		if !ok {
			break // every worker circuit-open: degrade this shard
		}
		resp, winner, hedged, derr := c.dispatch(ctx, worker, &req, &attempt, t0, &out.span, tc)
		out.span.Hedged = out.span.Hedged || hedged
		if derr == nil {
			values, bottomOff, bottom, perr := decodeShard(resp, start, end)
			if perr == nil {
				c.breakerFor(winner).onSuccess()
				out.values, out.part.BottomOff, out.part.Bottom, out.counters = values, bottomOff, bottom, resp.Eval
				out.span.Worker, out.span.Attempts, out.span.Wall = winner, attempt, time.Since(t0)
				out.span.QueueWait = time.Duration(resp.QueueWaitNS)
				out.span.Spans = stitchShard(&out.span, workerSubtree(resp, winner))
				c.stats.RemoteShards.Add(1)
				c.shardLatency.Observe(out.span.Wall, tc.TraceID, time.Now())
				return out
			}
			// A response that doesn't decode to the requested range is a
			// transport failure of the winning worker: retry. Its attempt
			// span loses the "won" it was marked with on response receipt.
			derr = perr
			c.recordFailure(winner)
			demoteWonAttempt(&out.span, perr.Error())
		}
		if ctx.Err() != nil {
			abort(resourceCancelled(ctx))
			return out
		}
		if se, ok := derr.(*ShardError); ok && !se.Retryable() {
			// Deterministic on any worker; propagate with its offset.
			out.part.Err, out.part.ErrOff = se, math.MaxInt64
			if se.Off >= 0 {
				out.part.ErrOff = se.Off
			}
			out.span.Worker, out.span.Attempts, out.span.Wall = winner, attempt, time.Since(t0)
			return out
		}
		if attempt < c.cfg.MaxAttempts {
			c.stats.Retries.Add(1)
			if !sleepCtx(ctx, backoff) {
				abort(resourceCancelled(ctx))
				return out
			}
			backoff *= 2
			if backoff > c.cfg.MaxBackoff {
				backoff = c.cfg.MaxBackoff
			}
		}
	}

	// Remote attempts exhausted (or no admissible worker): run the range
	// in-process. Values and counters are identical by the purity argument,
	// so degradation changes availability, never answers.
	c.stats.LocalShards.Add(1)
	lt0 := time.Now()
	res, err := prog.ExecuteRange(ctx, opts, shape, start, end)
	out.span.Worker, out.span.Attempts, out.span.Wall = "local", attempt, time.Since(t0)
	if err != nil {
		var re *eval.ResourceError
		if errors.As(err, &re) || ctx.Err() != nil {
			abort(err)
			return out
		}
		out.part.Err, out.part.ErrOff = err, math.MaxInt64
		var rerr *compile.RangeError
		if errors.As(err, &rerr) {
			out.part.ErrOff = rerr.Off
		}
		return out
	}
	out.part, out.values, out.counters = res.Partial, res.Values, res.Counters
	lwall := time.Since(lt0)
	out.span.AttemptSpans = append(out.span.AttemptSpans, trace.AttemptSpan{
		Attempt: attempt, Worker: "local", Outcome: "won",
		StartOff: lt0.Sub(t0), Wall: lwall,
	})
	local := trace.NewSpan(trace.SpanEval, "local", lwall)
	local.SetCounters(out.counters).FinalizeSelf()
	out.span.Spans = stitchShard(&out.span, local)
	c.shardLatency.Observe(out.span.Wall, tc.TraceID, time.Now())
	return out
}

// demoteWonAttempt flips the shard's most recent "won" attempt span to
// "lost" (a winning response that failed to decode is a transport failure).
func demoteWonAttempt(span *trace.ShardSpan, errText string) {
	for i := len(span.AttemptSpans) - 1; i >= 0; i-- {
		if span.AttemptSpans[i].Outcome == "won" {
			span.AttemptSpans[i].Outcome = "lost"
			span.AttemptSpans[i].Err = errText
			return
		}
	}
}

// stitchShard builds one shard's span subtree from its dispatch record: a
// "shard" node whose children are the attempt spans in launch order, with
// winTree — the winning execution's span subtree — grafted under the "won"
// attempt. Counters live only inside winTree, preserving the merge
// contract's "counters from exactly one attempt" in the tree.
func stitchShard(span *trace.ShardSpan, winTree *trace.SpanNode) *trace.SpanNode {
	root := trace.NewSpan(trace.SpanShard, "", span.Wall)
	for _, a := range span.AttemptSpans {
		an := trace.NewSpan(trace.SpanAttempt, a.Worker, a.Wall)
		an.Outcome, an.StartOff = a.Outcome, a.StartOff
		if a.Outcome == "won" && winTree != nil {
			an.Children = append(an.Children, winTree)
		}
		root.Children = append(root.Children, an.FinalizeSelf())
	}
	return root.FinalizeSelf()
}

// Defensive caps on worker-returned span subtrees: a buggy (or hostile)
// worker must not be able to balloon coordinator memory through its trace
// payload.
const (
	maxWorkerSpanDepth = 32
	maxWorkerSpanNodes = 4096
)

// workerSubtree converts the winning worker's wire span tree into a trace
// tree, labelled with the worker's name at every node. A response without
// spans — or whose spans claim a negative time or counter, or fail the
// stitching invariants against the shard's decoded counters — gets a
// synthetic "eval" span carrying the response's counters instead, so the
// stitched tree stays well-formed whatever the worker sent.
func workerSubtree(resp *exchange.ShardResponse, worker string) *trace.SpanNode {
	if resp.Spans != nil {
		budget := maxWorkerSpanNodes
		if n, ok := convertSpan(resp.Spans, worker, maxWorkerSpanDepth, &budget); ok && n != nil {
			if trace.CheckStitched(n, resp.Eval) == nil {
				return n
			}
		}
	}
	n := trace.NewSpan(trace.SpanEval, worker, 0)
	return n.SetCounters(resp.Eval).FinalizeSelf()
}

// convertSpan maps one wire span node (and its children, depth- and
// node-capped) into a trace node. ok is false when any node of the subtree
// claims a negative wall time, self time or counter.
func convertSpan(s *exchange.Span, node string, depth int, budget *int) (n *trace.SpanNode, ok bool) {
	if s == nil || depth <= 0 || *budget <= 0 {
		return nil, true
	}
	if s.WallNS < 0 || s.SelfNS < 0 || negative(s.Eval) {
		return nil, false
	}
	*budget--
	n = trace.NewSpan(s.Op, node, time.Duration(s.WallNS))
	n.WallSelf = time.Duration(s.SelfNS)
	n.SetCounters(s.Eval)
	for _, ch := range s.Children {
		cn, ok := convertSpan(ch, node, depth-1, budget)
		if !ok {
			return nil, false
		}
		if cn != nil {
			n.Children = append(n.Children, cn)
		}
	}
	return n, true
}

// negative reports whether any of c's counters is below zero, which no
// execution can charge.
func negative(c trace.EvalCounters) bool {
	return c.Steps < 0 || c.Cells < 0 || c.Tabulations < 0 || c.SetOps < 0 || c.Iterations < 0
}

// dispatch performs one attempt round for a shard: a primary dispatch,
// plus — when HedgeAfter elapses first and another worker is admissible —
// one hedged dispatch. The first successful response wins and the loser is
// cancelled; with no success, the last failure is returned. Every dispatch
// consumes one attempt number (chaos schedules key on it) and counts
// toward the shard's attempt budget. Each dispatch leaves an AttemptSpan
// on span in launch order: the used response is "won", completed failures
// are "lost", and anything still in flight when the round ends — a hedge
// loser, or everything on cancellation — is "cancelled".
func (c *Coordinator) dispatch(ctx context.Context, primary string, req *exchange.ShardRequest, attempt *int, t0 time.Time, span *trace.ShardSpan, tc trace.TraceContext) (resp *exchange.ShardResponse, winner string, hedged bool, err error) {
	type dispResult struct {
		resp   *exchange.ShardResponse
		err    error
		worker string
		idx    int
	}
	type attemptState struct {
		num     int
		worker  string
		start   time.Time
		hedge   bool
		outcome string // "" while in flight
		wall    time.Duration
		errText string
	}
	ch := make(chan dispResult, 2)
	var states []*attemptState
	var cancels []context.CancelFunc
	defer func() {
		for _, cf := range cancels {
			cf()
		}
		for _, st := range states {
			if st.outcome == "" {
				st.outcome, st.wall = "cancelled", time.Since(st.start)
			}
			span.AttemptSpans = append(span.AttemptSpans, trace.AttemptSpan{
				Attempt: st.num, Worker: st.worker, Outcome: st.outcome, Hedge: st.hedge,
				StartOff: st.start.Sub(t0), Wall: st.wall, Err: st.errText,
			})
		}
	}()
	launch := func(worker string, hedge bool) {
		r := *req
		r.Attempt = *attempt
		*attempt++
		if tc.TraceID != "" {
			r.TraceID = tc.TraceID
			r.ParentSpan = trace.NewSpanID()
		}
		idx := len(states)
		states = append(states, &attemptState{num: r.Attempt, worker: worker, start: time.Now(), hedge: hedge})
		actx := ctx
		var cf context.CancelFunc
		if c.cfg.ShardTimeout > 0 {
			actx, cf = context.WithTimeout(ctx, c.cfg.ShardTimeout)
		} else {
			actx, cf = context.WithCancel(ctx)
		}
		cancels = append(cancels, cf)
		go func() {
			sr, serr := c.cfg.Transport.Shard(actx, worker, &r)
			ch <- dispResult{resp: sr, err: serr, worker: worker, idx: idx}
		}()
	}
	launch(primary, false)
	inflight := 1
	var hedgeTimer <-chan time.Time
	if c.cfg.HedgeAfter > 0 {
		t := time.NewTimer(c.cfg.HedgeAfter)
		defer t.Stop()
		hedgeTimer = t.C
	}
	var lastErr error
	lastWorker := primary
	for inflight > 0 {
		select {
		case r := <-ch:
			inflight--
			st := states[r.idx]
			st.wall = time.Since(st.start)
			if r.err == nil {
				st.outcome = "won"
				if hedged && r.worker != primary {
					c.stats.HedgeWins.Add(1)
				}
				return r.resp, r.worker, hedged, nil
			}
			st.outcome, st.errText = "lost", r.err.Error()
			lastErr, lastWorker = r.err, r.worker
			if se, ok := r.err.(*ShardError); ok {
				if !se.Retryable() {
					// Deterministic: no point waiting for a racing hedge to
					// fail the same way.
					return nil, r.worker, hedged, se
				}
				c.recordFailure(r.worker)
			}
		case <-hedgeTimer:
			hedgeTimer = nil
			if *attempt >= c.cfg.MaxAttempts {
				continue
			}
			if w, ok := c.pickWorker(ctx, primary); ok {
				hedged = true
				c.stats.Hedges.Add(1)
				launch(w, true)
				inflight++
			}
		case <-ctx.Done():
			return nil, lastWorker, hedged, ctx.Err()
		}
	}
	return nil, lastWorker, hedged, lastErr
}

// pickWorker round-robins over admissible workers, skipping exclude and
// circuit-open workers; a breaker past its cooldown gets one synchronous
// health probe and is re-admitted on success.
func (c *Coordinator) pickWorker(ctx context.Context, exclude string) (string, bool) {
	n := len(c.cfg.Workers)
	if n == 0 {
		return "", false
	}
	c.mu.Lock()
	first := c.next
	c.next++
	c.mu.Unlock()
	for i := 0; i < n; i++ {
		w := c.cfg.Workers[(first+i)%n]
		if w == exclude {
			continue
		}
		switch c.breakerFor(w).allow(time.Now()) {
		case breakerClosed:
			return w, true
		case breakerProbe:
			pctx, pcancel := context.WithTimeout(ctx, probeTimeout)
			perr := c.cfg.Transport.Healthz(pctx, w)
			pcancel()
			c.breakerFor(w).probeResult(perr == nil, time.Now())
			if perr == nil {
				c.stats.BreakerCloses.Add(1)
				return w, true
			}
		case breakerOpen:
		}
	}
	return "", false
}

func (c *Coordinator) breakerFor(w string) *breaker {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.breakers[w]
	if b == nil {
		b = newBreaker(c.cfg.BreakerThreshold, c.cfg.BreakerCooldown)
		c.breakers[w] = b
	}
	return b
}

// recordFailure folds one dispatch failure into the worker's breaker.
func (c *Coordinator) recordFailure(w string) {
	if c.breakerFor(w).onFailure(time.Now()) {
		c.stats.BreakerOpens.Add(1)
	}
}

// decodeShard turns a worker's response into merge inputs, validating that
// it actually answers [start, end) and claims no negative work or queue
// wait; a mismatch is a transport-class error (retryable on another
// attempt).
func decodeShard(resp *exchange.ShardResponse, start, end int64) (values []object.Value, bottomOff int64, bottom object.Value, err error) {
	if negative(resp.Eval) || resp.QueueWaitNS < 0 {
		return nil, -1, object.Value{}, &ShardError{Kind: "transport",
			Message: fmt.Sprintf("cluster: shard claims negative work %+v or queue wait %dns", resp.Eval, resp.QueueWaitNS), Off: -1}
	}
	if resp.BottomOff >= 0 {
		if resp.BottomOff < start || resp.BottomOff >= end {
			return nil, -1, object.Value{}, &ShardError{Kind: "transport",
				Message: fmt.Sprintf("cluster: shard ⊥ offset %d outside [%d, %d)", resp.BottomOff, start, end), Off: -1}
		}
		return nil, resp.BottomOff, object.Bottom(resp.BottomMsg), nil
	}
	v, rerr := exchange.ReadString(resp.Values)
	if rerr != nil {
		return nil, -1, object.Value{}, &ShardError{Kind: "transport",
			Message: "cluster: undecodable shard values: " + rerr.Error(), Off: -1}
	}
	if v.Kind != object.KArray || len(v.Shape) != 1 || int64(len(v.Elems)) != end-start {
		return nil, -1, object.Value{}, &ShardError{Kind: "transport",
			Message: fmt.Sprintf("cluster: shard values shape mismatch: want vector of %d", end-start), Off: -1}
	}
	return v.Elems, -1, object.Value{}, nil
}

// sleepCtx sleeps d unless ctx is done first; reports whether the full
// sleep completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// resourceCancelled wraps the context error in the evaluator's resource
// vocabulary so server-side classification stays uniform; the deadline
// flavour maps to the timeout kind, exactly as the engine's own interrupt
// check does.
func resourceCancelled(ctx context.Context) error {
	cause := ctx.Err()
	if errors.Is(cause, context.DeadlineExceeded) {
		return &eval.ResourceError{Kind: eval.ResourceTimeout, Cause: cause}
	}
	return &eval.ResourceError{Kind: eval.ResourceCancelled, Cause: cause}
}
