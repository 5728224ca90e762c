// Command aqld is the AQL query server: one shared session environment
// served concurrently over HTTP/JSON, with a prepared-plan cache and
// admission control (see internal/server).
//
// Usage:
//
//	aqld -addr :8080
//	aqld -addr :8080 -init setup.aql -maxconcurrent 16 -cachesize 512
//
// Endpoints:
//
//	POST /query             {"query": "...", "max_steps"?: n, "timeout_ms"?: n}
//	POST /shard             a range-restricted tabulation shard (cluster worker)
//	GET  /val/{name}        a top-level val, in the data exchange format
//	POST /val/{name}        bind a val from an exchange-format body
//	GET  /                  JSON summary: fleet totals + flight-recorder summaries
//	GET  /metrics           Prometheus text: fleet metrics + aqld_* series
//	                        (OpenMetrics with trace-id exemplars via Accept)
//	GET  /debug/queries     flight recorder: {capacity, total, reports}
//	GET  /debug/trace/{id}  one recorded query as Chrome trace-event JSON,
//	                        looked up by request id or trace id
//	GET  /debug/slow        slowest queries seen
//	/debug/pprof/...        standard net/http/pprof handlers
//	GET  /debug/explain/{id} one recorded query's estimate-vs-actual table
//	GET  /debug/server      plan-cache and admission counters
//	GET  /healthz           liveness
//
// Distributed tracing: POST /query honors an inbound W3C traceparent
// header (minting a context when absent) and an X-Request-ID header
// (sanitized), echoing both on the response; the coordinator propagates
// the trace to every POST /shard, and workers return their span tree for
// stitching, so one flight-recorder report holds the whole multi-node
// trace, exportable via /debug/trace/{id}.
//
// The -init script runs through the ordinary session pipeline before the
// listener opens, so vals, macros and readval statements registered there
// are visible to every query. It runs unrecorded: /metrics and
// /debug/queries count served queries only, out-of-core I/O included —
// only the cache-wide aqld_io_* tile-cache series (residency, evictions)
// see its work. Cancelling a request (closing
// the connection) aborts its evaluation; exceeding -maxconcurrent queues
// the request, and overflowing the queue rejects it with HTTP 429.
//
// Coordinator mode (-coordinator -workers http://w1:8080,http://w2:8080)
// scatters parallel-eligible tabulations across worker aqld processes as
// contiguous row-major shards via POST /shard, with per-shard retry,
// optional hedging (-hedge-after), circuit breaking of failing workers and
// graceful degradation to local execution (reported as mode
// "degraded:local") when no worker is reachable. Workers need the same
// -init environment as the coordinator: shards re-prepare the query
// against the worker's own globals.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/aqldb/aql/internal/cluster"
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/repl"
	"github.com/aqldb/aql/internal/server"
)

// splitWorkers parses the -workers list, dropping empty entries.
func splitWorkers(s string) []string {
	var out []string
	for _, w := range strings.Split(s, ",") {
		if w = strings.TrimSpace(w); w != "" {
			out = append(out, w)
		}
	}
	return out
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "aqld:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	initFile := flag.String("init", "", "AQL script of setup statements to execute before serving")
	cacheSize := flag.Int("cachesize", server.DefaultCacheSize, "prepared-plan cache capacity (entries)")
	maxConcurrent := flag.Int("maxconcurrent", server.DefaultMaxConcurrent, "queries executing at once")
	maxQueued := flag.Int("maxqueued", server.DefaultMaxQueued, "queries waiting for a slot before 429s")
	queueTimeout := flag.Duration("queuetimeout", server.DefaultQueueTimeout, "longest a query waits for a slot before 503")
	maxSteps := flag.Int64("maxsteps", 0, "per-query evaluator step budget (0 = unlimited)")
	maxCells := flag.Int64("maxcells", 0, "per-query collection/array cell budget (0 = unlimited)")
	maxDepth := flag.Int("maxdepth", 0, "per-query recursion depth bound, compiled into cached plans (0 = unlimited)")
	timeout := flag.Duration("timeout", 0, "per-query evaluation wall-clock budget (0 = unlimited)")
	coordinator := flag.Bool("coordinator", false, "scatter parallel-eligible queries across -workers")
	workers := flag.String("workers", "", "comma-separated worker base URLs (requires -coordinator)")
	hedgeAfter := flag.Duration("hedge-after", 0, "re-dispatch a straggler shard to a second worker after this long (0 = no hedging)")
	shardTimeout := flag.Duration("shard-timeout", 0, "per-shard dispatch attempt deadline (0 = none)")
	shardRetries := flag.Int("shard-attempts", 0, "remote dispatch attempts per shard before local fallback (0 = default)")
	minCells := flag.Int64("min-shard-cells", 0, "smallest element space worth scattering (0 = default)")
	localWorkers := flag.Int("workers-local", 0, "local tabulation fan-out per query (0 = GOMAXPROCS)")
	qerrThreshold := flag.Float64("qerror-threshold", 0, "q-error above which a per-operator estimate counts as a misestimate (0 = default 2.0)")
	tileCells := flag.Int("tilesize", 0, "out-of-core tile size in cells (0 = default 4096)")
	tileBudget := flag.Int64("tilebudget", 0, "out-of-core tile cache budget in bytes; a tile of reals costs 8 B/cell + 1 KiB (0 = default 64 MiB, about 8.1M cells)")
	flag.Parse()

	sess, err := repl.New()
	if err != nil {
		return err
	}
	defer sess.Close()
	if *tileCells > 0 || *tileBudget > 0 {
		sess.SetTileConfig(*tileCells, *tileBudget, false)
	}
	if *initFile != "" {
		src, err := os.ReadFile(*initFile)
		if err != nil {
			return err
		}
		// Setup statements are not served queries: run them unrecorded, so
		// /metrics and /debug/queries start empty.
		sess.Recording.Store(false)
		_, err = sess.Exec(string(src))
		sess.Recording.Store(true)
		if err != nil {
			return fmt.Errorf("init script: %w", err)
		}
	}

	cfg := server.Config{
		CacheSize:     *cacheSize,
		MaxConcurrent: *maxConcurrent,
		MaxQueued:     *maxQueued,
		QueueTimeout:  *queueTimeout,
		Limits: eval.Limits{
			MaxSteps: *maxSteps,
			MaxCells: *maxCells,
			MaxDepth: *maxDepth,
			Timeout:  *timeout,
		},
		Workers:         *localWorkers,
		QErrorThreshold: *qerrThreshold,
	}
	if *coordinator {
		urls := splitWorkers(*workers)
		if len(urls) == 0 {
			return fmt.Errorf("-coordinator requires -workers")
		}
		cfg.Coordinator = cluster.New(cluster.Config{
			Workers:      urls,
			HedgeAfter:   *hedgeAfter,
			ShardTimeout: *shardTimeout,
			MaxAttempts:  *shardRetries,
			MinCells:     *minCells,
		})
		fmt.Fprintf(os.Stderr, "aqld: coordinator over %d workers: %s\n", len(urls), strings.Join(urls, ", "))
	} else if *workers != "" {
		return fmt.Errorf("-workers requires -coordinator")
	}
	h := server.New(sess, cfg)

	srv := &http.Server{Addr: *addr, Handler: h}
	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "aqld: serving on %s\n", *addr)
		errc <- srv.ListenAndServe()
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-stop:
		fmt.Fprintf(os.Stderr, "aqld: %s, draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		return nil
	}
}
