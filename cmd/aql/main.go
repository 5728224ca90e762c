// Command aql is the AQL read-eval-print loop (section 4.2 of the paper).
//
// Usage:
//
//	aql                 interactive loop; statements end with ';'
//	aql -f script.aql   execute a script of top-level statements
//	aql -q 'query'      run one query and print its value
//
// The loop echoes declarations the way the paper's session does:
//
//	: {d | \d <- gen!30, d % 7 = 0};
//	typ it : {nat}
//	val it = {0, 7, 14, 21, 28}
//
// Ctrl-C while a query is running cancels that query (the evaluator aborts
// with a structured cancellation error) and returns to the prompt; Ctrl-C
// at an idle prompt exits as usual. The -maxsteps, -maxcells, -maxdepth and
// -timeout flags bound what any single query may consume.
//
// Queries run on the compiled execution engine by default; `-engine interp`
// selects the reference tree-walking interpreter instead, and the
// interactive `:engine` command switches mid-session.
//
// Observability: `-explain` and `-profile` (with -q) print the optimizer
// rule trace or the per-phase timing report for the query; the interactive
// loop accepts the same as :explain/:profile commands plus :stats
// (cross-query aggregates), :top (hottest operators of the last query),
// :prof (profiling level) and :trace (export the last query as Chrome
// trace-event JSON). `-tracejson file.json` (with -q) writes the same
// export non-interactively. `-proflevel off|sampled|full` sets the
// operator-profiling level (default sampled), and `-metricsaddr :8080`
// serves a JSON summary (fleet totals and the flight recorder's queries)
// on /, Prometheus text on /metrics (OpenMetrics with exemplars via Accept
// negotiation), the flight recorder on /debug/queries, per-report Chrome
// traces on /debug/trace/{id}, the slow-query log on /debug/slow, and the
// standard pprof handlers under /debug/pprof/.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"

	"github.com/aqldb/aql"
	"github.com/aqldb/aql/internal/repl"
	"github.com/aqldb/aql/internal/trace"
)

func main() {
	file := flag.String("f", "", "execute a script file of AQL statements")
	query := flag.String("q", "", "run a single query and exit")
	limit := flag.Int("limit", 12, "maximum collection elements to print (0 = all)")
	maxSteps := flag.Int64("maxsteps", 0, "abort queries after this many evaluator steps (0 = unlimited)")
	maxCells := flag.Int64("maxcells", 0, "abort queries that allocate more than this many collection/array cells (0 = unlimited)")
	maxDepth := flag.Int("maxdepth", 0, "abort queries that recurse deeper than this many evaluator frames (0 = unlimited)")
	timeout := flag.Duration("timeout", 0, "abort queries that run longer than this, e.g. 5s (0 = unlimited)")
	explain := flag.Bool("explain", false, "with -q: print the optimized query and the optimizer rule trace instead of evaluating")
	explainAnalyze := flag.Bool("explain-analyze", false, "with -q: run the query at full profiling and print the per-operator estimate-vs-actual table")
	profile := flag.Bool("profile", false, "with -q: after the value, print per-phase wall times and work counters")
	traceJSON := flag.String("tracejson", "", "with -q: write the query's trace as Chrome trace-event JSON to this file")
	metricsAddr := flag.String("metricsaddr", "", "serve observability counters as JSON over HTTP on this address, e.g. :8080")
	engine := flag.String("engine", "compiled", "execution engine: compiled (closure-compiled, parallel tabulation) or interp (reference interpreter)")
	profLevel := flag.String("proflevel", "sampled", "operator profiling level: off, sampled, or full")
	tileCells := flag.Int("tilesize", 0, "out-of-core tile size in cells (0 = default 4096)")
	tileBudget := flag.Int64("tilebudget", 0, "out-of-core tile cache budget in bytes; a tile of reals costs 8 B/cell + 1 KiB (0 = default 64 MiB, about 8.1M cells)")
	flag.Parse()

	s, err := aql.NewSession()
	if err != nil {
		fmt.Fprintln(os.Stderr, "aql:", err)
		os.Exit(1)
	}
	defer s.Close()
	if *tileCells > 0 || *tileBudget > 0 {
		s.SetTileConfig(*tileCells, *tileBudget)
	}
	if err := s.SetEngine(*engine); err != nil {
		fmt.Fprintln(os.Stderr, "aql:", err)
		os.Exit(1)
	}
	if err := s.SetProfiling(*profLevel); err != nil {
		fmt.Fprintln(os.Stderr, "aql:", err)
		os.Exit(1)
	}
	s.SetLimits(aql.Limits{
		MaxSteps: *maxSteps,
		MaxCells: *maxCells,
		MaxDepth: *maxDepth,
		Timeout:  *timeout,
	})
	if *metricsAddr != "" {
		go func() {
			if err := http.ListenAndServe(*metricsAddr, s.MetricsHandler()); err != nil {
				fmt.Fprintln(os.Stderr, "aql: metrics:", err)
			}
		}()
	}

	switch {
	case *query != "" && *explain:
		out, err := s.Explain(*query)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aql:", err)
			os.Exit(1)
		}
		fmt.Print(out)
	case *query != "" && *explainAnalyze:
		out, err := func() (string, error) {
			ctx, stop := repl.NotifyInterrupt(context.Background())
			defer stop()
			return s.ExplainAnalyze(ctx, *query)
		}()
		if err != nil {
			fmt.Fprintln(os.Stderr, "aql:", err)
			os.Exit(1)
		}
		fmt.Print(out)
	case *query != "":
		v, typ, err := func() (aql.Value, *aql.Type, error) {
			ctx, stop := repl.NotifyInterrupt(context.Background())
			defer stop()
			return s.QueryCtx(ctx, *query)
		}()
		if err != nil {
			fmt.Fprintln(os.Stderr, "aql:", err)
			os.Exit(1)
		}
		fmt.Printf("typ it : %s\n", typ)
		fmt.Printf("val it = %s\n", v.Pretty(*limit))
		if *profile {
			if rep := s.LastReport(); rep != nil {
				fmt.Print(rep.FormatProfile())
			}
		}
		if *traceJSON != "" {
			rep := s.LastReport()
			if rep == nil {
				fmt.Fprintln(os.Stderr, "aql: -tracejson: no report recorded (tracing disabled?)")
				os.Exit(1)
			}
			if err := trace.WriteChromeTraceFile(*traceJSON, rep); err != nil {
				fmt.Fprintln(os.Stderr, "aql:", err)
				os.Exit(1)
			}
		}
	case *file != "":
		src, err := os.ReadFile(*file)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aql:", err)
			os.Exit(1)
		}
		results, err := func() ([]aql.Result, error) {
			ctx, stop := repl.NotifyInterrupt(context.Background())
			defer stop()
			return s.ExecCtx(ctx, string(src))
		}()
		for _, r := range results {
			printResult(r, *limit)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "aql:", err)
			os.Exit(1)
		}
	default:
		interact(s, *limit)
	}
}

// interact runs the interactive loop, accumulating input lines until a
// statement-terminating semicolon. Each statement batch runs under a
// SIGINT-cancelled context so Ctrl-C aborts the running query and the loop
// survives to read the next one.
func interact(s *aql.Session, limit int) {
	fmt.Println("AQL — a query language for multidimensional arrays (SIGMOD 1996)")
	fmt.Println(`End statements with ';'. Ctrl-D exits; Ctrl-C cancels a running query.`)
	fmt.Println(`Commands: :explain <q>  :profile <q>  :stats  :top  :trace  :prof  :engine  :help`)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := ": "
	for {
		fmt.Print(prompt)
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := sc.Text()
		// Colon-commands are line-oriented: dispatch immediately, no
		// semicolon needed, and don't mix into a pending statement.
		if buf.Len() == 0 && aql.IsCommand(line) {
			out, err := func() (string, error) {
				ctx, stop := repl.NotifyInterrupt(context.Background())
				defer stop()
				return s.Command(ctx, strings.TrimSuffix(strings.TrimSpace(line), ";"))
			}()
			if err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Print(out)
			}
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if !strings.Contains(line, ";") {
			prompt = ":: "
			continue
		}
		src := buf.String()
		buf.Reset()
		prompt = ": "
		results, err := func() ([]aql.Result, error) {
			ctx, stop := repl.NotifyInterrupt(context.Background())
			defer stop()
			return s.ExecCtx(ctx, src)
		}()
		for _, r := range results {
			printResult(r, limit)
		}
		if err != nil {
			fmt.Println("error:", err)
		}
	}
}

func printResult(r aql.Result, limit int) {
	switch r.Kind {
	case "macro":
		fmt.Printf("typ %s : %s\n", r.Name, r.Type)
		if r.Source != "" {
			fmt.Printf("val %s = %s registered as macro.\n", r.Name, r.Source)
		} else {
			fmt.Printf("val %s registered as macro.\n", r.Name)
		}
	case "writeval":
		fmt.Println("written.")
	default:
		if r.Type != nil {
			fmt.Printf("typ %s : %s\n", r.Name, r.Type)
		}
		if r.HasValue {
			fmt.Printf("val %s = %s\n", r.Name, r.Value.Pretty(limit))
		}
	}
}
