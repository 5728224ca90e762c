package repl

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/scan"
	"github.com/aqldb/aql/internal/trace"
	"github.com/aqldb/aql/internal/types"
)

// IsCommand reports whether an input line is a session colon-command
// (":explain", ":profile", ":stats", ":help") rather than an AQL statement.
func IsCommand(line string) bool {
	return strings.HasPrefix(strings.TrimSpace(line), ":")
}

// command is one colon-command: its usage line and summary feed :help, so
// a command registered here can never be missing from the help text.
type command struct {
	usage   string // e.g. ":explain <query>", aligned into the help column
	summary string
	run     func(s *Session, ctx context.Context, arg string) (string, error)
}

// commands is the session command table, keyed by the colon-name. Commands
// that take a query accept it with or without a trailing semicolon.
var commands = map[string]command{
	":explain": {
		usage:   ":explain [analyze] <query>",
		summary: "show the optimized query; analyze: run it and join est/act",
		run: func(s *Session, ctx context.Context, arg string) (string, error) {
			if arg == "" || arg == "analyze" {
				return "", fmt.Errorf("usage: :explain [analyze] <query>")
			}
			if strings.HasPrefix(arg, "analyze ") {
				return s.ExplainAnalyze(ctx, strings.TrimSpace(strings.TrimPrefix(arg, "analyze ")))
			}
			return s.Explain(arg)
		},
	},
	":profile": {
		usage:   ":profile <query>",
		summary: "run the query; show phase times and work counters",
		run: func(s *Session, ctx context.Context, arg string) (string, error) {
			if arg == "" {
				return "", fmt.Errorf("usage: :profile <query>")
			}
			return s.Profile(ctx, arg)
		},
	},
	":stats": {
		usage:   ":stats",
		summary: "cross-query aggregates: histogram, phase and work totals, rules, slow queries",
		run: func(s *Session, _ context.Context, _ string) (string, error) {
			return s.Fleet.Snapshot().FormatFleet(), nil
		},
	},
	":io": {
		usage:   ":io [tile <cells> <budget-bytes>]",
		summary: "out-of-core state: tile cache, open files; retune the cache (a tile of reals costs 8 B/cell + 1 KiB of the budget)",
		run: func(s *Session, _ context.Context, arg string) (string, error) {
			fields := strings.Fields(arg)
			switch {
			case len(fields) == 0:
				return s.IOStatus(), nil
			case fields[0] == "tile" && len(fields) == 3:
				var cells int
				var budget int64
				if _, err := fmt.Sscanf(fields[1], "%d", &cells); err != nil || cells <= 0 {
					return "", fmt.Errorf(":io tile: bad cell count %q", fields[1])
				}
				if _, err := fmt.Sscanf(fields[2], "%d", &budget); err != nil || budget <= 0 {
					return "", fmt.Errorf(":io tile: bad budget %q", fields[2])
				}
				s.SetTileConfig(cells, budget, false)
				return s.IOStatus(), nil
			}
			return "", fmt.Errorf("usage: :io [tile <cells> <budget-bytes>]")
		},
	},
	":top": {
		usage:   ":top [n]",
		summary: "hottest operators of the last query (needs :prof on)",
		run: func(s *Session, _ context.Context, arg string) (string, error) {
			n := 0
			if arg != "" {
				if _, err := fmt.Sscanf(arg, "%d", &n); err != nil {
					return "", fmt.Errorf("usage: :top [n]")
				}
			}
			rep := s.LastReport()
			if rep == nil {
				return "no query recorded yet\n", nil
			}
			return rep.FormatTop(n), nil
		},
	},
	":prof": {
		usage:   ":prof [level]",
		summary: "show or set the profiling level (off, sampled, full)",
		run: func(s *Session, _ context.Context, arg string) (string, error) {
			if arg != "" {
				if err := s.SetProfiling(arg); err != nil {
					return "", err
				}
			}
			return fmt.Sprintf("profiling: %s\n", s.Profiling), nil
		},
	},
	":trace": {
		usage:   ":trace [file]",
		summary: "export the last query as Chrome trace-event JSON",
		run: func(s *Session, _ context.Context, arg string) (string, error) {
			rep := s.LastReport()
			if rep == nil {
				return "no query recorded yet\n", nil
			}
			file := arg
			if file == "" {
				file = "aql-trace.json"
			}
			if err := trace.WriteChromeTraceFile(file, rep); err != nil {
				return "", err
			}
			return fmt.Sprintf("wrote %s (load in chrome://tracing or Perfetto)\n", file), nil
		},
	},
	":prepare": {
		usage:   ":prepare [query]",
		summary: "prepare a parameterized query ($name placeholders) for :exec",
		run: func(s *Session, _ context.Context, arg string) (string, error) {
			if arg == "" {
				if s.prepared == nil {
					return "no prepared statement (use :prepare <query>)\n", nil
				}
				return formatPrepared(s.prepared), nil
			}
			p, err := s.Prepare(arg)
			if err != nil {
				return "", err
			}
			s.prepared = p
			return formatPrepared(p), nil
		},
	},
	":exec": {
		usage:   ":exec [name=value, ...]",
		summary: "run the prepared statement with scalar arguments",
		run: func(s *Session, ctx context.Context, arg string) (string, error) {
			if s.prepared == nil {
				return "", fmt.Errorf("no prepared statement (use :prepare <query>)")
			}
			args, err := parseExecArgs(arg)
			if err != nil {
				return "", err
			}
			v, err := s.prepared.Exec(ctx, args)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("val it = %s : %s\n", v, s.prepared.Type), nil
		},
	},
	":engine": {
		usage:   ":engine [name]",
		summary: "show or switch the execution engine (interp, compiled)",
		run: func(s *Session, _ context.Context, arg string) (string, error) {
			if arg != "" {
				if err := s.SetEngine(arg); err != nil {
					return "", err
				}
			}
			return fmt.Sprintf("engine: %s\n", s.Engine), nil
		},
	},
}

// :help renders the table it lives in; registering it in init breaks the
// initialization cycle between the table and helpText.
func init() {
	commands[":help"] = command{
		usage:   ":help",
		summary: "this help",
		run: func(*Session, context.Context, string) (string, error) {
			return helpText(), nil
		},
	}
}

// CommandNames returns the registered colon-command names, sorted.
func CommandNames() []string {
	names := make([]string, 0, len(commands))
	for name := range commands {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// helpText renders the command table, usage column aligned; generated from
// the table so every registered command appears.
func helpText() string {
	width := 0
	for _, c := range commands {
		if len(c.usage) > width {
			width = len(c.usage)
		}
	}
	var b strings.Builder
	b.WriteString("commands:\n")
	for _, name := range CommandNames() {
		c := commands[name]
		fmt.Fprintf(&b, "  %-*s  %s\n", width, c.usage, c.summary)
	}
	return b.String()
}

// Command executes a colon-command and returns its rendered output. The
// supported commands are the observability surface of the session; see the
// command table (or :help) for the list.
func (s *Session) Command(ctx context.Context, line string) (string, error) {
	line = strings.TrimSpace(line)
	name, arg, _ := strings.Cut(line, " ")
	arg = strings.TrimSuffix(strings.TrimSpace(arg), ";")
	c, ok := commands[name]
	if !ok {
		return "", fmt.Errorf("unknown command %s (try :help)", name)
	}
	return c.run(s, ctx, arg)
}

// formatPrepared renders a prepared statement's template, type and
// placeholder types for the loop.
func formatPrepared(p *Prepared) string {
	var b strings.Builder
	fmt.Fprintf(&b, "prepared: %s\n", p.Text)
	fmt.Fprintf(&b, "type: %s\n", p.Type)
	for _, name := range p.ParamNames() {
		fmt.Fprintf(&b, "  $%s : %s\n", name, p.Params[name])
	}
	return b.String()
}

// parseExecArgs parses :exec's argument list — `name=value` pairs separated
// by commas, where value is a scalar literal (natural, real, string, true,
// false; reals may be negated). The name may be written bare or with its $
// sigil. Structured arguments go through the host API or the server, which
// accept full exchange-format values.
func parseExecArgs(src string) (map[string]object.Value, error) {
	args := map[string]object.Value{}
	if strings.TrimSpace(src) == "" {
		return args, nil
	}
	toks, err := scan.Scan(src)
	if err != nil {
		return nil, err
	}
	i := 0
	for {
		name := ""
		switch toks[i].Kind {
		case scan.IDENT, scan.PARAM:
			name = toks[i].Text
		default:
			return nil, fmt.Errorf(":exec: expected argument name, got %s", toks[i].Kind)
		}
		i++
		if toks[i].Kind != scan.EQ {
			return nil, fmt.Errorf(":exec: expected = after %s", name)
		}
		i++
		neg := false
		if toks[i].Kind == scan.MINUS {
			neg = true
			i++
		}
		var v object.Value
		switch t := toks[i]; t.Kind {
		case scan.NAT:
			if neg {
				return nil, fmt.Errorf(":exec: %s: naturals are non-negative (use a real: -%d.0)", name, t.Nat)
			}
			v = object.Nat(t.Nat)
		case scan.REAL:
			r := t.Real
			if neg {
				r = -r
			}
			v = object.Real(r)
		case scan.STRING:
			if neg {
				return nil, fmt.Errorf(":exec: %s: cannot negate a string", name)
			}
			v = object.String_(t.Text)
		case scan.KEYWORD:
			if neg || (t.Text != "true" && t.Text != "false") {
				return nil, fmt.Errorf(":exec: %s: expected a scalar literal, got %q", name, t.Text)
			}
			v = object.Bool(t.Text == "true")
		default:
			return nil, fmt.Errorf(":exec: %s: expected a scalar literal, got %s", name, t.Kind)
		}
		if _, dup := args[name]; dup {
			return nil, fmt.Errorf(":exec: duplicate argument %s", name)
		}
		args[name] = v
		i++
		if toks[i].Kind == scan.EOF {
			return args, nil
		}
		if toks[i].Kind != scan.COMMA {
			return nil, fmt.Errorf(":exec: expected , or end of arguments, got %s", toks[i].Kind)
		}
		i++
	}
}

// Explain compiles and optimizes src without evaluating it, and renders
// the optimized core query, its type, and the optimizer rule-firing trace.
// The compile-only run is recorded like any query (it appears in :stats
// with zero evaluator work).
func (s *Session) Explain(src string) (string, error) {
	rep := s.OpenReport(":explain " + src)
	p, err := s.frontEnd(rep, src, nil, nil)
	if err != nil {
		s.FinishReport(rep, err)
		return "", err
	}
	opt := s.optimize(rep, p.reads.Optimizer(), p.Core)
	s.FinishReport(rep, nil)

	var b strings.Builder
	fmt.Fprintf(&b, "type: %s\n", p.Type)
	fmt.Fprintf(&b, "core:      %s\n", p.Core)
	fmt.Fprintf(&b, "optimized: %s\n", opt)
	if rep != nil {
		b.WriteString(rep.FormatRules())
	} else if s.SkipOptimizer {
		b.WriteString("optimizer disabled\n")
	}
	return b.String(), nil
}

// ExplainAnalyze runs src at full span profiling, joins the prepare-time
// cost/cardinality estimates against the recorded per-operator actuals,
// and renders the annotated tree: est/act columns, q-errors, and flags on
// misestimates above the session's threshold.
func (s *Session) ExplainAnalyze(ctx context.Context, src string) (string, error) {
	table, typ, v, err := s.ExplainAnalyzeTable(ctx, src)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "type: %s\n", typ)
	fmt.Fprintf(&b, "result: %s\n", v.Pretty(8))
	b.WriteString(table.Format())
	return b.String(), nil
}

// ExplainAnalyzeTable is ExplainAnalyze's data form: carry src down to a
// plan, execute it at eval.ProfFull regardless of the session's profiling
// level (the per-operator join needs exact attribution), and join the
// program's cardinality and cost estimates (internal/cost) with the
// recorded span tree. The run is recorded like any query, with the joined
// table riding the report into the flight recorder and sinks. While
// recording is off the run still builds its report, to join against, and
// emits nothing.
func (s *Session) ExplainAnalyzeTable(ctx context.Context, src string) (*trace.ExplainTable, *types.Type, object.Value, error) {
	query := ":explain analyze " + src
	rep := s.OpenReport(query)
	emit := rep != nil
	if !emit {
		rep = &trace.QueryReport{Query: query}
	}
	p, err := s.frontEnd(rep, src, nil, &s.Limits)
	var v object.Value
	if err == nil {
		v, err = s.execute(ctx, rep, p, nil, eval.ProfFull)
		rep.Explain = trace.JoinEstimates(p.Prog.Estimates(), rep, trace.DefaultQErrorThreshold)
	}
	if emit {
		s.FinishReport(rep, err)
	}
	if err != nil {
		return nil, nil, object.Value{}, err
	}
	return rep.Explain, p.Type, v, nil
}

// Profile runs the full pipeline on src and renders the phase table of the
// report that run built. The query's effects (binding `it`) happen as usual.
func (s *Session) Profile(ctx context.Context, src string) (string, error) {
	_, _, rep, err := s.query(ctx, src)
	if rep == nil {
		if err != nil {
			return "", err
		}
		return "tracing disabled: nothing was recorded\n", nil
	}
	// The error, if any, is part of the report; render it rather than
	// failing so a profile of a failing query still shows where time went.
	return rep.FormatProfile(), nil
}
