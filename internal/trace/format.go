package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// FormatProfile renders the report as the :profile table: per-phase wall
// times with their share of the total, then the evaluator and I/O
// counters.
func (r *QueryReport) FormatProfile() string {
	var b strings.Builder
	fmt.Fprintf(&b, "profile of %s\n", r.Query)
	fmt.Fprintf(&b, "  wall total      %12s\n", fmtDur(r.Wall))
	for _, name := range PhaseOrder {
		d := r.Phase(name)
		if d == 0 {
			continue
		}
		share := 0.0
		if r.Wall > 0 {
			share = 100 * float64(d) / float64(r.Wall)
		}
		fmt.Fprintf(&b, "  %-15s %12s  %5.1f%%\n", name, fmtDur(d), share)
	}
	// Phases outside the standard pipeline (custom instrumentation).
	for _, p := range r.Phases {
		if !isStandardPhase(p.Name) {
			fmt.Fprintf(&b, "  %-15s %12s\n", p.Name, fmtDur(p.Wall))
		}
	}
	fmt.Fprintf(&b, "  steps           %12d\n", r.Eval.Steps)
	fmt.Fprintf(&b, "  cells           %12d\n", r.Eval.Cells)
	fmt.Fprintf(&b, "  tabulations     %12d\n", r.Eval.Tabulations)
	fmt.Fprintf(&b, "  set ops         %12d\n", r.Eval.SetOps)
	fmt.Fprintf(&b, "  iterations      %12d\n", r.Eval.Iterations)
	fmt.Fprintf(&b, "  rule firings    %12d  (AST %d -> %d nodes)\n",
		len(r.Rules)+r.RulesDropped, r.NodesBefore, r.NodesAfter)
	if !r.IO.IsZero() {
		fmt.Fprintf(&b, "  slab reads      %12d\n", r.IO.SlabReads)
		fmt.Fprintf(&b, "  bytes read      %12d\n", r.IO.BytesRead)
		if r.IO.Retries > 0 || r.IO.Faults > 0 {
			fmt.Fprintf(&b, "  retries         %12d\n", r.IO.Retries)
			fmt.Fprintf(&b, "  faults          %12d\n", r.IO.Faults)
		}
	}
	if r.Err != "" {
		fmt.Fprintf(&b, "  error: %s\n", r.Err)
	}
	return b.String()
}

// FormatRules renders the optimizer trace as the :explain firing table:
// one line per firing in application order, then per-rule totals.
func (r *QueryReport) FormatRules() string {
	var b strings.Builder
	if len(r.Rules) == 0 {
		b.WriteString("no optimizer rules fired\n")
		return b.String()
	}
	fmt.Fprintf(&b, "rule firings (%d), AST %d -> %d nodes:\n",
		len(r.Rules)+r.RulesDropped, r.NodesBefore, r.NodesAfter)
	counts := map[string]int{}
	for i, f := range r.Rules {
		fmt.Fprintf(&b, "  %3d. [%s] %-24s %d -> %d nodes\n",
			i+1, f.Phase, f.Rule, f.NodesBefore, f.NodesAfter)
		counts[f.Rule]++
	}
	if r.RulesDropped > 0 {
		fmt.Fprintf(&b, "  ... %d further firings not recorded\n", r.RulesDropped)
	}
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	b.WriteString("totals by rule:\n")
	for _, name := range names {
		fmt.Fprintf(&b, "  %-28s %d\n", name, counts[name])
	}
	return b.String()
}

func isStandardPhase(name string) bool {
	for _, p := range PhaseOrder {
		if p == name {
			return true
		}
	}
	return false
}

// fmtDur rounds a duration for table display.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	}
	return d.String()
}

// FormatTop renders the hottest operators of the report's span tree for
// :top — the n spans with the largest self wall time, with their tree
// position flattened into "parent>child" paths when ambiguous.
func (r *QueryReport) FormatTop(n int) string {
	if r.Spans == nil {
		return "no span tree recorded (profiling is off; try :prof sampled)\n"
	}
	if n <= 0 {
		n = 10
	}
	type row struct {
		node *SpanNode
		path string
	}
	var rows []row
	var walk func(s *SpanNode, path string)
	walk = func(s *SpanNode, path string) {
		if path == "" {
			path = s.Op
		} else {
			path = path + ">" + s.Op
		}
		rows = append(rows, row{s, path})
		for _, c := range s.Children {
			walk(c, path)
		}
	}
	walk(r.Spans, "")
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].node.WallSelf != rows[j].node.WallSelf {
			return rows[i].node.WallSelf > rows[j].node.WallSelf
		}
		return rows[i].node.Steps > rows[j].node.Steps
	})
	if len(rows) > n {
		rows = rows[:n]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "top operators of %s (%s profiling, eval %s)\n",
		r.Query, r.ProfLevel, fmtDur(r.Spans.WallCum))
	fmt.Fprintf(&b, "  %-12s %12s %12s %10s %12s\n", "op", "self", "cum", "invocs", "steps")
	for _, rw := range rows {
		s := rw.node
		fmt.Fprintf(&b, "  %-12s %12s %12s %10d %12d\n",
			s.Op, fmtDur(s.WallSelf), fmtDur(s.WallCum), s.Invocations, s.Steps)
		for _, w := range s.Workers {
			fmt.Fprintf(&b, "    worker %2d [%d,%d) busy %s steps %d\n",
				w.Worker, w.Start, w.End, fmtDur(w.Busy), w.Steps)
		}
		if s.WorkersDropped > 0 {
			fmt.Fprintf(&b, "    ... %d further worker records dropped\n", s.WorkersDropped)
		}
	}
	return b.String()
}

// FormatFleet renders an aggregate snapshot for :stats — the cross-query
// histogram, phase totals, evaluator and I/O counters, hottest rules and
// the slow log.
func (s AggregateSnapshot) FormatFleet() string {
	var b strings.Builder
	t := s.Totals
	fmt.Fprintf(&b, "fleet over %d queries (%d errors), wall %s\n", t.Queries, t.Errors, fmtDur(t.Wall))
	if t.Queries > 0 {
		b.WriteString("latency histogram:\n")
		for i, n := range s.Latency.Buckets {
			if n == 0 {
				continue
			}
			le := "+Inf"
			if i < len(s.Latency.Buckets)-1 {
				le = fmtDur(LatencyBucketBound(i))
			}
			fmt.Fprintf(&b, "  <= %-10s %8d\n", le, n)
		}
	}
	phased := false
	for _, name := range PhaseOrder {
		if d, ok := t.PhaseWall[name]; ok && d > 0 {
			if !phased {
				b.WriteString("phase totals:\n")
				phased = true
			}
			fmt.Fprintf(&b, "  %-15s %12s\n", name, fmtDur(d))
		}
	}
	b.WriteString("counters:\n")
	fmt.Fprintf(&b, "  steps           %12d\n", t.Eval.Steps)
	fmt.Fprintf(&b, "  cells           %12d\n", t.Eval.Cells)
	fmt.Fprintf(&b, "  tabulations     %12d\n", t.Eval.Tabulations)
	fmt.Fprintf(&b, "  set ops         %12d\n", t.Eval.SetOps)
	fmt.Fprintf(&b, "  iterations      %12d\n", t.Eval.Iterations)
	fmt.Fprintf(&b, "  rule firings    %12d\n", t.RuleFirings)
	if !t.IO.IsZero() {
		fmt.Fprintf(&b, "  slab reads      %12d\n", t.IO.SlabReads)
		fmt.Fprintf(&b, "  bytes read      %12d\n", t.IO.BytesRead)
		fmt.Fprintf(&b, "  retries         %12d\n", t.IO.Retries)
	}
	if len(s.Rules) > 0 {
		names := make([]string, 0, len(s.Rules))
		for name := range s.Rules {
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool {
			if s.Rules[names[i]] != s.Rules[names[j]] {
				return s.Rules[names[i]] > s.Rules[names[j]]
			}
			return names[i] < names[j]
		})
		b.WriteString("firings by rule:\n")
		for _, name := range names {
			fmt.Fprintf(&b, "  %-28s %d\n", name, s.Rules[name])
		}
	}
	if len(s.Slow) > 0 {
		b.WriteString("slowest queries:\n")
		for i, q := range s.Slow {
			if i >= 5 {
				fmt.Fprintf(&b, "  ... %d more\n", len(s.Slow)-i)
				break
			}
			line := q.Query
			if len(line) > 48 {
				line = line[:45] + "..."
			}
			fmt.Fprintf(&b, "  %12s  %s\n", fmtDur(q.Wall), line)
		}
	}
	return b.String()
}
