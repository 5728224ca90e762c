// Tests for operator-level profiling: structural identity of the span
// trees across engines, exact counter attribution at the full level, the
// off level's guarantee of zero instrumentation, and race-freedom of
// profiled parallel tabulation.
package aql

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/aqldb/aql/internal/compile"
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/trace"
)

// spanEngine is an engine that reports its last evaluation's span tree.
type spanEngine interface {
	engine
	SpanTree() *trace.SpanNode
}

// spanShape renders a span tree's structure — operators, nesting and
// invocation counts, no timings — for cross-engine comparison.
func spanShape(n *trace.SpanNode) string {
	var b strings.Builder
	var walk func(n *trace.SpanNode, depth int)
	walk = func(n *trace.SpanNode, depth int) {
		fmt.Fprintf(&b, "%s%s inv=%d\n", strings.Repeat(" ", depth), n.Op, n.Invocations)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(n, 0)
	return b.String()
}

// spanRows is what the span differential tests run: the differential
// corpus, plus a compiled higher-order val whose body fans out (diffSetup's
// mapN, 8200 cells) handed a lambda of the query. The body of mapN belongs
// to another execution, so it records no spans; the lambda's work, applied
// by fan-out workers (the interpreter's through its Applier), is the query's
// and lands on the query's spans.
var spanRows = append(append([]string(nil), diffCorpus...), `mapN!(fn \y => y * 3)`)

// spanEngines is diffEngines for the span tests: both engines at level, the
// compiled one fanning out over 4 workers where a tabulation is large enough
// (only the last of spanRows has one).
func spanEngines(globals map[string]object.Value, level eval.ProfLevel) (*eval.Evaluator, *compiledEngine) {
	in, ce := diffEngines(globals, 0, eval.Limits{})
	in.SetProfiling(level)
	ce.opts.Level, ce.opts.Threshold, ce.opts.Workers = level, 0, 4
	return in, ce
}

// TestSpanTreeStructuralDifferential holds both engines to structurally
// identical span trees on the differential corpus: same operators, same
// parent/child shape, same invocation counts. Only timings may differ.
// Checked at both profiling levels — sampled trees are sparser, but the
// sparsification (which operators get spans) is decided by the shared
// pre-walk, so it too must agree.
func TestSpanTreeStructuralDifferential(t *testing.T) {
	s := diffSession(t)
	globals := s.Env.Globals()
	for _, level := range []eval.ProfLevel{eval.ProfSampled, eval.ProfFull} {
		t.Run(level.String(), func(t *testing.T) {
			for _, src := range spanRows {
				t.Run(src, func(t *testing.T) {
					core, _, err := s.Compile(src)
					if err != nil {
						t.Fatalf("compile: %v", err)
					}
					in, ce := spanEngines(globals, level)
					_, _ = in.EvalExpr(context.Background(), core)
					_, _ = ce.EvalExpr(context.Background(), core)
					it, ct := in.SpanTree(), ce.SpanTree()
					if it == nil || ct == nil {
						t.Fatalf("span tree missing: interp %v, compiled %v", it != nil, ct != nil)
					}
					if is, cs := spanShape(it), spanShape(ct); is != cs {
						t.Errorf("span trees differ:\ninterp:\n%s\ncompiled:\n%s", is, cs)
					}
				})
			}
		})
	}
}

// TestSpanCounterAttribution pins the accounting identity at the full
// level: the per-operator self counters over the whole tree sum exactly to
// the engine's flat counters, and the root's cumulative counters equal the
// flat counters (the root span wraps the entire evaluation).
func TestSpanCounterAttribution(t *testing.T) {
	s := diffSession(t)
	globals := s.Env.Globals()
	for _, src := range spanRows {
		t.Run(src, func(t *testing.T) {
			core, _, err := s.Compile(src)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			in, ce := spanEngines(globals, eval.ProfFull)
			_, _ = in.EvalExpr(context.Background(), core)
			_, _ = ce.EvalExpr(context.Background(), core)
			for _, eng := range []spanEngine{in, ce} {
				root := eng.SpanTree()
				if root == nil {
					t.Fatalf("%s: no span tree at full level", eng.Name())
				}
				flat := eng.Counters()
				var self eval.Counters
				root.Walk(func(n *trace.SpanNode) {
					self.Steps += n.Steps
					self.Cells += n.Cells
					self.Tabulations += n.Tabulations
					self.SetOps += n.SetOps
					self.Iterations += n.Iterations
					if n.Measured != n.Invocations {
						t.Errorf("%s: %s measured %d of %d invocations at full level",
							eng.Name(), n.Op, n.Measured, n.Invocations)
					}
				})
				if self != flat {
					t.Errorf("%s: sum of span self counters %+v != flat counters %+v",
						eng.Name(), self, flat)
				}
				cum := root.CumCounters()
				if cum != flat {
					t.Errorf("%s: root cumulative counters %+v != flat counters %+v",
						eng.Name(), cum, flat)
				}
			}
		})
	}
}

// TestProfOffNoInstrumentation pins the off level's contract: no span plan
// is ever built (so the compiled closures carry no wrappers and the
// interpreter takes its one nil-check branch), and no tree is reported.
func TestProfOffNoInstrumentation(t *testing.T) {
	s := diffSession(t)
	core, _, err := s.Compile(`[[ i * i | \i < 100 ]]`)
	if err != nil {
		t.Fatal(err)
	}
	if plan := eval.NewSpanPlan(core, eval.ProfOff); plan != nil {
		t.Errorf("NewSpanPlan at off level built a plan: %+v", plan)
	}
	in := eval.New(s.Env.Globals())
	ce := &compiledEngine{globals: s.Env.Globals()}
	for name, level := range map[string]eval.ProfLevel{"interp": in.Profiling(), "compiled": ce.opts.Level} {
		if level != eval.ProfOff {
			t.Fatalf("%s: default profiling level = %v, want off", name, level)
		}
	}
	for _, eng := range []spanEngine{in, ce} {
		if _, err := eng.EvalExpr(context.Background(), core); err != nil {
			t.Fatal(err)
		}
		if tree := eng.SpanTree(); tree != nil {
			t.Errorf("%s: span tree present at off level", eng.Name())
		}
	}
}

// TestParallelTabulationProfiling profiles a million-cell parallel
// tabulation — including one whose head calls a closure compiled outside
// the tabulation, the escaped-closure shape — at both profiling levels.
// Run under -race (as CI does) this is the regression test for concurrent
// span recording from workers: forked per-worker slot arrays merged into
// the parent, worker ranges recorded on the execution's own context.
func TestParallelTabulationProfiling(t *testing.T) {
	if testing.Short() {
		t.Skip("million-cell tabulation")
	}
	const cells = 1_000_000
	s := diffSession(t)
	globals := s.Env.Globals()
	queries := []string{
		`[[ (i*i + 7) % 93 | \i < 1000000 ]]`,
		`[[ f!(i % 1000) | \i < 1000000 ]]`, // f escapes from diffSetup's globals
	}
	for _, level := range []eval.ProfLevel{eval.ProfSampled, eval.ProfFull} {
		t.Run(level.String(), func(t *testing.T) {
			for _, src := range queries {
				t.Run(src, func(t *testing.T) {
					core, _, err := s.Compile(src)
					if err != nil {
						t.Fatalf("compile: %v", err)
					}
					ce := &compiledEngine{globals: globals, opts: compile.ExecOpts{
						Threshold: 1024, // well below a million cells: force the parallel path
						Workers:   4,    // independent of GOMAXPROCS, so single-core CI still fans out
						Level:     level,
					}}
					if _, err := ce.EvalExpr(context.Background(), core); err != nil {
						t.Fatal(err)
					}
					root := ce.SpanTree()
					if root == nil {
						t.Fatal("no span tree")
					}
					var tab *trace.SpanNode
					root.Walk(func(n *trace.SpanNode) {
						if n.Op == "ArrayTab" && tab == nil {
							tab = n
						}
					})
					if tab == nil {
						t.Fatalf("no ArrayTab span in tree:\n%s", spanShape(root))
					}
					if tab.Invocations != 1 {
						t.Errorf("ArrayTab invocations = %d, want 1", tab.Invocations)
					}
					if len(tab.Workers) == 0 {
						t.Fatal("no worker spans recorded for the parallel tabulation")
					}
					covered := 0
					for _, w := range tab.Workers {
						if w.End <= w.Start || w.Start < 0 || w.End > cells {
							t.Errorf("worker %d range [%d,%d) out of bounds", w.Worker, w.Start, w.End)
						}
						if w.Busy <= 0 {
							t.Errorf("worker %d busy = %v, want > 0", w.Worker, w.Busy)
						}
						covered += w.End - w.Start
					}
					if covered != cells {
						t.Errorf("worker ranges cover %d cells, want %d", covered, cells)
					}
					if flat := ce.Counters(); flat.Cells < cells {
						t.Errorf("flat cells = %d, want >= %d", flat.Cells, cells)
					}
					if level == eval.ProfFull {
						if cum := root.CumCounters(); cum != ce.Counters() {
							t.Errorf("cumulative counters %+v != flat %+v under parallel merge",
								cum, ce.Counters())
						}
					}
				})
			}
		})
	}
}
