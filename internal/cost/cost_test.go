package cost_test

import (
	"context"
	"testing"

	"github.com/aqldb/aql/internal/cost"
	"github.com/aqldb/aql/internal/repl"
	"github.com/aqldb/aql/internal/trace"
)

// estimate compiles, optimizes and estimates a query in a fresh session
// with the given setup statements.
func estimate(t *testing.T, setup, query string) *trace.EstNode {
	t.Helper()
	s, err := repl.New()
	if err != nil {
		t.Fatal(err)
	}
	if setup != "" {
		if _, err := s.Exec(setup); err != nil {
			t.Fatalf("setup: %v", err)
		}
	}
	core, _, err := s.Compile(query)
	if err != nil {
		t.Fatalf("compile %s: %v", query, err)
	}
	est := cost.Estimate(s.Optimize(core), s.Env.Globals())
	if est == nil {
		t.Fatalf("no estimate tree for %s", query)
	}
	return est
}

// find returns the first node with the given op in pre-order, or nil.
func find(n *trace.EstNode, op string) *trace.EstNode {
	var hit *trace.EstNode
	n.Walk(func(c *trace.EstNode) {
		if hit == nil && c.Op == op {
			hit = c
		}
	})
	return hit
}

func known(n int64) trace.Card { return trace.KnownCard(n) }

func TestEstimateStaticTabulation(t *testing.T) {
	est := estimate(t, "", `[[ i*i | \i < 20 ]]`)
	if est.Op != "ArrayTab" {
		t.Fatalf("root op = %q", est.Op)
	}
	if est.Card != known(20) {
		t.Errorf("card = %v, want 20", est.Card)
	}
	if est.Cells != known(20) {
		t.Errorf("cells = %v, want 20", est.Cells)
	}
	if est.Cost != known(1) {
		t.Errorf("cost = %v, want 1 (one root invocation)", est.Cost)
	}
	// The head runs once per cell.
	if head := est.Children[0]; head.Cost != known(20) {
		t.Errorf("head cost = %v, want 20", head.Cost)
	}
}

func TestEstimateMultiDimShape(t *testing.T) {
	est := estimate(t, "val n = 6;", `[[ i + j | \i < n, \j < 4 ]]`)
	if est.Cells != known(24) {
		t.Errorf("cells = %v, want 24 (6x4, n resolved from globals)", est.Cells)
	}
	if head := est.Children[0]; head.Cost != known(24) {
		t.Errorf("head cost = %v, want 24", head.Cost)
	}
}

func TestEstimateDataDependentBoundUnknown(t *testing.T) {
	est := estimate(t, "val S = {1, 2, 3};", `[[ i | \i < count!S ]]`)
	// count!S is a closure application over set data: the estimator must
	// report unknown, never a fabricated number.
	if est.Cells.Known {
		t.Errorf("data-dependent tabulation cells = %v, want unknown", est.Cells)
	}
}

func TestEstimateParamUnknown(t *testing.T) {
	s, err := repl.New()
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Prepare(`[[ i * $a | \i < $n ]]`)
	if err != nil {
		t.Fatal(err)
	}
	est := cost.Estimate(p.Core, s.Env.Globals())
	if est == nil {
		t.Fatal("no estimate tree for the prepared template")
	}
	if est.Cells.Known || est.Card.Known {
		t.Errorf("parameter-bounded tabulation = card %v cells %v, want unknown", est.Card, est.Cells)
	}
}

func TestEstimateGeneralAppUnknownCost(t *testing.T) {
	est := estimate(t, `val f = fn \x => x * x;`, `f!3`)
	app := find(est, "App")
	if app == nil {
		t.Fatal("no app node in the estimate tree")
	}
	// A global closure's body attributes its steps to the app's self
	// counters, so a known cost would be wrong. Unknown, not fabricated.
	if app.Cost.Known {
		t.Errorf("general app cost = %v, want unknown", app.Cost)
	}
}

func TestEstimateLetChainStaysKnown(t *testing.T) {
	// Compiled let chains are App{Lam} patterns; static values must flow
	// through the binding so the inner tabulation's bound stays known.
	est := estimate(t, "", `[[ i | \i < 5 ]]`)
	if est.Cells != known(5) {
		t.Fatalf("baseline cells = %v", est.Cells)
	}
	// gen!m: a set of m distinct naturals.
	est = estimate(t, "", `gen!7`)
	gen := find(est, "Gen")
	if gen == nil {
		t.Fatal("no gen node")
	}
	if gen.Card != known(7) || gen.Cells != known(7) {
		t.Errorf("gen card/cells = %v/%v, want 7/7", gen.Card, gen.Cells)
	}
}

func TestEstimateUnionCardinalities(t *testing.T) {
	// Set union deduplicates, so output cardinality is data-dependent even
	// with statically known sides.
	est := estimate(t, "", `{1, 2} union {2, 3}`)
	u := find(est, "Union")
	if u == nil {
		t.Fatal("no union node")
	}
	if u.Card.Known {
		t.Errorf("set union card = %v, want unknown (dedup)", u.Card)
	}
	// Bag union concatenates: cardinalities add, and the charged cells are
	// statically known.
	est = estimate(t, "", `{| 1, 2 |} uplus {| 2, 3 |}`)
	b := find(est, "BagUnion")
	if b == nil {
		t.Fatal("no bag union node")
	}
	if b.Card != known(4) {
		t.Errorf("bag union card = %v, want 4", b.Card)
	}
	if b.Cells != known(4) {
		t.Errorf("bag union cells = %v, want 4", b.Cells)
	}
}

func TestEstimateMirrorsSpanStructure(t *testing.T) {
	// The estimate tree must be joinable per-operator against a full
	// profile's span tree: run a query at prof level full and require the
	// operator-mode join with no structural fallback.
	s, err := repl.New()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetProfiling("full"); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`[[ i*i | \i < 12 ]]`,
		`{x * 2 | \x <- gen!5}`,
		`[[ i + j | \i < 3, \j < 4 ]][1, 2]`,
	} {
		table, _, _, err := s.ExplainAnalyzeTable(context.Background(), q)
		if err != nil {
			t.Fatalf("explain analyze %s: %v", q, err)
		}
		if table == nil {
			t.Fatalf("%s: no joined table", q)
		}
		if table.Mode != "operator" {
			t.Errorf("%s: join degraded to %q — estimate tree does not mirror the span tree", q, table.Mode)
		}
	}
}
