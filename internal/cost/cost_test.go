package cost_test

import (
	"testing"

	"github.com/aqldb/aql/internal/cost"
	"github.com/aqldb/aql/internal/repl"
	"github.com/aqldb/aql/internal/trace"
)

// estimate compiles, optimizes and estimates a query in a fresh session
// with the given setup statements, and returns its rows.
func estimate(t *testing.T, setup, query string) []trace.EstNode {
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
		t.Fatalf("no estimates for %s", query)
	}
	return est.Rows
}

// find returns the first row with the given op in span-id order, or nil.
func find(rows []trace.EstNode, op string) *trace.EstNode {
	for i := range rows {
		if rows[i].Op == op {
			return &rows[i]
		}
	}
	return nil
}

func known(n int64) trace.Card { return trace.KnownCard(n) }

func TestEstimateStaticTabulation(t *testing.T) {
	rows := estimate(t, "", `[[ i*i | \i < 20 ]]`)
	est := rows[0]
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
	// The head, span 1, runs once per cell.
	if head := rows[1]; head.Depth != 1 || head.Cost != known(20) {
		t.Errorf("head depth %d cost %v, want 1 and 20", head.Depth, head.Cost)
	}
}

func TestEstimateMultiDimShape(t *testing.T) {
	rows := estimate(t, "val n = 6;", `[[ i + j | \i < n, \j < 4 ]]`)
	if rows[0].Cells != known(24) {
		t.Errorf("cells = %v, want 24 (6x4, n resolved from globals)", rows[0].Cells)
	}
	if head := rows[1]; head.Depth != 1 || head.Cost != known(24) {
		t.Errorf("head depth %d cost %v, want 1 and 24", head.Depth, head.Cost)
	}
}

func TestEstimateDataDependentBoundUnknown(t *testing.T) {
	rows := estimate(t, "val S = {1, 2, 3};", `[[ i | \i < count!S ]]`)
	// count!S is a closure application over set data: the estimator must
	// report unknown, never a fabricated number.
	if rows[0].Cells.Known {
		t.Errorf("data-dependent tabulation cells = %v, want unknown", rows[0].Cells)
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
		t.Fatal("no estimates for the prepared template")
	}
	if root := est.Rows[0]; root.Cells.Known || root.Card.Known {
		t.Errorf("parameter-bounded tabulation = card %v cells %v, want unknown", root.Card, root.Cells)
	}
}

func TestEstimateGeneralAppUnknownCost(t *testing.T) {
	app := find(estimate(t, `val f = fn \x => x * x;`, `f!3`), "App")
	if app == nil {
		t.Fatal("no app row in the estimates")
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
	if rows := estimate(t, "", `[[ i | \i < 5 ]]`); rows[0].Cells != known(5) {
		t.Fatalf("baseline cells = %v", rows[0].Cells)
	}
	// gen!m: a set of m distinct naturals.
	gen := find(estimate(t, "", `gen!7`), "Gen")
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
	u := find(estimate(t, "", `{1, 2} union {2, 3}`), "Union")
	if u == nil {
		t.Fatal("no union node")
	}
	if u.Card.Known {
		t.Errorf("set union card = %v, want unknown (dedup)", u.Card)
	}
	// Bag union concatenates: cardinalities add, and the charged cells are
	// statically known.
	b := find(estimate(t, "", `{| 1, 2 |} uplus {| 2, 3 |}`), "BagUnion")
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
