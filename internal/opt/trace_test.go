package opt

import (
	"fmt"
	"testing"

	"github.com/aqldb/aql/internal/ast"
)

// firing mirrors trace.RuleFiring without importing the trace package (opt
// must not depend on it; the hook is a plain function argument).
type firing struct {
	phase, rule             string
	nodesBefore, nodesAfter int
}

// collectTrace optimizes e on a fresh optimizer, recording every rule
// firing through OptimizeTraced's per-call hook.
func collectTrace(e ast.Expr) []firing {
	var got []firing
	New().OptimizeTraced(e, func(phase, rule string, nb, na int) {
		got = append(got, firing{phase, rule, nb, na})
	})
	return got
}

// TestRuleTraceDeterministic asserts the determinism guarantee the
// Optimize doc comment makes: the same input query yields the identical
// sequence of rule firings — same rules, same order, same subtree sizes —
// across fresh optimizer instances. Phases and rules live in slices and
// the traversal is first-match-wins bottom-up, so any divergence means
// iteration order leaked in (e.g. ranging over a map of rules).
func TestRuleTraceDeterministic(t *testing.T) {
	// A query that exercises all three phases: a subscripted tabulation
	// (beta^p), a dimension of a tabulation (delta^p), constraint folding,
	// and loop motion candidates.
	queries := []ast.Expr{
		sub(tab(arith(ast.OpMul, v("i"), v("i")), []string{"i"}, nat(10)), nat(4)),
		dim(1, tab(v("i"), []string{"i"}, nat(7))),
		tab(sub(tab(arith(ast.OpAdd, v("i"), nat(1)), []string{"i"}, nat(9)), v("j")),
			[]string{"j"}, nat(9)),
	}
	for qi, q := range queries {
		t.Run(fmt.Sprintf("query%d", qi), func(t *testing.T) {
			first := collectTrace(q)
			if len(first) == 0 {
				t.Fatalf("query %d fired no rules; pick a better specimen", qi)
			}
			for run := 1; run < 5; run++ {
				again := collectTrace(q)
				if len(again) != len(first) {
					t.Fatalf("run %d fired %d rules, first run fired %d", run, len(again), len(first))
				}
				for i := range first {
					if first[i] != again[i] {
						t.Fatalf("run %d firing %d = %+v, first run had %+v", run, i, again[i], first[i])
					}
				}
			}
		})
	}
}

// TestTraceHookReceivesSubtreeCounts checks the hook's node counts
// describe the rewritten subtree: before > 0, after > 0, and for beta^p on
// a closed tabulation the rewrite must not grow the fuel accounting
// (sanity on the numbers' plausibility, not exact sizes).
func TestTraceHookReceivesSubtreeCounts(t *testing.T) {
	q := sub(tab(arith(ast.OpMul, v("i"), v("i")), []string{"i"}, nat(10)), nat(4))
	for _, f := range collectTrace(q) {
		if f.nodesBefore <= 0 || f.nodesAfter <= 0 {
			t.Errorf("firing %+v has non-positive node counts", f)
		}
		if f.phase == "" || f.rule == "" {
			t.Errorf("firing %+v missing phase/rule name", f)
		}
	}
}
