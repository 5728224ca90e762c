// Estimator exactness over the differential corpus: the cost estimator
// promises exact-or-unknown — on a single node, every cardinality or cost
// it claims to know must agree with the recorded actuals to the cell and
// the step (q-error exactly 1.0), and anything parameter- or data-dependent
// must be the explicit unknown marker, never a fabricated number. Running
// the whole corpus holds that promise across every construct the surface
// language can reach.
package aql

import (
	"context"
	"strings"
	"testing"

	"github.com/aqldb/aql/internal/object"
)

func TestExplainAnalyzeCorpusExactness(t *testing.T) {
	for _, q := range diffCorpus {
		t.Run(q, func(t *testing.T) {
			s := diffSession(t)
			table, _, v, err := s.ExplainAnalyzeTable(context.Background(), q)
			if err != nil {
				// The corpus holds queries whose evaluation fails on purpose
				// (kind errors, unbound placeholders); there is no total
				// evaluation for the estimator to describe.
				if _, _, qerr := s.Query(q); qerr != nil && qerr.Error() == err.Error() {
					t.Skipf("evaluation error: %v", err)
				}
				t.Fatalf("explain analyze: %v", err)
			}
			// The estimator describes a total evaluation. A ⊥ result means
			// evaluation short-circuited — siblings of the ⊥ site never ran,
			// so known estimates are upper bounds there, not exact.
			if v.Kind == object.KBottom {
				t.Skipf("⊥ result: evaluation short-circuited")
			}
			// Single-node full profile must always join per-operator: the
			// estimate rows are the span plan's, one per span id.
			if table.Mode != "operator" {
				t.Fatalf("join mode = %q, want operator", table.Mode)
			}
			for _, row := range table.Rows {
				if row.EstCells.Known && row.EstCells.N != row.ActCells {
					t.Errorf("%s: est cells %d != act cells %d", row.Path, row.EstCells.N, row.ActCells)
				}
				if row.EstCost.Known && row.EstCost.N != row.ActSelfSteps {
					t.Errorf("%s: est cost %d != act self steps %d", row.Path, row.EstCost.N, row.ActSelfSteps)
				}
				// Known estimates are exact, so nothing may ever be flagged
				// on a single node; a flag here means a fabricated number.
				if row.Flagged {
					t.Errorf("%s: flagged with q-error %v on a single-node run", row.Path, row.QError)
				}
			}
		})
	}
}

// TestExplainAnalyzeRendersTable covers the REPL surface end to end: the
// :explain analyze command output carries the type, the result and the
// joined table.
func TestExplainAnalyzeCommand(t *testing.T) {
	s := diffSession(t)
	out, err := s.Command(context.Background(), ":explain analyze [[ i*i | \\i < 8 ]]")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"type:", "result:", "mode=operator", "est cells", "misestimates:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
