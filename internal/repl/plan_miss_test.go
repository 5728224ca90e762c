package repl_test

import (
	"math/rand"
	"testing"

	"github.com/aqldb/aql/internal/bench"
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/repl"
)

// planSession is a session with plan_cold's prelude and data bound.
func planSession(tb testing.TB) *repl.Session {
	tb.Helper()
	s := bench.MustSession()
	if _, err := s.Exec(bench.PlanPrelude + bench.PlanData); err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestPlanAllocs bounds the allocations of carrying the section 1 query
// through the whole front end, Session.Plan, at 10 % above its cost
// today: scan, parse, desugar, macros, typecheck, optimize and lower.
// Before the scanner, the traversals and inference stopped allocating per
// token, per visited node and per type variable it took 4,252; 770 before
// a plan read only the globals its query names; now 765.
func TestPlanAllocs(t *testing.T) {
	s := planSession(t)
	text := bench.PlanMotivating(22.1)
	got := testing.AllocsPerRun(20, func() {
		if _, err := s.Plan(nil, text, eval.Limits{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Session.Plan of the section 1 query: %.0f allocations", got)
	const max = 842
	if got > max {
		t.Errorf("Session.Plan of the section 1 query allocates %.0f times, bound %d", got, max)
	}
}

// BenchmarkPlanMiss carries distinct plan_cold texts through Session.Plan:
// what the front end costs a plan-cache miss, without executing the plan.
func BenchmarkPlanMiss(b *testing.B) {
	s := planSession(b)
	r := rand.New(rand.NewSource(1))
	texts := make([]string, b.N)
	for i := range texts {
		_, texts[i] = bench.PlanText(r, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, text := range texts {
		if _, err := s.Plan(nil, text, eval.Limits{}); err != nil {
			b.Fatal(err)
		}
	}
}
