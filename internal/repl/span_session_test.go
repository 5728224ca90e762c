package repl

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/trace"
)

// newProfiledSession returns a session at the given profiling level.
func newProfiledSession(t *testing.T, level string) *Session {
	t.Helper()
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetProfiling(level); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestReportCarriesSpans checks the session plumbing end to end: a query
// run at sampled or full level yields a QueryReport whose span tree is
// present, labelled with the level, and rooted at an operator with one
// invocation; at off the report has no spans. Both engines.
func TestReportCarriesSpans(t *testing.T) {
	for _, engine := range []string{EngineInterp, EngineCompiled} {
		for _, level := range []string{"off", "sampled", "full"} {
			t.Run(engine+"/"+level, func(t *testing.T) {
				s := newProfiledSession(t, level)
				if err := s.SetEngine(engine); err != nil {
					t.Fatal(err)
				}
				if _, _, err := s.Query(`[[ i * i | \i < 50 ]]`); err != nil {
					t.Fatal(err)
				}
				rep := s.LastReport()
				if rep == nil {
					t.Fatal("no report")
				}
				if level == "off" {
					if rep.Spans != nil {
						t.Fatalf("spans present at off level: %+v", rep.Spans)
					}
					return
				}
				if rep.Spans == nil {
					t.Fatal("no span tree in report")
				}
				if rep.ProfLevel != level {
					t.Errorf("report level = %q, want %q", rep.ProfLevel, level)
				}
				if rep.Spans.Invocations != 1 {
					t.Errorf("root invocations = %d, want 1", rep.Spans.Invocations)
				}
				if rep.Spans.WallCum <= 0 {
					t.Errorf("root cumulative wall = %v, want > 0", rep.Spans.WallCum)
				}
				var tabs int64
				rep.Spans.Walk(func(n *trace.SpanNode) { tabs += n.Tabulations })
				if tabs != rep.Eval.Tabulations {
					t.Errorf("span tabulations %d != flat %d", tabs, rep.Eval.Tabulations)
				}
				if level == "full" {
					var steps int64
					rep.Spans.Walk(func(n *trace.SpanNode) { steps += n.Steps })
					if steps != rep.Eval.Steps {
						t.Errorf("span steps %d != flat %d at full level", steps, rep.Eval.Steps)
					}
				}
			})
		}
	}
}

// TestFlightRecorderUnderSession drives more queries than the flight
// recorder holds and checks it retains exactly its capacity, newest-last.
func TestFlightRecorderUnderSession(t *testing.T) {
	s := newProfiledSession(t, "sampled")
	s.Flight = trace.NewFlightRecorder(5)
	const n = 13
	for i := 0; i < n; i++ {
		if _, _, err := s.Query(fmt.Sprintf(`%d + 1`, i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Flight.Total(); got != n {
		t.Fatalf("flight total = %d, want %d", got, n)
	}
	reports := s.Flight.Reports()
	if len(reports) != 5 {
		t.Fatalf("flight retained %d, want exactly 5", len(reports))
	}
	for i, rep := range reports {
		if want := fmt.Sprintf("%d + 1", n-5+i); rep.Query != want {
			t.Errorf("reports[%d].Query = %q, want %q", i, rep.Query, want)
		}
	}
	// The fleet aggregator saw every query (it shares the sink chain).
	if got := s.Fleet.Snapshot().Totals.Queries; got != n {
		t.Errorf("fleet counted %d queries, want %d", got, n)
	}
}

// TestTopFleetProfCommands exercises the three new colon-commands.
func TestTopFleetProfCommands(t *testing.T) {
	ctx := context.Background()
	s := newProfiledSession(t, "full")

	out, err := s.Command(ctx, ":prof")
	if err != nil || !strings.Contains(out, "full") {
		t.Fatalf(":prof = %q, %v", out, err)
	}
	if _, err := s.Command(ctx, ":prof banana"); err == nil {
		t.Fatal(":prof banana accepted")
	}
	if out, err = s.Command(ctx, ":prof sampled"); err != nil || !strings.Contains(out, "sampled") {
		t.Fatalf(":prof sampled = %q, %v", out, err)
	}
	if s.Profiling != eval.ProfSampled {
		t.Fatalf("session level = %v after :prof sampled", s.Profiling)
	}

	out, err = s.Command(ctx, ":top")
	if err != nil || !strings.Contains(out, "no query recorded yet") {
		t.Fatalf(":top before any query = %q, %v", out, err)
	}
	if _, _, err := s.Query(`[[ i + 1 | \i < 2000 ]]`); err != nil {
		t.Fatal(err)
	}
	out, err = s.Command(ctx, ":top 3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "ArrayTab") {
		t.Errorf(":top output missing the tabulation operator:\n%s", out)
	}
	out, err = s.Command(ctx, ":stats")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "fleet over 1 queries") || !strings.Contains(out, "latency histogram") {
		t.Errorf(":stats output missing the query count or histogram:\n%s", out)
	}

	// :top with profiling off explains itself rather than erroring.
	if _, err := s.Command(ctx, ":prof off"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Query(`1 + 1`); err != nil {
		t.Fatal(err)
	}
	out, err = s.Command(ctx, ":top")
	if err != nil || !strings.Contains(out, "profiling is off") {
		t.Fatalf(":top at off level = %q, %v", out, err)
	}
}

// TestUserSinkComposesWithFleet checks a user Sink receives reports
// beside, not instead of, the built-in aggregator and flight recorder.
func TestUserSinkComposesWithFleet(t *testing.T) {
	s := newProfiledSession(t, "sampled")
	var got []string
	s.Sink = sinkFunc(func(r *trace.QueryReport) { got = append(got, r.Query) })
	if _, _, err := s.Query(`2 * 3`); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "2 * 3" {
		t.Fatalf("user sink saw %v", got)
	}
	if s.Fleet.Snapshot().Totals.Queries != 1 {
		t.Error("fleet aggregator disconnected by a user sink")
	}
	if s.Flight.Total() != 1 {
		t.Error("flight recorder disconnected by a user sink")
	}
}

type sinkFunc func(*trace.QueryReport)

func (f sinkFunc) Emit(r *trace.QueryReport) { f(r) }
