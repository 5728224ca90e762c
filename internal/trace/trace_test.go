package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestNilRecorderIsSafe: the hooks left on the pipeline's path — phase
// timing and the optimizer's rule hook — record nothing on a nil report,
// which is what an execution carries while recording is off.
func TestNilRecorderIsSafe(t *testing.T) {
	var r *QueryReport
	sp := r.StartPhase(PhaseParse)
	sp.End()
	Span{}.End()
	r.RuleFired("normalize", "beta", 3, 1)
}

// TestRecorderLifecycle: a report built by its execution — phases folded by
// name, rule firings in order, counters set directly — reads back whole
// from the sinks it is emitted to.
func TestRecorderLifecycle(t *testing.T) {
	agg := NewAggregator()
	r := &QueryReport{Query: "len!A", Start: time.Now()}
	sp := r.StartPhase(PhaseParse)
	sp.End()
	sp = r.StartPhase(PhaseEval)
	sp.End()
	sp = r.StartPhase(PhaseEval) // readval compiles+evals twice; spans fold
	sp.End()
	r.RuleFired("normalize", "beta^p", 7, 3)
	r.RuleFired("motion", "delta^p", 5, 4)
	r.NodesBefore, r.NodesAfter = 12, 8
	r.Eval = r.Eval.Add(EvalCounters{Steps: 10, Cells: 4, Tabulations: 1})
	r.Eval = r.Eval.Add(EvalCounters{Steps: 2})
	r.IO.Add(IOCounters{SlabReads: 1, BytesRead: 800})
	r.Wall, r.Err = time.Since(r.Start), "boom"
	agg.Emit(r)
	if len(r.Rules) != 2 || r.Rules[0].Rule != "beta^p" || r.Rules[1].Phase != "motion" {
		t.Fatalf("rules = %+v", r.Rules)
	}
	var evalPhase PhaseTime
	for _, p := range r.Phases {
		if p.Name == PhaseEval {
			evalPhase = p
		}
	}
	if evalPhase.Count != 2 {
		t.Fatalf("eval phase folded %d spans, want 2", evalPhase.Count)
	}
	if len(r.Phases) != 2 || r.Phases[0].Name != PhaseParse {
		t.Fatalf("phases = %+v, want parse then eval", r.Phases)
	}
	tot := agg.Snapshot().Totals
	if tot.Queries != 1 || tot.Errors != 1 || tot.RuleFirings != 2 || tot.Eval.Steps != 12 || tot.IO.BytesRead != 800 {
		t.Fatalf("totals = %+v", tot)
	}
	// Mutating a snapshot's totals must not affect the aggregator.
	tot.PhaseWall[PhaseEval] = 0
	if agg.Snapshot().Totals.PhaseWall[PhaseEval] == 0 && r.Phase(PhaseEval) > 0 {
		t.Fatal("Snapshot returned the live phase map")
	}
}

func TestRuleFiringCap(t *testing.T) {
	agg := NewAggregator()
	r := &QueryReport{Query: "q"}
	for i := 0; i < maxRuleFirings+10; i++ {
		r.RuleFired("normalize", "beta^p", 2, 1)
	}
	agg.Emit(r)
	if len(r.Rules) != maxRuleFirings {
		t.Fatalf("kept %d firings, want %d", len(r.Rules), maxRuleFirings)
	}
	if r.RulesDropped != 10 {
		t.Fatalf("RulesDropped = %d, want 10", r.RulesDropped)
	}
	if tot := agg.Snapshot().Totals; tot.RuleFirings != int64(maxRuleFirings+10) {
		t.Fatalf("totals count %d firings, want %d", tot.RuleFirings, maxRuleFirings+10)
	}
}

// TestRecentRing: the flight recorder is the one ring of finished reports,
// oldest first.
func TestRecentRing(t *testing.T) {
	f := NewFlightRecorder(0)
	for i := 0; i < DefaultFlightCap+5; i++ {
		f.Emit(&QueryReport{Query: fmt.Sprintf("q%d", i)})
	}
	recent := f.Reports()
	if len(recent) != DefaultFlightCap {
		t.Fatalf("ring holds %d, want %d", len(recent), DefaultFlightCap)
	}
	last := fmt.Sprintf("q%d", DefaultFlightCap+4)
	if recent[0].Query != "q5" || recent[DefaultFlightCap-1].Query != last {
		t.Fatalf("ring order wrong: first=%s last=%s", recent[0].Query, recent[DefaultFlightCap-1].Query)
	}
}

func TestJSONSink(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONSink(&buf)
	sink.Emit(&QueryReport{Query: "gen!3", Eval: EvalCounters{Steps: 4}})
	sink.Emit(&QueryReport{Query: "gen!4", Err: "nope"})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("emitted %d lines, want 2", len(lines))
	}
	var rep QueryReport
	if err := json.Unmarshal([]byte(lines[0]), &rep); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if rep.Query != "gen!3" || rep.Eval.Steps != 4 {
		t.Fatalf("decoded report = %+v", rep)
	}
	if !strings.Contains(lines[1], `"err":"nope"`) {
		t.Fatalf("error line missing err field: %s", lines[1])
	}
}

func TestSlogSink(t *testing.T) {
	var buf bytes.Buffer
	l := slog.New(slog.NewTextHandler(&buf, nil))
	sink := NewSlogSink(l)
	sink.Emit(&QueryReport{Query: "gen!3", Eval: EvalCounters{Steps: 4}})
	sink.Emit(&QueryReport{Query: "bad", Err: "boom"})
	out := buf.String()
	if !strings.Contains(out, "query=gen!3") || !strings.Contains(out, "steps=4") {
		t.Fatalf("slog output missing fields:\n%s", out)
	}
	if !strings.Contains(out, "level=ERROR") || !strings.Contains(out, "err=boom") {
		t.Fatalf("failed query not logged at error level:\n%s", out)
	}
}

func TestHandler(t *testing.T) {
	agg, flight := NewAggregator(), NewFlightRecorder(0)
	r := &QueryReport{Query: "len!A", Eval: EvalCounters{Steps: 3}}
	r.RuleFired("normalize", "beta^p", 2, 1)
	agg.Emit(r)
	flight.Emit(r)

	srv := httptest.NewServer(NewHandler(agg, flight))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET = %d", resp.StatusCode)
	}
	var payload struct {
		Totals Totals `json:"totals"`
		Recent []struct {
			Query       string `json:"query"`
			RuleFirings int    `json:"rule_firings"`
		} `json:"recent"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if payload.Totals.Queries != 1 || payload.Totals.Eval.Steps != 3 {
		t.Fatalf("totals = %+v", payload.Totals)
	}
	if len(payload.Recent) != 1 || payload.Recent[0].Query != "len!A" || payload.Recent[0].RuleFirings != 1 {
		t.Fatalf("recent = %+v", payload.Recent)
	}

	post, err := srv.Client().Post(srv.URL, "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != 405 {
		t.Fatalf("POST = %d, want 405", post.StatusCode)
	}
}

func TestFormatProfile(t *testing.T) {
	rep := &QueryReport{
		Query: "len!A",
		Wall:  10 * time.Millisecond,
		Phases: []PhaseTime{
			{Name: PhaseParse, Wall: time.Millisecond, Count: 1},
			{Name: PhaseEval, Wall: 8 * time.Millisecond, Count: 1},
		},
		Eval:        EvalCounters{Steps: 42, Cells: 7, Tabulations: 1},
		IO:          IOCounters{SlabReads: 2, BytesRead: 1600},
		NodesBefore: 9,
		NodesAfter:  5,
	}
	out := rep.FormatProfile()
	for _, want := range []string{"profile of len!A", "parse", "eval", "steps", "42", "slab reads", "1600", "AST 9 -> 5 nodes"} {
		if !strings.Contains(out, want) {
			t.Errorf("profile missing %q:\n%s", want, out)
		}
	}
}

func TestFormatRules(t *testing.T) {
	rep := &QueryReport{
		Rules: []RuleFiring{
			{Phase: "normalize", Rule: "beta^p", NodesBefore: 7, NodesAfter: 3},
			{Phase: "normalize", Rule: "beta^p", NodesBefore: 3, NodesAfter: 2},
			{Phase: "motion", Rule: "delta^p", NodesBefore: 4, NodesAfter: 4},
		},
		NodesBefore: 12, NodesAfter: 6,
	}
	out := rep.FormatRules()
	for _, want := range []string{"rule firings (3)", "[normalize] beta^p", "[motion] delta^p", "totals by rule", "7 -> 3 nodes"} {
		if !strings.Contains(out, want) {
			t.Errorf("rules missing %q:\n%s", want, out)
		}
	}
	empty := (&QueryReport{}).FormatRules()
	if !strings.Contains(empty, "no optimizer rules fired") {
		t.Errorf("empty trace rendered as %q", empty)
	}
}

// TestFormatFleetCounters: :stats prints the fleet's evaluator, rule and
// I/O counter lines beside its histogram.
func TestFormatFleetCounters(t *testing.T) {
	s := AggregateSnapshot{Totals: Totals{
		Queries: 3, Errors: 1, RuleFirings: 7,
		Eval: EvalCounters{Steps: 99, Cells: 12, Tabulations: 2, SetOps: 5, Iterations: 40},
		IO:   IOCounters{SlabReads: 4, BytesRead: 4096, Retries: 1},
	}}
	out := s.FormatFleet()
	for _, line := range []string{
		"fleet over 3 queries (1 errors), wall 0s",
		"  steps                     99",
		"  cells                     12",
		"  tabulations                2",
		"  set ops                    5",
		"  iterations                40",
		"  rule firings               7",
		"  slab reads                 4",
		"  bytes read              4096",
		"  retries                    1",
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("fleet rendering missing %q:\n%s", line, out)
		}
	}
	if strings.Contains((AggregateSnapshot{Totals: Totals{Queries: 1}}).FormatFleet(), "slab reads") {
		t.Error("I/O lines printed for a fleet that did no I/O")
	}
}
