package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Begin("q")
	r.SetEnabled(true)
	r.SetSink(nil)
	sp := r.StartPhase(PhaseParse)
	sp.End()
	r.RuleFired("normalize", "beta", 3, 1)
	r.RecordNodes(3, 1)
	r.RecordEval(EvalCounters{Steps: 1})
	r.RecordIO(IOCounters{SlabReads: 1})
	if rep := r.End(nil); rep != nil {
		t.Fatalf("nil recorder End = %v, want nil", rep)
	}
	if r.Enabled() || r.Active() {
		t.Fatal("nil recorder reports enabled/active")
	}
	if r.Last() != nil {
		t.Fatal("nil recorder retains reports")
	}
}

func TestDisabledRecorderRecordsNothing(t *testing.T) {
	agg := NewAggregator()
	r := NewRecorder(agg)
	r.SetEnabled(false)
	r.Begin("q")
	if r.Active() {
		t.Fatal("disabled recorder opened a report")
	}
	r.RecordEval(EvalCounters{Steps: 5})
	if rep := r.End(nil); rep != nil {
		t.Fatalf("disabled End = %+v, want nil", rep)
	}
	if tot := agg.Snapshot().Totals; tot.Queries != 0 || r.Last() != nil {
		t.Fatalf("disabled recorder emitted a report: %+v", tot)
	}
}

func TestRecorderLifecycle(t *testing.T) {
	agg := NewAggregator()
	r := NewRecorder(agg)
	r.Begin("len!A")
	if !r.Active() {
		t.Fatal("no open report after Begin")
	}
	sp := r.StartPhase(PhaseParse)
	sp.End()
	sp = r.StartPhase(PhaseEval)
	sp.End()
	sp = r.StartPhase(PhaseEval) // readval compiles+evals twice; spans fold
	sp.End()
	r.RuleFired("normalize", "beta^p", 7, 3)
	r.RuleFired("motion", "delta^p", 5, 4)
	r.RecordNodes(12, 8)
	r.RecordEval(EvalCounters{Steps: 10, Cells: 4, Tabulations: 1})
	r.RecordEval(EvalCounters{Steps: 2})
	r.RecordIO(IOCounters{SlabReads: 1, BytesRead: 800})
	rep := r.End(errors.New("boom"))
	if rep == nil {
		t.Fatal("End returned nil for an open report")
	}
	if rep.Query != "len!A" || rep.Err != "boom" {
		t.Fatalf("report header = %q / %q", rep.Query, rep.Err)
	}
	if rep.Eval.Steps != 12 || rep.Eval.Cells != 4 || rep.Eval.Tabulations != 1 {
		t.Fatalf("eval counters = %+v", rep.Eval)
	}
	if rep.IO.SlabReads != 1 || rep.IO.BytesRead != 800 {
		t.Fatalf("io counters = %+v", rep.IO)
	}
	if len(rep.Rules) != 2 || rep.Rules[0].Rule != "beta^p" || rep.Rules[1].Phase != "motion" {
		t.Fatalf("rules = %+v", rep.Rules)
	}
	if rep.NodesBefore != 12 || rep.NodesAfter != 8 {
		t.Fatalf("nodes = %d -> %d", rep.NodesBefore, rep.NodesAfter)
	}
	var evalPhase PhaseTime
	for _, p := range rep.Phases {
		if p.Name == PhaseEval {
			evalPhase = p
		}
	}
	if evalPhase.Count != 2 {
		t.Fatalf("eval phase folded %d spans, want 2", evalPhase.Count)
	}
	if r.Active() {
		t.Fatal("report still open after End")
	}
	if r.Last() != rep {
		t.Fatal("Last != finished report")
	}
	tot := agg.Snapshot().Totals
	if tot.Queries != 1 || tot.Errors != 1 || tot.RuleFirings != 2 || tot.Eval.Steps != 12 {
		t.Fatalf("totals = %+v", tot)
	}
	// Mutating a snapshot's totals must not affect the aggregator.
	tot.PhaseWall[PhaseEval] = 0
	if agg.Snapshot().Totals.PhaseWall[PhaseEval] == 0 && rep.Phase(PhaseEval) > 0 {
		t.Fatal("Snapshot returned the live phase map")
	}
}

func TestEndWithoutBegin(t *testing.T) {
	agg := NewAggregator()
	r := NewRecorder(agg)
	if rep := r.End(nil); rep != nil {
		t.Fatalf("End without Begin = %+v", rep)
	}
	if tot := agg.Snapshot().Totals; tot.Queries != 0 {
		t.Fatalf("phantom query in totals: %+v", tot)
	}
}

func TestRuleFiringCap(t *testing.T) {
	agg := NewAggregator()
	r := NewRecorder(agg)
	r.Begin("q")
	for i := 0; i < maxRuleFirings+10; i++ {
		r.RuleFired("normalize", "beta^p", 2, 1)
	}
	rep := r.End(nil)
	if len(rep.Rules) != maxRuleFirings {
		t.Fatalf("kept %d firings, want %d", len(rep.Rules), maxRuleFirings)
	}
	if rep.RulesDropped != 10 {
		t.Fatalf("RulesDropped = %d, want 10", rep.RulesDropped)
	}
	if tot := agg.Snapshot().Totals; tot.RuleFirings != int64(maxRuleFirings+10) {
		t.Fatalf("totals count %d firings, want %d", tot.RuleFirings, maxRuleFirings+10)
	}
}

// TestRecentRing: the recent reports a recorder finishes are kept by its
// flight-recorder sink, the one ring of finished reports, oldest first.
func TestRecentRing(t *testing.T) {
	f := NewFlightRecorder(0)
	r := NewRecorder(f)
	for i := 0; i < DefaultFlightCap+5; i++ {
		r.Begin(fmt.Sprintf("q%d", i))
		r.End(nil)
	}
	recent := f.Reports()
	if len(recent) != DefaultFlightCap {
		t.Fatalf("ring holds %d, want %d", len(recent), DefaultFlightCap)
	}
	last := fmt.Sprintf("q%d", DefaultFlightCap+4)
	if recent[0].Query != "q5" || recent[DefaultFlightCap-1].Query != last {
		t.Fatalf("ring order wrong: first=%s last=%s", recent[0].Query, recent[DefaultFlightCap-1].Query)
	}
	if r.Last() == nil || r.Last().Query != last {
		t.Fatalf("Last = %+v, want %s", r.Last(), last)
	}
}

func TestJSONSink(t *testing.T) {
	var buf bytes.Buffer
	r := NewRecorder(NewJSONSink(&buf))
	r.Begin("gen!3")
	r.RecordEval(EvalCounters{Steps: 4})
	r.End(nil)
	r.Begin("gen!4")
	r.End(errors.New("nope"))
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
	r := NewRecorder(NewSlogSink(l))
	r.Begin("gen!3")
	r.RecordEval(EvalCounters{Steps: 4})
	r.End(nil)
	r.Begin("bad")
	r.End(errors.New("boom"))
	out := buf.String()
	if !strings.Contains(out, "query=gen!3") || !strings.Contains(out, "steps=4") {
		t.Fatalf("slog output missing fields:\n%s", out)
	}
	if !strings.Contains(out, "level=ERROR") || !strings.Contains(out, "err=boom") {
		t.Fatalf("failed query not logged at error level:\n%s", out)
	}
}

func TestMultiSink(t *testing.T) {
	var a, b bytes.Buffer
	sink := MultiSink{NewJSONSink(&a), nil, NewJSONSink(&b)}
	r := NewRecorder(sink)
	r.Begin("q")
	r.End(nil)
	if a.Len() == 0 || b.Len() == 0 {
		t.Fatal("MultiSink did not fan out")
	}
}

func TestHandler(t *testing.T) {
	agg, flight := NewAggregator(), NewFlightRecorder(0)
	r := NewRecorder(MultiSink{agg, flight})
	r.Begin("len!A")
	r.RecordEval(EvalCounters{Steps: 3})
	r.RuleFired("normalize", "beta^p", 2, 1)
	r.End(nil)

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
