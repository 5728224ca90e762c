package trace

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCardJSONRoundTrip(t *testing.T) {
	cases := []struct {
		in   Card
		want string
	}{
		{KnownCard(0), `0`},
		{KnownCard(42), `42`},
		{UnknownCard(), `"unknown"`},
	}
	for _, c := range cases {
		b, err := json.Marshal(c.in)
		if err != nil {
			t.Fatalf("marshal %v: %v", c.in, err)
		}
		if string(b) != c.want {
			t.Errorf("marshal %v = %s, want %s", c.in, b, c.want)
		}
		var back Card
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if back != c.in {
			t.Errorf("round trip %v -> %v", c.in, back)
		}
	}
	var bad Card
	if err := json.Unmarshal([]byte(`"lots"`), &bad); err == nil {
		t.Error("unmarshal of a non-marker string succeeded")
	}
}

func TestCardArithmetic(t *testing.T) {
	if got := AddCard(KnownCard(2), KnownCard(3)); got != KnownCard(5) {
		t.Errorf("2+3 = %v", got)
	}
	if got := AddCard(KnownCard(2), UnknownCard()); got.Known {
		t.Errorf("2+? = %v, want unknown", got)
	}
	if got := AddCard(KnownCard(mathMaxInt64), KnownCard(1)); got.Known {
		t.Errorf("overflow add = %v, want unknown", got)
	}
	if got := MulCard(KnownCard(4), KnownCard(5)); got != KnownCard(20) {
		t.Errorf("4*5 = %v", got)
	}
	if got := MulCard(KnownCard(4), UnknownCard()); got.Known {
		t.Errorf("4*? = %v, want unknown", got)
	}
	// Zero invocations charge zero work no matter what one invocation
	// would have cost.
	if got := MulCard(KnownCard(0), UnknownCard()); got != KnownCard(0) {
		t.Errorf("0*? = %v, want known 0", got)
	}
	if got := MulCard(UnknownCard(), KnownCard(0)); got != KnownCard(0) {
		t.Errorf("?*0 = %v, want known 0", got)
	}
	if got := MulCard(KnownCard(mathMaxInt64), KnownCard(2)); got.Known {
		t.Errorf("overflow mul = %v, want unknown", got)
	}
}

func TestQError(t *testing.T) {
	cases := []struct {
		est, act int64
		want     float64
	}{
		{10, 10, 1},
		{20, 10, 2},
		{10, 20, 2},
		{0, 0, 1}, // both clamp to 1
		{0, 5, 5}, // zero estimate clamps, not divides
		{5, 0, 5}, // zero actual likewise
		{1, 1, 1},
	}
	for _, c := range cases {
		if got := QError(c.est, c.act); got != c.want {
			t.Errorf("QError(%d, %d) = %v, want %v", c.est, c.act, got, c.want)
		}
	}
}

// estFixture builds the estimate rows of a two-level plan and the matching
// full-profile span tree whose actuals agree exactly on the first child and
// disagree 4x on the second.
func estFixture() (*Estimates, *SpanNode) {
	est := &Estimates{Rows: []EstNode{
		{Op: "array_tab", Card: KnownCard(100), Cells: KnownCard(100), Cost: KnownCard(1)},
		{Op: "arith", Depth: 1, Card: KnownCard(1), Cells: KnownCard(0), Cost: KnownCard(100)},
		{Op: "index", Depth: 1, Card: UnknownCard(), Cells: KnownCard(25), Cost: KnownCard(100)},
	}}
	spans := &SpanNode{
		Op: "array_tab", Invocations: 1, Cells: 100, Steps: 1,
		Children: []*SpanNode{
			{Op: "arith", Invocations: 100, Cells: 0, Steps: 100},
			{Op: "index", Invocations: 100, Cells: 100, Steps: 100},
		},
	}
	return est, spans
}

func TestJoinEstimatesOperatorMode(t *testing.T) {
	est, spans := estFixture()
	rep := &QueryReport{Spans: spans, ProfLevel: ProfFull}
	tab := JoinEstimates(est, rep, 2.0)
	if tab.Mode != "operator" {
		t.Fatalf("mode = %q, want operator", tab.Mode)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tab.Rows))
	}
	root, arith, index := tab.Rows[0], tab.Rows[1], tab.Rows[2]
	if root.QError != 1 || root.Flagged {
		t.Errorf("exact root row scored %v flagged=%v", root.QError, root.Flagged)
	}
	if arith.Path != "array_tab/arith" || arith.Depth != 1 {
		t.Errorf("arith row path=%q depth=%d", arith.Path, arith.Depth)
	}
	if arith.QError != 1 || arith.Flagged {
		t.Errorf("exact arith row scored %v flagged=%v", arith.QError, arith.Flagged)
	}
	// est cells 25 vs act 100: q-error 4, above the threshold of 2.
	if index.QError != 4 || !index.Flagged {
		t.Errorf("index row q=%v flagged=%v, want 4 flagged", index.QError, index.Flagged)
	}
	if tab.Misestimates != 1 || tab.WorstQError != 4 || tab.WorstOp != "array_tab/index" {
		t.Errorf("summary = %d worst %v at %q", tab.Misestimates, tab.WorstQError, tab.WorstOp)
	}
}

func TestJoinEstimatesRootMode(t *testing.T) {
	est, spans := estFixture()
	// Sampled profile: the join must degrade to a single row of totals
	// rather than trusting sampled self counters.
	rep := &QueryReport{
		Spans:     spans,
		ProfLevel: "sampled",
		Eval:      EvalCounters{Steps: 201, Cells: 125},
	}
	tab := JoinEstimates(est, rep, 0) // 0 selects the default threshold
	if tab.Mode != "root" {
		t.Fatalf("mode = %q, want root", tab.Mode)
	}
	if tab.Threshold != DefaultQErrorThreshold {
		t.Fatalf("threshold = %v, want default", tab.Threshold)
	}
	if len(tab.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(tab.Rows))
	}
	row := tab.Rows[0]
	if row.EstCells != KnownCard(125) {
		t.Errorf("est cells total = %v, want 125", row.EstCells)
	}
	if row.EstCost != KnownCard(201) {
		t.Errorf("est cost total = %v, want 201", row.EstCost)
	}
	if row.QError != 1 || row.Flagged {
		t.Errorf("exact totals scored q=%v flagged=%v", row.QError, row.Flagged)
	}

	// Estimates of a different plan (a span missing, an operator or a
	// depth that differs from its row's) must also fall back to root mode,
	// not mis-attribute rows.
	for name, change := range map[string]func(*Estimates, *SpanNode){
		"span count": func(_ *Estimates, s *SpanNode) { s.Children = s.Children[:1] },
		"operator":   func(e *Estimates, _ *SpanNode) { e.Rows[2].Op = "arith" },
		"depth": func(_ *Estimates, s *SpanNode) {
			s.Children[0].Children, s.Children = s.Children[1:], s.Children[:1]
		},
	} {
		est2, spans2 := estFixture()
		change(est2, spans2)
		rep2 := &QueryReport{Spans: spans2, ProfLevel: ProfFull, Eval: EvalCounters{Steps: 201, Cells: 125}}
		if tab := JoinEstimates(est2, rep2, 0); tab.Mode != "root" || len(tab.Rows) != 1 || tab.Misestimates != 0 {
			t.Errorf("%s mismatch joined in mode %q with %d rows, %d misestimates; want root, 1, 0",
				name, tab.Mode, len(tab.Rows), tab.Misestimates)
		}
	}
}

func TestJoinEstimatesUnknownNeverScores(t *testing.T) {
	est := &Estimates{Rows: []EstNode{{Op: "app", Card: UnknownCard(), Cells: UnknownCard(), Cost: UnknownCard()}}}
	spans := &SpanNode{Op: "app", Invocations: 7, Cells: 9999, Steps: 12345}
	rep := &QueryReport{Spans: spans, ProfLevel: ProfFull}
	tab := JoinEstimates(est, rep, 2.0)
	row := tab.Rows[0]
	if row.QError != 0 || row.Flagged {
		t.Errorf("all-unknown row scored q=%v flagged=%v, want 0 unflagged", row.QError, row.Flagged)
	}
	if tab.Misestimates != 0 || tab.WorstQError != 0 {
		t.Errorf("all-unknown table summary = %d worst %v", tab.Misestimates, tab.WorstQError)
	}
}

func TestJoinEstimatesShardActuals(t *testing.T) {
	est, spans := estFixture()
	mkShard := func(shard int, worker string, steps, cells int64) ShardSpan {
		sh := NewSpan(SpanShard, "", time.Millisecond)
		att := NewSpan(SpanAttempt, worker, time.Millisecond)
		att.Outcome = "won"
		att.SetCounters(EvalCounters{Steps: steps, Cells: cells})
		sh.Children = []*SpanNode{att}
		return ShardSpan{Shard: shard, Worker: worker, Spans: sh}
	}
	rep := &QueryReport{
		Spans: spans, ProfLevel: ProfFull,
		Shards: []ShardSpan{
			mkShard(0, "http://w1", 50, 60),
			mkShard(1, "http://w2", 70, 40),
		},
	}
	tab := JoinEstimates(est, rep, 2.0)
	if len(tab.Shards) != 2 {
		t.Fatalf("shard rows = %d, want 2", len(tab.Shards))
	}
	if tab.Shards[0] != (ShardActuals{Shard: 0, Worker: "http://w1", Cells: 60, Steps: 50}) {
		t.Errorf("shard 0 actuals = %+v", tab.Shards[0])
	}
	if tab.Shards[1] != (ShardActuals{Shard: 1, Worker: "http://w2", Cells: 40, Steps: 70}) {
		t.Errorf("shard 1 actuals = %+v", tab.Shards[1])
	}
}

func TestExplainTableFormat(t *testing.T) {
	est, spans := estFixture()
	rep := &QueryReport{Spans: spans, ProfLevel: ProfFull,
		Shards: []ShardSpan{{Shard: 0, Worker: "local"}}}
	out := JoinEstimates(est, rep, 2.0).Format()
	for _, want := range []string{
		"mode=operator", "est cells", "act steps",
		"array_tab", "  index", // depth-indented child
		"?",  // the unknown card marker
		" !", // the misestimate flag
		"shard 0", "misestimates: 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q:\n%s", want, out)
		}
	}
	var nilTab *ExplainTable
	if !strings.Contains(nilTab.Format(), "unavailable") {
		t.Error("nil table Format did not degrade gracefully")
	}
}

func TestExplainTableJSONRoundTrip(t *testing.T) {
	est, spans := estFixture()
	rep := &QueryReport{Spans: spans, ProfLevel: ProfFull}
	tab := JoinEstimates(est, rep, 2.0)
	b, err := json.Marshal(tab)
	if err != nil {
		t.Fatal(err)
	}
	var back ExplainTable
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(back.Rows) != len(tab.Rows) {
		t.Fatalf("rows = %d, want %d", len(back.Rows), len(tab.Rows))
	}
	for i := range tab.Rows {
		if back.Rows[i] != tab.Rows[i] {
			t.Errorf("row %d: %+v != %+v", i, back.Rows[i], tab.Rows[i])
		}
	}
}

// TestJoinExplainConcurrent hammers the estimate joiner while concurrent
// readers drain the flight recorder the reports land in — the CI -race run
// for the joiner. Each report is joined by the goroutine building it before
// it is emitted, the ring copies it at Emit, and the joined table is
// immutable once recorded, so readers must never observe a torn table.
func TestJoinExplainConcurrent(t *testing.T) {
	flight := NewFlightRecorder(16)
	est, _ := estFixture()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, rep := range flight.Reports() {
					if rep.Explain == nil {
						continue
					}
					for _, row := range rep.Explain.Rows {
						_ = row.QError
						_ = row.EstCells.String()
					}
				}
			}
		}()
	}
	for i := 0; i < 500; i++ {
		_, spans := estFixture()
		rep := &QueryReport{Query: "concurrent-join", ID: "cj", Spans: spans, ProfLevel: ProfFull,
			Eval: EvalCounters{Steps: 201, Cells: 125}}
		if rep.Explain = JoinEstimates(est, rep, 2.0); rep.Explain == nil {
			t.Fatal("joined report lost")
		}
		flight.Emit(rep)
	}
	close(stop)
	wg.Wait()
}
