package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestParseTraceparent(t *testing.T) {
	tc, ok := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if !ok {
		t.Fatal("valid traceparent rejected")
	}
	if tc.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" || tc.ParentSpanID != "00f067aa0ba902b7" || !tc.Sampled {
		t.Fatalf("parsed = %+v", tc)
	}
	if tc2, ok := ParseTraceparent("00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-00"); !ok {
		t.Fatal("uppercase traceparent rejected")
	} else if tc2.TraceID != tc.TraceID || tc2.Sampled {
		t.Fatalf("uppercase parse = %+v", tc2)
	}
	// Future versions parse forward-compatibly (extra fields allowed).
	if _, ok := ParseTraceparent("01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra"); !ok {
		t.Fatal("future-version traceparent rejected")
	}
	bad := []string{
		"",
		"00-short-00f067aa0ba902b7-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",       // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",       // zero span id
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",       // version ff forbidden
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",          // missing flags
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra", // v00 takes exactly 4 fields
		"00-zzf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",       // non-hex
	}
	for _, h := range bad {
		if _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted", h)
		}
	}
}

func TestTraceContextRoundTrip(t *testing.T) {
	tc := NewTraceContext()
	if len(tc.TraceID) != 32 || len(tc.ParentSpanID) != 16 || !tc.Sampled {
		t.Fatalf("minted context = %+v", tc)
	}
	back, ok := ParseTraceparent(tc.Traceparent())
	if !ok || back != tc {
		t.Fatalf("round trip: %+v -> %q -> %+v", tc, tc.Traceparent(), back)
	}
	child := tc.Child("00f067aa0ba902b7")
	if child.TraceID != tc.TraceID || child.ParentSpanID != "00f067aa0ba902b7" {
		t.Fatalf("child = %+v", child)
	}
}

func TestSanitizeRequestID(t *testing.T) {
	cases := []struct{ in, want string }{
		{"req-42", "req-42"},
		{"a b\nc", "abc"},
		{"x;rm -rf /;y", "xrm-rfy"},
		{"trace:load.test_1", "trace:load.test_1"},
		{"\x00\x1b[31m", "31m"},
		{"", ""},
		{strings.Repeat("a", 100), strings.Repeat("a", 64)},
	}
	for _, c := range cases {
		if got := SanitizeRequestID(c.in); got != c.want {
			t.Errorf("SanitizeRequestID(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// stitchedFixture builds a well-formed two-attempt stitched tree (one lost
// dispatch, one hedged winner carrying a worker subtree) and the flat
// counters it must sum to.
func stitchedFixture() (*SpanNode, EvalCounters) {
	planC := EvalCounters{Steps: 10, Cells: 5, Iterations: 2}
	evalC := EvalCounters{Steps: 90, Cells: 45, Tabulations: 2, Iterations: 8}
	flat := planC
	flat = flat.Add(evalC)

	eval := NewSpan(SpanEval, "http://w1", 50*time.Millisecond).SetCounters(evalC).FinalizeSelf()
	qw := NewSpan(SpanQueueWait, "http://w1", 5*time.Millisecond).FinalizeSelf()
	worker := NewSpan(SpanWorker, "http://w1", 60*time.Millisecond)
	worker.Children = []*SpanNode{qw, eval}
	worker.FinalizeSelf()

	won := NewSpan(SpanAttempt, "http://w1", 70*time.Millisecond)
	won.Outcome = "won"
	won.StartOff = 10 * time.Millisecond
	won.Children = []*SpanNode{worker}
	won.FinalizeSelf()

	lost := NewSpan(SpanAttempt, "http://w2", 10*time.Millisecond).FinalizeSelf()
	lost.Outcome = "lost"

	shard := NewSpan(SpanShard, "", 80*time.Millisecond)
	shard.Children = []*SpanNode{lost, won}
	shard.FinalizeSelf()

	plan := NewSpan(SpanPlan, "coordinator", 10*time.Millisecond).SetCounters(planC).FinalizeSelf()
	root := NewSpan(SpanScatter, "coordinator", 100*time.Millisecond)
	root.Children = []*SpanNode{plan, shard}
	root.FinalizeSelf()
	return root, flat
}

func TestCheckStitchedAccepts(t *testing.T) {
	root, flat := stitchedFixture()
	if err := CheckStitched(root, flat); err != nil {
		t.Fatalf("well-formed tree rejected: %v", err)
	}
}

func TestCheckStitchedRejects(t *testing.T) {
	t.Run("nil tree", func(t *testing.T) {
		if CheckStitched(nil, EvalCounters{}) == nil {
			t.Fatal("nil tree accepted")
		}
	})
	t.Run("counter mismatch", func(t *testing.T) {
		root, flat := stitchedFixture()
		flat.Steps++
		if CheckStitched(root, flat) == nil {
			t.Fatal("skewed counters accepted")
		}
	})
	t.Run("self-time skew", func(t *testing.T) {
		root, flat := stitchedFixture()
		root.Children[1].WallSelf += time.Millisecond
		if CheckStitched(root, flat) == nil {
			t.Fatal("inconsistent self time accepted")
		}
	})
	t.Run("counters on lost attempt", func(t *testing.T) {
		root, flat := stitchedFixture()
		shard := root.Children[1]
		shard.Children[0].Steps = 3 // the lost attempt
		flat.Steps += 3             // keep the sum exact: the attempt rule must fire
		if CheckStitched(root, flat) == nil {
			t.Fatal("lost attempt with counters accepted")
		}
	})
	t.Run("two winners", func(t *testing.T) {
		root, flat := stitchedFixture()
		shard := root.Children[1]
		shard.Children[0].Outcome = "won"
		if CheckStitched(root, flat) == nil {
			t.Fatal("two winning attempts accepted")
		}
	})
	t.Run("no winner", func(t *testing.T) {
		root, _ := stitchedFixture()
		shard := root.Children[1]
		shard.Children[1].Outcome = "cancelled"
		// Strip the winner's counters so only the sum rule could save it.
		shard.Walk(func(n *SpanNode) { *n = *NewSpan(n.Op, n.Node, n.WallCum).FinalizeSelf() })
		if CheckStitched(root, EvalCounters{Steps: 10, Cells: 5, Iterations: 2}) == nil {
			t.Fatal("shard without a winner accepted")
		}
	})
	t.Run("unknown outcome", func(t *testing.T) {
		root, flat := stitchedFixture()
		root.Children[1].Children[0].Outcome = "maybe"
		if CheckStitched(root, flat) == nil {
			t.Fatal("unknown attempt outcome accepted")
		}
	})
}

func TestWriteChromeTrace(t *testing.T) {
	spans, flat := stitchedFixture()
	rep := &QueryReport{
		Query:   "[i+j | i<100, j<100]",
		ID:      "q000042",
		TraceID: "4bf92f3577b34da6a3ce929d0e0e4736",
		Start:   time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC),
		Wall:    100 * time.Millisecond,
		Phases: []PhaseTime{
			{Name: PhaseParse, Wall: time.Millisecond},
			{Name: PhaseEval, Wall: 90 * time.Millisecond},
		},
		Eval:      flat,
		QueueWait: 2 * time.Millisecond,
		Mode:      "scatter",
		ProfLevel: ProfStitched,
		Spans:     spans,
		Shards: []ShardSpan{{
			Shard: 0, Start: 0, End: 10000, Worker: "http://w1", Attempts: 2, Hedged: true,
			Wall:  80 * time.Millisecond,
			Spans: spans.Children[1],
			AttemptSpans: []AttemptSpan{
				{Attempt: 1, Worker: "http://w2", Outcome: "lost", Wall: 10 * time.Millisecond},
				{Attempt: 2, Worker: "http://w1", Outcome: "won", Hedge: true, StartOff: 10 * time.Millisecond, Wall: 70 * time.Millisecond},
			},
		}},
	}

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
		DisplayTimeUnit string         `json:"displayTimeUnit"`
		OtherData       map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	if doc.OtherData["id"] != "q000042" || doc.OtherData["trace_id"] != rep.TraceID {
		t.Fatalf("otherData ids = %v", doc.OtherData)
	}
	var complete, meta int
	names := map[string]bool{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			complete++
			if e.Dur < 0 || e.Ts < 0 {
				t.Fatalf("event %q has negative timing: ts=%v dur=%v", e.Name, e.Ts, e.Dur)
			}
		case "M":
			meta++
		default:
			t.Fatalf("unexpected phase %q on event %q", e.Ph, e.Name)
		}
		names[e.Name] = true
	}
	if complete == 0 || meta == 0 {
		t.Fatalf("events: %d complete, %d metadata", complete, meta)
	}
	for _, want := range []string{"queue_wait", PhaseParse, PhaseEval, SpanShard, "attempt (won)", "attempt (lost)", SpanWorker, SpanEval} {
		if !names[want] {
			t.Errorf("export missing %q span; have %v", want, names)
		}
	}
	if WriteChromeTrace(&buf, nil) == nil {
		t.Fatal("nil report exported")
	}
}

func TestFlightRecorderFind(t *testing.T) {
	f := NewFlightRecorder(4)
	for i := 0; i < 6; i++ {
		f.Emit(&QueryReport{Query: fmt.Sprintf("q%d", i), ID: fmt.Sprintf("id%d", i), TraceID: fmt.Sprintf("%032d", i)})
	}
	if _, ok := f.Find("id1"); ok {
		t.Fatal("evicted report found")
	}
	rep, ok := f.Find("id4")
	if !ok || rep.Query != "q4" {
		t.Fatalf("Find(id4) = %+v, %v", rep, ok)
	}
	if rep, ok = f.Find(fmt.Sprintf("%032d", 5)); !ok || rep.ID != "id5" {
		t.Fatalf("Find by trace id = %+v, %v", rep, ok)
	}
	if _, ok = f.Find("nope"); ok {
		t.Fatal("unknown id found")
	}
	if _, ok = f.Find(""); ok {
		t.Fatal("empty id found")
	}
}

func TestAcceptsOpenMetrics(t *testing.T) {
	yes := []string{
		"application/openmetrics-text",
		"application/openmetrics-text; version=1.0.0; charset=utf-8",
		"text/plain, application/openmetrics-text;q=0.9",
		"APPLICATION/OPENMETRICS-TEXT",
	}
	no := []string{"", "text/plain", "*/*", "application/json"}
	for _, a := range yes {
		if !AcceptsOpenMetrics(a) {
			t.Errorf("AcceptsOpenMetrics(%q) = false", a)
		}
	}
	for _, a := range no {
		if AcceptsOpenMetrics(a) {
			t.Errorf("AcceptsOpenMetrics(%q) = true", a)
		}
	}
}

// omSampleRe matches one OpenMetrics sample line, optionally carrying an
// exemplar: name{labels} value [# {labels} value timestamp].
var omSampleRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [^ #]+( # \{[^{}]*\} [^ ]+ [0-9]+\.[0-9]+)?$`)

// checkOpenMetrics validates exposition text against the OpenMetrics text
// grammar closely enough to catch malformed lines: HELP/TYPE pairs, sample
// lines (with optional exemplars), and a final # EOF.
func checkOpenMetrics(t *testing.T, text string) (exemplars int) {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	if len(lines) == 0 || lines[len(lines)-1] != "# EOF" {
		t.Fatalf("exposition does not end with # EOF: %q", lines[len(lines)-1])
	}
	families := map[string]string{} // name -> type
	for i, line := range lines[:len(lines)-1] {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			// # HELP <name> <docstring>
			rest := strings.TrimPrefix(line, "# HELP ")
			if name, _, ok := strings.Cut(rest, " "); !ok || name == "" {
				t.Fatalf("line %d: malformed HELP: %q", i+1, line)
			}
		case strings.HasPrefix(line, "# TYPE "):
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: malformed TYPE: %q", i+1, line)
			}
			if strings.HasSuffix(name, "_total") {
				t.Fatalf("line %d: OpenMetrics counter family keeps _total: %q", i+1, line)
			}
			families[name] = typ
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unexpected comment %q", i+1, line)
		default:
			if !omSampleRe.MatchString(line) {
				t.Fatalf("line %d: malformed sample %q", i+1, line)
			}
			if strings.Contains(line, " # {") {
				exemplars++
				name, _, _ := strings.Cut(line, "{")
				name, _, _ = strings.Cut(name, " ")
				if !strings.HasSuffix(name, "_bucket") && !strings.HasSuffix(name, "_total") {
					t.Fatalf("line %d: exemplar on non-bucket, non-counter sample %q", i+1, line)
				}
			}
		}
	}
	if len(families) == 0 {
		t.Fatal("no metric families in exposition")
	}
	return exemplars
}

func TestWriteOpenMetricsGrammar(t *testing.T) {
	agg := NewAggregator()
	traceID := "4bf92f3577b34da6a3ce929d0e0e4736"
	agg.Emit(&QueryReport{
		Query: "q", ID: "id1", TraceID: traceID,
		Start: time.Unix(1754650000, 0), Wall: 3 * time.Millisecond,
		Eval:   EvalCounters{Steps: 10, Cells: 4},
		Phases: []PhaseTime{{Name: PhaseEval, Wall: 3 * time.Millisecond}},
	})
	agg.Emit(&QueryReport{Query: "r", Start: time.Unix(1754650001, 0), Wall: time.Millisecond})

	var buf bytes.Buffer
	om := NewMetricWriter(&buf, true)
	writeFleetMetrics(om, agg.Snapshot())
	om.WriteEOF()
	if err := om.Err(); err != nil {
		t.Fatal(err)
	}
	ex := checkOpenMetrics(t, buf.String())
	if ex == 0 {
		t.Fatal("no exemplars in exposition despite a traced observation")
	}
	if !strings.Contains(buf.String(), `# {trace_id="`+traceID+`"}`) {
		t.Fatalf("exemplar does not carry the trace id:\n%s", buf.String())
	}

	// The classic rendering of the same snapshot must carry no exemplars
	// and keep _total family names.
	var classic bytes.Buffer
	cw := NewMetricWriter(&classic, false)
	writeFleetMetrics(cw, agg.Snapshot())
	cw.WriteEOF()
	if err := cw.Err(); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(classic.String(), "# {") || strings.Contains(classic.String(), "# EOF") {
		t.Fatal("classic exposition leaked OpenMetrics syntax")
	}
	if !strings.Contains(classic.String(), "# TYPE aql_queries_total counter") {
		t.Fatal("classic exposition dropped the _total family name")
	}
}

func TestExemplarHistogram(t *testing.T) {
	var h ExemplarHistogram
	h.Observe(3*time.Millisecond, "", time.Unix(1, 0))
	h.Observe(4*time.Millisecond, "aaaa", time.Unix(2, 0))
	h.Observe(time.Hour, "bbbb", time.Unix(3, 0))
	s := h.Snapshot()
	if s.Count != 3 || s.Sum != 7*time.Millisecond+time.Hour {
		t.Fatalf("snapshot = count %d sum %v", s.Count, s.Sum)
	}
	var total int64
	var withEx int
	for _, n := range s.Buckets {
		total += n
	}
	for _, ex := range s.Exemplars {
		if ex != nil {
			withEx++
		}
	}
	if total != 3 {
		t.Fatalf("bucket total = %d", total)
	}
	// The 3ms (untraced) and 4ms (traced) observations share a bucket; the
	// traced one must be its exemplar. The 1h one lands in +Inf.
	if withEx != 2 {
		t.Fatalf("exemplar count = %d, want 2", withEx)
	}
}

// TestSummaryViewGolden locks the rendered summary entry: the debug JSON
// view once dropped queue_wait_ns and the shard spans, so the fields are
// pinned by name here.
func TestSummaryViewGolden(t *testing.T) {
	rep := &QueryReport{
		Query:       "len!A",
		ID:          "q000007",
		TraceID:     "4bf92f3577b34da6a3ce929d0e0e4736",
		Wall:        5 * time.Millisecond,
		QueueWait:   2 * time.Millisecond,
		Mode:        "scatter",
		Eval:        EvalCounters{Steps: 11, Cells: 3},
		NodesBefore: 4,
		NodesAfter:  2,
		Shards: []ShardSpan{{
			Shard: 0, Start: 0, End: 8, Worker: "http://w1", Attempts: 1,
			Wall: 3 * time.Millisecond, QueueWait: time.Millisecond,
		}},
	}
	got, err := json.Marshal(summarize(rep))
	if err != nil {
		t.Fatal(err)
	}
	want := `{"query":"len!A","id":"q000007","trace_id":"4bf92f3577b34da6a3ce929d0e0e4736",` +
		`"wall_ns":5000000,"queue_wait_ns":2000000,"mode":"scatter",` +
		`"eval":{"steps":11,"cells":3,"tabulations":0,"set_ops":0,"iterations":0},` +
		`"io":{"slab_reads":0,"bytes_read":0,"retries":0,"faults":0},` +
		`"rule_firings":0,"nodes_before":4,"nodes_after":2,` +
		`"shards":[{"shard":0,"start":0,"end":8,"worker":"http://w1","attempts":1,"wall_ns":3000000,"queue_wait_ns":1000000}]}`
	if string(got) != want {
		t.Fatalf("summary entry drifted:\n got %s\nwant %s", got, want)
	}
}

func TestHandlerSummaryAndTraceEndpoints(t *testing.T) {
	flight := NewFlightRecorder(8)
	agg := NewAggregator()
	rep := &QueryReport{Query: "len!A", ID: "q000001", TraceID: "4bf92f3577b34da6a3ce929d0e0e4736",
		Start: time.Now(), QueueWait: 2 * time.Millisecond, Mode: "scatter",
		Shards: []ShardSpan{{Shard: 0, End: 8, Worker: "local", Attempts: 1, Wall: time.Millisecond}},
		Eval:   EvalCounters{Steps: 5}}
	flight.Emit(rep)
	agg.Emit(rep)

	h := NewHandler(agg, flight)

	// The summary view carries ids, queue wait, mode and shard spans.
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/", nil))
	var payload struct {
		Recent []map[string]any `json:"recent"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &payload); err != nil || len(payload.Recent) != 1 {
		t.Fatalf("summary decode: %v (%d entries)", err, len(payload.Recent))
	}
	entry := payload.Recent[0]
	for _, key := range []string{"id", "trace_id", "queue_wait_ns", "mode", "shards"} {
		if _, ok := entry[key]; !ok {
			t.Errorf("summary entry missing %q: %v", key, entry)
		}
	}

	// /debug/trace/{id} serves the report by request id and by trace id.
	for _, id := range []string{"q000001", "4bf92f3577b34da6a3ce929d0e0e4736"} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", "/debug/trace/"+id, nil))
		if w.Code != 200 {
			t.Fatalf("GET /debug/trace/%s = %d", id, w.Code)
		}
		var doc map[string]any
		if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
			t.Fatalf("trace export not JSON: %v", err)
		}
		if _, ok := doc["traceEvents"]; !ok {
			t.Fatal("trace export missing traceEvents")
		}
	}
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/debug/trace/unknown", nil))
	if w.Code != 404 {
		t.Fatalf("GET /debug/trace/unknown = %d, want 404", w.Code)
	}

	// /metrics negotiates OpenMetrics via Accept.
	w = httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text")
	h.ServeHTTP(w, req)
	if ct := w.Header().Get("Content-Type"); ct != OpenMetricsContentType {
		t.Fatalf("negotiated Content-Type = %q", ct)
	}
	checkOpenMetrics(t, w.Body.String())
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	if ct := w.Header().Get("Content-Type"); ct != PrometheusContentType {
		t.Fatalf("default Content-Type = %q", ct)
	}
}
