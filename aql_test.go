package aql

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/opt"
	"github.com/aqldb/aql/internal/repl"
	"github.com/aqldb/aql/internal/server"
	"github.com/aqldb/aql/internal/trace"
)

func newSession(t *testing.T) *Session {
	t.Helper()
	s, err := NewSession()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestQuickstart(t *testing.T) {
	s := newSession(t)
	v, typ, err := s.Query(`{d | \d <- gen!30, d % 7 = 0}`)
	if err != nil {
		t.Fatal(err)
	}
	if typ.String() != "{nat}" {
		t.Errorf("type = %s", typ)
	}
	want := SetOf(Nat(0), Nat(7), Nat(14), Nat(21), Nat(28))
	if !Equal(v, want) {
		t.Errorf("value = %s, want %s", v, want)
	}
}

func TestRegisterPrimitive(t *testing.T) {
	s := newSession(t)
	err := s.RegisterPrimitive("triple", "nat -> nat", func(v Value) (Value, error) {
		return Nat(v.N * 3), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := s.Query("triple!14")
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(v, Nat(42)) {
		t.Errorf("triple!14 = %s", v)
	}
	// Bad type syntax is rejected.
	if err := s.RegisterPrimitive("bad", "nat ->", nil); err == nil {
		t.Error("bad type should be rejected")
	}
	// Non-function types are rejected.
	if err := s.RegisterPrimitive("bad", "nat", nil); err == nil {
		t.Error("non-function type should be rejected")
	}
}

func TestSetValAndVal(t *testing.T) {
	s := newSession(t)
	if err := s.SetVal("A", VectorOf(Nat(5), Nat(6))); err != nil {
		t.Fatal(err)
	}
	v, _, err := s.Query("A[1] + A[0]")
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(v, Nat(11)) {
		t.Errorf("got %s", v)
	}
	if _, ok := s.Val("A"); !ok {
		t.Error("Val(A) not found")
	}
	// `it` is bound after Exec queries.
	if _, err := s.Exec("1 + 1;"); err != nil {
		t.Fatal(err)
	}
	if it, ok := s.Val("it"); !ok || !Equal(it, Nat(2)) {
		t.Errorf("it = %v, %v", it, ok)
	}
}

func TestOptimizerToggleAndStats(t *testing.T) {
	s := newSession(t)
	// A query that the optimizer collapses: subscripting a tabulation.
	src := `[[ i * i | \i < 1000 ]][7]`
	if _, _, err := s.Query(src); err != nil {
		t.Fatal(err)
	}
	optimizedSteps := s.LastSteps()
	s.SetOptimizerEnabled(false)
	if _, _, err := s.Query(src); err != nil {
		t.Fatal(err)
	}
	naiveSteps := s.LastSteps()
	if optimizedSteps*10 > naiveSteps {
		t.Errorf("optimizer saved too little: %d vs %d steps", optimizedSteps, naiveSteps)
	}
	if s.OptimizerStats()["beta-p"] == 0 {
		t.Error("beta-p should have fired")
	}
}

func TestCompileOptimizeEval(t *testing.T) {
	s := newSession(t)
	e, typ, err := s.Compile(`transpose![[2, 2; 1, 2, 3, 4]]`)
	if err != nil {
		t.Fatal(err)
	}
	if typ.String() != "[[nat]]_2" {
		t.Errorf("type = %s", typ)
	}
	v, err := s.Eval(s.Optimize(e))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ArrayOf([]int{2, 2}, []Value{Nat(1), Nat(3), Nat(2), Nat(4)})
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(v, want) {
		t.Errorf("got %s, want %s", v, want)
	}
}

func TestAddRule(t *testing.T) {
	s := newSession(t)
	s.AddRule("normalize", Rule{
		Name: "user-rule",
		Apply: func(e Expr) (Expr, bool) {
			return e, false
		},
	})
	if _, _, err := s.Query("1 + 1"); err != nil {
		t.Fatal(err)
	}
}

// TestAddRuleReachesStmt: a rule added after Prepare applies from the
// statement's next Exec on, which re-prepares.
func TestAddRuleReachesStmt(t *testing.T) {
	ctx := context.Background()
	s := newSession(t)
	st, err := s.Prepare("1 + 1")
	if err != nil {
		t.Fatal(err)
	}
	if v, err := st.Exec(ctx, nil); err != nil || v.String() != "2" {
		t.Fatalf("before the rule: Exec = %v, %v; want 2", v, err)
	}
	s.AddRule("normalize", Rule{
		Name:  "one-is-two",
		Match: []opt.Pattern{opt.P(ast.KindNatLit)},
		Apply: func(e Expr) (Expr, bool) {
			if n, ok := e.(*ast.NatLit); ok && n.Val == 1 {
				return &ast.NatLit{Val: 2}, true
			}
			return e, false
		},
	})
	if v, err := st.Exec(ctx, nil); err != nil || v.String() != "4" {
		t.Fatalf("after the rule: Exec = %v, %v; want 4", v, err)
	}
}

func TestErrorsSurface(t *testing.T) {
	s := newSession(t)
	_, _, err := s.Query(`1 + "two"`)
	if err == nil || !strings.Contains(err.Error(), "unify") {
		t.Errorf("err = %v", err)
	}
	// Language-level partiality is a value, not an error.
	v, _, err := s.Query(`[[1, 2]][9]`)
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsBottom() {
		t.Errorf("out-of-bounds = %s, want bottom", v)
	}
}

func TestMaxStepsGuard(t *testing.T) {
	s := newSession(t)
	s.SetMaxSteps(100)
	if _, _, err := s.Query(`summap(fn \i => i)!(gen!100000)`); err == nil {
		t.Error("runaway query not aborted")
	}
	s.SetMaxSteps(0)
	if _, _, err := s.Query(`1 + 1`); err != nil {
		t.Errorf("unlimited session broken: %v", err)
	}
}

func TestRegisterAxisPublicAPI(t *testing.T) {
	s := newSession(t)
	if err := s.RegisterAxis("lon", []float64{0, 90, 180}); err != nil {
		t.Fatal(err)
	}
	v, _, err := s.Query(`lon_index!85.0`)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(v, Nat(1)) {
		t.Errorf("lon_index!85.0 = %s", v)
	}
	if err := s.RegisterAxis("bad", []float64{1, 1}); err == nil {
		t.Error("non-monotone axis accepted")
	}
}

// The acceptance scenario for resource governance: a tabulation demanding
// 10^9 cells under a million-cell budget must die on the budget — quickly,
// before the array is allocated — and report a typed error.
func TestAcceptanceRunawayTabulate(t *testing.T) {
	s := newSession(t)
	s.SetLimits(Limits{MaxCells: 1_000_000, Timeout: time.Second})
	start := time.Now()
	_, _, err := s.Query(`[[ i | \i < 1000000000 ]]`)
	elapsed := time.Since(start)
	var re *ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("expected *ResourceError, got %T: %v", err, err)
	}
	if re.Kind != ResourceCells {
		t.Errorf("kind = %s, want %s (cell budget should trip before the timeout)", re.Kind, ResourceCells)
	}
	if elapsed > time.Second {
		t.Errorf("abort took %s; the pre-allocation charge should fail fast", elapsed)
	}
	if s.LastCells() < 1_000_000 {
		t.Errorf("LastCells = %d, want the charged demand visible on abort", s.LastCells())
	}
}

func TestMaxCellsNestedSetComprehension(t *testing.T) {
	s := newSession(t)
	s.SetLimits(Limits{MaxCells: 10_000})
	// 1000 inner sets of 1000 elements: 10^6 cells of demand.
	_, _, err := s.Query(`{ {i * 1000 + j | \j <- gen!1000} | \i <- gen!1000 }`)
	var re *ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("expected *ResourceError, got %T: %v", err, err)
	}
	if re.Kind != ResourceCells {
		t.Errorf("kind = %s, want %s", re.Kind, ResourceCells)
	}
}

func TestTimeoutStepHeavyQuery(t *testing.T) {
	s := newSession(t)
	s.SetLimits(Limits{Timeout: 30 * time.Millisecond})
	_, _, err := s.Query(`summap(fn \i => summap(fn \j => i*j)!(gen!1000))!(gen!100000)`)
	var re *ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("expected *ResourceError, got %T: %v", err, err)
	}
	if re.Kind != ResourceTimeout {
		t.Errorf("kind = %s, want %s", re.Kind, ResourceTimeout)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Error("timeout should unwrap to context.DeadlineExceeded")
	}
}

func TestQueryCtxPublicAPI(t *testing.T) {
	s := newSession(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, _, err := s.QueryCtx(ctx, `summap(fn \i => summap(fn \j => i*j)!(gen!1000))!(gen!100000)`)
	var re *ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("expected *ResourceError, got %T: %v", err, err)
	}
	if re.Kind != ResourceCancelled {
		t.Errorf("kind = %s, want %s", re.Kind, ResourceCancelled)
	}
}

func TestPanicErrorPublicAPI(t *testing.T) {
	s := newSession(t)
	if err := s.RegisterPrimitive("explode", "nat -> nat", func(Value) (Value, error) {
		panic("internal invariant violated")
	}); err != nil {
		t.Fatal(err)
	}
	_, _, err := s.Query("explode!1")
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("expected *PanicError, got %T: %v", err, err)
	}
	// The session survives the recovered panic.
	if _, _, err := s.Query("2 * 3"); err != nil {
		t.Errorf("session dead after recovered panic: %v", err)
	}

	// The same holds when the panic happens on a parallel tabulation's
	// worker goroutine, where no session-boundary recover is on the stack:
	// the fan-out carries it back to the calling goroutine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const fanned = `[[ explode!i | \i < 20000 ]]`
	_, _, err = s.Query(fanned)
	if pe = nil; !errors.As(err, &pe) {
		t.Fatalf("Query, worker panic: expected *PanicError, got %T: %v", err, err)
	}
	if !strings.Contains(pe.Error(), "internal invariant violated") || !strings.Contains(pe.Error(), "offset 0") {
		t.Errorf("worker panic lost its value or offset: %v", pe)
	}
	st, err := s.Prepare(fanned)
	if err != nil {
		t.Fatal(err)
	}
	_, err = st.Exec(context.Background(), nil)
	if pe = nil; !errors.As(err, &pe) {
		t.Fatalf("Stmt.Exec, worker panic: expected *PanicError, got %T: %v", err, err)
	}
	if v, _, err := s.Query("2 * 3"); err != nil || v.String() != "6" {
		t.Errorf("session dead after recovered worker panic: %v, %v", v, err)
	}
}

func TestOptimizerStatsReturnsCopy(t *testing.T) {
	s := newSession(t)
	if _, _, err := s.Query(`[[ i | \i < 10 ]][3]`); err != nil {
		t.Fatal(err)
	}
	stats := s.OptimizerStats()
	if stats["beta-p"] == 0 {
		t.Fatal("beta-p should have fired")
	}
	// Mutating the returned map must not corrupt the live counters.
	stats["beta-p"] = -42
	stats["forged"] = 1
	again := s.OptimizerStats()
	if again["beta-p"] <= 0 {
		t.Errorf("caller mutation leaked into live stats: beta-p = %d", again["beta-p"])
	}
	if _, ok := again["forged"]; ok {
		t.Error("caller-inserted key leaked into live stats")
	}
}

// TestRuleFiringsPastTraceCap: two user rules rewrite 7 to 8 and back until
// the optimizer's 100,000-application fuel runs out, far past the 4,096
// firings a report keeps in its trace. Every record of the firings counts
// all of them: the fleet's totals and per-rule counts, /metrics'
// aql_rule_firings_total and OptimizerStats.
func TestRuleFiringsPastTraceCap(t *testing.T) {
	const fuel = 100000
	s := newSession(t)
	for _, flip := range [][2]int64{{7, 8}, {8, 7}} {
		s.AddRule("normalize", Rule{
			Name:  fmt.Sprintf("%d-to-%d", flip[0], flip[1]),
			Match: []opt.Pattern{opt.P(ast.KindNatLit)},
			Apply: func(e Expr) (Expr, bool) {
				if n, ok := e.(*ast.NatLit); ok && n.Val == flip[0] {
					return &ast.NatLit{Val: flip[1]}, true
				}
				return e, false
			},
		})
	}
	if _, _, err := s.Query("7"); err != nil {
		t.Fatal(err)
	}
	fleet := s.FleetSnapshot()
	if fleet.Totals.RuleFirings != fuel {
		t.Fatalf("Totals.RuleFirings = %d, want %d", fleet.Totals.RuleFirings, fuel)
	}
	var fleetSum, statsSum, metricsSum int64
	for _, n := range fleet.Rules {
		fleetSum += n
	}
	for _, n := range s.OptimizerStats() {
		statsSum += int64(n)
	}
	rec := httptest.NewRecorder()
	s.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if strings.HasPrefix(line, "aql_rule_firings_total{") {
			var n int64
			if _, err := fmt.Sscan(line[strings.LastIndexByte(line, ' ')+1:], &n); err != nil {
				t.Fatalf("%q: %v", line, err)
			}
			metricsSum += n
		}
	}
	if fleetSum != fuel || statsSum != fuel || metricsSum != fuel {
		t.Errorf("firings by rule sum to %d in the fleet, %d in OptimizerStats and %d on /metrics; want %d",
			fleetSum, statsSum, metricsSum, fuel)
	}
}

func TestLastReportAndTotals(t *testing.T) {
	s := newSession(t)
	if s.LastReport() != nil {
		t.Error("fresh session has a last report")
	}
	if _, _, err := s.Query(`[[ i * 2 | \i < 5 ]]`); err != nil {
		t.Fatal(err)
	}
	rep := s.LastReport()
	if rep == nil {
		t.Fatal("no report after query")
	}
	if rep.Eval.Tabulations != 1 || rep.Eval.Cells != 5 {
		t.Errorf("counters = %+v", rep.Eval)
	}
	if rep.Eval.Steps != s.LastSteps() {
		t.Errorf("report steps %d != LastSteps %d", rep.Eval.Steps, s.LastSteps())
	}
	tot := s.TraceTotals()
	if tot.Queries != 1 {
		t.Errorf("totals queries = %d, want 1", tot.Queries)
	}
	s.SetTraceEnabled(false)
	if _, _, err := s.Query("1+1"); err != nil {
		t.Fatal(err)
	}
	if got := s.TraceTotals().Queries; got != 1 {
		t.Errorf("disabled trace still counted: %d queries", got)
	}
	s.SetTraceEnabled(true)
}

func TestExplainAndProfilePublicAPI(t *testing.T) {
	s := newSession(t)
	out, err := s.Explain(`[[ i | \i < 8 ]][2]`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "beta-p") {
		t.Errorf("Explain missing rule trace:\n%s", out)
	}
	out, err = s.Profile(context.Background(), `gen!6`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "profile of gen!6") || !strings.Contains(out, "steps") {
		t.Errorf("Profile output:\n%s", out)
	}
}

func TestTraceJSONSink(t *testing.T) {
	s := newSession(t)
	var buf strings.Builder
	s.SetTraceSink(NewJSONSink(&buf))
	if _, _, err := s.Query("gen!3"); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(buf.String())
	if !strings.Contains(line, `"query":"gen!3"`) {
		t.Errorf("sink received %q", line)
	}
}

// TestQueryTextNotHTMLEscaped: recorded query text comes back verbatim from
// every JSON endpoint of the one observability handler, on the session's
// -metricsaddr surface and mounted in the query server alike. The default
// json.Encoder would serve '<', '>' and '&' as \u003c, \u003e and \u0026,
// and every tabulation has a '<'.
func TestQueryTextNotHTMLEscaped(t *testing.T) {
	const src = `[[ if i > 1 then "a&b" else "c" | \i < 3 ]]`
	const want = `"query":"[[ if i > 1 then \"a&b\" else \"c\" | \\i < 3 ]]"`

	sess := newSession(t)
	if _, _, err := sess.Query(src); err != nil {
		t.Fatal(err)
	}
	rs, err := repl.New()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	aqld := server.New(rs, server.Config{})
	body, _ := json.Marshal(server.QueryRequest{Query: src})
	rec := httptest.NewRecorder()
	aqld.ServeHTTP(rec, httptest.NewRequest("POST", "/query", bytes.NewReader(body)))
	if rec.Code != 200 {
		t.Fatalf("POST /query = %d: %s", rec.Code, rec.Body)
	}

	for _, tc := range []struct {
		name   string
		h      http.Handler
		routes []string
	}{
		{"metricsaddr", sess.MetricsHandler(), []string{"/", "/debug/queries", "/debug/slow"}},
		{"aqld", aqld, []string{"/", "/debug/queries", "/debug/slow"}},
	} {
		for _, route := range tc.routes {
			rec := httptest.NewRecorder()
			tc.h.ServeHTTP(rec, httptest.NewRequest("GET", route, nil))
			if rec.Code != 200 || !strings.Contains(rec.Body.String(), want) {
				t.Errorf("%s GET %s = %d, query text not served as %s:\n%s", tc.name, route, rec.Code, want, rec.Body)
			}
		}
	}
}

// TestDebugSlowListsSlowestFirst gates /debug/slow on its content: after one
// clearly slow query among more fast ones than the log keeps, the log holds
// exactly its capacity, slowest first, and its first entry is the slow query
// with the request id and engine its report carried.
func TestDebugSlowListsSlowestFirst(t *testing.T) {
	const slow = `summap(fn \i => summap(fn \j => i * j)!(gen!1000))!(gen!1000)`
	rs, err := repl.New()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	aqld := server.New(rs, server.Config{})
	post := func(query, id string) {
		t.Helper()
		body, _ := json.Marshal(server.QueryRequest{Query: query})
		req := httptest.NewRequest("POST", "/query", bytes.NewReader(body))
		req.Header.Set("X-Request-ID", id)
		rec := httptest.NewRecorder()
		aqld.ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("POST /query %s = %d: %s", query, rec.Code, rec.Body)
		}
	}
	for i := 0; i < trace.DefaultSlowCap+4; i++ {
		if i == trace.DefaultSlowCap/2 {
			post(slow, "slow-1")
		}
		post(`1 + 1`, fmt.Sprintf("fast-%d", i))
	}

	rec := httptest.NewRecorder()
	aqld.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/slow", nil))
	var doc struct {
		Slow []trace.SlowQuery `json:"slow"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); rec.Code != 200 || err != nil {
		t.Fatalf("GET /debug/slow = %d, %v: %s", rec.Code, err, rec.Body)
	}
	if len(doc.Slow) != trace.DefaultSlowCap {
		t.Fatalf("slow log holds %d entries after %d queries, want its capacity %d",
			len(doc.Slow), trace.DefaultSlowCap+5, trace.DefaultSlowCap)
	}
	first := doc.Slow[0]
	if first.Query != slow || first.ID != "slow-1" || first.Engine != repl.EngineCompiled {
		t.Errorf("first slow entry = %+v, want %s (id slow-1, engine %s)", first, slow, repl.EngineCompiled)
	}
	for i := 1; i < len(doc.Slow); i++ {
		if doc.Slow[i].Wall > doc.Slow[i-1].Wall {
			t.Errorf("slow log not slowest first at %d: %v after %v", i, doc.Slow[i].Wall, doc.Slow[i-1].Wall)
		}
	}
}

func TestMetricsHandler(t *testing.T) {
	s := newSession(t)
	if _, _, err := s.Query("gen!3"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.MetricsHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `"totals"`) || !strings.Contains(string(body), "gen!3") {
		t.Errorf("metrics payload:\n%s", body)
	}
}
