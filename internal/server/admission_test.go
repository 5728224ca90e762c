package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/compile"
	"github.com/aqldb/aql/internal/env"
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/opt"
	"github.com/aqldb/aql/internal/repl"
	"github.com/aqldb/aql/internal/types"
)

// TestAdmissionKinds exercises the controller directly, where the three
// rejection kinds are deterministic.
func TestAdmissionKinds(t *testing.T) {
	a := newAdmission(1, 1, 60*time.Millisecond)

	release, _, err := a.acquire(context.Background(), "")
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}

	// Slot held, queue empty: the next acquire queues, then times out.
	_, _, err = a.acquire(context.Background(), "")
	var ae *AdmissionError
	if !errors.As(err, &ae) || ae.Kind != AdmissionQueueTimeout {
		t.Fatalf("queued acquire: got %v, want queue_timeout", err)
	}

	// Slot held, one request parked in the queue: a third is turned away
	// immediately.
	parked := make(chan error, 1)
	go func() {
		_, _, err := a.acquire(context.Background(), "")
		parked <- err
	}()
	waitFor(t, func() bool { return a.stats().Queued == 1 })
	_, _, err = a.acquire(context.Background(), "")
	if !errors.As(err, &ae) || ae.Kind != AdmissionQueueFull {
		t.Fatalf("overflow acquire: got %v, want queue_full", err)
	}
	if err := <-parked; !errors.As(err, &ae) || ae.Kind != AdmissionQueueTimeout {
		t.Fatalf("parked acquire: got %v, want queue_timeout", err)
	}

	// A queued request whose client goes away reports cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	_, _, err = a.acquire(ctx, "")
	if !errors.As(err, &ae) || ae.Kind != AdmissionCancelled {
		t.Fatalf("cancelled acquire: got %v, want cancelled", err)
	}

	// Releasing the slot lets a fresh acquire through instantly.
	release()
	release2, _, err := a.acquire(context.Background(), "")
	if err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	release2()

	s := a.stats()
	if s.Admitted != 2 || s.RejectedWait != 2 || s.RejectedFull != 1 || s.Cancelled != 1 {
		t.Fatalf("stats = %+v, want admitted 2, queue_timeout 2, queue_full 1, cancelled 1", s)
	}
	if s.Active != 0 || s.Queued != 0 {
		t.Fatalf("occupancy leaked: %+v", s)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionOverHTTP saturates a 1-slot server and checks that every
// outcome is one of the typed statuses, with at least one typed rejection —
// the end-to-end face of the unit-level kinds above.
func TestAdmissionOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxQueued: 1, QueueTimeout: 50 * time.Millisecond})

	const n = 6
	var wg sync.WaitGroup
	statuses := make([]int, n)
	kinds := make([]string, n)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			body, _ := json.Marshal(QueryRequest{Query: slowQuery})
			resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
			if err != nil {
				statuses[g] = -1
				return
			}
			defer resp.Body.Close()
			statuses[g] = resp.StatusCode
			if resp.StatusCode != http.StatusOK {
				var er ErrorResponse
				if json.NewDecoder(resp.Body).Decode(&er) == nil {
					kinds[g] = er.Error.Kind
				}
			}
		}(g)
	}
	wg.Wait()

	counts := map[int]int{}
	for g, st := range statuses {
		counts[st]++
		switch st {
		case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Errorf("request %d: unexpected status %d (%s)", g, st, kinds[g])
		}
		if st == http.StatusTooManyRequests && kinds[g] != "admission:queue_full" {
			t.Errorf("request %d: 429 with kind %q", g, kinds[g])
		}
		if st == http.StatusServiceUnavailable && kinds[g] != "admission:queue_timeout" {
			t.Errorf("request %d: 503 with kind %q", g, kinds[g])
		}
	}
	if counts[http.StatusOK] < 1 {
		t.Errorf("no request succeeded: %v", counts)
	}
	if counts[http.StatusTooManyRequests]+counts[http.StatusServiceUnavailable] < 1 {
		t.Errorf("saturating a 1-slot server produced no admission rejections: %v", counts)
	}
}

// TestCacheLRUEviction: the cache evicts least-recently-used plans at
// capacity and counts it.
func TestCacheLRUEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheSize: 2})

	run := func(q string) *QueryResponse {
		t.Helper()
		r, _, err := postQuery(ts, QueryRequest{Query: q})
		if err != nil {
			t.Fatalf("query %q: %v", q, err)
		}
		return r
	}
	run("1 + 1") // cache: [A]
	run("2 + 2") // cache: [B A]
	run("1 + 1") // hit, cache: [A B]
	run("3 + 3") // evicts B, cache: [C A]
	if r := run("1 + 1"); !r.Cached {
		t.Error("recently used plan was evicted")
	}
	if r := run("2 + 2"); r.Cached {
		t.Error("least recently used plan survived past capacity")
	}
	cs := s.CacheStats()
	if cs.Evictions < 1 {
		t.Errorf("evictions = %d, want >= 1", cs.Evictions)
	}
	if cs.Size > 2 {
		t.Errorf("cache size = %d, capacity 2", cs.Size)
	}
}

// TestPlanCacheUnit covers the container directly: entries are keyed by
// text and served only while the plan is Current — each global it read still
// bound as it read it, the environment's structure unchanged, its MaxDepth
// the one asked for. A stale entry counts as a miss and an invalidation, and
// the next put replaces it in place.
func TestPlanCacheUnit(t *testing.T) {
	sess, err := repl.New()
	if err != nil {
		t.Fatal(err)
	}
	sess.Env.SetVal("x", object.Nat(1), types.Nat)
	sess.Env.SetVal("y", object.Nat(1), types.Nat)
	if _, err := sess.Exec(`macro \incx = fn \n => x + n;`); err != nil {
		t.Fatal(err)
	}
	c := newPlanCache(8)
	prepare := func(q string) *plan {
		t.Helper()
		p, err := sess.Plan(nil, q, eval.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		c.put(q, p)
		return p
	}
	served := func(q string) bool {
		_, ok := c.get(q, sess.Env, 0)
		return ok
	}
	p1 := prepare("x + 1")
	if got, ok := c.get("x + 1", sess.Env, 0); !ok || got != p1 {
		t.Fatal("current plan not served")
	}
	if _, ok := c.get("r", sess.Env, 0); ok {
		t.Fatal("plan served under another text")
	}
	// Binding `it`, or any val the plan does not read, leaves it current.
	sess.Env.SetVal(env.ItName, object.Nat(7), types.Nat)
	sess.Env.SetVal("y", object.Nat(2), types.Nat)
	if !served("x + 1") {
		t.Fatal("binding vals a plan does not read made it stale")
	}
	if _, ok := c.get("x + 1", sess.Env, 5); ok {
		t.Fatal("plan served under a MaxDepth other than its own")
	}

	prepare("incx!1") // reads x through the macro
	prepare("real!y") // reads the primitive real
	for _, row := range []struct {
		what        string
		mutate      func()
		stale, kept []string
	}{
		{"rebinding a val", func() { sess.Env.SetVal("x", object.Nat(2), types.Nat) },
			[]string{"x + 1", "incx!1"}, []string{"real!y"}},
		{"a val shadowing a primitive", func() {
			sess.Env.SetVal("real", object.Func(func(v object.Value) (object.Value, error) { return object.Real(0.5), nil }),
				types.MustParse("nat -> real"))
		}, []string{"real!y"}, []string{"x + 1", "incx!1"}},
		{"a reader registration", func() {
			sess.Env.RegisterReader("NOWHERE", func(object.Value) (object.Value, error) { return object.Unit, nil })
		}, []string{"x + 1", "incx!1", "real!y"}, nil},
	} {
		row.mutate()
		for _, q := range row.kept {
			if !served(q) {
				t.Errorf("%s: %s was not served", row.what, q)
			}
		}
		for _, q := range row.stale {
			if served(q) {
				t.Errorf("%s: %s was served stale", row.what, q)
			}
			prepare(q)
		}
	}

	// A user rule may introduce a global the text does not name: the plan
	// resolves it after optimizing, and counts it as read.
	sess.Env.AddRule("normalize", opt.Rule{
		Name:  "99-is-y",
		Match: []opt.Pattern{opt.P(ast.KindNatLit)},
		Apply: func(e ast.Expr) (ast.Expr, bool) {
			if n, ok := e.(*ast.NatLit); ok && n.Val == 99 {
				return &ast.Var{Name: "y"}, true
			}
			return e, false
		},
	})
	p2 := prepare("99")
	if v, _, err := p2.Prog.Execute(context.Background(), compile.ExecOpts{}); err != nil || v.String() != "2" {
		t.Fatalf("99 rewritten to y = %v, %v; want 2", v, err)
	}
	if !served("99") {
		t.Fatal("a plan reading a rule's global was not served")
	}
	sess.Env.SetVal("y", object.Nat(3), types.Nat)
	if served("99") {
		t.Fatal("a plan was served after a rebind of a global a rule introduced")
	}
	want := CacheStats{Size: 4, Capacity: 8, Hits: 6, Misses: 9, Invalidations: 8}
	if st := c.stats(); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}

// TestNormalizeQuery pins the keying canonicalization.
func TestNormalizeQuery(t *testing.T) {
	cases := map[string]string{
		"1 + 2":           "1 + 2",
		"  1   +\n\t2 ; ": "1 + 2",
		"1+2;":            "1+2", // token-level spacing is preserved
		// String literals are copied verbatim: internal whitespace, escaped
		// quotes and semicolons are all significant.
		`f ! "a  b"`:      `f ! "a  b"`,
		"f !\n\t\"a  b\"": `f ! "a  b"`,
		`f ! "a \" b;"`:   `f ! "a \" b;"`,
		`f!";"`:           `f!";"`, // the ; is inside the literal, not trailing
		// Comments collapse to one separator, like whitespace.
		"1 (* c *) + 2":       "1 + 2",
		"1(* c *)+2":          "1 +2",
		"1 (* a (* b *) *) 2": "1 2",
		// Unterminated comment: not lexable, text left for the parser.
		"1 + (* oops": "1 + (* oops",
	}
	for in, want := range cases {
		if got := NormalizeQuery(in); got != want {
			t.Errorf("NormalizeQuery(%q) = %q, want %q", in, got, want)
		}
	}
	// Distinct literals must never collide on one plan-cache key.
	if NormalizeQuery(`f!"a  b"`) == NormalizeQuery(`f!"a b"`) {
		t.Error(`queries f!"a  b" and f!"a b" normalized to the same key`)
	}
	_ = fmt.Sprint() // keep fmt imported if cases change
}

// TestNormalizeQueryUnicode: a key keeps every byte of a UTF-8 identifier;
// the second byte of à (0xA0) is not white space.
func TestNormalizeQueryUnicode(t *testing.T) {
	for in, want := range map[string]string{
		"à + 1":          "à + 1",
		"  é\n+ µ ;":     "é + µ",
		"\xe9 (* c *) 1": "\xe9 1",
	} {
		if got := NormalizeQuery(in); got != want {
			t.Errorf("NormalizeQuery(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestAcquirePreCancelled: a request whose client is already gone is never
// admitted, even with free slots.
func TestAcquirePreCancelled(t *testing.T) {
	a := newAdmission(2, 2, time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := a.acquire(ctx, "")
	var ae *AdmissionError
	if !errors.As(err, &ae) || ae.Kind != AdmissionCancelled {
		t.Fatalf("pre-cancelled acquire: got %v, want cancelled", err)
	}
	s := a.stats()
	if s.Admitted != 0 || s.Cancelled != 1 || s.Active != 0 {
		t.Fatalf("stats = %+v, want admitted 0, cancelled 1, active 0", s)
	}
}
