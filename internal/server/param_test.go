package server

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"github.com/aqldb/aql/internal/exchange"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/repl"
)

// TestParameterizedQueryBasic: a template with args executes, and the
// template text — not the argument values — keys the plan cache, so every
// subsequent argument set is a cache hit.
func TestParameterizedQueryBasic(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	tmpl := `[[ i * $a + $b | \i < 10 ]]`

	first, _, err := postQuery(ts, QueryRequest{Query: tmpl,
		Args: map[string]string{"a": "3", "b": "1"}})
	if err != nil {
		t.Fatalf("first: %v", err)
	}
	if first.Value != `[[1, 4, 7, 10, 13, 16, 19, 22, 25, 28]]` {
		t.Fatalf("first value = %s", first.Value)
	}
	if first.Cached {
		t.Fatal("first execution of a template reported cached")
	}

	// Same template, different args — and different layout, which must
	// still normalize onto the same plan.
	second, _, err := postQuery(ts, QueryRequest{Query: "  [[ i * $a + $b | \\i < 10 ]] ;",
		Args: map[string]string{"a": "0", "b": "5"}})
	if err != nil {
		t.Fatalf("second: %v", err)
	}
	if !second.Cached {
		t.Fatal("second argument set missed the template's cached plan")
	}
	if second.Value != `[[5, 5, 5, 5, 5, 5, 5, 5, 5, 5]]` {
		t.Fatalf("second value = %s (argument frame leaked?)", second.Value)
	}

	cs := s.CacheStats()
	if cs.Hits < 1 || cs.Size != 1 {
		t.Fatalf("cache stats = %+v, want 1 entry with >= 1 hit", cs)
	}

	// The prepared result matches the literal substitution byte-for-byte,
	// counters included.
	lit, _, err := postQuery(ts, QueryRequest{Query: `[[ i * 3 + 1 | \i < 10 ]]`})
	if err != nil {
		t.Fatalf("literal: %v", err)
	}
	if lit.Value != first.Value {
		t.Errorf("literal value %s != prepared %s", lit.Value, first.Value)
	}
	if lit.Eval != first.Eval {
		t.Errorf("literal counters %+v != prepared %+v", lit.Eval, first.Eval)
	}
}

// TestParameterizedBindErrors: the three bind failure modes are 400s with
// the right kind, caught before evaluation.
func TestParameterizedBindErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tmpl := `$n + 1`

	cases := []struct {
		name     string
		args     map[string]string
		kind     string
		fragment string
	}{
		{"missing", nil, "request", "missing argument for parameter $n"},
		{"unknown", map[string]string{"n": "1", "zz": "2"}, "request", `"zz" does not name a parameter`},
		{"mismatch", map[string]string{"n": `"hello"`}, "type", "expected nat, got string"},
		{"undecodable", map[string]string{"n": "[[;]]"}, "request", "argument $n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, status, err := postQuery(ts, QueryRequest{Query: tmpl, Args: c.args})
			if status != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (err %v)", status, err)
			}
			ie, ok := err.(*errorInfoError)
			if !ok {
				t.Fatalf("err = %v, want ErrorInfo", err)
			}
			if ie.Info.Kind != c.kind {
				t.Errorf("kind = %q, want %q", ie.Info.Kind, c.kind)
			}
			if !strings.Contains(ie.Info.Message, c.fragment) {
				t.Errorf("message = %q, want substring %q", ie.Info.Message, c.fragment)
			}
		})
	}

	// Valid bind still works after the failures (no cache poisoning).
	qr, _, err := postQuery(ts, QueryRequest{Query: tmpl, Args: map[string]string{"n": "41"}})
	if err != nil {
		t.Fatalf("valid bind: %v", err)
	}
	if qr.Value != "42" {
		t.Fatalf("value = %s, want 42", qr.Value)
	}
}

// TestParameterizedStructuredArgs: arguments are full exchange-format
// values, not just scalars — a set argument binds where a set is inferred.
func TestParameterizedStructuredArgs(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	qr, _, err := postQuery(ts, QueryRequest{Query: `{x * x | \x <- $xs}`,
		Args: map[string]string{"xs": `{1, 2, 3}`}})
	if err != nil {
		t.Fatalf("structured arg: %v", err)
	}
	if qr.Value != `{1, 4, 9}` {
		t.Fatalf("value = %s, want {1, 4, 9}", qr.Value)
	}
}

// TestParameterizedValRebindInvalidates: epoch keying applies to templates
// exactly as to plain queries — a val rebinding must not serve a stale
// parameterized plan.
func TestParameterizedValRebindInvalidates(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	setVal := func(body string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/val/K", "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST /val/K: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /val/K: status %d", resp.StatusCode)
		}
	}
	setVal("10")
	tmpl := `K + $a`
	qr, _, err := postQuery(ts, QueryRequest{Query: tmpl, Args: map[string]string{"a": "5"}})
	if err != nil {
		t.Fatalf("first: %v", err)
	}
	if qr.Value != "15" {
		t.Fatalf("value = %s, want 15", qr.Value)
	}
	setVal("100")
	qr, _, err = postQuery(ts, QueryRequest{Query: tmpl, Args: map[string]string{"a": "5"}})
	if err != nil {
		t.Fatalf("second: %v", err)
	}
	if qr.Value != "105" {
		t.Fatalf("value = %s, want 105 (stale parameterized plan served)", qr.Value)
	}
	if qr.Cached {
		t.Error("post-rebind execution reported cached (epoch keying broken)")
	}
}

// TestTemplatedWorkloadCacheCounts: 400 executions of one template with
// distinct argument pairs prepare once and hit 399 times on one cache
// entry; the same 400 queries written as literal substitutions are 400
// distinct keys and never hit. Exact counts on a deterministic run, where
// the timing harness this replaces gated a >= 99% rate.
func TestTemplatedWorkloadCacheCounts(t *testing.T) {
	const n = 400
	tmpl, ts := newTestServer(t, Config{})
	for k := 0; k < n; k++ {
		_, _, err := postQuery(ts, QueryRequest{
			Query: `count!(dom!(zip!([[ i*i + $a | \i < 64 ]], reverse!([[ i + $b | \i < 64 ]]))))`,
			Args:  map[string]string{"a": fmt.Sprint(k), "b": fmt.Sprint(k + 1)}})
		if err != nil {
			t.Fatalf("templated execution %d: %v", k, err)
		}
	}
	if cs := tmpl.CacheStats(); cs.Misses != 1 || cs.Hits != n-1 || cs.Size != 1 {
		t.Errorf("templated: %+v, want 1 miss, %d hits, 1 entry", cs, n-1)
	}

	lit, ts := newTestServer(t, Config{})
	for k := 0; k < n; k++ {
		_, _, err := postQuery(ts, QueryRequest{Query: fmt.Sprintf(
			`count!(dom!(zip!([[ i*i + %d | \i < 64 ]], reverse!([[ i + %d | \i < 64 ]]))))`, k, k+1)})
		if err != nil {
			t.Fatalf("literal execution %d: %v", k, err)
		}
	}
	if cs := lit.CacheStats(); cs.Hits != 0 || cs.Misses != n {
		t.Errorf("literal: %+v, want 0 hits, %d misses", cs, n)
	}
}

// TestSessionAndServerAgree runs each row through Session.Prepare + Exec
// and through POST /query on a server over an equal environment. The two
// share one front end, one binder and one guard, so they agree on values,
// types and counters, and on the text of every prepare and bind failure;
// the server adds only the kind it files the failure under.
func TestSessionAndServerAgree(t *testing.T) {
	const setup = `val A = [[ i * 2 | \i < 10 ]];`
	sess, err := repl.New()
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{})
	for _, env := range []*repl.Session{sess, s.sess} {
		if _, err := env.Exec(setup); err != nil {
			t.Fatal(err)
		}
	}
	// viaSession is the host-language route: the arguments decoded from the
	// same exchange literals the request carries.
	viaSession := func(text string, args map[string]string) (value, typ string, steps, cells int64, err error) {
		frame := map[string]object.Value{}
		for name, lit := range args {
			v, err := exchange.ReadString(lit)
			if err != nil {
				return "", "", 0, 0, fmt.Errorf("argument $%s: %v", name, err)
			}
			frame[name] = v
		}
		p, err := sess.Prepare(text)
		if err != nil {
			return "", "", 0, 0, err
		}
		v, err := p.Exec(context.Background(), frame)
		if err != nil {
			return "", "", 0, 0, err
		}
		value, err = exchange.WriteString(v)
		rep := sess.LastReport()
		return value, p.Type.String(), rep.Eval.Steps, rep.Eval.Cells, err
	}

	for _, tc := range []struct {
		name string
		text string
		args map[string]string
		kind string // the server's error kind; "" for a row that succeeds
	}{
		{"plain", `summap(fn \i => A[i])!(gen!10)`, nil, ""},
		{"scalar args", `[[ A[i] * $a + $b | \i < 10 ]]`, map[string]string{"a": "3", "b": "1"}, ""},
		{"structured arg", `{x * x | \x <- $xs}`, map[string]string{"xs": `{1, 2, 3}`}, ""},
		{"shared type variable", `$a = $b`, map[string]string{"a": `"x"`, "b": `"x"`}, ""},

		{"missing argument", `$n + 1`, nil, "request"},
		{"argument names no placeholder", `$n + 1`, map[string]string{"n": "1", "zz": "2"}, "request"},
		{"type mismatch", `$n + 1`, map[string]string{"n": `"hello"`}, "type"},
		{"inconsistent shared variable", `$a = $b`, map[string]string{"a": "1", "b": `"x"`}, "type"},
		{"undecodable literal", `$n + 1`, map[string]string{"n": "[[;]]"}, "request"},

		{"parse failure", `[[ i |`, nil, "parse"},
		{"desugar failure", `(fn (3, \x) => x)!(3, 4)`, nil, "desugar"},
		{"type failure", `1 + "a"`, nil, "type"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			value, typ, steps, cells, serr := viaSession(tc.text, tc.args)
			qr, status, herr := postQuery(ts, QueryRequest{Query: tc.text, Args: tc.args})
			if tc.kind == "" {
				if serr != nil || herr != nil {
					t.Fatalf("session err %v, server err %v; want success on both", serr, herr)
				}
				if qr.Value != value || qr.Type != typ || qr.Eval.Steps != steps || qr.Eval.Cells != cells {
					t.Errorf("server: %s : %s, %d steps, %d cells\nsession: %s : %s, %d steps, %d cells",
						qr.Value, qr.Type, qr.Eval.Steps, qr.Eval.Cells, value, typ, steps, cells)
				}
				return
			}
			ie, ok := herr.(*errorInfoError)
			if serr == nil || !ok || status != http.StatusBadRequest {
				t.Fatalf("session err %v, server status %d err %v; want a failure on both, a 400 from the server", serr, status, herr)
			}
			if ie.Info.Kind != tc.kind {
				t.Errorf("server kind = %q, want %q", ie.Info.Kind, tc.kind)
			}
			// The session prefixes a *BindError with "bind: "; the text is shared.
			if got := strings.TrimPrefix(serr.Error(), "bind: "); got != ie.Info.Message {
				t.Errorf("session message %q != server message %q", got, ie.Info.Message)
			}
		})
	}
}
