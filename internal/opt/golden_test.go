package opt_test

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/bench"
	"github.com/aqldb/aql/internal/opt"
	"github.com/aqldb/aql/internal/repl"
)

var update = flag.Bool("update", false, "rewrite testdata/trace.golden from the current optimizer")

const goldenPath = "testdata/trace.golden"

// goldenQuery is one optimizer input of the golden corpus.
type goldenQuery struct {
	name string
	text string // the source text, for rows compiled from AQL; "" otherwise
	expr ast.Expr
	fuel int
}

// valBody is the expression of a one-line `val \X = e;` declaration.
func valBody(stmt string) string {
	_, rhs, _ := strings.Cut(stmt, " = ")
	return strings.TrimSuffix(rhs, ";")
}

// goldenCorpus is the golden's fixed input list: the paper's queries of
// internal/bench, the rule tests' inputs, and 200 plan_cold texts.
func goldenCorpus(t testing.TB) []goldenQuery {
	compile := func(s *repl.Session, name, text string) goldenQuery {
		core, _, err := s.Compile(text)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return goldenQuery{name: name, text: text, expr: core}
	}
	exec := func(s *repl.Session, src string) {
		if _, err := s.Exec(src); err != nil {
			t.Fatal(err)
		}
	}

	var qs []goldenQuery
	paper := bench.MustSession()
	bench.SetupWeather(paper)
	bench.SetupZipSubseq(paper, 16)
	bench.SetupTranspose(paper, 3, 4)
	exec(paper, bench.HistMacros)
	for _, q := range []struct{ name, text string }{
		{"paper/motivating", bench.MotivatingQuery},
		{"paper/zip-array", bench.ZipArrayQuery},
		{"paper/zip-sets", bench.ZipSetsQuery},
		{"paper/hist", `hist!(A)`},
		{"paper/hist'", `hist'!(A)`},
		{"paper/transpose", bench.TransposeQuery},
		{"paper/zip-then-subseq", bench.ZipThenSubseqQuery},
		{"paper/subseq-then-zip", bench.SubseqThenZipQuery},
	} {
		qs = append(qs, compile(paper, q.name, q.text))
	}
	engine := bench.MustSession()
	exec(engine, bench.EngineSetup)
	qs = append(qs,
		compile(engine, "paper/puretab", valBody(bench.PureTabQuery)),
		compile(engine, "paper/matmul", valBody(bench.MatmulQuery)))
	for _, q := range []struct {
		name string
		expr ast.Expr
	}{
		{"paper/append-chain", bench.AppendChainExpr(4)},
		{"paper/row-major", bench.RowMajorExpr(8)},
		{"paper/beta-p", bench.BetaPExpr(64)},
		{"paper/eta-p", bench.EtaPExpr()},
		{"paper/delta-p", bench.DeltaPExpr(64)},
	} {
		qs = append(qs, goldenQuery{name: q.name, expr: q.expr})
	}

	for _, c := range opt.UnitCorpus() {
		qs = append(qs, goldenQuery{name: "unit/" + c.Name, expr: c.Expr, fuel: c.Fuel})
	}

	plan := bench.MustSession()
	exec(plan, bench.PlanPrelude+bench.PlanData)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		family, text := bench.PlanText(r, i)
		qs = append(qs, compile(plan, fmt.Sprintf("plan/%03d/%s", i, family), text))
	}
	return qs
}

// freshName matches a name made by ast.Fresh: the parser never emits '%',
// and the modulo operator is always printed with a space after it.
var freshName = regexp.MustCompile(`%+[A-Za-z0-9_']+`)

// maskFresh renumbers fresh names by first appearance, so the golden pins
// which names are distinct, not the global counter's values. A name keeps
// its hint with the digits removed.
func maskFresh(s string) string {
	seen := map[string]string{}
	return freshName.ReplaceAllStringFunc(s, func(name string) string {
		if m, ok := seen[name]; ok {
			return m
		}
		hint := strings.Map(func(r rune) rune {
			if r >= '0' && r <= '9' {
				return -1
			}
			return r
		}, name)
		m := fmt.Sprintf("%s#%d", hint, len(seen)+1)
		seen[name] = m
		return m
	})
}

// renderGolden optimizes every corpus query on a fresh standard optimizer
// and renders its firing sequence and optimized term.
func renderGolden(qs []goldenQuery) string {
	var b strings.Builder
	for _, q := range qs {
		o := opt.New()
		if q.fuel > 0 {
			o.MaxApplications = q.fuel
		}
		var rows strings.Builder
		out := o.OptimizeTraced(q.expr, func(phase, rule string, nb, na int) {
			fmt.Fprintf(&rows, "fire %s %s %d %d\n", phase, rule, nb, na)
		})
		fmt.Fprintf(&b, "== %s\n", q.name)
		if q.text != "" {
			fmt.Fprintf(&b, "text %s\n", strings.ReplaceAll(q.text, "\n", " "))
		}
		b.WriteString(maskFresh(fmt.Sprintf("in %s\n%sout %s\n", q.expr, rows.String(), out)))
	}
	return b.String()
}

// TestOptimizerGolden pins the optimizer's observable behaviour on a fixed
// corpus: every firing (phase, rule, subtree nodes before and after) and
// every optimized term, fresh names renumbered by first appearance. Run
// with -update to rewrite the golden after an intended behaviour change.
func TestOptimizerGolden(t *testing.T) {
	got := renderGolden(goldenCorpus(t))
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	gotBlocks, wantBlocks := strings.Split(got, "\n== "), strings.Split(string(want), "\n== ")
	for i := 0; i < len(gotBlocks) && i < len(wantBlocks); i++ {
		if gotBlocks[i] != wantBlocks[i] {
			t.Fatalf("golden block %d differs:\n--- got\n%s\n--- want\n%s", i, gotBlocks[i], wantBlocks[i])
		}
	}
	t.Fatalf("golden has %d blocks, optimizer produced %d", len(wantBlocks), len(gotBlocks))
}

// BenchmarkOptimize optimizes the whole golden corpus once per iteration
// on one standard optimizer: the rewrite cost of a plan-cache miss. A zero
// fuel is the default budget.
func BenchmarkOptimize(b *testing.B) {
	qs := goldenCorpus(b)
	o := opt.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			o.MaxApplications = q.fuel
			optimized = o.Optimize(q.expr)
		}
	}
}

// optimized keeps BenchmarkOptimize's result live.
var optimized ast.Expr

// TestOptimizeConcurrently runs the corpus on one optimizer from several
// goroutines at once: they share its per-kind rule index and the shared
// Binders results, and must rewrite exactly as a serial run does.
func TestOptimizeConcurrently(t *testing.T) {
	qs := goldenCorpus(t)
	o := opt.New()
	want := make([]string, len(qs))
	for i, q := range qs {
		want[i] = maskFresh(o.Optimize(q.expr).String())
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, q := range qs {
				if got := maskFresh(o.Optimize(q.expr).String()); got != want[i] {
					t.Errorf("%s: concurrent run gave %s, serial %s", q.name, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

// TestOnePassIsFixpoint checks that one pass per phase leaves no redex:
// after the phases up to and including one have run, a confirming run of
// that phase alone fires nothing, on every golden corpus term and on 400
// terms of the semantics property test's generator. The golden rows run on
// a reduced fuel are skipped: a run cut short by its fuel is not normal.
func TestOnePassIsFixpoint(t *testing.T) {
	var terms []ast.Expr
	for _, q := range goldenCorpus(t) {
		if q.fuel == 0 {
			terms = append(terms, q.expr)
		}
	}
	terms = append(terms, opt.RandomExprs(20260704, 400)...)
	std := opt.New()
	for _, term := range terms {
		for i, ph := range std.Phases {
			prefix := &opt.Optimizer{Phases: std.Phases[:i+1]}
			e := prefix.Optimize(term)
			confirm := &opt.Optimizer{Phases: std.Phases[i : i+1]}
			confirm.OptimizeTraced(e, func(_, rule string, _, _ int) {
				t.Errorf("phase %s: %s fires again on %s", ph.Name, rule, e)
			})
		}
	}
}

// TestOptimizeAllocs bounds the allocations of optimizing two plan_cold
// queries, the section 1 query and a transpose, at 10 % above what the
// rewrite costs today; a map or child slice reintroduced per visited node,
// or a confirming pass run after every phase, exceeds it. They took 6,251
// and 479 allocations before the rewrite stopped allocating to answer
// yes/no questions, 1,966 and 242 before traversal used caller-owned
// buffers and each phase ran one pass; now 280 and 65.
func TestOptimizeAllocs(t *testing.T) {
	plan := bench.MustSession()
	if _, err := plan.Exec(bench.PlanPrelude + bench.PlanData); err != nil {
		t.Fatal(err)
	}
	o := opt.New()
	for _, c := range []struct {
		name, text string
		max        float64
	}{
		{"motivating", bench.PlanMotivating(22.1), 308},
		{"transpose", `transpose![[ i * 37 + j + 5 | \i < 4, \j < 6 ]]`, 72},
	} {
		core, _, err := plan.Compile(c.text)
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(20, func() { o.Optimize(core) })
		t.Logf("%s: %.0f allocations", c.name, got)
		if got > c.max {
			t.Errorf("optimizing the %s query allocates %.0f times, bound %.0f", c.name, got, c.max)
		}
	}
}
