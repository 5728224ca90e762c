package aql

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/bench"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/repl"
	"github.com/aqldb/aql/internal/typecheck"
)

var updateInference = flag.Bool("update", false, "rewrite testdata/inference.golden from the current typechecker")

const inferenceGolden = "testdata/inference.golden"

// illTyped reaches each error site of the typechecker from surface syntax,
// once per site, plus the placeholder and nested-mismatch forms.
var illTyped = []string{
	`nosuch + 1`,
	`1!2`,
	`fst!1`,
	`{1} union {true}`,
	`1 union 2`,
	`{x | \x <- 5}`,
	`get!5`,
	`if 1 then 2 else 3`,
	`if true then 1 else "a"`,
	`1 < "a"`,
	`1 + "a"`,
	`gen!"a"`,
	`summap(fn \x => x)!5`,
	`[[ i | \i < "a" ]]`,
	`5[0]`,
	`A[true]`,
	`fn \a => a[(1, true)]`,
	`fn \a => a["s"]`,
	`dim_1_2!5`,
	`index_1!5`,
	`[[ "a"; 1 ]]`,
	`[[2; 1, true]]`,
	`{|1|} uplus {|true|}`,
	`1 uplus 2`,
	`{| x | \x <- 5 |}`,
	`rank!5`,
	`"a" + "b"`,
	`(fn \x => x) = (fn \y => y)`,
	`fn \x => x!x`,
	`if $a then $a + 1 else 0`,
	`{(1, true)} union {(1, 2)}`,
	`[[ A[i] | \i < len!(gen!3) ]]`,
}

// illTypedCore reaches the error sites desugaring never produces: bodies of
// the collection loops that are not collections.
var illTypedCore = []struct {
	name string
	expr ast.Expr
}{
	{"big union body", &ast.BigUnion{Head: &ast.NatLit{Val: 1}, Var: "x", Over: &ast.EmptySet{}}},
	{"big bag union source", &ast.BigBagUnion{Head: &ast.EmptyBag{}, Var: "x", Over: &ast.NatLit{Val: 1}}},
	{"big bag union body", &ast.BigBagUnion{Head: &ast.NatLit{Val: 1}, Var: "x", Over: &ast.EmptyBag{}}},
	{"ranked union source", &ast.RankUnion{Head: &ast.EmptySet{}, Var: "x", RankVar: "r", Over: &ast.EmptyBag{}}},
	{"ranked union body", &ast.RankUnion{Head: &ast.Var{Name: "r"}, Var: "x", RankVar: "r", Over: &ast.EmptySet{}}},
	{"ranked bag union body", &ast.RankBagUnion{Head: &ast.EmptySet{}, Var: "x", RankVar: "r", Over: &ast.EmptyBag{}}},
	{"ranked bag union", &ast.RankBagUnion{Head: &ast.SingletonBag{Elem: &ast.Tuple{Elems: []ast.Expr{&ast.Var{Name: "x"}, &ast.Var{Name: "r"}}}}, Var: "x", RankVar: "r", Over: &ast.EmptyBag{}}},
}

// parserSeeds are the seeds of the parser's fuzz targets (FuzzParseExpr,
// then FuzzParseProgram).
var (
	parserExprSeeds = []string{
		`{d | \d <- gen!30, d % 7 = 0}`,
		`{d | [(\h,_,_):\t] <- T, \d == h/24+1, t > 85.0}`,
		`fn (\m,\d,\y) => d + summap(fn \i => months[i])!(gen!m)`,
		`[[ A[i+k] | \k < (j+1)-i ]]`,
		`let val \x = 1 in x end`,
		`[[2, 2; 1, 2, 3, 4]]`,
		`{| x | \x <- B |}`,
		`A[B[i]]`,
		`-2.5 + -x`,
		`(* comment *) 1`,
		`_|_`,
		"\\", "{", "[[", "]]", "!!", "f!!", "1e", "\"", "{|", "%",
	}
	parserProgramSeeds = []string{
		`val \x = 1; macro \m = fn \y => y; x;`,
		`val`, `;;;`, `macro = 1;`,
	}
)

// inferRow renders one query's inferred type and placeholder types, or its
// error text.
func inferRow(b *strings.Builder, s *repl.Session, text string) {
	fmt.Fprintf(b, "q %s\n", strings.ReplaceAll(text, "\n", " "))
	core, typ, err := s.Compile(text)
	if err != nil {
		fmt.Fprintf(b, "  error %v\n", err)
		return
	}
	fmt.Fprintf(b, "  type %s\n", typ)
	_, params, err := typecheck.InferParams(core, s.Env.GlobalTypes())
	if err != nil {
		fmt.Fprintf(b, "  params error %v\n", err)
		return
	}
	names := make([]string, 0, len(params))
	for name := range params {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(b, "  $%s : %s\n", name, params[name])
	}
}

// renderInference types every row of the inference golden.
func renderInference(t *testing.T) string {
	var b strings.Builder
	section := func(name string) { fmt.Fprintf(&b, "== %s\n", name) }

	section("setup")
	s, err := repl.New()
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Exec(diffSetup)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		fmt.Fprintf(&b, "%s %s : %s\n", r.Kind, r.Name, r.Type)
	}
	bindLoose(s)

	section("diffCorpus")
	for _, text := range diffCorpus {
		inferRow(&b, s, text)
	}
	section("ill-typed")
	for _, text := range illTyped {
		inferRow(&b, s, text)
	}
	for _, c := range illTypedCore {
		fmt.Fprintf(&b, "core %s: %s\n", c.name, c.expr)
		if typ, err := typecheck.Infer(c.expr, nil); err != nil {
			fmt.Fprintf(&b, "  error %v\n", err)
		} else {
			fmt.Fprintf(&b, "  type %s\n", typ)
		}
	}

	section("parser seeds")
	for _, text := range parserExprSeeds {
		inferRow(&b, s, text)
	}
	for _, src := range parserProgramSeeds {
		fmt.Fprintf(&b, "program %s\n", src)
		ps, err := repl.New()
		if err != nil {
			t.Fatal(err)
		}
		res, err := ps.Exec(src)
		for _, r := range res {
			fmt.Fprintf(&b, "  %s %s : %s\n", r.Kind, r.Name, r.Type)
		}
		if err != nil {
			fmt.Fprintf(&b, "  error %v\n", err)
		}
	}

	section("polymorphic globals")
	poly, err := repl.New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := poly.Exec(`val \E = {}; val \P = ({}, {||});`); err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{`E`, `P`, `{1} union E`, `({}, {})`, `(E, P, E)`, `{x | \x <- E, x > 1}`} {
		inferRow(&b, poly, text)
	}

	section("values")
	for _, v := range []object.Value{
		object.Set(object.Set(), object.Set(object.Nat(1))),
		object.Tuple(object.Set(), object.Set(), object.Bag()),
		object.Set(object.Tuple(object.Set(), object.Nat(1)), object.Tuple(object.Set(object.Real(2)), object.Nat(3))),
		object.Vector(object.Set(), object.Set()),
		object.Set(object.Nat(1), object.Bool(true)),
		object.Set(object.Set(object.Nat(1)), object.Set(object.Set())),
	} {
		fmt.Fprintf(&b, "v %s\n", v)
		if typ, err := typecheck.TypeOf(v); err != nil {
			fmt.Fprintf(&b, "  error %v\n", err)
		} else {
			fmt.Fprintf(&b, "  type %s\n", typ)
		}
	}

	section("plan_cold")
	plan := bench.MustSession()
	if _, err := plan.Exec(bench.PlanPrelude + bench.PlanData); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		_, text := bench.PlanText(r, i)
		inferRow(&b, plan, text)
	}
	return b.String()
}

// TestInferenceGolden pins every inferred type, placeholder type and type
// error text over the differential corpus, the parser's fuzz seeds,
// plan_cold's families and one ill-typed row per error site of the
// typechecker, including the names of unsolved type variables. Run with
// -update to rewrite the golden after an intended change.
func TestInferenceGolden(t *testing.T) {
	got := renderInference(t)
	if *updateInference {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(inferenceGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(inferenceGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("line %d differs:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("golden has %d lines, typechecker produced %d", len(wantLines), len(gotLines))
}
