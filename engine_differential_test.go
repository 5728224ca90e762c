// Differential testing of the two execution engines: every query in the
// corpus (and every fuzz input that compiles) must behave byte-identically
// under the reference interpreter and the compiled engine — same value
// rendering, same error text, same resource-error kind, same work counters.
// This is the enforcement mechanism behind DESIGN.md's rule that the
// interpreter is the specification and the compiled engine an optimization.
package aql

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/compile"
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/repl"
	"github.com/aqldb/aql/internal/trace"
	"github.com/aqldb/aql/internal/types"
)

// diffSetup binds the globals the corpus refers to. It runs under the
// default (compiled) engine; only the resulting bindings matter here.
const diffSetup = `
val A = [[ i * 3 + 1 | \i < 10 ]];
val M = [[ i * 10 + j | \i < 4, \j < 5 ]];
val S = gen!6;
val B = {| 1, 2, 2, 5 |};
val G = {(0, 10), (1, 20), (2, 30)};
val f = fn \x => x * x + 1;
val p = (7, true);
val mapN = fn \h => [[ h!i | \i < 8200 ]];
`

// bindLoose binds values under declared types that hide their kinds, so the
// corpus reaches what no well-typed surface query can: R is a real typed as
// any type (nat×real promotion, a Σ committed to real mid-loop, a mixed
// comparison), TT an array of pairs typed as an array of anything (a
// tuple-valued subscript inside arithmetic, whose kind error both engines
// must word alike).
func bindLoose(s *repl.Session) {
	s.Env.SetVal("R", object.Real(2.5), types.MustParse("'a"))
	s.Env.SetVal("TT", object.Vector(object.Tuple(object.Nat(1), object.Nat(2)), object.Tuple(object.Nat(3), object.Nat(4))),
		types.MustParse("[['a]]"))
}

// diffArgs is the argument frame both engines run the corpus with: $k is
// bound, any other placeholder is not.
var diffArgs = map[string]object.Value{"k": object.Nat(3)}

// diffCorpus exercises every construct the surface language can reach —
// arithmetic, comparisons, tuples, sets, bags, comprehensions, closures,
// tabulation, subscripting (including the compiled engine's fused 2-D
// path), indexing, ranking, the standard macros — plus the ⊥ producers
// (division by zero, out-of-bounds subscripts, get of a non-singleton,
// aggregate of an empty collection, dimension/element mismatch in array
// literals) whose diagnostics must render identically.
var diffCorpus = []string{
	// Scalars, arithmetic, comparison, conditionals.
	`1 + 2 * 3 - 4`,
	`7 / 2 + 7 % 2`,
	`2 - 5`, // natural subtraction is monus
	`1.5 + 2.25`,
	`"con" = "con"`,
	`if 3 < 4 then 10 else 20`,
	`if false then 1/0 else 99`, // untaken branch may diverge
	// Tuples and projections.
	`((1, 2), 3)`,
	`fst!p`,
	`f!(fst!p)`,
	// Sets, bags, comprehensions.
	`{1, 2, 2, 3}`,
	`{| 1, 2, 2 |}`,
	`{x * 2 | \x <- S}`,
	`{| x | \x <- B, x > 1 |}`,
	`{(x, y) | \x <- gen!3, \y <- gen!3, x < y}`,
	`count!S + count!{x | \x <- gen!4, x > 0}`,
	`min!S + max!S`,
	`member!(3, S)`,
	`summap(fn \x => x * x)!S`,
	`rank!{30, 10, 20}`,
	`sort!{5, 3, 9, 1}`,
	// Arrays: literals, tabulation, subscripting, dims, macros.
	`[[2, 3; 1, 2, 3, 4, 5, 6]]`,
	`[[ i * i | \i < 20 ]]`,
	`[[ A[i] + 1 | \i < len!A ]]`,
	`A[0] + A[9]`,
	`M[2, 3]`,
	`M[1, 4] + M[3, 0]`,
	`len!A + dim_1_2!M * dim_2_2!M`,
	`transpose!M`,
	`zip!(A, reverse!A)`,
	`subseq!(A, 2, 5)`,
	`index_1!G`,
	`odmg_update!(A, 3, 999)`,
	// ⊥ producers: the payload message must render identically.
	`1 / 0`,
	`5 % 0`,
	`A[100]`,
	`M[4, 0]`,
	`M[0, 5]`,
	`get!S`,
	`get!{x | \x <- S, x > 100}`,
	`min!{x | \x <- S, x > 100}`,
	`[[3; 1, 2]]`,
	`[[ A[i] | \i < 20 ]]`, // ⊥ inside a tabulation: first in row-major order
	`(1/0) + 5`,            // strict propagation through arithmetic
	`{1/0, 2}`,             // ⊥ propagates out of constructors
	// Nat overflow is the kernel's ⊥ on every path, and the optimizer's
	// constant folder leaves a ⊥ result to it rather than folding it to a
	// literal ⊥ of another diagnostic.
	`4294967296 * 4294967296`,                       // wrapped to 0 once
	`9223372036854775807 + 1`,                       // panicked in the folder once
	`4611686018427387904 + 4611686018427387904`,     // ... and at run time
	`[[ 4294967296 * (4294967296 + i) | \i < 2 ]]`,  // in a head, past the folder
	`summap(fn \x => 4611686018427387904)!(gen!2)`,  // a nat Σ whose total overflows
	`summap(fn \x => 4611686018427387904)!(gen!4)`,  // ... past 2^64, where it wrapped to 0
	`summap(fn \i => i * 1099511627776)!(gen!9000)`, // ... mid-loop; fans out at 4 workers
	// The scalar form's edges: eval's numeric kernel, subscripts, Σ and the
	// adapters between the boxed and unboxed forms, inside heads.
	`[[ i - 5 | \i < 8 ]]`,                                    // nat monus underflow
	`[[ 10 / (3 - i) | \i < 5 ]]`,                             // / 0 mid-tabulation
	`[[ i % (i / 2) | \i < 4 ]]`,                              // % 0 at the first cell
	`[[ 1.0 / (real!i - 2.0) | \i < 4 ]]`,                     // real / 0
	`[[ real!i * 1.0e308 * 10.0 | \i < 3 ]]`,                  // real overflow to non-finite
	`[[ R * i + i | \i < 6000 ]]`,                             // nat×real promotion; fans out at 4 workers
	`[[ 6000 / (4500 - i) | \i < 6000 ]]`,                     // first ⊥ inside the last worker's chunk
	`summap(fn \i => if i < 2 then i else R)!(gen!4)`,         // Σ committed to real mid-loop
	`[[ if R < i then 1 else 0 | \i < 5 ]]`,                   // nat beside real in a comparison
	`[[ A[i + 5] | \i < 8 ]]`,                                 // out-of-bounds 1-D subscript
	`[[ M[i, j + 2] | \i < 4, \j < 5 ]]`,                      // out-of-bounds 2-D subscript
	`summap(fn \i => A[i * 2])!(gen!8)`,                       // Σ whose head goes ⊥ mid-loop
	`summap(fn \i => 12 / (4 - i))!(gen!6)`,                   // ... by dividing by zero
	`TT[1] + 1`,                                               // tuple-valued subscript inside +
	`[[ TT[i] + i | \i < 2 ]]`,                                // ... in a head
	`[[ $k * i + 1 | \i < 4 ]]`,                               // $name inside arithmetic
	`$missing + 1`,                                            // unbound $name inside arithmetic
	`[[ if A[i] < M[1, i] then A[i] else M[1, i] | \i < 5 ]]`, // if on a Cmp of subscripts
	// Loop-invariant code under a branch no iteration takes: the optimizer
	// must not hoist it (and its ⊥) out of the loop.
	`[[ if i > 5 then get!({1,2}) else i | \i < 3 ]]`,
	`{ if x > 9 then count!{y | \y <- S, get!S > 0} else x | \x <- S }`,
	// gen!m as a counted range: Σ and ⋃ count through it, every other
	// consumer gets the set.
	`summap(fn \i => i + 1)!(gen!0)`,                               // empty range under Σ
	`{ x * 2 | \x <- gen!0 }`,                                      // ... and under ⋃
	`summap(fn \i => i)!(gen!(1 / 0))`,                             // ⊥ bound
	`{ x | \x <- gen!(A[100]) }`,                                   // ... under ⋃
	`summap(fn \i => i)!(gen!R)`,                                   // non-nat bound
	`count!(gen!R)`,                                                // ... escaping
	`(gen!3) union {7, 1}`,                                         // escapes into a union
	`(gen!2, summap(fn \i => i)!(gen!4))`,                          // ... into a tuple
	`let val \g = gen!5 in summap(fn \x => x * x)!g + count!g end`, // ... into a val
	`count!(gen!7) + count!{x | \x <- gen!7, x > 2}`,               // ... into count!
	`summap(fn \x => x)!(if A[0] < 2 then gen!4 else {9})`,         // ... out of an if branch
	`count!(if A[0] > 2 then gen!4 else {9, 8})`,
	`gen!3 = {0, 1, 2}`,                                       // ... into a comparison
	`member!(2, gen!3)`,                                       // ... into a primitive
	`summap(fn \i => summap(fn \j => i * j)!(gen!i))!(gen!6)`, // inner bound reads the outer variable
	`{ (i, j) | \i <- gen!4, \j <- gen!i }`,
	`[[ summap(fn \k => M[i, k])!(gen!5) | \i < 4 ]]`, // a range per cell
	`summap(fn \i => 10 / (3 - i))!(gen!5)`,           // ⊥ mid-range
	`summap(fn \i => 1.0e308)!(gen!10)`,               // a real Σ whose total overflows: non-finite ⊥
	// Real Σs of more than two eval.SumBlock blocks, which the 4-worker run
	// splits at block boundaries: the pairwise order's sum, bit for bit,
	// and the first ⊥ or error in iteration order whichever chunk holds it.
	`summap(fn \i => 1.0 / (real!i + 1.0))!(gen!1000)`,                             // terms of mixed magnitude
	`summap(fn \i => 1.0 / (real!i - 150.0))!(gen!300)`,                            // ⊥ in the third block
	`summap(fn \x => 1.0 / (real!x - 200.0))!{ x | \x <- gen!400 }`,                // ... of a set
	`summap(fn \i => if i < 200 then real!i * 0.5 else TT[0])!(gen!300)`,           // kind error in a later block
	`summap(fn \i => if i = 250 then TT[0] else 1.0 / (real!i - 180.0))!(gen!300)`, // a ⊥ before an error
	`summap(fn \i => if i = 100 then TT[0] else 1.0 / (real!i - 180.0))!(gen!300)`, // an error before a ⊥
	// An optimized out-of-bounds subscript states the evaluator's
	// diagnostic: the literal-array folder leaves it, and β^p's else is the
	// ⊥ of its index and bounds.
	`[[3; 1, 2, 3]][5]`,
	`[[ i | \i < 3 ]][7]`,
	`[[ i * 2 | \i < 3 ]][A[9]]`,
	// Heads the compiled engine evaluates in blocks of lanes: 1-D and 2-D
	// subscripts, nat and real, a parameter, over more than one block, and
	// the blocks a ⊥ or a kind surprise sends back to the closures.
	`[[ A[i % 10] * 3 + i | \i < 300 ]]`,                       // 1-D nat, two blocks
	`[[ M[i % 4, (i / 4) % 5] + $k * i | \i < 400 ]]`,          // 2-D, a parameter
	`[[ M[i % 4, j % 5] * R + j | \i < 20, \j < 20 ]]`,         // 2-D index lanes, promoted to real
	`[[ A[i / 30] | \i < 320 ]]`,                               // out of bounds in the second block
	`[[ 7 % (i - 299) | \i < 600 ]]`,                           // % 0 in the first two blocks
	`[[ R * i / (i - 250) | \i < 300 ]]`,                       // real / 0 while i - 250 is 0
	`[[ TT[i % 2] + i | \i < 300 ]]`,                           // a tuple cell: the closures' kind error
	`summap(fn \i => A[i % 10] * $k)!(gen!300)`,                // Σ of nat lanes
	`summap(fn \i => M[i % 4, i % 5] * R)!(gen!700)`,           // ... of real lanes, three blocks
	`summap(fn \x => x * 2 + 1)!{ x | \x <- gen!400, x > 10 }`, // ... over a set's members
	`summap(fn \i => 1000 / ((i + 1) % 400))!(gen!600)`,        // ... stopped by / 0 in the second block
	// Sizes the Go runtime cannot allocate fail at the charge, typed.
	`count!(gen!100000000000000000)`,
	`summap(fn \i => i)!(gen!100000000000000000)`,
	`[[ i | \i < 100000000000000000 ]]`,
	`index_1!{(100000000000000000, 1)}`,
}

// diffCoreCorpus holds core terms no surface query reaches: the ranked
// unions of section 6 and the bag union over gen's set.
var diffCoreCorpus = map[string]ast.Expr{
	"ranked union over gen": &ast.RankUnion{
		Head: &ast.Singleton{Elem: &ast.Tuple{Elems: []ast.Expr{&ast.Var{Name: "x"}, &ast.Var{Name: "r"}}}},
		Var:  "x", RankVar: "r", Over: &ast.Gen{N: &ast.NatLit{Val: 5}},
	},
	"ranked union over gen!0": &ast.RankUnion{
		Head: &ast.Singleton{Elem: &ast.Var{Name: "r"}},
		Var:  "x", RankVar: "r", Over: &ast.Gen{N: &ast.NatLit{Val: 0}},
	},
	"ranked bag union over gen": &ast.RankUnion{
		Head: &ast.Singleton{Elem: &ast.Var{Name: "r"}, Bag: true},
		Var:  "x", RankVar: "r", Over: &ast.Gen{N: &ast.NatLit{Val: 3}},
		Bag: true,
	},
	"bag union over gen": &ast.BigUnion{
		Head: &ast.Singleton{Elem: &ast.Var{Name: "x"}, Bag: true},
		Var:  "x", Over: &ast.Gen{N: &ast.NatLit{Val: 3}},
		Bag: true,
	},
}

// compiledEngine runs each core query the way a session does: lowered to a
// fresh compile.Program under limits and run once with opts. It keeps the
// execution's outcome for Counters and SpanTree.
type compiledEngine struct {
	globals map[string]object.Value
	limits  eval.Limits
	opts    compile.ExecOpts
	out     compile.Outcome
}

func (c *compiledEngine) Name() string { return "compiled" }

func (c *compiledEngine) EvalExpr(ctx context.Context, core ast.Expr) (object.Value, error) {
	return compile.NewProgram(core, c.globals, c.limits).Run(ctx, c.opts, &c.out)
}

func (c *compiledEngine) Counters() eval.Counters { return c.out.Counters }

func (c *compiledEngine) SpanTree() *trace.SpanNode { return c.out.Spans }

// engine is what these tests need of either engine.
type engine interface {
	Name() string
	EvalExpr(context.Context, ast.Expr) (object.Value, error)
	Counters() eval.Counters
}

// diffProf is the profiling level diffEngines installs on both engines.
// The default is full — the most invasive instrumentation, which must not
// perturb a single observable byte. The fuzz target varies it per input so
// every level stays under differential coverage.
var diffProf = eval.ProfFull

// diffWorkers is the compiled engine's fan-out in diffEngines. At 1 it runs
// serially, because resource-error payloads must be exact for the
// comparison; above 1 every tabulation fans out (threshold 1), which callers
// use only where no budget can trip.
var diffWorkers = 1

// diffEngines builds the interpreter and a compiled engine over the same
// globals, limits and argument frame (diffArgs).
func diffEngines(globals map[string]object.Value, limits eval.Limits) (*eval.Evaluator, *compiledEngine) {
	in := eval.New(globals)
	in.Limits = limits
	in.Params = diffArgs
	in.SetProfiling(diffProf)
	ce := &compiledEngine{globals: globals, limits: limits,
		opts: compile.ExecOpts{Threshold: -1, Level: diffProf, Args: diffArgs}}
	if diffWorkers > 1 {
		ce.opts.Workers, ce.opts.Threshold = diffWorkers, 1
	}
	return in, ce
}

// runDiff evaluates core under both engines and reports any observable
// divergence; it returns the interpreter's outcome for additional checks.
func runDiff(t *testing.T, globals map[string]object.Value, core ast.Expr, limits eval.Limits) (object.Value, error) {
	t.Helper()
	in, ce := diffEngines(globals, limits)
	iv, ierr := in.EvalExpr(context.Background(), core)
	cv, cerr := ce.EvalExpr(context.Background(), core)

	switch {
	case ierr != nil && cerr == nil:
		t.Errorf("interp errored (%v), compiled succeeded (%s)", ierr, cv)
	case ierr == nil && cerr != nil:
		t.Errorf("compiled errored (%v), interp succeeded (%s)", cerr, iv)
	case ierr != nil:
		var ire, cre *eval.ResourceError
		if errors.As(ierr, &ire) != errors.As(cerr, &cre) {
			t.Errorf("error class differs: interp %v, compiled %v", ierr, cerr)
		} else if ire != nil {
			if ire.Kind != cre.Kind || ire.Limit != cre.Limit {
				t.Errorf("resource errors differ: interp %v, compiled %v", ierr, cerr)
			}
		} else if ierr.Error() != cerr.Error() {
			t.Errorf("error text differs:\ninterp   %q\ncompiled %q", ierr, cerr)
		}
	default:
		if iv.String() != cv.String() {
			t.Errorf("values differ:\ninterp   %s\ncompiled %s", iv, cv)
		}
		if ic, cc := in.Counters(), ce.Counters(); ic != cc {
			t.Errorf("counters differ:\ninterp   %+v\ncompiled %+v", ic, cc)
		}
	}
	return iv, ierr
}

func diffSession(t *testing.T) *repl.Session {
	t.Helper()
	s, err := repl.New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(diffSetup); err != nil {
		t.Fatal(err)
	}
	bindLoose(s)
	return s
}

// TestEngineDifferential runs the corpus through both engines, each query
// both unoptimized and optimized — the engines must agree on every core
// query the pipeline can hand them, not just post-optimizer forms. The
// whole corpus runs at every profiling level, serially and fanned out over
// 4 workers: instrumentation and parallelism must never change an
// observable outcome.
func TestEngineDifferential(t *testing.T) {
	s := diffSession(t)
	globals := s.Env.Globals()
	defer func(level eval.ProfLevel) { diffProf, diffWorkers = level, 1 }(diffProf)
	for _, level := range []eval.ProfLevel{eval.ProfOff, eval.ProfSampled, eval.ProfFull} {
		diffProf = level
		t.Run(level.String(), func(t *testing.T) {
			for _, src := range diffCorpus {
				t.Run(src, func(t *testing.T) {
					core, _, err := s.Compile(src)
					if err != nil {
						t.Fatalf("compile: %v", err)
					}
					for _, workers := range []int{1, 4} {
						diffWorkers = workers
						runDiff(t, globals, core, eval.Limits{})
						runDiff(t, globals, s.Optimize(core), eval.Limits{})
						if t.Failed() {
							t.Fatalf("the engines diverge with the compiled one on %d workers", workers)
						}
					}
				})
			}
			for name, core := range diffCoreCorpus {
				t.Run(name, func(t *testing.T) {
					for _, workers := range []int{1, 4} {
						diffWorkers = workers
						runDiff(t, globals, core, eval.Limits{})
					}
				})
			}
		})
	}
}

// TestRealSumOverflowIsBottom: a real Σ whose total is not finite is the
// numeric kernel's non-finite ⊥ on both engines, as a real + is: the total
// order has no place for +Inf.
func TestRealSumOverflowIsBottom(t *testing.T) {
	s := diffSession(t)
	globals := s.Env.Globals()
	for _, src := range []string{
		`summap(fn \i => 1.0e308)!(gen!10)`,
		`summap(fn \i => if i < 5 then 1.0e308 else 0.0 - 1.0e308)!(gen!10)`,
	} {
		t.Run(src, func(t *testing.T) {
			core, _, err := s.Compile(src)
			if err != nil {
				t.Fatal(err)
			}
			in, ce := diffEngines(globals, eval.Limits{})
			for _, eng := range []engine{in, ce} {
				v, err := eng.EvalExpr(context.Background(), core)
				if err != nil || v.String() != object.Bottom("non-finite arithmetic result").String() {
					t.Errorf("%s: %s, %v; want the non-finite ⊥", eng.Name(), v, err)
				}
			}
		})
	}
}

// TestOptimizerDifferential checks the optimizer against the unoptimized
// query on the whole corpus: the interpreter must render the same value,
// the same ⊥ diagnostic or the same error text for both.
func TestOptimizerDifferential(t *testing.T) {
	s := diffSession(t)
	globals := s.Env.Globals()
	for _, src := range diffCorpus {
		t.Run(src, func(t *testing.T) {
			core, _, err := s.Compile(src)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			in, _ := diffEngines(globals, eval.Limits{})
			uv, uerr := in.EvalExpr(context.Background(), core)
			in, _ = diffEngines(globals, eval.Limits{})
			ov, oerr := in.EvalExpr(context.Background(), s.Optimize(core))
			if got, want := outcome(ov, oerr), outcome(uv, uerr); got != want {
				t.Errorf("optimized %s, unoptimized %s", got, want)
			}
		})
	}
}

// outcome renders an evaluation's value or error for comparison.
func outcome(v object.Value, err error) string {
	switch {
	case err != nil:
		return "error " + err.Error()
	}
	return v.String()
}

// TestEngineDifferentialResourceErrors pins budget-trip parity: both
// engines must report the same ResourceError kind and limit, at the same
// consumption, for step, cell and depth budgets.
func TestEngineDifferentialResourceErrors(t *testing.T) {
	s := diffSession(t)
	globals := s.Env.Globals()
	cases := []struct {
		name   string
		src    string
		limits eval.Limits
		kind   eval.ResourceKind
	}{
		{"steps", `summap(fn \i => i)!(gen!100000)`, eval.Limits{MaxSteps: 5000}, eval.ResourceSteps},
		{"cells", `[[ i | \i < 1000000 ]]`, eval.Limits{MaxCells: 1000}, eval.ResourceCells},
		{"depth", `[[ f!(f!(f!(f!(f!(f!(f!(f!i))))))) | \i < 10 ]]`, eval.Limits{MaxDepth: 6}, eval.ResourceDepth},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			core, _, err := s.Compile(tc.src)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			_, ierr := runDiff(t, globals, core, tc.limits)
			var re *eval.ResourceError
			if !errors.As(ierr, &re) || re.Kind != tc.kind {
				t.Fatalf("err = %v, want a %v ResourceError (case under-budgeted?)", ierr, tc.kind)
			}
		})
	}
}

// TestAllocationPollsContext: gen, a tabulation and index allocate by a count
// known only at run time. Under an already-cancelled context both engines
// fail at the same point, before charging (or allocating) those cells.
func TestAllocationPollsContext(t *testing.T) {
	s := diffSession(t)
	globals := s.Env.Globals()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		src   string
		cells int64 // charged before the allocation: index's input set
	}{
		{`count!(gen!3000000)`, 0},
		{`[[ i | \i < 3000000 ]]`, 0},
		{`index_1!{(3000000, 1)}`, 1},
	} {
		t.Run(tc.src, func(t *testing.T) {
			core, _, err := s.Compile(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			in, ce := diffEngines(globals, eval.Limits{})
			for _, eng := range []engine{in, ce} {
				_, err := eng.EvalExpr(ctx, core)
				var re *eval.ResourceError
				if !errors.As(err, &re) || re.Kind != eval.ResourceCancelled {
					t.Errorf("%s: err = %v, want a cancelled ResourceError", eng.Name(), err)
				}
				if c := eng.Counters().Cells; c != tc.cells {
					t.Errorf("%s: %d cells charged, want %d", eng.Name(), c, tc.cells)
				}
			}
			if ic, cc := in.Counters(), ce.Counters(); ic != cc {
				t.Errorf("counters differ:\ninterp   %+v\ncompiled %+v", ic, cc)
			}
		})
	}
}

// TestAllocationBeyondRuntimeLimit: gen, a tabulation and index sized past
// what one Go slice can hold fail on both engines with *eval.SizeError at
// their charge, where make used to panic. The charge stands, as a cell
// budget's does.
func TestAllocationBeyondRuntimeLimit(t *testing.T) {
	s := diffSession(t)
	globals := s.Env.Globals()
	for _, src := range []string{
		`count!(gen!100000000000000000)`,
		`summap(fn \i => i)!(gen!100000000000000000)`,
		`[[ i | \i < 100000000000000000 ]]`,
		`index_1!{(100000000000000000, 1)}`,
	} {
		t.Run(src, func(t *testing.T) {
			core, _, err := s.Compile(src)
			if err != nil {
				t.Fatal(err)
			}
			in, ce := diffEngines(globals, eval.Limits{})
			for _, eng := range []engine{in, ce} {
				_, err := eng.EvalExpr(context.Background(), core)
				var se *eval.SizeError
				if !errors.As(err, &se) || se.Cells < 100000000000000000 {
					t.Errorf("%s: err = %v, want a *eval.SizeError for the requested cells", eng.Name(), err)
				}
			}
			if ic, cc := in.Counters(), ce.Counters(); ic != cc {
				t.Errorf("counters differ:\ninterp   %+v\ncompiled %+v", ic, cc)
			}
		})
	}
}

// FuzzEngineDifferential feeds arbitrary source through the full pipeline;
// whenever it compiles, both engines must agree byte-for-byte. Budgets keep
// adversarial inputs (huge tabulations, deep nesting) bounded — and budget
// trips themselves must then agree too.
func FuzzEngineDifferential(f *testing.F) {
	for _, src := range diffCorpus {
		f.Add(src)
	}
	f.Add(`let val \x = 3 in x * x end`)
	f.Add(`{| x + y | \x <- B, \y <- B |}`)

	s, err := repl.New()
	if err != nil {
		f.Fatal(err)
	}
	if _, err := s.Exec(diffSetup); err != nil {
		f.Fatal(err)
	}
	bindLoose(s)
	globals := s.Env.Globals()
	limits := eval.Limits{MaxSteps: 200_000, MaxCells: 1 << 20, MaxDepth: 10_000}

	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 2000 || strings.ContainsAny(src, "\x00") {
			t.Skip()
		}
		core, _, err := s.Compile(src)
		if err != nil {
			t.Skip() // only well-typed queries reach an engine
		}
		// Vary the profiling level deterministically per input so the fuzz
		// explores all three instrumentation states — off runs the bare
		// closures, full exercises every wrapper.
		diffProf = eval.ProfLevel(len(src) % 3)
		for _, e := range []ast.Expr{core, s.Optimize(core)} {
			if _, err := runDiff(t, globals, e, limits); err != nil {
				continue
			}
			// A run that finished within its budgets does the same work
			// fanned out, so no budget can trip there either: hold the
			// 4-worker fan-out to the same outcome. MaxDepth would force it
			// serial, and the serial run has shown the depth is bounded.
			diffWorkers = 4
			runDiff(t, globals, e, eval.Limits{MaxSteps: limits.MaxSteps, MaxCells: limits.MaxCells})
			diffWorkers = 1
		}
	})
}
