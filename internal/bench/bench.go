// Package bench defines the workloads for the experiment suite in
// DESIGN.md. The testing.B benchmarks (bench_test.go at the module root)
// and the layered benchmark (benchmarks/) build their measurements from
// these definitions so that the two always agree on what is measured.
//
// The paper has no numeric results tables; its measurable claims are the
// complexity statements of sections 1-3 and the optimizer effects of
// section 5. Each workload here regenerates one of them.
package bench

import (
	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/rank"
	"github.com/aqldb/aql/internal/repl"
	"github.com/aqldb/aql/internal/types"
	"github.com/aqldb/aql/internal/weather"
)

// MustSession returns a standard session or panics; benchmarks have no
// error channel worth threading.
func MustSession() *repl.Session {
	s, err := repl.New()
	if err != nil {
		panic(err)
	}
	return s
}

// --- E4: the motivating query ---------------------------------------------------

// MotivatingQuery is the section 1 query, verbatim.
const MotivatingQuery = `{d | \d <- gen!30,
  \WS' == evenpos!(proj_col!(WS, 0)),
  \TRW == zip_3!(T, RH, WS'),
  \A == subseq!(TRW, d*24, d*24+23),
  heatindex!(A) > threshold}`

// SetupWeather binds T, RH, WS and threshold in the session from the
// synthetic June.
func SetupWeather(s *repl.Session) {
	m := weather.Generate(weather.DefaultConfig())
	s.Env.SetVal("T", realVector(m.T), types.MustParse("[[real]]"))
	s.Env.SetVal("RH", realVector(m.RH), types.MustParse("[[real]]"))
	ws := make([]object.Value, len(m.WS))
	for i, f := range m.WS {
		ws[i] = object.Real(f)
	}
	arr, err := object.Array([]int{m.Cfg.Days * 48, m.Cfg.Altitudes}, ws)
	if err != nil {
		panic(err)
	}
	s.Env.SetVal("WS", arr, types.MustParse("[[real]]_2"))
	s.Env.SetVal("threshold", object.Real(105), types.Real)
}

func realVector(fs []float64) object.Value {
	data := make([]object.Value, len(fs))
	for i, f := range fs {
		data[i] = object.Real(f)
	}
	return object.Vector(data...)
}

// --- E6: zip with arrays is O(n); without arrays it is a join ---------------------

// ZipArrayQuery zips two length-n arrays with the array macro (linear).
const ZipArrayQuery = `zip!(A, B)`

// ZipSetsQuery performs the same pairing over the graph encodings of the
// arrays with a set join — the best a language without arrays can do
// declaratively, and quadratic under naive evaluation (section 1's claim).
const ZipSetsQuery = `{(i, (a, b)) | (\i, \a) <- G, (i, \b) <- H}`

// SetupZip binds A, B (arrays) and G, H (their graphs) of length n.
func SetupZip(s *repl.Session, n int) {
	a := make([]object.Value, n)
	b := make([]object.Value, n)
	for i := range a {
		a[i] = object.Nat(int64((i*7919 + 13) % 1000))
		b[i] = object.Nat(int64((i*104729 + 7) % 1000))
	}
	A, B := object.Vector(a...), object.Vector(b...)
	s.Env.SetVal("A", A, types.MustParse("[[nat]]"))
	s.Env.SetVal("B", B, types.MustParse("[[nat]]"))
	G, err := rank.TranslateValue(A)
	if err != nil {
		panic(err)
	}
	H, err := rank.TranslateValue(B)
	if err != nil {
		panic(err)
	}
	s.Env.SetVal("G", G, types.MustParse("{nat * nat}"))
	s.Env.SetVal("H", H, types.MustParse("{nat * nat}"))
}

// --- E7: hist vs hist' -------------------------------------------------------------

// HistMacros defines both versions of section 2's histogram.
const HistMacros = `
macro \hist = fn \e =>
  [[ summap(fn \j => if e[j] = i then 1 else 0)!(dom!e)
     | \i < max!(rng!e) + 1 ]];
macro \hist' = fn \e =>
  let val \g = index_1!{p | [\j : \x] <- e, \p == (x, j)}
  in [[ count!(g[i]) | \i < len!g ]] end;
`

// SetupHist binds A: a length-n array of naturals below m, with the range
// pinned so both versions see the same m buckets.
func SetupHist(s *repl.Session, n, m int) {
	data := make([]object.Value, n)
	for i := range data {
		data[i] = object.Nat(int64((i * 7919) % m))
	}
	data[0] = object.Nat(int64(m - 1))
	s.Env.SetVal("A", object.Vector(data...), types.MustParse("[[nat]]"))
}

// --- E8: literal arrays: monoid append vs the row-major construct -------------------

// AppendChainExpr builds [[0]] @ [[1]] @ ... @ [[n-1]] with the append
// tabulation of section 3 — the O(n²) way to write a literal. Each
// intermediate array is let-bound ((λa. ...)(chain)) so it is evaluated
// once, matching the call-by-value cost model behind the paper's O(n²)
// claim; inlining the chains textually would instead be exponential.
func AppendChainExpr(n int) ast.Expr {
	appendOf := func(a, b ast.Expr) ast.Expr {
		// [[ if i < len(a) then a[i] else b[i - len(a)] | i < len a + len b ]]
		return &ast.ArrayTab{
			Head: &ast.If{
				Cond: &ast.Cmp{Op: ast.OpLt, L: &ast.Var{Name: "i"}, R: &ast.Dim{K: 1, Arr: a}},
				Then: &ast.Subscript{Arr: a, Index: &ast.Var{Name: "i"}},
				Else: &ast.Subscript{Arr: b, Index: &ast.Arith{
					Op: ast.OpSub, L: &ast.Var{Name: "i"}, R: &ast.Dim{K: 1, Arr: a}}},
			},
			Idx: []string{"i"},
			Bounds: []ast.Expr{&ast.Arith{
				Op: ast.OpAdd, L: &ast.Dim{K: 1, Arr: a}, R: &ast.Dim{K: 1, Arr: b}}},
		}
	}
	out := ast.Expr(&ast.MkArray{Dims: []ast.Expr{&ast.NatLit{Val: 1}},
		Elems: []ast.Expr{&ast.NatLit{Val: 0}}})
	for i := 1; i < n; i++ {
		single := &ast.MkArray{Dims: []ast.Expr{&ast.NatLit{Val: 1}},
			Elems: []ast.Expr{&ast.NatLit{Val: int64(i)}}}
		a := ast.Fresh("chain")
		out = &ast.App{
			Fn:  &ast.Lam{Param: a, Body: appendOf(&ast.Var{Name: a}, single)},
			Arg: out,
		}
	}
	return out
}

// RowMajorExpr builds [[n; 0, 1, ..., n-1]] — the O(n) literal construct
// that section 3 adds for exactly this reason.
func RowMajorExpr(n int) ast.Expr {
	elems := make([]ast.Expr, n)
	for i := range elems {
		elems[i] = &ast.NatLit{Val: int64(i)}
	}
	return &ast.MkArray{Dims: []ast.Expr{&ast.NatLit{Val: int64(n)}}, Elems: elems}
}

// --- E9: the array rules avoid materialization ---------------------------------------

// BetaPExpr is [[ i*i | i < n ]][k]: β^p reduces it to a constant-time
// guard regardless of n.
func BetaPExpr(n int) ast.Expr {
	return &ast.Subscript{
		Arr: &ast.ArrayTab{
			Head:   &ast.Arith{Op: ast.OpMul, L: &ast.Var{Name: "i"}, R: &ast.Var{Name: "i"}},
			Idx:    []string{"i"},
			Bounds: []ast.Expr{&ast.NatLit{Val: int64(n)}},
		},
		Index: &ast.NatLit{Val: int64(n / 2)},
	}
}

// EtaPExpr is [[ A[i] | i < len A ]]: η^p collapses the retabulation.
func EtaPExpr() ast.Expr {
	return &ast.ArrayTab{
		Head:   &ast.Subscript{Arr: &ast.Var{Name: "A"}, Index: &ast.Var{Name: "i"}},
		Idx:    []string{"i"},
		Bounds: []ast.Expr{&ast.Dim{K: 1, Arr: &ast.Var{Name: "A"}}},
	}
}

// DeltaPExpr is len([[ i*i | i < n ]]): δ^p avoids the tabulation.
func DeltaPExpr(n int) ast.Expr {
	return &ast.Dim{K: 1, Arr: &ast.ArrayTab{
		Head:   &ast.Arith{Op: ast.OpMul, L: &ast.Var{Name: "i"}, R: &ast.Var{Name: "i"}},
		Idx:    []string{"i"},
		Bounds: []ast.Expr{&ast.NatLit{Val: int64(n)}},
	}}
}

// SetupVector binds A to a length-n vector.
func SetupVector(s *repl.Session, n int) {
	data := make([]object.Value, n)
	for i := range data {
		data[i] = object.Nat(int64(i))
	}
	s.Env.SetVal("A", object.Vector(data...), types.MustParse("[[nat]]"))
}

// --- E10/E11: fusion queries ----------------------------------------------------------

// TransposeQuery transposes a tabulation; the optimizer re-indexes it in
// place (E10).
const TransposeQuery = `transpose![[ i * 10 + j | \i < m, \j < n ]]`

// SetupTranspose binds the dimension vals.
func SetupTranspose(s *repl.Session, m, n int) {
	s.Env.SetVal("m", object.Nat(int64(m)), types.Nat)
	s.Env.SetVal("n", object.Nat(int64(n)), types.Nat)
}

// The two orderings of E11; after normalization they evaluate with the
// same cost.
const (
	ZipThenSubseqQuery = `subseq!(zip!(A, B), lo, hi)`
	SubseqThenZipQuery = `zip!(subseq!(A, lo, hi), subseq!(B, lo, hi))`
)

// SetupZipSubseq binds A, B, lo, hi.
func SetupZipSubseq(s *repl.Session, n int) {
	SetupZip(s, n)
	s.Env.SetVal("lo", object.Nat(int64(n/4)), types.Nat)
	s.Env.SetVal("hi", object.Nat(int64(3*n/4)), types.Nat)
}

// --- E19: execution engines -------------------------------------------------------------

// The engine-comparison workloads are tabulation-heavy by design — the
// compiled engine's case — and are written as val declarations so their
// results are bound (the optimizer's δ^p would erase an unobserved
// tabulation, and a benchmark of dead code measures nothing).

// EngineSetup binds n and two n×n matrices for the matmul workload.
const EngineSetup = `val n = 60;
val A = [[ (i*j + 7) % 93 | \i < n, \j < n ]];
val B = [[ (i+j) % 41 | \i < n, \j < n ]];`

// PureTabQuery materializes one large flat tabulation: per-element work is
// tiny, so it isolates the per-node execution overhead of an engine.
const PureTabQuery = `val T = [[ (i*i + 7) % 93 | \i < 300000 ]];`

// MatmulQuery is the dense matrix product of section 3, with closure
// application, set generation and summation in the inner loop.
const MatmulQuery = `val C = [[ summap(fn \k => A[i,k] * B[k,j])!(gen!n) | \i < n, \j < n ]];`
