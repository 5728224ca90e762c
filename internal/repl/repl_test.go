package repl

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/aqldb/aql/internal/netcdf"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/prim"
	"github.com/aqldb/aql/internal/types"
)

func newSession(t *testing.T) *Session {
	t.Helper()
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func query(t *testing.T, s *Session, src string) (object.Value, *types.Type) {
	t.Helper()
	v, typ, err := s.Query(src)
	if err != nil {
		t.Fatalf("Query(%q): %v", src, err)
	}
	return v, typ
}

func expectQuery(t *testing.T, s *Session, src string, want object.Value) {
	t.Helper()
	got, _ := query(t, s, src)
	if !object.Equal(got, want) {
		t.Errorf("%q = %s, want %s", src, got, want)
	}
}

func TestStandardMacros(t *testing.T) {
	s := newSession(t)
	s.Env.SetVal("A", object.NatVector(10, 20, 30, 40, 50), types.MustParse("[[nat]]"))
	M := object.MustArray([]int{2, 3}, []object.Value{
		object.Nat(1), object.Nat(2), object.Nat(3),
		object.Nat(4), object.Nat(5), object.Nat(6)})
	s.Env.SetVal("M", M, types.MustParse("[[nat]]_2"))

	expectQuery(t, s, "dom!A", object.Set(object.Nat(0), object.Nat(1), object.Nat(2), object.Nat(3), object.Nat(4)))
	expectQuery(t, s, "rng!A", object.Set(object.Nat(10), object.Nat(20), object.Nat(30), object.Nat(40), object.Nat(50)))
	expectQuery(t, s, "subseq!(A, 1, 3)", object.NatVector(20, 30, 40))
	expectQuery(t, s, "reverse!A", object.NatVector(50, 40, 30, 20, 10))
	expectQuery(t, s, "evenpos!A", object.NatVector(10, 30))
	expectQuery(t, s, "oddpos!A", object.NatVector(20, 40))
	expectQuery(t, s, "zip!(A, reverse!A)", object.Vector(
		object.Tuple(object.Nat(10), object.Nat(50)),
		object.Tuple(object.Nat(20), object.Nat(40)),
		object.Tuple(object.Nat(30), object.Nat(30)),
		object.Tuple(object.Nat(40), object.Nat(20)),
		object.Tuple(object.Nat(50), object.Nat(10))))
	expectQuery(t, s, "transpose!M", object.MustArray([]int{3, 2}, []object.Value{
		object.Nat(1), object.Nat(4),
		object.Nat(2), object.Nat(5),
		object.Nat(3), object.Nat(6)}))
	expectQuery(t, s, "proj_col!(M, 1)", object.NatVector(2, 5))
	expectQuery(t, s, "proj_row!(M, 1)", object.NatVector(4, 5, 6))
	expectQuery(t, s, "fst!(7, 8)", object.Nat(7))
	expectQuery(t, s, "snd!(7, 8)", object.Nat(8))
	expectQuery(t, s, "append!(subseq!(A,0,1), subseq!(A,3,4))", object.NatVector(10, 20, 40, 50))
	expectQuery(t, s, "filter!(fn \\x => x > 25, rng!A)",
		object.Set(object.Nat(30), object.Nat(40), object.Nat(50)))
	expectQuery(t, s, "forall_in!(fn \\x => x > 5, rng!A)", object.True)
	expectQuery(t, s, "exists_in!(fn \\x => x > 45, rng!A)", object.True)
	expectQuery(t, s, "exists_in!(fn \\x => x > 99, rng!A)", object.False)
}

// TestPreludeAppend checks that the prelude's append concatenates vectors and
// rejects a rank-2 operand, on both engines.
func TestPreludeAppend(t *testing.T) {
	for _, engine := range []string{EngineCompiled, EngineInterp} {
		s := newSession(t)
		s.Engine = engine
		expectQuery(t, s, "append!([[1, 2]], [[3]])", object.NatVector(1, 2, 3))
		s.Env.SetVal("M", object.MustArray([]int{1, 1}, []object.Value{object.Nat(0)}), types.MustParse("[[nat]]_2"))
		if v, _, err := s.Query("append!(M, [[1]])"); err == nil {
			t.Errorf("%s: append of a rank-2 array = %s, want an error", engine, v)
		}
	}
}

// TestPreludeAppendMonoidLaws checks the prelude's append against the monoid
// laws of section 3 — the empty array is a unit on both sides and append is
// associative — over seeded random nat vectors, on both engines.
func TestPreludeAppendMonoidLaws(t *testing.T) {
	nat := types.MustParse("[[nat]]")
	for _, engine := range []string{EngineCompiled, EngineInterp} {
		s := newSession(t)
		s.Engine = engine
		s.Env.SetVal("E", object.Vector(), nat)
		rng := rand.New(rand.NewSource(1))
		vec := func() object.Value {
			ns := make([]int64, rng.Intn(6))
			for i := range ns {
				ns[i] = int64(rng.Intn(100))
			}
			return object.NatVector(ns...)
		}
		for seed := 0; seed < 20; seed++ {
			a, b, c := vec(), vec(), vec()
			for name, v := range map[string]object.Value{"A": a, "B": b, "C": c} {
				s.Env.SetVal(name, v, nat)
			}
			expectQuery(t, s, "append!(E, A)", a)
			expectQuery(t, s, "append!(A, E)", a)
			abc, _ := query(t, s, "append!(append!(A, B), C)")
			expectQuery(t, s, "append!(A, append!(B, C))", abc)
			if abc.Size() != a.Size()+b.Size()+c.Size() {
				t.Errorf("%s: append of %s, %s, %s = %s", engine, a, b, c, abc)
			}
		}
	}
}

func TestZip3MatchesPaper(t *testing.T) {
	s := newSession(t)
	s.Env.SetVal("T", object.RealVector(70, 71), types.MustParse("[[real]]"))
	s.Env.SetVal("RH", object.RealVector(50, 51), types.MustParse("[[real]]"))
	s.Env.SetVal("WS", object.RealVector(5, 6), types.MustParse("[[real]]"))
	want := object.Vector(
		object.Tuple(object.Real(70), object.Real(50), object.Real(5)),
		object.Tuple(object.Real(71), object.Real(51), object.Real(6)))
	expectQuery(t, s, "zip_3!(T, RH, WS)", want)
}

func TestExecValMacroIt(t *testing.T) {
	s := newSession(t)
	results, err := s.Exec(`
	  val \months = [[0,31,28,31,30,31,30,31,31,30,31,30]];
	  macro \double = fn \x => x * 2;
	  double!(months[1]);
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].Kind != "val" || results[0].Name != "months" {
		t.Errorf("result 0 = %+v", results[0])
	}
	if results[0].Type.String() != "[[nat]]" {
		t.Errorf("months type = %s", results[0].Type)
	}
	if results[1].Kind != "macro" || results[1].Type.String() != "nat -> nat" {
		t.Errorf("result 1 = %+v type %s", results[1], results[1].Type)
	}
	if !object.Equal(results[2].Value, object.Nat(62)) {
		t.Errorf("query = %s", results[2].Value)
	}
	// `it` is bound to the last query result.
	expectQuery(t, s, "it + 1", object.Nat(63))
}

func TestQueryTypeEchoes(t *testing.T) {
	s := newSession(t)
	_, typ := query(t, s, `{d | \d <- gen!3}`)
	if typ.String() != "{nat}" {
		t.Errorf("type = %s", typ)
	}
}

func TestExchangeRoundTrip(t *testing.T) {
	s := newSession(t)
	path := filepath.Join(t.TempDir(), "out.co")
	if _, err := s.Exec(fmt.Sprintf(`writeval {(1, "a"), (2, "b")} using EXCHANGE at %q;`, path)); err != nil {
		t.Fatal(err)
	}
	results, err := s.Exec(fmt.Sprintf(`readval \X using EXCHANGE at %q;`, path))
	if err != nil {
		t.Fatal(err)
	}
	want := object.Set(
		object.Tuple(object.Nat(1), object.String_("a")),
		object.Tuple(object.Nat(2), object.String_("b")))
	if !object.Equal(results[0].Value, want) {
		t.Errorf("read back %s", results[0].Value)
	}
	// The read value is typed and usable in queries.
	expectQuery(t, s, `{x | (\x, _) <- X}`, object.Set(object.Nat(1), object.Nat(2)))
}

func TestNetCDFReader(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "grid.nc")
	b := netcdf.NewBuilder()
	ti, _ := b.AddDim("time", 4)
	la, _ := b.AddDim("lat", 2)
	lo, _ := b.AddDim("lon", 2)
	data := make([]float64, 16)
	for i := range data {
		data[i] = float64(i)
	}
	if err := b.AddVar("temp", netcdf.Double, []int{ti, la, lo}, nil, data); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteFile(path); err != nil {
		t.Fatal(err)
	}

	s := newSession(t)
	src := fmt.Sprintf(`readval \T using NETCDF3 at (%q, "temp", (1,0,0), (2,1,1));`, path)
	results, err := s.Exec(src)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Type.String() != "[[real]]_3" {
		t.Errorf("T type = %s", results[0].Type)
	}
	got := results[0].Value
	if got.Shape[0] != 2 || got.Shape[1] != 2 || got.Shape[2] != 2 {
		t.Fatalf("shape = %v", got.Shape)
	}
	// T[0,0,0] should be the file's temp[1,0,0] = 4.
	expectQuery(t, s, "T[0,0,0]", object.Real(4))
	expectQuery(t, s, "T[1,1,1]", object.Real(11))
	// Whole-variable reader.
	if _, err := s.Exec(fmt.Sprintf(`readval \W using NETCDF at (%q, "temp");`, path)); err != nil {
		t.Fatal(err)
	}
	expectQuery(t, s, "dim_3!W", object.Tuple(object.Nat(4), object.Nat(2), object.Nat(2)))
}

func TestNetCDFReaderErrors(t *testing.T) {
	s := newSession(t)
	if _, err := s.Exec(`readval \T using NETCDF3 at ("/nonexistent.nc", "x", (0,0,0), (0,0,0));`); err == nil {
		t.Error("missing file should error")
	}
	if _, err := s.Exec(`readval \T using NOPE at "x";`); err == nil {
		t.Error("unregistered reader should error")
	}
}

// TestSection42Session reproduces the complete sample session of
// section 4.2 (experiment E5): register june_sunset, define the
// days_since_1_1 macro, read the June subslab of a year's hourly
// temperature file through NETCDF3, and run the final query. The synthetic
// temperature data places post-sunset heat on June 25, 27 and 28, so the
// result reproduces the paper's
//
//	val it = {25,27,28}
func TestSection42Session(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "temp.nc")
	writeYearTempFile(t, path, []int{25, 27, 28})

	s := newSession(t)

	// The SML-side registration of june_sunset (lat, lon, d). The paper's
	// query compares it against the hour index within the June array, so
	// the primitive returns sunset in month-hours: (d-1)*24 + sunset hour.
	err := s.Env.RegisterPrimitive("june_sunset",
		func(v object.Value) (object.Value, error) {
			lat, _ := v.Elems[0].AsReal()
			lon, _ := v.Elems[1].AsReal()
			d, _ := v.Elems[2].AsNat()
			h := prim.Sunset(lat, lon, 6, int(d), 1995)
			return object.Nat((d-1)*24 + int64(h)), nil
		},
		types.MustParse("(real * real * nat) -> nat"))
	if err != nil {
		t.Fatal(err)
	}

	// The session's declarations, verbatim up to the lat/lon index macros
	// (our synthetic grid has a single cell at NYC).
	session := fmt.Sprintf(`
	  val \months = [[0,31,28,31,30,31,30,31,31,30,31,30]];
	  macro \days_since_1_1 = fn (\m,\d,\y) =>
	    d + summap(fn \i => months[i])!(gen!m) +
	    if m > 2 and y %% 4 = 0 then 1 else 0;
	  macro \lat_index = fn _ => 0;
	  macro \lon_index = fn _ => 0;
	  val \NYlat = 40.7;
	  val \NYlon = 74.0;
	  readval \T using NETCDF3 at
	    (%q, "temp",
	     (days_since_1_1!(6,1,95)*24,
	      lat_index!(NYlat), lon_index!(NYlon)),
	     (days_since_1_1!(6,30,95)*24 + 23,
	      lat_index!(NYlat), lon_index!(NYlon)));
	  {d | [(\h,_,_):\t] <- T, \d == h/24+1,
	       h > june_sunset!(NYlat, NYlon, d), t > 85.0};
	`, path)
	results, err := s.Exec(session)
	if err != nil {
		t.Fatal(err)
	}

	// typ days_since_1_1 : nat * nat * nat -> nat, as the paper echoes.
	if got := results[1].Type.String(); got != "(nat * nat * nat) -> nat" {
		t.Errorf("days_since_1_1 type = %s", got)
	}
	// typ T : [[real]]_3
	if got := results[6].Type.String(); got != "[[real]]_3" {
		t.Errorf("T type = %s", got)
	}
	// val it = {25,27,28}
	final := results[len(results)-1]
	want := object.Set(object.Nat(25), object.Nat(27), object.Nat(28))
	if !object.Equal(final.Value, want) {
		t.Errorf("it = %s, want %s", final.Value, want)
	}
	if final.Type.String() != "{nat}" {
		t.Errorf("it type = %s", final.Type)
	}
}

// writeYearTempFile writes a year's worth of hourly temperatures over a
// 1x1 grid, hot after sunset only on the given June days.
func writeYearTempFile(t *testing.T, path string, hotJuneDays []int) {
	t.Helper()
	hot := map[int]bool{}
	for _, d := range hotJuneDays {
		hot[d] = true
	}
	const hoursPerYear = 365 * 24
	// Aligned with the session's days_since_1_1 indexing, which maps
	// June 1 1995 to day 152 (it adds the 1-based day of month).
	juneStart := 152 * 24
	data := make([]float64, hoursPerYear)
	for h := range data {
		data[h] = 60 // a mild default
		if h >= juneStart && h < juneStart+30*24 {
			juneHour := h - juneStart
			d := juneHour/24 + 1
			hourOfDay := juneHour % 24
			switch {
			case hot[d] && hourOfDay >= 21:
				data[h] = 88 // hot after sunset
			case hourOfDay >= 12 && hourOfDay <= 16:
				data[h] = 84 // warm afternoons everywhere, below threshold
			default:
				data[h] = 72
			}
		}
	}
	b := netcdf.NewBuilder()
	ti, err := b.AddDim("time", hoursPerYear)
	if err != nil {
		t.Fatal(err)
	}
	la, _ := b.AddDim("lat", 1)
	lo, _ := b.AddDim("lon", 1)
	if err := b.AddVar("temp", netcdf.Double, []int{ti, la, lo}, nil, data); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteFile(path); err != nil {
		t.Fatal(err)
	}
}

func TestSkipOptimizer(t *testing.T) {
	s := newSession(t)
	s.SkipOptimizer = true
	expectQuery(t, s, "subseq!([[1,2,3,4]], 1, 2)", object.NatVector(2, 3))
}

func TestQueryErrors(t *testing.T) {
	s := newSession(t)
	if _, _, err := s.Query("1 +"); err == nil {
		t.Error("parse error expected")
	}
	if _, _, err := s.Query("1 + true"); err == nil {
		t.Error("type error expected")
	}
	if _, _, err := s.Query("undefined_name"); err == nil || !strings.Contains(err.Error(), "unknown identifier") {
		t.Errorf("unknown identifier expected, got %v", err)
	}
}

// The hour index in the June array must line up with days_since_1_1: a
// sanity check on the session's index arithmetic.
func TestDaysSinceMacroValue(t *testing.T) {
	s := newSession(t)
	if _, err := s.Exec(`
	  val \months = [[0,31,28,31,30,31,30,31,31,30,31,30]];
	  macro \days_since_1_1 = fn (\m,\d,\y) =>
	    d + summap(fn \i => months[i])!(gen!m) +
	    if m > 2 and y % 4 = 0 then 1 else 0;
	`); err != nil {
		t.Fatal(err)
	}
	// June 1 1995: 31+28+31+30+31 + 1 = 152 (the macro counts from 1).
	expectQuery(t, s, "days_since_1_1!(6, 1, 95)", object.Nat(152))
	// Leap year 1996 adds one.
	expectQuery(t, s, "days_since_1_1!(6, 1, 96)", object.Nat(153))
}

func TestNetCDFWriterRoundTrip(t *testing.T) {
	s := newSession(t)
	path := filepath.Join(t.TempDir(), "out.nc")
	src := fmt.Sprintf(`writeval [[ real!(i * 10 + j) | \i < 3, \j < 4 ]]
	                     using NETCDF at (%q, "grid");`, path)
	if _, err := s.Exec(src); err != nil {
		t.Fatal(err)
	}
	results, err := s.Exec(fmt.Sprintf(`readval \G using NETCDF2 at (%q, "grid", (0,0), (2,3));`, path))
	if err != nil {
		t.Fatal(err)
	}
	G := results[0].Value
	if G.Shape[0] != 3 || G.Shape[1] != 4 {
		t.Fatalf("shape = %v", G.Shape)
	}
	expectQuery(t, s, "G[2, 3]", object.Real(23))
	expectQuery(t, s, "G[0, 1]", object.Real(1))
}

func TestPrintWriter(t *testing.T) {
	s := newSession(t)
	var buf strings.Builder
	RegisterPrint(s.Env, &buf)
	if _, err := s.Exec(`writeval {1, 2, 3} using PRINT at "S";`); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "S = {1, 2, 3}\n" {
		t.Errorf("PRINT wrote %q", got)
	}
}

func TestUnaryMinus(t *testing.T) {
	s := newSession(t)
	expectQuery(t, s, `-2.5`, object.Real(-2.5))
	expectQuery(t, s, `-2.5 + 1.0`, object.Real(-1.5))
	expectQuery(t, s, `3.0 * -2.0`, object.Real(-6))
	expectQuery(t, s, `--2.5`, object.Real(2.5))
	// Unary minus is a real operation; naturals subtract by monus.
	if _, _, err := s.Query(`-2`); err == nil {
		t.Error("negating a nat should be a type error")
	}
}

// TestODMGSimulation exercises the section 7 claim that AQL simulates the
// ODMG-93 array operations (create, insert, update, subscript, resize).
func TestODMGSimulation(t *testing.T) {
	s := newSession(t)
	expectQuery(t, s, `odmg_create!(3, 7)`, object.NatVector(7, 7, 7))
	expectQuery(t, s, `odmg_subscript!([[5, 6, 7]], 1)`, object.Nat(6))
	expectQuery(t, s, `odmg_update!([[5, 6, 7]], 1, 99)`, object.NatVector(5, 99, 7))
	expectQuery(t, s, `odmg_insert!([[5, 6, 7]], 1, 99)`, object.NatVector(5, 99, 6, 7))
	expectQuery(t, s, `odmg_insert!([[5, 6, 7]], 0, 99)`, object.NatVector(99, 5, 6, 7))
	expectQuery(t, s, `odmg_insert!([[5, 6, 7]], 3, 99)`, object.NatVector(5, 6, 7, 99))
	expectQuery(t, s, `odmg_remove!([[5, 6, 7]], 1)`, object.NatVector(5, 7))
	expectQuery(t, s, `odmg_resize!([[5, 6]], 4, 0)`, object.NatVector(5, 6, 0, 0))
	expectQuery(t, s, `odmg_resize!([[5, 6, 7]], 2, 0)`, object.NatVector(5, 6))
	// Chained edits compose like a mutable array's history.
	expectQuery(t, s,
		`odmg_update!(odmg_insert!(odmg_create!(2, 0), 1, 5), 0, 9)`,
		object.NatVector(9, 5, 0))
	// Out-of-bounds subscript stays the error value.
	got, _ := query(t, s, `odmg_subscript!([[1]], 5)`)
	if !got.IsBottom() {
		t.Errorf("oob = %s", got)
	}
}

// TestPropWellTypedQueriesEvaluate is the pipeline soundness property: any
// random surface expression that typechecks must evaluate without a Go
// error (⊥ values are fine), optimized or not, and both evaluations agree.
func TestPropWellTypedQueriesEvaluate(t *testing.T) {
	s := newSession(t)
	s.Env.SetVal("A", object.NatVector(3, 1, 4, 1, 5), types.MustParse("[[nat]]"))
	s.Env.SetVal("S", object.Set(object.Nat(1), object.Nat(2), object.Nat(7)), types.MustParse("{nat}"))
	s.Env.SetVal("n", object.Nat(6), types.Nat)
	rng := rand.New(rand.NewSource(4242))
	accepted := 0
	for trial := 0; trial < 600; trial++ {
		src := randomQuery(rng, 3)
		core, _, err := s.Compile(src)
		if err != nil {
			continue // ill-typed or ill-formed; not this property's concern
		}
		accepted++
		naive, err := s.Eval(core)
		if err != nil {
			t.Fatalf("trial %d: %s\n naive eval: %v", trial, src, err)
		}
		opt, err := s.Eval(s.Env.Optimizer.Optimize(core))
		if err != nil {
			t.Fatalf("trial %d: %s\n optimized eval: %v", trial, src, err)
		}
		// δ^p may erase a ⊥ hidden in a dead tabulation (accepted by the
		// paper); otherwise results agree.
		if !naive.IsBottom() && !object.Equal(naive, opt) {
			t.Fatalf("trial %d: %s\n naive %s\n opt   %s", trial, src, naive, opt)
		}
	}
	if accepted < 400 {
		t.Fatalf("only %d/600 random queries typechecked; generator too wild", accepted)
	}
}

// randomQuery builds random nat-valued AQL source over the globals A, S,
// n, using x only where a comprehension has bound it.
func randomQuery(rng *rand.Rand, depth int) string { return natQ(rng, depth, false) }

func natQ(rng *rand.Rand, depth int, xInScope bool) string {
	if depth <= 0 {
		leaves := []string{"0", "1", "2", "n"}
		if xInScope {
			leaves = append(leaves, "x", "x")
		}
		return leaves[rng.Intn(len(leaves))]
	}
	sub := func() string { return natQ(rng, depth-1, xInScope) }
	switch rng.Intn(10) {
	case 0:
		op := []string{"+", "-", "*", "/", "%"}[rng.Intn(5)]
		return fmt.Sprintf("(%s %s %s)", sub(), op, sub())
	case 1:
		return fmt.Sprintf("(if %s then %s else %s)", boolQ(rng, depth-1, xInScope), sub(), sub())
	case 2:
		return fmt.Sprintf("A[%s]", sub())
	case 3:
		return fmt.Sprintf("[[ %s | \\i < %s ]][%s]", sub(), sub(), sub())
	case 4:
		return "len!A"
	case 5:
		return fmt.Sprintf("summap(fn \\x => %s)!(%s)", natQ(rng, depth-1, true), setQ(rng, depth-1, xInScope))
	case 6:
		return fmt.Sprintf("min!{%s, %s}", sub(), sub())
	case 7:
		return fmt.Sprintf("count!(%s)", setQ(rng, depth-1, xInScope))
	case 8:
		return fmt.Sprintf("(let val \\v = %s in v + %s end)", sub(), sub())
	default:
		return fmt.Sprintf("len![[ %s | \\i < %s ]]", sub(), sub())
	}
}

func boolQ(rng *rand.Rand, depth int, xInScope bool) string {
	op := []string{"=", "<>", "<", "<=", ">", ">="}[rng.Intn(6)]
	return fmt.Sprintf("(%s %s %s)", natQ(rng, depth, xInScope), op, natQ(rng, depth, xInScope))
}

func setQ(rng *rand.Rand, depth int, xInScope bool) string {
	if depth <= 0 {
		return []string{"S", "gen!3", "{}"}[rng.Intn(3)]
	}
	switch rng.Intn(4) {
	case 0:
		return fmt.Sprintf("gen!(%s)", natQ(rng, depth-1, xInScope))
	case 1:
		return fmt.Sprintf("{%s | \\x <- %s}", natQ(rng, depth-1, true), setQ(rng, depth-1, xInScope))
	case 2:
		return fmt.Sprintf("{x | \\x <- %s, %s}", setQ(rng, depth-1, xInScope), boolQ(rng, depth-1, true))
	default:
		return "S"
	}
}

// TestRankAndSort exercises the section 6 rank operator from the surface
// language and the sort macro derived from it ("adding arrays amounts to
// adding ranking").
func TestRankAndSort(t *testing.T) {
	s := newSession(t)
	expectQuery(t, s, `rank!{30, 10, 20}`, object.Set(
		object.Tuple(object.Nat(10), object.Nat(1)),
		object.Tuple(object.Nat(20), object.Nat(2)),
		object.Tuple(object.Nat(30), object.Nat(3))))
	expectQuery(t, s, `sort!{30, 10, 20}`, object.NatVector(10, 20, 30))
	expectQuery(t, s, `sort!{}`, object.Vector())
	expectQuery(t, s, `sort!{"b", "a", "c"}`, object.Vector(
		object.String_("a"), object.String_("b"), object.String_("c")))
	// sort ∘ rng sorts an array's values.
	s.Env.SetVal("A", object.NatVector(5, 3, 9, 1), types.MustParse("[[nat]]"))
	expectQuery(t, s, `sort!(rng!A)`, object.NatVector(1, 3, 5, 9))
}

// TestScriptFile executes a multi-statement script from testdata — the
// same path the REPL's -f flag drives.
func TestScriptFile(t *testing.T) {
	src, err := os.ReadFile("testdata/session.aql")
	if err != nil {
		t.Fatal(err)
	}
	s := newSession(t)
	results, err := s.Exec(string(src))
	if err != nil {
		t.Fatal(err)
	}
	final := results[len(results)-1]
	want := object.Tuple(
		object.NatVector(30, 40, 90, 110, 150),
		object.Set(object.Nat(2), object.Nat(3), object.Nat(4)),
		object.NatVector(10, 20, 30, 40, 50),
	)
	if !object.Equal(final.Value, want) {
		t.Errorf("script result = %s,\n want %s", final.Value, want)
	}
	if final.Type.String() != "[[nat]] * {nat} * [[nat]]" {
		t.Errorf("script type = %s", final.Type)
	}
	// Macro results carry their pretty-printed source.
	if results[1].Kind != "macro" || results[1].Source == "" {
		t.Errorf("macro result = %+v", results[1])
	}
}

// TestPolymorphicValsQuery: a val or `it` bound to a polymorphic value
// (stored type {'t1}, named by the checker that inferred it) can be read
// back, alone or at a concrete type, without a stack overflow.
func TestPolymorphicValsQuery(t *testing.T) {
	s := newSession(t)
	if _, err := s.Exec(`val \E = {};`); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ src, typ, val string }{
		{`E`, `{'t1}`, `{}`},
		{`{1} union E`, `{nat}`, `{1}`},
		{`({}, {})`, `{'t1} * {'t2}`, `({}, {})`},
		{`(E, E)`, `{'t1} * {'t2}`, `({}, {})`},
	} {
		v, typ := query(t, s, c.src)
		if typ.String() != c.typ || v.String() != c.val {
			t.Errorf("%s = %s : %s, want %s : %s", c.src, v, typ, c.val, c.typ)
		}
	}
	if _, err := s.Exec(`{};`); err != nil {
		t.Fatal(err)
	}
	if v, typ := query(t, s, `it`); typ.String() != `{'t1}` || v.String() != `{}` {
		t.Errorf("it = %s : %s, want {} : {'t1}", v, typ)
	}
}

// TestNonASCIIIdentifiers: identifiers are read as UTF-8 letters, so a
// val's name is every byte of them, and a second byte of a letter is never
// white space.
func TestNonASCIIIdentifiers(t *testing.T) {
	s := newSession(t)
	res, err := s.Exec(`val \é = 3; é + 1;`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res[len(res)-1].Value; !object.Equal(got, object.Nat(4)) {
		t.Errorf(`val \é = 3; é + 1 = %s, want 4`, got)
	}
	res, err = s.Exec(`val \à = 1;`)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Name != "à" {
		t.Errorf(`val \à = 1 binds %q, want "à"`, res[0].Name)
	}
	if _, ok := s.Env.Val("à"); !ok {
		t.Error(`val \à = 1 left no val named "à"`)
	}
}
