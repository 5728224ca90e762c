package repl

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/aqldb/aql/internal/netcdf"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/tile"
	"github.com/aqldb/aql/internal/typecheck"
)

// writeNC2D writes a 6x8 double variable "v" (with two non-finite cells)
// and returns the file path.
func writeNC2D(t *testing.T, dir string) string {
	t.Helper()
	b := netcdf.NewBuilder()
	d0, _ := b.AddDim("x", 6)
	d1, _ := b.AddDim("y", 8)
	data := make([]float64, 48)
	for i := range data {
		data[i] = float64(i) * 0.25
	}
	data[7] = math.NaN()
	data[31] = math.Inf(1)
	if err := b.AddVar("v", netcdf.Double, []int{d0, d1}, nil, data); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "grid.nc")
	if err := b.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeNC1D writes a 1-D double variable "series" of n cells valued i*0.5.
func writeNC1D(t testing.TB, dir string, n int) string {
	t.Helper()
	b := netcdf.NewBuilder()
	d0, _ := b.AddDim("x", n)
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(i) * 0.5
	}
	if err := b.AddVar("series", netcdf.Double, []int{d0}, nil, data); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "series.nc")
	if err := b.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeNCScalar writes three scalar (rank-0) variables, the double "s" =
// 2.5, the int "k" = 7 and the float "nan" = NaN, and returns the file path.
func writeNCScalar(t *testing.T, dir string) string {
	t.Helper()
	b := netcdf.NewBuilder()
	for _, v := range []struct {
		name string
		typ  netcdf.Type
		x    float64
	}{{"s", netcdf.Double, 2.5}, {"k", netcdf.Int, 7}, {"nan", netcdf.Float, math.NaN()}} {
		if err := b.AddVar(v.name, v.typ, nil, nil, []float64{v.x}); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, "scalars.nc")
	if err := b.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeNCRecord writes two interleaved record variables over 5 records:
// "ra" (double, 5x4x3, valued i*0.5) and "rb" (int, 5x4), so a sub-slab of
// either crosses record strides.
func writeNCRecord(t *testing.T, dir string) string {
	t.Helper()
	b := netcdf.NewBuilder()
	rec, _ := b.AddRecordDim("t", 5)
	dy, _ := b.AddDim("y", 4)
	dx, _ := b.AddDim("x", 3)
	ra := make([]float64, 5*4*3)
	for i := range ra {
		ra[i] = float64(i) * 0.5
	}
	rb := make([]float64, 5*4)
	for i := range rb {
		rb[i] = float64(1000 + i)
	}
	if err := b.AddVar("ra", netcdf.Double, []int{rec, dy, dx}, nil, ra); err != nil {
		t.Fatal(err)
	}
	if err := b.AddVar("rb", netcdf.Int, []int{rec, dy}, nil, rb); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "records.nc")
	if err := b.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// ncRead is one NetCDF readval of a differential corpus. The session under
// test executes stmt through its lazy readers; the oracle session binds the
// same slab, read whole by netcdf.File.ReadSlab, as an ordinary
// materialized val — the eager reference every lazy result is held to.
type ncRead struct {
	name, path, varName string
	lower, upper        []int // inclusive bounds; nil reads the whole variable
}

func (r ncRead) stmt() string {
	if r.lower == nil {
		return fmt.Sprintf(`readval \%s using NETCDF at (%q, %q);`, r.name, r.path, r.varName)
	}
	bound := func(ix []int) string {
		if len(ix) == 1 {
			return fmt.Sprint(ix[0])
		}
		return "(" + strings.Trim(strings.ReplaceAll(fmt.Sprint(ix), " ", ", "), "[]") + ")"
	}
	return fmt.Sprintf(`readval \%s using NETCDF%d at (%q, %q, %s, %s);`,
		r.name, len(r.lower), r.path, r.varName, bound(r.lower), bound(r.upper))
}

// floatCells boxes raw NetCDF values as AQL cells, the eager way: non-finite
// values become ⊥ with the lazy readers' diagnostic.
func floatCells(vals []float64) []object.Value {
	out := make([]object.Value, len(vals))
	for i, f := range vals {
		if !object.IsFinite(f) {
			out[i] = object.Bottom(nonFiniteDiag)
			continue
		}
		out[i] = object.Real(f)
	}
	return out
}

// slabToArray converts a numeric NetCDF slab into an eager AQL array of
// reals; a scalar variable is a [1]-shaped array.
func slabToArray(slab *netcdf.Slab) (object.Value, error) {
	if slab.Type == netcdf.Char {
		return object.Value{}, errCharVariable
	}
	shape := slab.Shape
	if len(shape) == 0 {
		shape = []int{1}
	}
	return object.Array(shape, floatCells(slab.Values))
}

// bindOracle binds the read's materialized value in s and returns the
// outcome rendered as runCorpus renders a readval's.
func (r ncRead) bindOracle(t *testing.T, s *Session) string {
	t.Helper()
	f, err := netcdf.Open(r.path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	slab, err := f.ReadAll(r.varName)
	if r.lower != nil {
		count := make([]int, len(r.lower))
		for d := range count {
			count[d] = r.upper[d] - r.lower[d] + 1
		}
		slab, err = f.ReadSlab(r.varName, r.lower, count)
	}
	if err != nil {
		t.Fatal(err)
	}
	v, err := slabToArray(slab)
	if err != nil {
		t.Fatal(err)
	}
	typ, err := typecheck.TypeOf(v)
	if err != nil {
		t.Fatal(err)
	}
	s.Env.SetVal(r.name, v, typ)
	return fmt.Sprintf("%s : %s = %s\n", r.name, typ, v)
}

// runCorpus binds the reads (through the oracle, or by executing their
// readval statements) and executes the statement corpus on a fresh session
// configured by cfg, returning one rendered outcome (value or error text)
// per read and per statement.
func runCorpus(t *testing.T, cfg func(*Session), oracle bool, reads []ncRead, stmts []string) []string {
	t.Helper()
	s := newSession(t)
	defer s.Close()
	cfg(s)
	var out []string
	exec := func(stmt string) {
		res, err := s.Exec(stmt)
		if err != nil {
			out = append(out, "error: "+err.Error())
			return
		}
		var b strings.Builder
		for _, r := range res {
			if r.HasValue {
				fmt.Fprintf(&b, "%s : %s = %s\n", r.Name, r.Type, r.Value)
			}
		}
		out = append(out, b.String())
	}
	for _, r := range reads {
		if oracle {
			out = append(out, r.bindOracle(t, s))
		} else {
			exec(r.stmt())
		}
	}
	for _, stmt := range stmts {
		exec(stmt)
	}
	return out
}

// TestLazyEagerDifferential holds lazy tiled execution byte-identical to
// the materialized ReadSlab oracle — values, ⊥ diagnostics, and errors — on
// both engines, with a tile size small enough that every query crosses
// many tile boundaries.
func TestLazyEagerDifferential(t *testing.T) {
	dir := t.TempDir()
	grid := writeNC2D(t, dir)
	series := writeNC1D(t, dir, 100)
	records := writeNCRecord(t, dir)
	scalars := writeNCScalar(t, dir)

	reads := []ncRead{
		{name: "V", path: grid, varName: "v"},
		{name: "S", path: grid, varName: "v", lower: []int{1, 2}, upper: []int{4, 6}},
		{name: "W", path: series, varName: "series"},
		{name: "T", path: series, varName: "series", lower: []int{10}, upper: []int{59}},
		{name: "R", path: records, varName: "ra", lower: []int{1, 1, 0}, upper: []int{3, 2, 1}},
		{name: "Q", path: records, varName: "rb", lower: []int{0, 1}, upper: []int{4, 3}},
		// Scalar variables bind as [1]-shaped arrays.
		{name: "Z", path: scalars, varName: "s"},
		{name: "K", path: scalars, varName: "k"},
	}
	stmts := []string{
		`Z;`,
		`[[ V[i, 0] * Z[0] | \i < 6 ]];`,
		`K[0] + Z[0];`,
		`Z = Z;`,
		`V;`,
		`S;`,
		`[[ V[i, j] * 2.0 | \i < 6, \j < 8 ]];`,
		`V[0, 7];`, // the NaN cell: ⊥ with its diagnostic
		`V[3, 7];`,
		`[[ W[i] + W[99 - i] | \i < 100 ]];`,
		`summap(fn \i => W[i] * 0.5)!(gen!100);`,
		`V[9, 9];`, // out-of-bounds subscript: same error lazily
		`summap(fn \i => T[i])!(gen!50);`,
		`R;`, // sub-slab of a record variable: runs cross record strides
		`[[ R[2 - i, j, k] + Q[i + 1, j] | \i < 3, \j < 2, \k < 2 ]];`,
		`R[3, 0, 0];`,
		`R[2, 1, 1];`, // = ra[3, 2, 1]
		// A numeric head over the lazy array reaching the NaN cell: the
		// scalar form holds the cell's ⊥ and its diagnostic.
		`summap(fn \j => V[0, j] * 2.0 + 1.0)!(gen!8);`,
	}

	type mode struct {
		name   string
		oracle bool
		cfg    func(*Session)
	}
	modes := []mode{
		{"oracle-compiled", true, func(s *Session) {}},
		{"lazy-compiled", false, func(s *Session) { s.SetTileConfig(8, 0, false) }},
		{"oracle-interp", true, func(s *Session) { s.Engine = EngineInterp }},
		{"lazy-interp", false, func(s *Session) { s.SetTileConfig(8, 0, false); s.Engine = EngineInterp }},
	}
	results := make([][]string, len(modes))
	for i, m := range modes {
		results[i] = runCorpus(t, m.cfg, m.oracle, reads, stmts)
	}
	// The oracle shares the byte-run mapping with the lazy path (both sit
	// on netcdf.Hyperslab, whose own oracle is FuzzSlabRanges); anchor one
	// record-variable cell to its closed form here too.
	last := len(results[0]) - 1
	if got, want := results[0][last-1], "it : real = 21.5\n"; got != want {
		t.Errorf("oracle R[2, 1, 1] = %q, want %q", got, want)
	}
	if got, want := results[0][last], "it : real = _|_(* non-finite value in NetCDF data *)\n"; got != want {
		t.Errorf("oracle Σ over the NaN cell = %q, want %q", got, want)
	}
	for i, m := range modes {
		if got, want := results[i][len(reads)-2], "Z : [[real]] = [[2.5]]\n"; got != want {
			t.Errorf("%s binds the scalar variable as %q, want %q", m.name, got, want)
		}
	}
	// A non-finite scalar reads as the ⊥ a non-finite cell of any rank
	// reads as. (Not in the corpus: the eager oracle types an all-⊥ array
	// [['v1]], where a lazy array of NetCDF data is [[real]].)
	nan := runCorpus(t, func(s *Session) {}, false,
		[]ncRead{{name: "N", path: scalars, varName: "nan"}}, []string{`N[0];`})
	if want := []string{"N : [[real]] = [[_|_(* non-finite value in NetCDF data *)]]\n",
		"it : real = _|_(* non-finite value in NetCDF data *)\n"}; strings.Join(nan, "") != strings.Join(want, "") {
		t.Errorf("non-finite scalar variable = %q, want %q", nan, want)
	}
	var labels []string
	for _, r := range reads {
		labels = append(labels, r.stmt())
	}
	labels = append(labels, stmts...)
	for i := 1; i < len(modes); i++ {
		for j := range labels {
			if results[i][j] != results[0][j] {
				t.Errorf("%s diverges from %s on %q:\n got: %s\nwant: %s",
					modes[i].name, modes[0].name, labels[j], results[i][j], results[0][j])
			}
		}
	}
}

// TestParallelTabulationSharesTileCache pins the compiled engine to 8
// tabulation workers all faulting tiles of one shared cache; run with
// -race this is the concurrency acceptance test, and the result must stay
// byte-identical to the materialized oracle. The tabulation has 8 chunks of
// the engine's minimum 2048 cells, so it fans out to all 8.
func TestParallelTabulationSharesTileCache(t *testing.T) {
	const n = 8 * 2048
	dir := t.TempDir()
	path := writeNC1D(t, dir, n)
	w := ncRead{name: "W", path: path, varName: "series"}
	read := w.stmt()
	q := fmt.Sprintf(`[[ W[i] + W[%d - i] | \i < %d ]];`, n-1, n)

	eager := runCorpus(t, func(s *Session) { s.Workers = 8 }, true, []ncRead{w}, []string{q})

	s := newSession(t)
	defer s.Close()
	s.Workers = 8
	s.SetTileConfig(32, 0, false)
	if _, err := s.Exec(read); err != nil {
		t.Fatal(err)
	}
	res, err := s.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("%s : %s = %s\n", res[0].Name, res[0].Type, res[0].Value)
	if got != eager[1] {
		t.Errorf("parallel lazy tabulation diverges:\n got: %s\nwant: %s", got, eager[1])
	}
	st := s.TileCache().Stats()
	if st.TileMisses == 0 || st.TileHits == 0 {
		t.Errorf("tile counters hits=%d misses=%d, want both non-zero", st.TileHits, st.TileMisses)
	}
	// Each worker reads through cursors of its own and counts what they
	// served when it ends: every one of the 2n reads is a hit or a miss.
	if io := s.LastReport().IO; io.TileHits+io.TileMisses != 2*n || io.BytesReturned != 2*n*8 {
		t.Errorf("report counts %d hits + %d misses, %d bytes returned; want %d reads", io.TileHits, io.TileMisses, io.BytesReturned, 2*n)
	}
}

// TestOutOfCoreBudgetResidency is the headline acceptance test: a query
// over a variable several times the cache budget completes with peak cache
// residency within budget and a byte-identical result.
func TestOutOfCoreBudgetResidency(t *testing.T) {
	dir := t.TempDir()
	const n = 64 * 64 // 4096 cells, 64 tiles of 64 cells
	path := writeNC1D(t, dir, n)
	w := ncRead{name: "W", path: path, varName: "series"}
	read := w.stmt()
	q := `summap(fn \i => W[i])!(gen!4096);`

	eager := runCorpus(t, func(s *Session) {}, true, []ncRead{w}, []string{q})

	budget := 4 * tile.RealTileBytes(64) // room for 4 of the 64 tiles
	s := newSession(t)
	defer s.Close()
	s.SetTileConfig(64, budget, false)
	if _, err := s.Exec(read); err != nil {
		t.Fatal(err)
	}
	res, err := s.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("%s : %s = %s\n", res[0].Name, res[0].Type, res[0].Value)
	if got != eager[1] {
		t.Errorf("out-of-core scan diverges:\n got: %s\nwant: %s", got, eager[1])
	}
	if peak := s.TileCache().PeakResident(); peak > budget {
		t.Errorf("peak residency %d exceeds budget %d", peak, budget)
	}
	st := s.TileCache().Stats()
	if st.Evictions == 0 {
		t.Error("no evictions while scanning 16x the budget")
	}
	rep := s.LastReport()
	if rep.IO.TileMisses == 0 || rep.IO.BytesScanned == 0 {
		t.Errorf("report IO misses=%d scanned=%d, want non-zero", rep.IO.TileMisses, rep.IO.BytesScanned)
	}
}

// injectReader rebinds the session's handle for path over wrap(the file),
// under the retry layer the session's own handles have, so tests control
// what subsequent tile fetches meet.
func injectReader(t *testing.T, s *Session, path string, wrap func(io.ReaderAt) io.ReaderAt) {
	t.Helper()
	osf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := netcdf.Read(netcdf.NewRetryingReaderAt(wrap(osf), netcdf.RetryConfig{MaxRetries: 2}))
	if err != nil {
		t.Fatal(err)
	}
	s.io.mu.Lock()
	s.io.files[path] = &openFile{f: f, closer: osf}
	s.io.mu.Unlock()
}

// injectFaulty injects a FaultyReaderAt for path and returns the injector.
func injectFaulty(t *testing.T, s *Session, path string) *netcdf.FaultyReaderAt {
	t.Helper()
	var faulty *netcdf.FaultyReaderAt
	injectReader(t, s, path, func(r io.ReaderAt) io.ReaderAt {
		faulty = netcdf.NewFaultyReaderAt(r)
		return faulty
	})
	return faulty
}

// TestLazyFaultMidTile injects mid-scan read faults: a transient fault is
// retried invisibly (byte-identical result, retry counters recorded); a
// persistent fault surfaces as a query error — not a panic, not a cached
// wrong value — and the next query, with the fault gone, succeeds.
func TestLazyFaultMidTile(t *testing.T) {
	dir := t.TempDir()
	path := writeNC1D(t, dir, 256)

	s := newSession(t)
	defer s.Close()
	// One-tile budget, no prefetch: every scan demand-fetches all 16 tiles
	// from storage in order, so the fault schedule lands deterministically
	// mid-scan instead of being absorbed by cache hits.
	s.SetTileConfig(16, tile.RealTileBytes(16), true)
	faulty := injectFaulty(t, s, path)
	if _, err := s.Exec(fmt.Sprintf(`readval \W using NETCDF at (%q, "series");`, path)); err != nil {
		t.Fatal(err)
	}
	baseline, _, err := s.Query(`summap(fn \i => W[i])!(gen!256)`)
	if err != nil {
		t.Fatal(err)
	}

	// Transient: fail the 3rd and 4th reads after this point, mid-scan.
	faulty.SetSchedule(3, netcdf.Fault{Err: netcdf.ErrInjected}, netcdf.Fault{Short: true})
	v, _, err := s.Query(`summap(fn \i => W[i])!(gen!256)`)
	if err != nil {
		t.Fatalf("transient mid-tile fault not retried: %v", err)
	}
	if v.String() != baseline.String() {
		t.Errorf("value after transient fault = %s, want %s", v, baseline)
	}
	rep := s.LastReport()
	if rep.IO.Retries == 0 || rep.IO.Faults == 0 {
		t.Errorf("report retries=%d faults=%d, want non-zero", rep.IO.Retries, rep.IO.Faults)
	}

	// Persistent: more consecutive failures than the retry budget. The
	// query fails with the typed injected error.
	persistent := make([]netcdf.Fault, 16)
	for i := range persistent {
		persistent[i] = netcdf.Fault{Err: netcdf.ErrInjected}
	}
	faulty.SetSchedule(0, persistent...)
	if _, _, err := s.Query(`summap(fn \i => W[i])!(gen!256)`); err == nil {
		t.Fatal("persistent fault produced a value")
	} else if !strings.Contains(err.Error(), "injected") {
		t.Errorf("persistent fault error = %v, want injected I/O fault", err)
	}

	// The failed tiles were not cached: with the schedule cleared the same
	// query refetches and matches the baseline.
	faulty.SetSchedule(0)
	v, _, err = s.Query(`summap(fn \i => W[i])!(gen!256)`)
	if err != nil {
		t.Fatalf("query after fault cleared: %v", err)
	}
	if v.String() != baseline.String() {
		t.Errorf("value after fault cleared = %s, want %s", v, baseline)
	}
}

// TestFailedMaterializationRetries: a whole-array read (`W = W` compares,
// so it materializes W) that hits a persistent fault fails, and once the
// fault is gone the next query over W reads through the tile cache again
// instead of returning the remembered error.
func TestFailedMaterializationRetries(t *testing.T) {
	dir := t.TempDir()
	path := writeNC1D(t, dir, 256)
	s := newSession(t)
	defer s.Close()
	s.SetTileConfig(16, tile.RealTileBytes(16), true)
	faulty := injectFaulty(t, s, path)
	if _, err := s.Exec(fmt.Sprintf(`readval \W using NETCDF at (%q, "series");`, path)); err != nil {
		t.Fatal(err)
	}
	persistent := make([]netcdf.Fault, 16)
	for i := range persistent {
		persistent[i] = netcdf.Fault{Err: netcdf.ErrInjected}
	}
	faulty.SetSchedule(0, persistent...)
	if _, _, err := s.Query(`W = W`); err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("materializing under a persistent fault: err = %v, want the injected I/O fault", err)
	}
	faulty.SetSchedule(0)
	for _, engine := range []string{EngineCompiled, EngineInterp} {
		s.Engine = engine
		v, _, err := s.Query(`summap(fn \i => W[i])!(gen!256)`)
		if err != nil {
			t.Fatalf("%s: scan after the fault cleared: %v", engine, err)
		}
		if want := "16320.0"; v.String() != want {
			t.Errorf("%s: scan = %s, want %s", engine, v, want)
		}
	}
	if v, _, err := s.Query(`W = W`); err != nil || !v.B {
		t.Errorf("materialization after the fault cleared = %v, %v; want true", v, err)
	}
}

// TestTruncatedFileFailsAtBind cuts a file inside its data region: the
// lazy readval must fail at bind time (like a whole ReadSlab), not surface
// a mid-query fetch error later.
func TestTruncatedFileFailsAtBind(t *testing.T) {
	dir := t.TempDir()
	whole := writeNC1D(t, dir, 64)
	data, err := os.ReadFile(whole)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "cut.nc")
	if err := os.WriteFile(cut, data[:len(data)-16], 0o644); err != nil {
		t.Fatal(err)
	}
	s := newSession(t)
	defer s.Close()
	_, err = s.Exec(fmt.Sprintf(`readval \W using NETCDF at (%q, "series");`, cut))
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("lazy readval of truncated file = %v, want bind-time truncation error", err)
	}
}

// TestValDeclSpillsOverBudget binds an oversized intermediate: the val is
// spilled to disk (lazy, within budget) and reads back byte-identical —
// including ⊥ cell diagnostics (from non-finite NetCDF cells; tabulation
// itself is ⊥-strict, so a mixed array must come from a reader).
func TestValDeclSpillsOverBudget(t *testing.T) {
	dir := t.TempDir()
	b := netcdf.NewBuilder()
	d0, _ := b.AddDim("x", 1000)
	data := make([]float64, 1000)
	for i := range data {
		data[i] = float64(i) * 0.5
	}
	data[3] = 1.5
	data[700] = math.NaN() // an embedded ⊥ cell with its diagnostic
	if err := b.AddVar("series", netcdf.Double, []int{d0}, nil, data); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "big.nc")
	if err := b.WriteFile(path); err != nil {
		t.Fatal(err)
	}

	// W is bound as a materialized array with ⊥ cells (the ReadSlab
	// oracle's binding); `val \X = W;` then carries that oversized eager
	// array into maybeSpill.
	w := ncRead{name: "W", path: path, varName: "series"}
	stmts := []string{`val \X = W;`}
	queries := []string{`X;`, `X[700];`, `X[3];`}

	eager := runCorpus(t, func(s *Session) { s.SetSpill(false) }, true, []ncRead{w},
		append(append([]string{}, stmts...), queries...))[1:]

	s := newSession(t)
	defer s.Close()
	budget := 2 * tile.RealTileBytes(64) // two of the 16 tiles; 1000 boxed cells are well over it
	s.SetTileConfig(64, budget, false)
	w.bindOracle(t, s)
	for _, stmt := range stmts {
		if _, err := s.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	x, ok := s.Env.Val("X")
	if !ok {
		t.Fatal("X not bound")
	}
	if !x.IsLazy() {
		t.Fatal("oversized val was not spilled to a lazy binding")
	}
	rep := s.LastReport()
	if rep.IO.SpillBytesWritten == 0 {
		t.Errorf("val decl report records no spill bytes: %+v", rep.IO)
	}
	for i, q := range queries {
		res, err := s.Exec(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		got := fmt.Sprintf("%s : %s = %s\n", res[0].Name, res[0].Type, res[0].Value)
		if got != eager[len(stmts)+i] {
			t.Errorf("spilled %s diverges:\n got: %s\nwant: %s", q, got, eager[len(stmts)+i])
		}
	}
	st := s.TileCache().Stats()
	if st.SpillBytesRead == 0 {
		t.Error("reading the spilled val recorded no spill bytes read")
	}
	if st.Evictions == 0 {
		t.Error("no evictions while reading 16 spilled tiles through a 2-tile budget")
	}
	if peak := s.TileCache().PeakResident(); peak > budget {
		t.Errorf("peak residency %d exceeds budget %d", peak, budget)
	}
}

// TestIOCommand exercises the :io command: status and retune.
func TestIOCommand(t *testing.T) {
	s := newSession(t)
	defer s.Close()
	ctx := context.Background()
	out, err := s.Command(ctx, ":io")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"tile size: 4096", "tiles:", "bytes:"} {
		if !strings.Contains(out, want) {
			t.Errorf(":io missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "lazy") {
		t.Errorf(":io still reports a read mode:\n%s", out)
	}
	if _, err := s.Command(ctx, ":io lazy off"); err == nil {
		t.Error(":io lazy off should be a usage error: there is no eager mode")
	}
	if out, err = s.Command(ctx, ":io tile 128 65536"); err != nil || !strings.Contains(out, "tile size: 128 cells, budget: 65536") {
		t.Errorf(":io tile = %q, %v", out, err)
	}
	if _, err := s.Command(ctx, ":io bogus"); err == nil {
		t.Error(":io bogus should error")
	}
	out, err = s.Command(ctx, ":help")
	if err != nil || !strings.Contains(out, ":io") {
		t.Errorf(":help missing :io, err=%v", err)
	}
}

// TestExplainAnalyzeTiles checks that :explain analyze over a lazy array
// reports estimated vs. actual tiles.
func TestExplainAnalyzeTiles(t *testing.T) {
	dir := t.TempDir()
	path := writeNC1D(t, dir, 256)
	s := newSession(t)
	defer s.Close()
	s.SetTileConfig(16, 0, false) // 16 tiles
	if _, err := s.Exec(fmt.Sprintf(`readval \W using NETCDF at (%q, "series");`, path)); err != nil {
		t.Fatal(err)
	}
	out, err := s.Command(context.Background(), `:explain analyze [[ W[i] | \i < 256 ]]`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "tiles: est 16 (full scan), fetched 16") {
		t.Errorf(":explain analyze missing tile row:\n%s", out)
	}
}

// TestSessionCloseReleasesHandles binds a lazy array, closes the session,
// and checks the handle cache and tile cache are released.
func TestSessionCloseReleasesHandles(t *testing.T) {
	dir := t.TempDir()
	path := writeNC1D(t, dir, 64)
	s := newSession(t)
	if _, err := s.Exec(fmt.Sprintf(`readval \W using NETCDF at (%q, "series");`, path)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Query(`W[10]`); err != nil {
		t.Fatal(err)
	}
	if got := s.io.openPaths(); len(got) != 1 {
		t.Fatalf("open paths = %v", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := s.io.openPaths(); len(got) != 0 {
		t.Errorf("paths still open after Close: %v", got)
	}
}

// TestSessionCloseLeaksNothing binds a NetCDF val lazily and reads it, and
// gives the session three tile caches with a spill file each, two of them
// replaced by SetTileConfig while a val still reads their spill file. After
// Close the process has as many goroutines as before the session and, on
// Linux, as many open files.
func TestSessionCloseLeaksNothing(t *testing.T) {
	path := writeNC1D(t, t.TempDir(), 256)
	openFiles := func() int {
		if runtime.GOOS != "linux" {
			return 0
		}
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(fds)
	}
	baseGoroutines, baseFiles := runtime.NumGoroutine(), openFiles()
	s := newSession(t)
	for i := 0; i < 3; i++ {
		// A budget of one tile: every val below is over it and spills.
		s.SetTileConfig(16, tile.RealTileBytes(16), false)
		if i == 0 {
			if _, err := s.Exec(fmt.Sprintf(`readval \W using NETCDF at (%q, "series");`, path)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Exec(fmt.Sprintf(`val \X%d = [[ W[i] + 0.0 | \i < 256 ]];`, i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if v, _ := query(t, s, fmt.Sprintf(`summap(fn \i => X%d[i])!(gen!256)`, i)); v.String() != "16320.0" {
			t.Fatalf("Σ X%d = %s, want 16320.0", i, v)
		}
	}
	if runtime.GOOS == "linux" && openFiles() < baseFiles+4 {
		t.Fatalf("%d open files with a NetCDF handle and three spill files, %d before: the test spilled nothing", openFiles(), baseFiles)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseGoroutines || openFiles() > baseFiles; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("after Close: %d goroutines (%d before), %d open files (%d before)\n%s",
				runtime.NumGoroutine(), baseGoroutines, openFiles(), baseFiles, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestLazyPreviewDoesNotMaterialize pins the REPL-echo behavior: rendering
// a truncated preview of a lazy array (what the REPL prints after every
// readval) must fetch only the cells it shows, and must not memoize the
// whole array into memory — a later scan still reads through the tile
// cache. Before the cell-at-a-time renderer, the first echo materialized
// the entire variable and every subsequent query bypassed the cache.
func TestLazyPreviewDoesNotMaterialize(t *testing.T) {
	dir := t.TempDir()
	path := writeNC1D(t, dir, 4096)
	s := newSession(t)
	defer s.Close()
	s.SetTileConfig(64, 4*tile.RealTileBytes(64), false) // 64 tiles of data, room for 4
	if _, err := s.Exec(fmt.Sprintf(`readval \V using NETCDF at (%q, "series");`, path)); err != nil {
		t.Fatal(err)
	}
	v, ok := s.Env.Val("V")
	if !ok || !v.IsLazy() {
		t.Fatal("V should be lazy after readval")
	}
	if got := v.Pretty(12); !strings.HasPrefix(got, "[[(0):0.0, (1):0.5") || !strings.HasSuffix(got, ", ...]]") {
		t.Fatalf("preview = %s", got)
	}
	st := s.io.cache.Stats()
	if fetched := st.TileMisses + st.Prefetches; fetched > 3 {
		t.Errorf("12-cell preview fetched %d tiles, want at most demand + readahead", fetched)
	}
	if _, _, err := s.Query(`summap(fn \i => V[i])!(gen!4096)`); err != nil {
		t.Fatal(err)
	}
	st = s.io.cache.Stats()
	if fetched := st.TileMisses + st.Prefetches; fetched < 64 {
		t.Errorf("scan after preview fetched %d tiles total, want >= 64 (preview materialized the array?)", fetched)
	}
}

// TestNonFiniteAtTileEdges puts NaN and ±Inf on the first and last offset of
// a tile, on the last offset of the last full tile and on both ends of the
// short final tile, and holds every way of reading them out of a packed tile
// (one cell, a cell range, materialization, a spill round trip, a 4-worker
// tabulation) to the boxed oracle, on value and ⊥ diagnostic.
func TestNonFiniteAtTileEdges(t *testing.T) {
	const tc, n = 64, 64*130 + 5
	bad := []struct {
		off int
		x   float64
	}{{0, math.NaN()}, {tc - 1, math.Inf(1)}, {tc, math.Inf(-1)}, {n - 6, math.NaN()}, {n - 5, math.Inf(1)}, {n - 1, math.Inf(-1)}}
	b := netcdf.NewBuilder()
	d0, _ := b.AddDim("x", n)
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(i%1000) * 0.25
	}
	for _, c := range bad {
		data[c.off] = c.x
	}
	if err := b.AddVar("series", netcdf.Double, []int{d0}, nil, data); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "edges.nc")
	if err := b.WriteFile(path); err != nil {
		t.Fatal(err)
	}

	read := ncRead{name: "N", path: path, varName: "series"}
	stmts := []string{`N[1];`, `N[8323];`}
	for _, c := range bad {
		stmts = append(stmts, fmt.Sprintf(`N[%d];`, c.off))
	}
	stmts = append(stmts,
		`N;`,
		// Both tabulations are large enough to fan out. The first reads only
		// the finite run between the marked cells; the second meets a ⊥ in
		// every worker's range, and the first in row-major order wins.
		fmt.Sprintf(`[[ N[i + %d] * 2.0 | \i < %d ]];`, tc+1, n-6-(tc+1)),
		fmt.Sprintf(`[[ N[%d - i] + 1.0 | \i < %d ]];`, n-1, n),
		`summap(fn \i => N[i])!(gen!63);`,
	)
	tiny := func(s *Session) { s.Workers = 4; s.SetTileConfig(tc, 2*tile.RealTileBytes(tc), false) }
	oracle := runCorpus(t, func(s *Session) { s.Workers = 4 }, true, []ncRead{read}, stmts)
	for name, cfg := range map[string]func(*Session){
		"lazy-compiled": tiny,
		"lazy-interp":   func(s *Session) { tiny(s); s.Engine = EngineInterp },
	} {
		got := runCorpus(t, cfg, false, []ncRead{read}, stmts)
		for i := range got {
			if got[i] != oracle[i] {
				t.Errorf("%s diverges on %q:\n got: %.300s\nwant: %.300s", name, append([]string{read.stmt()}, stmts...)[i], got[i], oracle[i])
			}
		}
	}
	if want := "it : real = _|_(* non-finite value in NetCDF data *)\n"; oracle[3] != want {
		t.Errorf("oracle N[...] of a non-finite cell = %q, want %q", oracle[3], want)
	}

	// Cell ranges and materialization, straight off the backing.
	s := newSession(t)
	defer s.Close()
	tiny(s)
	if _, err := s.Exec(read.stmt()); err != nil {
		t.Fatal(err)
	}
	lazy, _ := s.Env.Val("N")
	want := floatCells(data)
	sameCells := func(what string, got []object.Value, lo int) {
		t.Helper()
		for i, c := range got {
			if w := want[lo+i]; c.Kind != w.Kind || c.R != w.R || c.Str() != w.Str() {
				t.Fatalf("%s: cell %d = %s (%q), want %s (%q)", what, lo+i, c, c.Str(), w, w.Str())
			}
		}
	}
	for _, r := range [][2]int{{0, 1}, {0, tc}, {tc - 1, 2}, {tc - 3, tc + 6}, {n - 7, 7}, {n - 1, 1}, {n - 5, 0}} {
		got, err := lazy.Backing().CellRange(context.Background(), r[0], r[1])
		if err != nil || len(got) != r[1] {
			t.Fatalf("CellRange(%d, %d): %d cells, %v", r[0], r[1], len(got), err)
		}
		sameCells(fmt.Sprintf("CellRange(%d, %d)", r[0], r[1]), got, r[0])
	}
	// One tile cursor reading every cell in order, then the marked cells
	// again from the last back to the first: ⊥ cells come out of the pinned
	// tile's side table with their diagnostics.
	var cur tile.Cursor
	arr := lazy.Backing().(*tile.Array)
	cursorCell := func(off int) object.Value {
		cells, i, err := cur.Read(context.Background(), arr, off)
		if err != nil {
			t.Fatalf("cursor read of cell %d: %v", off, err)
		}
		return cells.At(i)
	}
	pinned := make([]object.Value, n)
	for off := range pinned {
		pinned[off] = cursorCell(off)
	}
	sameCells("cursor", pinned, 0)
	for i := len(bad) - 1; i >= 0; i-- {
		sameCells("cursor, marked cell", []object.Value{cursorCell(bad[i].off)}, bad[i].off)
	}
	cur.Flush()
	cells, err := lazy.Cells()
	if err != nil || len(cells) != n {
		t.Fatalf("materialize: %d cells, %v", len(cells), err)
	}
	sameCells("materialized", cells, 0)
	if st := s.TileCache().Stats(); st.Evictions == 0 {
		t.Error("no evictions reading 131 tiles through a 2-tile budget")
	}

	// Spill round trip: the boxed oracle array, ⊥ cells included, is bound
	// over budget, written out as packed tiles and read back.
	sp := newSession(t)
	defer sp.Close()
	tiny(sp)
	read.bindOracle(t, sp)
	if _, err := sp.Exec(`val \X = N;`); err != nil {
		t.Fatal(err)
	}
	if x, _ := sp.Env.Val("X"); !x.IsLazy() {
		t.Fatal("oversized val was not spilled")
	}
	for i, stmt := range stmts {
		res, err := sp.Exec(strings.ReplaceAll(stmt, "N", "X"))
		got := ""
		if err != nil {
			got = "error: " + err.Error()
		} else {
			got = fmt.Sprintf("%s : %s = %s\n", res[0].Name, res[0].Type, res[0].Value)
		}
		if got != oracle[1+i] {
			t.Errorf("spilled %q diverges:\n got: %.300s\nwant: %.300s", stmt, got, oracle[1+i])
		}
	}
	if st := sp.TileCache().Stats(); st.SpillBytesRead == 0 || st.Evictions == 0 {
		t.Errorf("spill read-back: %d bytes read, %d evictions, want both non-zero", st.SpillBytesRead, st.Evictions)
	}
}

var sinkCell object.Value

// BenchmarkTileMissNetCDF prices one tile miss of a NetCDF-backed real
// array: 16 tiles of 4096 doubles walked round and round under a budget of
// two, without readahead, so every Cell faults its tile in from the file
// (read, decode, pack, insert, evict). One op is one miss; run with -benchmem
// for bytes and allocations per miss. The end-to-end workload cannot show
// this cost once its tiles all stay resident.
func BenchmarkTileMissNetCDF(b *testing.B) {
	const tc, tiles = 4096, 16
	path := writeNC1D(b, b.TempDir(), tc*tiles)
	s, err := New()
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	s.SetTileConfig(tc, 2*tile.RealTileBytes(tc), true)
	if _, err := s.Exec(fmt.Sprintf(`readval \W using NETCDF at (%q, "series");`, path)); err != nil {
		b.Fatal(err)
	}
	w, _ := s.Env.Val("W")
	arr := w.Backing().(object.ArrayBacking)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sinkCell, err = arr.Cell(ctx, i%tiles*tc); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := s.TileCache().Stats(); st.TileMisses != int64(b.N) || st.TileHits != 0 {
		b.Fatalf("%d misses, %d hits in %d reads: not every read faulted", st.TileMisses, st.TileHits, b.N)
	}
}
