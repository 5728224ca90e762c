package repl

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/netcdf"
	"github.com/aqldb/aql/internal/tile"
)

// noPanic runs f and fails the test, instead of crashing the binary, when f
// panics.
func noPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s panicked: %v", what, r)
		}
	}()
	f()
}

// faultySeries binds W to a lazy n-cell NetCDF series behind a fault
// injector, with 16-cell tiles, no prefetch and the given budget, and arms a
// fault when broken is set that outlasts every read these tests make, retries
// included.
func faultySeries(t *testing.T, s *Session, n int, budget int64, broken bool) {
	t.Helper()
	path := writeNC1D(t, t.TempDir(), n)
	s.SetTileConfig(16, budget, true)
	faulty := injectFaulty(t, s, path)
	if _, err := s.Exec(fmt.Sprintf(`readval \W using NETCDF at (%q, "series");`, path)); err != nil {
		t.Fatal(err)
	}
	if broken {
		persistent := make([]netcdf.Fault, 256)
		for i := range persistent {
			persistent[i] = netcdf.Fault{Err: netcdf.ErrInjected}
		}
		faulty.SetSchedule(0, persistent...)
	}
}

// TestWriterFaultIsIOError: a writer's data is read under the statement's
// execution, so a storage fault is the statement's I/O error, returned from
// Exec, not a panic out of the writer.
func TestWriterFaultIsIOError(t *testing.T) {
	for _, engine := range []string{EngineCompiled, EngineInterp} {
		s := newSession(t)
		s.Engine = engine
		RegisterPrint(s.Env, &strings.Builder{})
		faultySeries(t, s, 64, 0, true)
		var err error
		noPanic(t, "writeval under a fault", func() { _, err = s.Exec(`writeval W using PRINT at "w";`) })
		var pe *PanicError
		if !errors.Is(err, netcdf.ErrInjected) || errors.As(err, &pe) {
			t.Errorf("%s: writeval under a fault = %v, want the injected I/O error", engine, err)
		}
		s.Close()
	}
}

// TestLazyResultDisplayUnderFault: printing a lazy query result is the one
// read outside an execution; a failed read is written into the text in place
// of the cell.
func TestLazyResultDisplayUnderFault(t *testing.T) {
	s := newSession(t)
	defer s.Close()
	faultySeries(t, s, 64, 0, true)
	res, err := s.Exec(`W;`)
	if err != nil {
		t.Fatal(err)
	}
	for name, show := range map[string]func() string{
		"Pretty": func() string { return res[0].Value.Pretty(4) },
		"String": res[0].Value.String,
	} {
		var text string
		noPanic(t, name, func() { text = show() })
		if !strings.Contains(text, "injected") {
			t.Errorf("%s of a lazy result under a fault = %q, want the I/O error in the text", name, text)
		}
	}
}

// TestComparisonLeavesScanReadsVisible: a whole-array comparison leaves no
// copy of the array behind, so a full scan after it still reads through the
// tile cache and its report shows those reads.
func TestComparisonLeavesScanReadsVisible(t *testing.T) {
	for _, engine := range []string{EngineCompiled, EngineInterp} {
		s := newSession(t)
		s.Engine = engine
		faultySeries(t, s, 4096, 8192, false)
		if _, err := s.Exec(`W = W;`); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Query(`summap(fn \i => W[i])!(gen!4096)`); err != nil {
			t.Fatal(err)
		}
		io := s.LastReport().IO
		if io.SlabReads == 0 || io.TileMisses == 0 || io.TileHits+io.TileMisses != 4096 {
			t.Errorf("%s: scan after W = W reports %d slab reads, %d hits, %d misses; want every cell read through the cache",
				engine, io.SlabReads, io.TileHits, io.TileMisses)
		}
		s.Close()
	}
}

// TestCloseRemovesReplacedCachesSpill: a spill file written under a tile
// cache that was later replaced is closed and removed by Session.Close.
func TestCloseRemovesReplacedCachesSpill(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	s := newSession(t)
	s.SetTileConfig(64, 1024, false)
	if _, err := s.Exec(`val \X = [[ i | \i < 5000 ]];`); err != nil {
		t.Fatal(err)
	}
	if x, _ := s.Env.Val("X"); !x.IsLazy() {
		t.Fatal("X was not spilled")
	}
	s.SetTileConfig(64, tile.RealTileBytes(64), false)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	left, err := filepath.Glob(filepath.Join(dir, "aql-spill-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("spill files left after Close: %v", left)
	}
}

// TestMaterializedCopiesChargeCellBudget: every whole-array copy an execution
// makes counts against the cell budget, so a query that copies a lazy array
// into each element of a set fails with the budget, on both engines, instead
// of growing without bound.
func TestMaterializedCopiesChargeCellBudget(t *testing.T) {
	for _, engine := range []string{EngineCompiled, EngineInterp} {
		s := newSession(t)
		s.Engine = engine
		s.Limits.MaxCells = 500
		faultySeries(t, s, 64, 0, false)
		if _, err := s.Exec(`{(i, W) | \i <- gen!4};`); err != nil {
			t.Fatalf("%s: four copies of W within the budget: %v", engine, err)
		}
		_, err := s.Exec(`{(i, W) | \i <- gen!20};`)
		var re *eval.ResourceError
		if !errors.As(err, &re) || re.Kind != eval.ResourceCells {
			t.Errorf("%s: twenty copies of a 64-cell W under a 500-cell budget = %v, want the cell budget's error", engine, err)
		}
		s.Close()
	}
}

// TestReplacedCacheDropsItsTiles: reconfiguring the tile cache drops the
// replaced cache's resident tiles at once, so repeated reconfiguration holds
// no tiles but the current cache's; a binding read through the replaced
// cache still reads, fetching its tile again.
func TestReplacedCacheDropsItsTiles(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	s := newSession(t)
	defer s.Close()
	s.SetTileConfig(64, 4096, false)
	if _, err := s.Exec(`val \X = [[ i | \i < 5000 ]];`); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Query(`X[4999]`); err != nil {
		t.Fatal(err)
	}
	old := s.TileCache()
	if old.Resident() == 0 {
		t.Fatal("no tile of X is resident before reconfiguring")
	}
	s.SetTileConfig(64, 4096, false)
	if r := old.Resident(); r != 0 {
		t.Errorf("replaced cache holds %d resident bytes, want 0", r)
	}
	v, _, err := s.Query(`X[4999]`)
	if err != nil || v.String() != "4999" {
		t.Errorf("X[4999] after reconfiguring = %v, %v; want 4999", v, err)
	}
}
