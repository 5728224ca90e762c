package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/aqldb/aql/internal/bench"
	"github.com/aqldb/aql/internal/netcdf"
	"github.com/aqldb/aql/internal/repl"
	"github.com/aqldb/aql/internal/tile"
)

// oocReport is the e26 payload: out-of-core execution of a sequential scan
// over a NetCDF variable several times the tile-cache budget. The headline
// figures are the tile hit rate (per-cell lookups served from resident
// tiles) and bytes scanned vs. returned (read amplification); CI gates the
// hit rate with -failworse.
type oocReport struct {
	Cells         int     `json:"cells"`
	TileCells     int     `json:"tile_cells"`
	BudgetBytes   int64   `json:"budget_bytes"`
	PeakBytes     int64   `json:"peak_bytes"`
	LazyNs        int64   `json:"lazy_ns"`
	EagerNs       int64   `json:"eager_ns"`
	TileHitRate   float64 `json:"tile_hit_rate"`
	PrefetchRate  float64 `json:"prefetch_useful_rate"`
	BytesScanned  int64   `json:"bytes_scanned"`
	BytesReturned int64   `json:"bytes_returned"`
	Evictions     int64   `json:"evictions"`
}

// e26Results holds the e26 measurements for -trajectory / -failworse.
var e26Results *oocReport

// e26MinHitRate is the CI gate: a sequential scan with prefetch must serve
// at least this fraction of cell lookups from resident tiles.
const e26MinHitRate = 0.90

func runE26() {
	cells := 1 << 18 // 256k cells, 2 MiB of doubles on disk
	tileCells := 4096
	if *quick {
		cells = 1 << 14
		tileCells = 1024
	}
	// A budget admitting ~1/8th of the variable's packed tiles (at least 4,
	// so the demand tile and its readahead never thrash): the scan must
	// evict.
	budgetTiles := cells / 8 / tileCells
	if budgetTiles < 4 {
		budgetTiles = 4
	}
	budget := int64(budgetTiles) * tile.RealTileBytes(tileCells)

	dir, err := os.MkdirTemp("", "aqlbench")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "ooc.nc")
	nb := netcdf.NewBuilder()
	d0, _ := nb.AddDim("x", cells)
	data := make([]float64, cells)
	for i := range data {
		data[i] = float64(i % 97)
	}
	if err := nb.AddVar("series", netcdf.Double, []int{d0}, nil, data); err != nil {
		panic(err)
	}
	if err := nb.WriteFile(path); err != nil {
		panic(err)
	}

	read := fmt.Sprintf(`readval \W using NETCDF at (%q, "series");`, path)
	// The in-memory baseline pins the variable with an ordinary val (kept
	// from spilling), so its scan touches no tile. The + 0.0 keeps the
	// optimizer from eta-reducing the copy back to the lazy W.
	pin := `val \W = [[ W[i] + 0.0 | \i < len!W ]];`
	scan := fmt.Sprintf(`summap(fn \i => W[i])!(gen!%d);`, cells)

	run := func(setup string, cfg func(*repl.Session)) (time.Duration, *repl.Session) {
		s := bench.MustSession()
		cfg(s)
		if _, err := s.Exec(setup); err != nil {
			panic(err)
		}
		start := time.Now()
		if _, err := s.Exec(scan); err != nil {
			panic(err)
		}
		d := time.Since(start)
		if reportSink != nil {
			if rep := s.Trace.Last(); rep != nil {
				reportSink.Emit(rep)
			}
		}
		return d, s
	}

	dEager, se := run(read+pin, func(s *repl.Session) { s.SetTileConfig(tileCells, budget, false); s.SetSpill(false) })
	se.Close()
	dLazy, sl := run(read, func(s *repl.Session) { s.SetTileConfig(tileCells, budget, false) })
	defer sl.Close()

	st := sl.TileCache().Stats()
	lookups := st.TileHits + st.TileMisses
	hitRate := 0.0
	if lookups > 0 {
		hitRate = float64(st.TileHits) / float64(lookups)
	}
	prefRate := 0.0
	if st.Prefetches > 0 {
		prefRate = float64(st.PrefetchUseful) / float64(st.Prefetches)
	}
	e26Results = &oocReport{
		Cells:         cells,
		TileCells:     tileCells,
		BudgetBytes:   budget,
		PeakBytes:     sl.TileCache().PeakResident(),
		LazyNs:        dLazy.Nanoseconds(),
		EagerNs:       dEager.Nanoseconds(),
		TileHitRate:   hitRate,
		PrefetchRate:  prefRate,
		BytesScanned:  st.BytesScanned,
		BytesReturned: st.BytesReturned,
		Evictions:     st.Evictions,
	}

	fmt.Printf("| cells | budget | peak resident | in-memory scan | lazy scan | hit rate | prefetch useful | scanned/returned | evictions |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|---|\n")
	fmt.Printf("| %d | %d B | %d B | %v | %v | %.1f%% | %.1f%% | %d/%d | %d |\n",
		cells, budget, e26Results.PeakBytes,
		dEager.Round(time.Microsecond), dLazy.Round(time.Microsecond),
		100*hitRate, 100*prefRate, st.BytesScanned, st.BytesReturned, st.Evictions)
	if e26Results.PeakBytes > budget {
		fmt.Printf("\nWARNING: peak residency %d exceeds the %d-byte budget\n", e26Results.PeakBytes, budget)
	}
}
