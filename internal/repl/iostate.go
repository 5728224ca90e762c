package repl

import (
	"fmt"
	"os"
	"sort"
	"sync"

	"context"

	"github.com/aqldb/aql/internal/netcdf"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/tile"
	"github.com/aqldb/aql/internal/trace"
)

// ioState is the session's out-of-core I/O machinery: the per-session cache
// of open NetCDF files (opened once, read lazily for the session's
// lifetime, closed by Session.Close) and the shared tile cache. It keeps no
// I/O counts: every read counts into the collector of the execution it ran
// under (Session.Guard).
type ioState struct {
	mu    sync.Mutex
	files map[string]*openFile

	cache *tile.Cache
	// replaced holds the caches SetTileConfig swapped out, which lazy arrays
	// bound under them still read; close releases them with cache.
	replaced []*tile.Cache
	// spill enables spilling oversized val bindings to the tile cache's
	// spill file.
	spill bool
}

type openFile struct {
	f      *netcdf.File
	closer *os.File
}

func newIOState(cfg tile.Config) *ioState {
	return &ioState{
		files: make(map[string]*openFile),
		cache: tile.New(cfg),
		spill: true,
	}
}

// open returns the session's handle for path, opening (and retaining) it on
// first use. The reader stack is wrapped in a RetryingReaderAt by default,
// so every session read gets transient-failure retry and per-call context
// cancellation (ReadAtCtx) during tile fetches.
func (io *ioState) open(path string) (*netcdf.File, error) {
	io.mu.Lock()
	defer io.mu.Unlock()
	if of, ok := io.files[path]; ok {
		return of.f, nil
	}
	osf, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r := netcdf.NewRetryingReaderAt(osf, netcdf.RetryConfig{})
	f, err := netcdf.Read(r)
	if err != nil {
		osf.Close()
		return nil, err
	}
	io.files[path] = &openFile{f: f, closer: osf}
	return f, nil
}

// close releases all open files and the tile cache (including its spill
// file). Lazy arrays created by this session must not be read afterwards.
func (io *ioState) close() error {
	io.mu.Lock()
	defer io.mu.Unlock()
	var first error
	for _, of := range io.files {
		if err := of.closer.Close(); err != nil && first == nil {
			first = err
		}
	}
	io.files = make(map[string]*openFile)
	for _, c := range append(io.replaced, io.cache) {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	io.replaced = nil
	return first
}

// openPaths lists the session's open NetCDF files, sorted.
func (io *ioState) openPaths() []string {
	io.mu.Lock()
	defer io.mu.Unlock()
	paths := make([]string, 0, len(io.files))
	for p := range io.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// Close releases the session's out-of-core resources: open NetCDF handles,
// the tile cache, and the spill file. Call it when the session ends; lazy
// values bound in the environment must not be read afterwards.
func (s *Session) Close() error {
	if s.io == nil {
		return nil
	}
	return s.io.close()
}

// TileCache exposes the session's shared tile cache (stats, residency) for
// commands, tests and benchmarks.
func (s *Session) TileCache() *tile.Cache {
	s.io.mu.Lock()
	defer s.io.mu.Unlock()
	return s.io.cache
}

// SetTileConfig replaces the session's tile cache with one of the given
// tile size (cells) and budget (bytes); zero values select the defaults.
// Call it before data is read: lazy arrays bound under the previous cache
// keep reading through it, so reconfiguring mid-session splits the budget
// accounting until those bindings are dropped. The replaced cache's resident
// tiles are dropped at once; its spill file stays open for those bindings,
// and Close releases it with every other cache the session had.
func (s *Session) SetTileConfig(tileCells int, budget int64, noPrefetch bool) {
	s.io.mu.Lock()
	defer s.io.mu.Unlock()
	s.io.cache.Drop()
	s.io.replaced = append(s.io.replaced, s.io.cache)
	s.io.cache = tile.New(tile.Config{TileCells: tileCells, Budget: budget, NoPrefetch: noPrefetch})
}

// SetSpill enables or disables spilling oversized val bindings.
func (s *Session) SetSpill(on bool) {
	s.io.mu.Lock()
	defer s.io.mu.Unlock()
	s.io.spill = on
}

// maybeSpill spills an eager array binding whose accounted in-memory size
// exceeds the tile-cache budget, binding a lazy spill-backed value in its
// place. Spill failures (unencodable cells, disk errors) fall back to the
// eager value: spilling is an optimization, never a semantics change.
// Counters are folded into rep, the statement's report.
func (s *Session) maybeSpill(ctx context.Context, rep *trace.QueryReport, v object.Value) object.Value {
	s.io.mu.Lock()
	spill, cache := s.io.spill, s.io.cache
	s.io.mu.Unlock()
	if !spill || v.Kind != object.KArray || v.IsLazy() || !cache.OverBudget(v.Size()) {
		return v
	}
	ctx, col := trace.WithCollector(ctx)
	spilled, err := cache.SpillArray(ctx, v)
	if rep != nil {
		rep.IO.Add(col.Snapshot())
	}
	if err != nil {
		return v
	}
	return spilled
}

// IOStatus is a human-readable summary of the session's out-of-core state
// for the :io command.
func (s *Session) IOStatus() string {
	cache := s.TileCache()
	cfg := cache.Config()
	st := cache.Stats()
	out := fmt.Sprintf("tile size: %d cells, budget: %d bytes\nresident: %d bytes (peak %d)\n",
		cfg.TileCells, cfg.Budget, cache.Resident(), cache.PeakResident())
	out += fmt.Sprintf("tiles: %d hits, %d misses, %d prefetched (%d useful), %d evicted\n",
		st.TileHits, st.TileMisses, st.Prefetches, st.PrefetchUseful, st.Evictions)
	out += fmt.Sprintf("bytes: %d scanned, %d returned, spill %d written / %d read\n",
		st.BytesScanned, st.BytesReturned, st.SpillBytesWritten, st.SpillBytesRead)
	if paths := s.io.openPaths(); len(paths) > 0 {
		out += "open files:\n"
		for _, p := range paths {
			out += "  " + p + "\n"
		}
	}
	return out
}
