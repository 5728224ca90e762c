// Package tile implements out-of-core array storage: lazy arrays whose
// cells are fetched on demand in fixed-size row-major tiles, held in a
// byte-budgeted LRU cache shared by all arrays of a session.
//
// A tile t of an array with N flat cells and tile size C covers cells
// [t*C, min((t+1)*C, N)). A resident tile is one object.Flat: a real or nat
// tile is its packed []float64 or []int64 with a sparse ⊥ side table.
// Cells are read in bulk by CellRange, which boxes them, or one at a time
// through a Cursor, which pins the tile of its last read and serves the
// reads that follow in that tile straight from the packed cells; Cell is a
// cursor's single read. Tiles are fetched
// through a caller-supplied fetch function (the NetCDF cell-range reader, or
// the spill file), deduplicated
// by a per-tile singleflight so concurrent tabulation workers faulting the
// same tile trigger one I/O, and evicted least-recently-used when the byte
// budget is exceeded. Sequential access (tile t demanded right after t-1)
// triggers synchronous readahead of t+1; prefetch is deterministic so lazy
// execution stays reproducible, and its usefulness is tracked (a prefetched
// tile later served on demand counts PrefetchUseful) for the
// prefetch-efficiency metric.
//
// Fetch errors are never cached: the failed tile is removed, so a transient
// fault surfaces to exactly the demand that hit it and the next access
// retries. Waiters of a cancelled fetcher re-run the fetch under their own
// context rather than inheriting the cancellation.
//
// Each call counts what it did (hits, misses, prefetches, bytes, spill
// traffic) twice: in the cache's own totals (Stats), and in the
// trace.Collector its context carries, which is the execution's. A fetch
// runs under the context of the call that faulted the tile, so the source's
// own counts (the NetCDF slab reads) land in that execution's collector too.
package tile

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"context"

	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/trace"
)

// FlatFetch retrieves n cells starting at flat row-major offset start from
// the underlying source, as a packed run. The cache only ever asks for whole
// tiles (the final tile may be short). Implementations must be safe for
// concurrent use and deterministic: same range, same cells.
type FlatFetch func(ctx context.Context, start, n int) (object.Flat, error)

// Fetch is FlatFetch for sources that produce boxed cells. The cache packs
// what it returns (object.PackCells) before storing it, so a tile has one
// storage form and one accounting rule whichever kind of source filled it.
type Fetch func(ctx context.Context, start, n int) ([]object.Value, error)

// Config tunes a Cache. Zero fields select the noted defaults.
type Config struct {
	// TileCells is the number of cells per tile (default 4096).
	TileCells int
	// Budget is the maximum resident cache size in accounted bytes
	// (default 64 MiB). A tile's accounted cost is object.Flat.Bytes of its
	// packed cells (8 bytes per cell of a real or nat tile plus its ⊥ side
	// table, the in-memory size of an object.Value per cell of any other)
	// plus a flat tileOverhead.
	Budget int64
	// NoPrefetch disables sequential readahead.
	NoPrefetch bool
}

const (
	// DefaultTileCells is the default tile size in cells.
	DefaultTileCells = 4096
	// DefaultBudget is the default cache budget in bytes.
	DefaultBudget = 64 << 20
)

func (c *Config) tileCells() int {
	if c.TileCells > 0 {
		return c.TileCells
	}
	return DefaultTileCells
}

func (c *Config) budget() int64 {
	if c.Budget > 0 {
		return c.Budget
	}
	return DefaultBudget
}

// boxedCellBytes is the in-memory cost of one cell of an eager array, which
// is what OverBudget weighs against the budget.
const boxedCellBytes = int64(unsafe.Sizeof(object.Value{}))

// tileOverhead is charged for every resident tile on top of its cells, for
// the entry, its LRU node and index slot. Those measure 234 bytes on a
// one-cell tile; the constant is about four times that on purpose. At 8
// bytes a cell a budget that ignored bookkeeping would be overrun many times
// over by a cache of tiny tiles, so some charge is due, but the size was
// picked against benchmarks/ (which this package's changes may not edit):
// its quick configuration holds 64 tiles of 2 KiB under a budget 1.25 times
// their payload and its smoke test needs that scan to evict, which takes
// more than 512 bytes a tile, while the full configuration stays resident
// up to 8192. See CHANGES.md, PR 16.
const tileOverhead = 1 << 10

// RealTileBytes is what the cache charges for a resident ⊥-free tile of the
// given number of real (or nat) cells; a budget meant to hold n such tiles
// is n times it.
func RealTileBytes(cells int) int64 {
	return int64(cells)*object.PackedCellBytes + tileOverhead
}

// cellPayload is the nominal data size of one cell for the bytes-scanned /
// bytes-returned counters: the 8-byte scalar payload. Using one nominal
// size on both sides makes the ratio read directly as I/O amplification.
const cellPayload = 8

// Counters is trace.IOCounters, the one record of an execution's I/O; the
// name stays because the frozen benchmark harness (benchmarks/) uses it. The
// cache fills the tile fields and Evictions.
type Counters = trace.IOCounters

// entry is one cached (or in-flight) tile.
type entry struct {
	key   key
	cells object.Flat
	bytes int64
	elem  *list.Element // LRU position; nil while fetching
	ready chan struct{} // non-nil while a fetch is in flight
	// prefetched marks a tile inserted by readahead and not yet demanded.
	prefetched bool
}

type key struct {
	owner uint64
	tile  int
}

// Cache is a byte-budgeted LRU tile cache shared by the lazy arrays of a
// session. Safe for concurrent use.
type Cache struct {
	cfg Config
	// stats holds the cache's own totals; evictions counts apart from them,
	// as cursors read it on every pinned read to tell a pin is still valid.
	stats     trace.Collector
	evictions atomic.Int64

	nextOwner atomic.Uint64

	mu       sync.Mutex
	entries  map[key]*entry
	lru      list.List // front = most recently used; resident entries only
	resident int64
	peak     int64

	spill spillFile
}

// New returns an empty cache with the given configuration.
func New(cfg Config) *Cache {
	return &Cache{cfg: cfg, entries: make(map[key]*entry)}
}

// Config reports the cache's effective configuration.
func (c *Cache) Config() Config {
	return Config{TileCells: c.cfg.tileCells(), Budget: c.cfg.budget(), NoPrefetch: c.cfg.NoPrefetch}
}

// Stats returns a snapshot of the cache-global counters.
func (c *Cache) Stats() trace.IOCounters {
	st := c.stats.Snapshot()
	st.Evictions = c.evictions.Load()
	return st
}

// OverBudget reports whether holding an array of the given cell count
// eagerly (boxed, one object.Value per cell) would exceed the cache budget —
// the spill trigger for oversized intermediates.
func (c *Cache) OverBudget(cells int) bool {
	return int64(cells)*boxedCellBytes > c.cfg.budget()
}

// Resident reports the currently accounted resident bytes.
func (c *Cache) Resident() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resident
}

// PeakResident reports the high-water mark of resident bytes.
func (c *Cache) PeakResident() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peak
}

// Close releases the spill file, if one was created. Cached tiles become
// garbage; arrays backed by the spill file must not be read afterwards.
func (c *Cache) Close() error { return c.spill.close() }

// Drop evicts every resident tile, so a cache that no binding reads any more
// holds no memory but its spill file; a later read fetches its tile again.
func (c *Cache) Drop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.lru.Len() > 0 {
		delete(c.entries, c.lru.Remove(c.lru.Back()).(*entry).key)
		c.evictions.Add(1)
	}
	c.resident = 0
}

// count adds what one call did to the cache-global counters and to the
// execution's collector (nil when the call's ctx carried none). Callers
// resolve the collector once per call and count once, when the call is over.
func (c *Cache) count(col *trace.Collector, d *trace.IOCounters) {
	c.stats.Add(d)
	col.Add(d)
}

// Array is a lazy-array backing: object.ArrayBacking over one fetch source,
// with all tiles living in the shared Cache.
type Array struct {
	c     *Cache
	owner uint64
	size  int
	fetch FlatFetch
	// lastTile drives sequential-access detection for prefetch.
	lastTile atomic.Int64
}

// NewFlatArray registers a lazy array of size cells over the given fetch
// source.
func (c *Cache) NewFlatArray(size int, fetch FlatFetch) *Array {
	a := &Array{c: c, owner: c.nextOwner.Add(1), size: size, fetch: fetch}
	a.lastTile.Store(-1)
	return a
}

// NewArray is NewFlatArray over a source of boxed cells, packed on insert.
func (c *Cache) NewArray(size int, fetch Fetch) *Array {
	return c.NewFlatArray(size, func(ctx context.Context, start, n int) (object.Flat, error) {
		cells, err := fetch(ctx, start, n)
		if err != nil {
			return object.Flat{}, err
		}
		return object.PackCells(cells), nil
	})
}

// Size implements object.ArrayBacking.
func (a *Array) Size() int { return a.size }

// TileCount reports the number of tiles covering the array; the cost
// estimator probes for it to predict tiles touched by a full scan.
func (a *Array) TileCount() int {
	tc := a.c.cfg.tileCells()
	return (a.size + tc - 1) / tc
}

// Cell implements object.ArrayBacking: it serves the cell at flat offset
// off from the tile cache, faulting the tile in if needed. It is a Cursor's
// single read, and the cell is boxed here, on its way out.
func (a *Array) Cell(ctx context.Context, off int) (object.Value, error) {
	var cur Cursor
	cells, i, err := cur.Read(ctx, a, off)
	if err != nil {
		return object.Value{}, err
	}
	return cells.At(i), nil
}

// Cursor reads cells of lazy arrays through the tile cache, pinning the
// resident tile that holds its last read. A read that falls in the pinned
// tile is served straight from its packed cells: no cache lock, index
// lookup, LRU touch, context lookup or boxing. Any other read is a demand,
// exactly what one Cell costs and counts, and pins the tile it returns.
//
// A pinned read counts as the cache hit it would have been: one TileHit and
// one cell of BytesReturned, tallied on the cursor and added to the cache's
// and the demand's collector by Flush, which the cursor calls itself when it
// leaves the tile and its owner calls when it is done with it. Prefetch is
// decided at tile entry, as reads inside a tile never triggered it.
//
// The cursor records the cache's eviction count before each demand, and a
// pinned read first checks it is unchanged; after any eviction the next
// read is a demand. An evicted tile is therefore never read past the next
// read of its cursor, and the miss counts and residency budget hold as they
// do for Cell. The zero Cursor pins nothing. A Cursor belongs to one
// goroutine.
type Cursor struct {
	a         *Array
	lo, hi    int // flat offsets of the pinned tile
	cells     *object.Flat
	evictions int64
	col       *trace.Collector
	pinned    int64 // pinned reads not yet counted
}

// Read returns the resident tile holding cell off of a and off's offset in
// it. The tile's cells are immutable and stay valid after it is evicted.
func (cur *Cursor) Read(ctx context.Context, a *Array, off int) (*object.Flat, int, error) {
	if a == cur.a && uint(off-cur.lo) < uint(cur.hi-cur.lo) && a.c.evictions.Load() == cur.evictions {
		cur.pinned++
		return cur.cells, off - cur.lo, nil
	}
	return cur.demand(ctx, a, off)
}

// demand serves a read that missed the pin through the cache, counting it
// as Cell always has, and pins its tile.
func (cur *Cursor) demand(ctx context.Context, a *Array, off int) (*object.Flat, int, error) {
	cur.Flush()
	cur.a = nil
	if off < 0 || off >= a.size {
		return nil, 0, fmt.Errorf("tile: cell %d out of range [0, %d)", off, a.size)
	}
	tc := a.c.cfg.tileCells()
	t := off / tc
	col := trace.CollectorFrom(ctx)
	evictions := a.c.evictions.Load()
	var d trace.IOCounters
	cells, err := a.c.tile(ctx, a, t, &d)
	if err == nil {
		d.BytesReturned = cellPayload
		a.maybePrefetch(ctx, t, &d)
		*cur = Cursor{a: a, lo: t * tc, hi: t*tc + cells.Len(), cells: cells, evictions: evictions, col: col}
	}
	a.c.count(col, &d)
	return cells, off - t*tc, err
}

// Flush counts the cursor's pinned reads not yet counted, to the cache and
// to the collector of the demand that pinned the tile.
func (cur *Cursor) Flush() {
	if n := cur.pinned; n != 0 {
		cur.pinned = 0
		cur.a.c.count(cur.col, &trace.IOCounters{TileHits: n, BytesReturned: n * cellPayload})
	}
}

// CellRange implements object.ArrayBacking: a bulk read across tiles, used
// by materialization and tile-aligned scans.
func (a *Array) CellRange(ctx context.Context, start, n int) ([]object.Value, error) {
	if start < 0 || n < 0 || start+n > a.size {
		return nil, fmt.Errorf("tile: cell range [%d, %d) out of range [0, %d)", start, start+n, a.size)
	}
	out := make([]object.Value, 0, n)
	tc := a.c.cfg.tileCells()
	col := trace.CollectorFrom(ctx)
	var d trace.IOCounters
	for off := start; off < start+n; {
		t := off / tc
		cells, err := a.c.tile(ctx, a, t, &d)
		if err != nil {
			a.c.count(col, &d)
			return nil, err
		}
		lo := off - t*tc
		hi := cells.Len()
		if rem := start + n - off; hi-lo > rem {
			hi = lo + rem
		}
		out = cells.AppendTo(out, lo, hi)
		a.maybePrefetch(ctx, t, &d)
		off += hi - lo
	}
	d.BytesReturned = int64(n) * cellPayload
	a.c.count(col, &d)
	return out, nil
}

// tileLen returns the cell count of tile t.
func (a *Array) tileLen(t int) int {
	tc := a.c.cfg.tileCells()
	start := t * tc
	n := tc
	if a.size-start < n {
		n = a.size - start
	}
	return n
}

// fetchTile reads tile t from the source and checks its length.
func (a *Array) fetchTile(ctx context.Context, t int) (object.Flat, error) {
	cells, err := a.fetch(ctx, t*a.c.cfg.tileCells(), a.tileLen(t))
	if err == nil && cells.Len() != a.tileLen(t) {
		err = fmt.Errorf("tile: fetch returned %d cells for tile %d, want %d", cells.Len(), t, a.tileLen(t))
	}
	return cells, err
}

// maybePrefetch issues synchronous readahead of tile t+1 when tile t was
// demanded immediately after tile t-1 (a row-major sequential scan, the
// access pattern of tabulation).
func (a *Array) maybePrefetch(ctx context.Context, t int, d *trace.IOCounters) {
	if a.c.cfg.NoPrefetch {
		return
	}
	last := a.lastTile.Swap(int64(t))
	if int64(t) != last+1 || t+1 >= a.TileCount() {
		return
	}
	a.c.prefetchTile(ctx, a, t+1, d)
}

// tile returns the cells of tile t, serving from cache or faulting it in,
// and notes in d what that took. Concurrent fetches of the same tile are
// deduplicated; fetch errors are not cached, and waiters whose fetcher
// failed re-run the fetch under their own context.
func (c *Cache) tile(ctx context.Context, a *Array, t int, d *trace.IOCounters) (*object.Flat, error) {
	k := key{a.owner, t}
	for {
		c.mu.Lock()
		if e, ok := c.entries[k]; ok {
			if e.ready == nil {
				// Resident: serve and refresh recency.
				c.lru.MoveToFront(e.elem)
				if e.prefetched {
					e.prefetched = false
					d.PrefetchUseful++
				}
				c.mu.Unlock()
				d.TileHits++
				return &e.cells, nil // written once, before the entry became resident
			}
			ready := e.ready
			c.mu.Unlock()
			select {
			case <-ready:
				continue // re-check: resident on success, absent on failure
			case <-ctx2done(ctx):
				return nil, ctx.Err()
			}
		}
		e := &entry{key: k, ready: make(chan struct{})}
		c.entries[k] = e
		c.mu.Unlock()
		d.TileMisses++

		cells, err := a.fetchTile(ctx, t)
		c.mu.Lock()
		if err != nil {
			delete(c.entries, k)
			close(e.ready)
			c.mu.Unlock()
			return nil, err
		}
		c.insertLocked(e, cells)
		c.mu.Unlock()
		d.BytesScanned += int64(cells.Len()) * cellPayload
		return &e.cells, nil
	}
}

// prefetchTile faults tile t into the cache if absent. Prefetch errors are
// swallowed (the tile is simply not cached); the demand fetch that actually
// needs it will retry and surface the error.
func (c *Cache) prefetchTile(ctx context.Context, a *Array, t int, d *trace.IOCounters) {
	k := key{a.owner, t}
	c.mu.Lock()
	if _, ok := c.entries[k]; ok {
		c.mu.Unlock()
		return
	}
	e := &entry{key: k, ready: make(chan struct{})}
	c.entries[k] = e
	c.mu.Unlock()

	cells, err := a.fetchTile(ctx, t)
	c.mu.Lock()
	if err != nil {
		delete(c.entries, k)
		close(e.ready)
		c.mu.Unlock()
		return
	}
	e.prefetched = true
	c.insertLocked(e, cells)
	c.mu.Unlock()
	d.Prefetches++
	d.BytesScanned += int64(cells.Len()) * cellPayload
}

// insertLocked completes a fetch: the entry becomes resident, waiters wake,
// and the LRU is trimmed back under budget. Caller holds c.mu.
func (c *Cache) insertLocked(e *entry, cells object.Flat) {
	e.cells = cells
	e.bytes = cells.Bytes() + tileOverhead
	e.elem = c.lru.PushFront(e)
	ready := e.ready
	e.ready = nil
	close(ready)
	c.resident += e.bytes
	// Evict before recording the high-water mark, so peak reflects the
	// post-trim residency: at most the budget, except when a single tile
	// exceeds it (the just-inserted tile is never evicted — a demanded
	// tile must be resident while it is served).
	for c.resident > c.cfg.budget() && c.lru.Len() > 1 {
		tail := c.lru.Back()
		ev := tail.Value.(*entry)
		c.lru.Remove(tail)
		delete(c.entries, ev.key)
		c.resident -= ev.bytes
		c.evictions.Add(1)
	}
	if c.resident > c.peak {
		c.peak = c.resident
	}
}

// ctx2done returns ctx.Done(), tolerating a nil ctx (non-cancellable).
func ctx2done(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}
