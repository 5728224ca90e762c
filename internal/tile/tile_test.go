package tile

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/trace"
)

// seqFetch serves Real(start+i) cells and counts fetch calls, optionally
// failing calls according to errs (consumed in order).
type seqFetch struct {
	calls atomic.Int64
	mu    sync.Mutex
	errs  []error
}

func (s *seqFetch) fetch(ctx context.Context, start, n int) ([]object.Value, error) {
	s.calls.Add(1)
	s.mu.Lock()
	var err error
	if len(s.errs) > 0 {
		err, s.errs = s.errs[0], s.errs[1:]
	}
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	out := make([]object.Value, n)
	for i := range out {
		out[i] = object.Real(float64(start + i))
	}
	return out, nil
}

func TestCellAndRange(t *testing.T) {
	c := New(Config{TileCells: 4})
	defer c.Close()
	f := &seqFetch{}
	a := c.NewArray(10, f.fetch)
	for i := 0; i < 10; i++ {
		v, err := a.Cell(nil, i)
		if err != nil {
			t.Fatal(err)
		}
		if v.R != float64(i) {
			t.Fatalf("cell %d = %v, want %d", i, v, i)
		}
	}
	cells, err := a.CellRange(nil, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range cells {
		if v.R != float64(3+i) {
			t.Fatalf("range cell %d = %v, want %d", i, v, 3+i)
		}
	}
	if _, err := a.Cell(nil, 10); err == nil {
		t.Error("out-of-range cell read succeeded")
	}
	if _, err := a.CellRange(nil, 8, 5); err == nil {
		t.Error("out-of-range cell range read succeeded")
	}
}

func TestSequentialScanCounters(t *testing.T) {
	c := New(Config{TileCells: 8})
	defer c.Close()
	f := &seqFetch{}
	const n = 8 * 10
	a := c.NewArray(n, f.fetch)
	if a.TileCount() != 10 {
		t.Fatalf("TileCount = %d, want 10", a.TileCount())
	}
	for i := 0; i < n; i++ {
		if _, err := a.Cell(nil, i); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	// Every tile is fetched from the source exactly once: by demand (miss)
	// or by readahead.
	if st.TileMisses+st.Prefetches != 10 {
		t.Errorf("misses %d + prefetches %d != 10 tiles", st.TileMisses, st.Prefetches)
	}
	if f.calls.Load() != 10 {
		t.Errorf("fetch calls = %d, want 10", f.calls.Load())
	}
	if st.Prefetches == 0 || st.PrefetchUseful != st.Prefetches {
		t.Errorf("sequential scan: prefetches %d, useful %d; want all useful", st.Prefetches, st.PrefetchUseful)
	}
	if st.TileHits == 0 {
		t.Errorf("no tile hits on a repeat-access scan")
	}
	if st.BytesScanned != int64(n)*cellPayload {
		t.Errorf("bytes scanned = %d, want %d", st.BytesScanned, int64(n)*cellPayload)
	}
	if st.BytesReturned != int64(n)*cellPayload {
		t.Errorf("bytes returned = %d, want %d", st.BytesReturned, int64(n)*cellPayload)
	}
}

func TestEvictionThrashTwoTileBudget(t *testing.T) {
	const tc = 4
	budget := 2 * RealTileBytes(tc)
	c := New(Config{TileCells: tc, Budget: budget, NoPrefetch: true})
	defer c.Close()
	f := &seqFetch{}
	const n = tc * 16
	a := c.NewArray(n, f.fetch)
	// Three forward scans over 16 tiles with room for 2: every scan after
	// the first still faults every tile (LRU keeps only the newest two).
	for scan := 0; scan < 3; scan++ {
		for i := 0; i < n; i++ {
			v, err := a.Cell(nil, i)
			if err != nil {
				t.Fatal(err)
			}
			if v.R != float64(i) {
				t.Fatalf("scan %d cell %d = %v", scan, i, v)
			}
		}
	}
	st := c.Stats()
	if st.TileMisses != 3*16 {
		t.Errorf("misses = %d, want %d (thrash refetches every tile)", st.TileMisses, 3*16)
	}
	if st.Evictions < 3*16-2 {
		t.Errorf("evictions = %d, want >= %d", st.Evictions, 3*16-2)
	}
	if got := c.Resident(); got > budget {
		t.Errorf("resident %d exceeds budget %d", got, budget)
	}
	if got := c.PeakResident(); got != budget {
		t.Errorf("peak resident %d, want the two-tile budget %d", got, budget)
	}
}

func TestParallelWorkersShareOneCache(t *testing.T) {
	c := New(Config{TileCells: 16})
	defer c.Close()
	f := &seqFetch{}
	const n = 16 * 64
	a := c.NewArray(n, f.fetch)

	const workers = 12
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker scans a strided slice of the cell space, so
			// workers collide on tiles constantly.
			for i := w; i < n; i += workers {
				v, err := a.Cell(context.Background(), i)
				if err != nil {
					errs[w] = err
					return
				}
				if v.R != float64(i) {
					errs[w] = fmt.Errorf("worker %d: cell %d = %v", w, i, v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Singleflight: tiles were fetched once each despite 12 workers racing
	// (prefetch may add fetches for tiles already counted, but never more
	// than one fetch per tile total because prefetchTile checks presence).
	if got := f.calls.Load(); got != 64 {
		t.Errorf("fetch calls = %d, want 64 (one per tile)", got)
	}
}

func TestFetchErrorsNotCached(t *testing.T) {
	boom := errors.New("boom")
	c := New(Config{TileCells: 4, NoPrefetch: true})
	defer c.Close()
	f := &seqFetch{errs: []error{boom}}
	a := c.NewArray(8, f.fetch)
	if _, err := a.Cell(nil, 0); !errors.Is(err, boom) {
		t.Fatalf("first access error = %v, want boom", err)
	}
	// The failure was not cached: the next access refetches and succeeds.
	v, err := a.Cell(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.R != 0 {
		t.Fatalf("cell 0 after retry = %v", v)
	}
	if f.calls.Load() != 2 {
		t.Errorf("fetch calls = %d, want 2", f.calls.Load())
	}
}

func TestCollectorAttribution(t *testing.T) {
	c := New(Config{TileCells: 4, NoPrefetch: true})
	defer c.Close()
	f := &seqFetch{}
	a := c.NewArray(8, f.fetch)

	ctx1, col1 := trace.WithCollector(context.Background())
	if _, err := a.Cell(ctx1, 0); err != nil {
		t.Fatal(err)
	}
	ctx2, col2 := trace.WithCollector(context.Background())
	if _, err := a.Cell(ctx2, 0); err != nil {
		t.Fatal(err)
	}
	s1, s2 := col1.Snapshot(), col2.Snapshot()
	if s1.TileMisses != 1 || s1.TileHits != 0 {
		t.Errorf("query 1: misses %d hits %d, want 1/0", s1.TileMisses, s1.TileHits)
	}
	if s2.TileMisses != 0 || s2.TileHits != 1 {
		t.Errorf("query 2: misses %d hits %d, want 0/1", s2.TileMisses, s2.TileHits)
	}
	global := c.Stats()
	if global.TileMisses != 1 || global.TileHits != 1 {
		t.Errorf("global: misses %d hits %d, want 1/1", global.TileMisses, global.TileHits)
	}
}

func TestSpillRoundtrip(t *testing.T) {
	c := New(Config{TileCells: 3})
	defer c.Close()

	inner, err := object.Array([]int{2}, []object.Value{object.Nat(7), object.Bottom("inner ⊥")})
	if err != nil {
		t.Fatal(err)
	}
	cells := []object.Value{
		object.Real(1.5),
		object.Bottom("division by zero somewhere"),
		object.Nat(42),
		object.Bool(true),
		object.String_("hello"),
		object.Base("date", "1996-06-04"),
		object.Tuple(object.Nat(1), object.Real(-0.25)),
		inner,
	}
	v, err := object.Array([]int{2, 4}, cells)
	if err != nil {
		t.Fatal(err)
	}
	spilled, err := c.SpillArray(context.Background(), v)
	if err != nil {
		t.Fatal(err)
	}
	if !spilled.IsLazy() {
		t.Fatal("spilled value is not lazy")
	}
	// Byte-identity including ⊥ diagnostics: the printed forms must match
	// exactly (the exchange text format would drop the ⊥ messages).
	if got, want := spilled.String(), v.String(); got != want {
		t.Errorf("spill roundtrip mismatch:\n got %s\nwant %s", got, want)
	}
	st := c.Stats()
	if st.SpillBytesWritten == 0 || st.SpillBytesRead == 0 {
		t.Errorf("spill bytes written/read = %d/%d, want non-zero", st.SpillBytesWritten, st.SpillBytesRead)
	}
}

// TestOverBudget: the spill trigger weighs an eager array, which is boxed,
// at the size of a Value per cell, not at what a packed tile would cost.
func TestOverBudget(t *testing.T) {
	c := New(Config{Budget: 100 * int64(unsafe.Sizeof(object.Value{}))})
	defer c.Close()
	if c.OverBudget(100) {
		t.Error("100 cells over a 100-cell budget")
	}
	if !c.OverBudget(101) {
		t.Error("101 cells not over a 100-cell budget")
	}
}

func TestWaiterSurvivesCancelledFetcher(t *testing.T) {
	c := New(Config{TileCells: 4, NoPrefetch: true})
	defer c.Close()

	started := make(chan struct{})
	release := make(chan struct{})
	var calls atomic.Int64
	fetch := func(ctx context.Context, start, n int) ([]object.Value, error) {
		if calls.Add(1) == 1 {
			close(started)
			<-release
			return nil, ctx.Err() // the cancelled fetcher fails
		}
		out := make([]object.Value, n)
		for i := range out {
			out[i] = object.Real(float64(start + i))
		}
		return out, nil
	}
	a := c.NewArray(4, fetch)

	cancelCtx, cancel := context.WithCancel(context.Background())
	fetcherDone := make(chan error, 1)
	go func() {
		_, err := a.Cell(cancelCtx, 0)
		fetcherDone <- err
	}()
	<-started
	cancel()

	// A second reader with a live context waits on the in-flight fetch,
	// sees it fail, and re-runs the fetch under its own context.
	waiterDone := make(chan error, 1)
	go func() {
		v, err := a.Cell(context.Background(), 1)
		if err == nil && v.R != 1 {
			err = fmt.Errorf("cell 1 = %v", v)
		}
		waiterDone <- err
	}()
	close(release)
	if err := <-fetcherDone; err == nil {
		t.Error("cancelled fetcher returned no error")
	}
	if err := <-waiterDone; err != nil {
		t.Errorf("waiter after cancelled fetcher: %v", err)
	}
}

// residentAfter fetches every tile of an n-cell array whose cell i is
// cell(i) and returns what the cache charges for them.
func residentAfter(t *testing.T, tileCells, n int, cell func(i int) object.Value) int64 {
	t.Helper()
	c := New(Config{TileCells: tileCells, NoPrefetch: true})
	defer c.Close()
	a := c.NewArray(n, func(_ context.Context, start, n int) ([]object.Value, error) {
		out := make([]object.Value, n)
		for i := range out {
			out[i] = cell(start + i)
		}
		return out, nil
	})
	for off := 0; off < n; off += tileCells {
		v, err := a.Cell(nil, off)
		if err != nil {
			t.Fatal(err)
		}
		if want := cell(off); v.String() != want.String() {
			t.Fatalf("cell %d = %s, want %s", off, v, want)
		}
	}
	return c.Resident()
}

// TestPackedAccounting pins the accounting rule: a tile is charged what its
// packed form holds, whatever kind of Fetch filled it.
func TestPackedAccounting(t *testing.T) {
	const n = 4096
	real := func(i int) object.Value { return object.Real(float64(i)) }
	reals := residentAfter(t, n, n, real)
	// 8 bytes a cell plus a constant that is small beside a default tile.
	if reals != n*8+tileOverhead || tileOverhead*32 > n*8 {
		t.Errorf("%d reals charged %d bytes, want 8 per cell plus a small constant", n, reals)
	}
	if got := RealTileBytes(n); got != reals {
		t.Errorf("RealTileBytes(%d) = %d, cache charges %d", n, got, reals)
	}
	if nats := residentAfter(t, n, n, func(i int) object.Value { return object.Nat(int64(i)) }); nats != reals {
		t.Errorf("%d nats charged %d bytes, reals %d", n, nats, reals)
	}

	// k ⊥ cells add their side-table entries and nothing else.
	const k, msg = 5, "non-finite value in NetCDF data"
	withBottoms := residentAfter(t, n, n, func(i int) object.Value {
		if i%1000 == 7 {
			return object.Bottom(msg)
		}
		return real(i)
	})
	if extra := withBottoms - reals; extra <= 0 || extra > k*int64(len(msg)+32) {
		t.Errorf("%d ⊥ cells add %d bytes, want only side-table cost", k, extra)
	}

	// A tile of any other kind is still one Value per cell.
	tuples := residentAfter(t, n, n, func(i int) object.Value { return object.Tuple(object.Nat(int64(i)), real(i)) })
	if want := n*int64(unsafe.Sizeof(object.Value{})) + tileOverhead; tuples != want {
		t.Errorf("%d tuples charged %d bytes, want %d", n, tuples, want)
	}

	// Tiles are accounted one by one: a short final tile costs its cells.
	if got, want := residentAfter(t, 64, 100, real), RealTileBytes(64)+RealTileBytes(36); got != want {
		t.Errorf("100 reals in 64-cell tiles charged %d bytes, want %d", got, want)
	}
}

// corruptTuple is a tuple header claiming 2^63-1 elements: at the parent
// commit decoding it panicked with "makeslice: len out of range".
var corruptTuple = []byte{byte(object.KTuple), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}

func TestSpillDecodeCorrupt(t *testing.T) {
	if _, _, err := decodeValue(corruptTuple, 0, 1); err == nil {
		t.Error("corrupt tuple arity decoded")
	}
	for name, b := range map[string][]byte{
		"empty":          {},
		"boxed tuple":    append([]byte{formBoxed, 1}, corruptTuple...),
		"real count":     {formReals, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"nat overflow":   {formNats, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0},
		"⊥ offset":       {formNats, 1, 7, 1, 1, 0},
		"⊥ order":        {formNats, 2, 7, 7, 2, 1, 0, 1, 0},
		"array shape":    {formBoxed, 1, byte(object.KArray), 2, 0xff, 0xff, 0x03, 0xff, 0xff, 0x03},
		"string length":  {formBoxed, 1, byte(object.KString), 0xff, 0x7f, 'a'},
		"trailing bytes": {formReals, 0, 0, 0},
		"form":           {9, 0},
	} {
		if _, err := decodeTile(b); err == nil {
			t.Errorf("%s: corrupt spill tile decoded", name)
		}
	}
}

// nestedTile is a well-formed one-cell boxed tile whose cell is depth
// singleton sets nested around a nat: {{...{1}...}}, nested depth deep.
func nestedTile(depth int) []byte {
	b := []byte{formBoxed, 1}
	for d := 1; d < depth; d++ {
		b = append(b, byte(object.KSet), 1)
	}
	return append(b, byte(object.KNat), 1)
}

// nestedValue is nestedTile's cell as a value.
func nestedValue(depth int) object.Value {
	v := object.Nat(1)
	for d := 1; d < depth; d++ {
		v = object.Set(v)
	}
	return v
}

// TestSpillNestingBound: values nest at most maxSpillDepth deep in a spill
// tile. A well-formed tile nested one level deeper is a *CorruptSpillError
// (the decoder recursed once per level without bound), and the encoder
// refuses to write what the decoder would reject, so such a value stays
// in memory rather than spilling.
func TestSpillNestingBound(t *testing.T) {
	f, err := decodeTile(nestedTile(maxSpillDepth))
	if err != nil {
		t.Fatalf("tile nested %d deep: %v", maxSpillDepth, err)
	}
	if got, want := f.At(0).String(), nestedValue(maxSpillDepth).String(); got != want {
		t.Errorf("tile nested %d deep decoded to %.40s..., want %.40s...", maxSpillDepth, got, want)
	}
	_, err = decodeTile(nestedTile(maxSpillDepth + 1))
	var ce *CorruptSpillError
	if !errors.As(err, &ce) {
		t.Fatalf("tile nested %d deep: err = %v, want a *CorruptSpillError", maxSpillDepth+1, err)
	}

	if b, err := encodeTile(object.PackCells([]object.Value{nestedValue(maxSpillDepth)})); err != nil || !bytes.Equal(b, nestedTile(maxSpillDepth)) {
		t.Errorf("encoding a cell nested %d deep: %v", maxSpillDepth, err)
	}
	if _, err := encodeTile(object.PackCells([]object.Value{nestedValue(maxSpillDepth + 1)})); err == nil {
		t.Errorf("the encoder wrote a cell nested %d deep, which the decoder rejects", maxSpillDepth+1)
	}
	c := New(Config{TileCells: 4})
	defer c.Close()
	if _, err := c.SpillArray(context.Background(), object.Vector(object.Nat(0), nestedValue(maxSpillDepth+1))); err == nil {
		t.Error("SpillArray spilled a cell the decoder would reject")
	}
}

// fuzzCells derives a run of cells from fuzz bytes: each byte picks a kind,
// so runs come out all-real, all-nat, mixed and empty, with ⊥ anywhere.
func fuzzCells(data []byte) []object.Value {
	cells := make([]object.Value, 0, len(data))
	for i, b := range data {
		switch x := int64(b >> 3); b & 7 {
		case 0:
			cells = append(cells, object.Real(float64(x)-0.5))
		case 1:
			cells = append(cells, object.Nat(x<<uint(i%40)))
		case 2:
			cells = append(cells, object.Bottom(fmt.Sprintf("⊥ %d at %d", x, i)))
		case 3:
			cells = append(cells, object.Bottom(""))
		case 4:
			cells = append(cells, object.Tuple(object.Nat(x), object.String_(string(data[:i%8]))))
		case 5:
			cells = append(cells, object.Set(object.Nat(x), object.Bool(x&1 == 0), object.Base("t", "v")))
		case 6:
			cells = append(cells, object.MustArray([]int{2, 0, 3}, nil), object.Vector(object.Real(float64(x)), object.Bottom("inner")))
		default:
			cells = append(cells, object.Real(float64(x)/0)) // ±Inf and NaN are reals like any other here
		}
	}
	return cells
}

// FuzzSpillDecode: decoding arbitrary bytes returns a tile or an error,
// never panics, and what it accepts is a well-formed run; decoding what the
// encoder wrote gives back the cells, ⊥ diagnostics included.
func FuzzSpillDecode(f *testing.F) {
	f.Add(corruptTuple)
	f.Add(append([]byte{formBoxed, 1}, corruptTuple...))
	f.Add([]byte{formReals, 1, 0x3f, 0xf8, 0, 0, 0, 0, 0, 0, 1, 0, 3, 'n', 'a', 'n'})
	f.Add([]byte{formNats, 3, 1, 2, 3, 0})
	f.Add([]byte{0, 8, 16, 2, 0})
	f.Add([]byte{1, 9, 1, 17})
	f.Add([]byte{2, 3, 4, 5, 6, 7, 0, 1})
	f.Add([]byte{})
	f.Add(nestedTile(maxSpillDepth + 1))
	f.Add(nestedTile(4 * maxSpillDepth))
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeValue(data, 0, 1)
		if got, err := decodeTile(data); err == nil {
			for i := 0; i < got.Len(); i++ {
				_ = got.At(i).String()
			}
			if got.Boxed == nil && len(got.Bottoms) > got.Len() {
				t.Fatalf("%d ⊥ entries in a %d-cell tile", len(got.Bottoms), got.Len())
			}
		}

		cells := fuzzCells(data)
		b, err := encodeTile(object.PackCells(cells))
		if err != nil {
			t.Fatal(err)
		}
		back, err := decodeTile(b)
		if err != nil {
			t.Fatalf("decode(encode(cells)): %v", err)
		}
		if back.Len() != len(cells) {
			t.Fatalf("decoded %d cells, want %d", back.Len(), len(cells))
		}
		for i, want := range cells {
			got := back.At(i)
			if got.Kind != want.Kind || got.N != want.N || math.Float64bits(got.R) != math.Float64bits(want.R) ||
				got.Str() != want.Str() || got.String() != want.String() {
				t.Fatalf("cell %d = %s (%s, %q), want %s (%s, %q)", i, got, got.Kind, got.Str(), want, want.Kind, want.Str())
			}
		}
	})
}
