package tile

import (
	"context"
	"errors"
	"testing"

	"github.com/aqldb/aql/internal/trace"
)

// cursorRead reads cell off of a through cur and checks its value.
func cursorRead(t *testing.T, cur *Cursor, ctx context.Context, a *Array, off int) {
	t.Helper()
	cells, i, err := cur.Read(ctx, a, off)
	if err != nil {
		t.Fatal(err)
	}
	if v := cells.At(i); v.R != float64(off) {
		t.Fatalf("cursor read of cell %d = %v", off, v)
	}
}

// TestCursorCountsLikeCell: scans read through one cursor report, once it is
// flushed, exactly the counters the same reads through Cell report, in the
// cache and in the query's collector, prefetch included. Leaving a tile
// counts its pinned reads; before the flush those of the last tile are
// not counted yet.
func TestCursorCountsLikeCell(t *testing.T) {
	const tc, n = 8, 8 * 10
	scan := func(read func(ctx context.Context, a *Array, off int)) (global, query trace.IOCounters) {
		c := New(Config{TileCells: tc})
		defer c.Close()
		a := c.NewArray(n, (&seqFetch{}).fetch)
		ctx, col := trace.WithCollector(context.Background())
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < n; i++ {
				read(ctx, a, i)
			}
		}
		return c.Stats(), col.Snapshot()
	}
	wantGlobal, wantQuery := scan(func(ctx context.Context, a *Array, off int) {
		if _, err := a.Cell(ctx, off); err != nil {
			t.Fatal(err)
		}
	})
	var cur Cursor
	var beforeFlush trace.IOCounters
	gotGlobal, gotQuery := scan(func(ctx context.Context, a *Array, off int) {
		cursorRead(t, &cur, ctx, a, off)
		if off == n-1 {
			beforeFlush = a.c.Stats()
			cur.Flush()
		}
	})
	if gotGlobal != wantGlobal || gotQuery != wantQuery {
		t.Errorf("cursor scan counted cache %+v, query %+v; Cell reads count %+v, %+v", gotGlobal, gotQuery, wantGlobal, wantQuery)
	}
	if wantGlobal.Prefetches == 0 || wantGlobal.TileHits != 2*n-wantGlobal.TileMisses {
		t.Errorf("Cell scan counted %+v: want readahead and a hit for every read that did not miss", wantGlobal)
	}
	if pinned := wantGlobal.TileHits - beforeFlush.TileHits; pinned != tc-1 {
		t.Errorf("%d hits were still uncounted before the flush, want the %d reads after the last tile's first", pinned, tc-1)
	}
}

// TestCursorsAlternateOneTileBudget: two cursors reading alternately from
// two tiles of a one-tile cache evict each other's tile at every read, so
// every read is a demand, and the misses are those of the same reads
// through Cell.
func TestCursorsAlternateOneTileBudget(t *testing.T) {
	const tc, reads = 4, 12
	misses := func(read func(who, off int, a *Array)) trace.IOCounters {
		c := New(Config{TileCells: tc, Budget: RealTileBytes(tc), NoPrefetch: true})
		defer c.Close()
		f := &seqFetch{}
		a := c.NewArray(2*tc, f.fetch)
		for r := 0; r < reads; r++ {
			who := r % 2
			read(who, who*tc+r/2%tc, a)
		}
		if got := f.calls.Load(); got != reads {
			t.Errorf("%d fetches for %d alternating reads, want one each", got, reads)
		}
		return c.Stats()
	}
	want := misses(func(_, off int, a *Array) {
		if _, err := a.Cell(nil, off); err != nil {
			t.Fatal(err)
		}
	})
	var curs [2]Cursor
	got := misses(func(who, off int, a *Array) { cursorRead(t, &curs[who], nil, a, off) })
	curs[0].Flush()
	curs[1].Flush()
	if got.TileMisses != reads || got != want {
		t.Errorf("alternating cursors counted %+v, want %d misses as Cell reads count: %+v", got, reads, want)
	}
}

// TestCursorRevalidatesAfterEviction: a pinned tile that another reader's
// demand evicts is demanded again by the cursor's next read, which misses,
// instead of being served from the evicted cells.
func TestCursorRevalidatesAfterEviction(t *testing.T) {
	const tc = 4
	c := New(Config{TileCells: tc, Budget: RealTileBytes(tc), NoPrefetch: true})
	defer c.Close()
	a := c.NewArray(2*tc, (&seqFetch{}).fetch)
	var cur Cursor
	cursorRead(t, &cur, nil, a, 0)
	cursorRead(t, &cur, nil, a, 1) // pinned
	// Another reader's demand evicts tile 0.
	if _, err := a.Cell(nil, tc); err != nil {
		t.Fatal(err)
	}
	cursorRead(t, &cur, nil, a, 2)
	cur.Flush()
	if st := c.Stats(); st.TileMisses != 3 || st.TileHits != 1 || st.BytesReturned != 4*cellPayload {
		t.Errorf("counters %+v: want 3 misses, the one pinned hit and 4 cells returned", st)
	}
}

// TestCursorErrorUnpins: a failed demand returns the fetch error, counts
// what it did, and leaves the cursor pinning nothing, so the next read
// retries.
func TestCursorErrorUnpins(t *testing.T) {
	boom := errors.New("boom")
	c := New(Config{TileCells: 4, NoPrefetch: true})
	defer c.Close()
	f := &seqFetch{errs: []error{nil, boom}}
	a := c.NewArray(8, f.fetch)
	var cur Cursor
	cursorRead(t, &cur, nil, a, 0)
	if _, _, err := cur.Read(nil, a, 4); !errors.Is(err, boom) {
		t.Fatalf("read of a failing tile: err = %v, want boom", err)
	}
	if _, _, err := cur.Read(nil, a, 8); err == nil {
		t.Error("out-of-range cursor read succeeded")
	}
	cursorRead(t, &cur, nil, a, 5)
	cursorRead(t, &cur, nil, a, 1)
	cur.Flush()
	if st := c.Stats(); st.TileMisses != 3 || st.TileHits != 1 || f.calls.Load() != 3 {
		t.Errorf("counters %+v after %d fetches: want 3 misses (one failed) and 1 hit", st, f.calls.Load())
	}
}
