package trace

import (
	"context"
	"sync"
	"testing"
)

// TestCollectorAdd: Add accumulates every field, a nil collector adds
// nothing, and concurrent adds all land.
func TestCollectorAdd(t *testing.T) {
	var c Collector
	c.Add(&IOCounters{SlabReads: 1, BytesRead: 10})
	c.Add(&IOCounters{SlabReads: 2, BytesRead: 5, Retries: 1, Faults: 3})
	want := IOCounters{SlabReads: 3, BytesRead: 15, Retries: 1, Faults: 3}
	if got := c.Snapshot(); got != want {
		t.Fatalf("Snapshot = %+v, want %+v", got, want)
	}

	// Every field goes through Add and comes back from Snapshot.
	all := IOCounters{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}
	var d Collector
	d.Add(&all)
	d.Add(&all)
	var twice IOCounters
	twice.Add(all)
	twice.Add(all)
	if got := d.Snapshot(); got != twice {
		t.Errorf("Snapshot = %+v, want %+v", got, twice)
	}

	var none *Collector
	none.Add(&all) // must not panic

	var e Collector
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				e.Add(&IOCounters{TileHits: 1, BytesReturned: 8})
			}
		}()
	}
	wg.Wait()
	if got := e.Snapshot(); got.TileHits != 400 || got.BytesReturned != 3200 {
		t.Errorf("concurrent adds = %+v, want 400 hits, 3200 bytes", got)
	}
}

// TestCollectorContext: CollectorFrom finds the collector WithCollector
// installed, the innermost when nested, and nil on a context without one.
func TestCollectorContext(t *testing.T) {
	var unset context.Context // nil stands for context.Background
	if CollectorFrom(unset) != nil || CollectorFrom(context.Background()) != nil {
		t.Fatal("a context without a collector yields one")
	}
	outer, c1 := WithCollector(unset)
	inner, c2 := WithCollector(outer)
	if CollectorFrom(outer) != c1 || CollectorFrom(inner) != c2 || c1 == c2 {
		t.Error("CollectorFrom does not return the installed collector")
	}
	CollectorFrom(inner).Add(&IOCounters{SlabReads: 1})
	if c1.Snapshot().SlabReads != 0 || c2.Snapshot().SlabReads != 1 {
		t.Error("an add through the inner context reached the outer collector")
	}
}
