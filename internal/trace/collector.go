package trace

import (
	"context"
	"sync/atomic"
)

// Collector is the atomic form of IOCounters, safe for concurrent use. It is
// how a read's I/O is attributed to an execution: the session's query
// boundary installs one collector per execution in the context
// (WithCollector), and every read — a NetCDF slab read, a retry, a tile
// lookup, a spill — adds what it did to the collector of the context it ran
// under (CollectorFrom). Each increment lands in exactly one execution's
// collector, at any concurrency; a read under a context that carries none
// is in no report. The tile cache keeps its own totals in one more
// Collector.
type Collector struct {
	slabReads, bytesRead, retries, faults                atomic.Int64
	tileHits, tileMisses, prefetches, prefetchUseful     atomic.Int64
	bytesScanned, bytesReturned, spillWritten, spillRead atomic.Int64
	evictions                                            atomic.Int64
}

// Add adds d to c. A nil c adds nothing, so readers call
// CollectorFrom(ctx).Add without checking; zero counts cost nothing.
func (c *Collector) Add(d *IOCounters) {
	if c == nil {
		return
	}
	add(&c.slabReads, d.SlabReads)
	add(&c.bytesRead, d.BytesRead)
	add(&c.retries, d.Retries)
	add(&c.faults, d.Faults)
	add(&c.tileHits, d.TileHits)
	add(&c.tileMisses, d.TileMisses)
	add(&c.prefetches, d.Prefetches)
	add(&c.prefetchUseful, d.PrefetchUseful)
	add(&c.bytesScanned, d.BytesScanned)
	add(&c.bytesReturned, d.BytesReturned)
	add(&c.spillWritten, d.SpillBytesWritten)
	add(&c.spillRead, d.SpillBytesRead)
	add(&c.evictions, d.Evictions)
}

func add(dst *atomic.Int64, n int64) {
	if n != 0 {
		dst.Add(n)
	}
}

// Snapshot returns c's current totals.
func (c *Collector) Snapshot() IOCounters {
	return IOCounters{
		SlabReads:         c.slabReads.Load(),
		BytesRead:         c.bytesRead.Load(),
		Retries:           c.retries.Load(),
		Faults:            c.faults.Load(),
		TileHits:          c.tileHits.Load(),
		TileMisses:        c.tileMisses.Load(),
		Prefetches:        c.prefetches.Load(),
		PrefetchUseful:    c.prefetchUseful.Load(),
		BytesScanned:      c.bytesScanned.Load(),
		BytesReturned:     c.bytesReturned.Load(),
		SpillBytesWritten: c.spillWritten.Load(),
		SpillBytesRead:    c.spillRead.Load(),
		Evictions:         c.evictions.Load(),
	}
}

type collectorKey struct{}

// WithCollector returns a ctx carrying a fresh collector, and the collector.
// A nil ctx stands for context.Background.
func WithCollector(ctx context.Context) (context.Context, *Collector) {
	if ctx == nil {
		ctx = context.Background()
	}
	c := &Collector{}
	return context.WithValue(ctx, collectorKey{}, c), c
}

// CollectorFrom returns the collector ctx carries, nil when it carries none
// or ctx is nil.
func CollectorFrom(ctx context.Context) *Collector {
	if ctx == nil {
		return nil
	}
	c, _ := ctx.Value(collectorKey{}).(*Collector)
	return c
}
