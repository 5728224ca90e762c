package tile

import (
	"context"

	"github.com/aqldb/aql/internal/trace"
)

// Collector accumulates tile I/O counters for one query. The cache adds to
// both its global stats and the collector found in the fetch context, so
// per-query attribution stays exact under concurrent queries sharing one
// cache (each increment lands in exactly one collector).
type Collector struct {
	counters
}

// Snapshot returns the collector's current totals.
func (c *Collector) Snapshot() trace.IOCounters { return c.counters.snapshot() }

type collectorKey struct{}

// WithCollector returns a ctx carrying a fresh per-query collector, and the
// collector itself. Sessions install one per statement and fold the
// snapshot into the statement's QueryReport.
func WithCollector(ctx context.Context) (context.Context, *Collector) {
	if ctx == nil {
		ctx = context.Background()
	}
	col := &Collector{}
	return context.WithValue(ctx, collectorKey{}, col), col
}

func collectorFrom(ctx context.Context) *Collector {
	if ctx == nil {
		return nil
	}
	col, _ := ctx.Value(collectorKey{}).(*Collector)
	return col
}
