package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (tracing inside the program is a later change). Times are
// nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the causing span, -1 for an operation root
	Op     int    `json:"op"`     // spans of one operation share this id
	Row    string `json:"row"`    // workload (or workload.class) the operation belongs to
}

// tracer keeps spans in memory and writes them out when the run ends. A nil
// tracer records nothing, which is how the untraced run stays untraced.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its index; end closes it.
func (t *tracer) begin(name, row string, parent, op int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent, Op: op, Row: row})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose duration is known but was not observed from
// outside — a phase time taken from an aqld response — placed at the start
// of its parent (after any siblings already added).
func (t *tracer) add(name, row string, parent, op int, offset, dur int64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	start := t.spans[parent].Start + offset
	t.spans = append(t.spans, span{Name: name, Start: start, End: start + dur, Parent: parent, Op: op, Row: row})
	return len(t.spans) - 1
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span, its duration minus the part of that interval
// its child spans cover. Overlapping children (parallel workers) are
// merged, and children are clipped to the parent.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, hi := int64(0), s.Start
		for _, k := range ks {
			lo, end := spans[k].Start, spans[k].End
			if lo < hi {
				lo = hi
			}
			if end > s.End {
				end = s.End
			}
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[i] -= covered
	}
	return self
}

// The layer groups of the workload x layer table. A span belongs to the
// group of its name's module prefix; operation roots are the harness.
var layerGroups = []string{"frontend", "execute", "tile_netcdf", "server_wire", "harness"}

func layerOf(name string) string {
	mod := name
	if i := strings.IndexByte(name, '.'); i >= 0 {
		mod = name[:i]
	}
	switch mod {
	case "scan", "parser", "desugar", "env", "typecheck", "opt", "cost", "lower":
		return "frontend"
	case "exec", "eval":
		return "execute"
	case "tile", "netcdf":
		return "tile_netcdf"
	case "server", "exchange", "wire":
		return "server_wire"
	}
	return "harness"
}

// shareTable sums self time per (row, layer group) and normalises each row
// to shares of the row's total.
func shareTable(spans []span) map[string]map[string]float64 {
	self := selfTimes(spans)
	sums := make(map[string]map[string]float64)
	for i, s := range spans {
		if sums[s.Row] == nil {
			sums[s.Row] = make(map[string]float64)
		}
		sums[s.Row][layerOf(s.Name)] += float64(self[i])
	}
	for _, cols := range sums {
		total := 0.0
		for _, v := range cols {
			total += v
		}
		if total > 0 {
			for k := range cols {
				cols[k] /= total
			}
		}
	}
	return sums
}

// writeSpans dumps the spans, with their self times, as JSON.
func writeSpans(path string, spans []span) error {
	self := selfTimes(spans)
	type out struct {
		span
		Self  int64  `json:"self_ns"`
		Layer string `json:"layer"`
	}
	rows := make([]out, len(spans))
	for i, s := range spans {
		rows[i] = out{span: s, Self: self[i], Layer: layerOf(s.Name)}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rows); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
