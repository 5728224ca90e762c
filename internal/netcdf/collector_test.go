package netcdf

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/aqldb/aql/internal/trace"
)

// buildTestFile writes a 20x5 double variable "t" and returns its path and
// row-major data.
func buildTestFile(t *testing.T) (string, []float64) {
	t.Helper()
	nb := NewBuilder()
	d0, _ := nb.AddDim("x", 20)
	d1, _ := nb.AddDim("y", 5)
	data := make([]float64, 20*5)
	for i := range data {
		data[i] = float64(i)
	}
	if err := nb.AddVar("t", Double, []int{d0, d1}, nil, data); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "io.nc")
	if err := nb.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path, data
}

// TestCollectorSlabCounters: a range read counts one slab read and its
// bytes in the collector of its context, partial reads accumulate, an empty
// range is no read, and a read under a context without a collector counts
// nowhere.
func TestCollectorSlabCounters(t *testing.T) {
	path, data := buildTestFile(t)
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h, err := f.WholeVar("t")
	if err != nil {
		t.Fatal(err)
	}

	ctx, col := trace.WithCollector(context.Background())
	if st := col.Snapshot(); st != (trace.IOCounters{}) {
		t.Fatalf("fresh collector has counts %+v", st)
	}
	if _, err := h.ReadRange(ctx, 0, h.Size()); err != nil {
		t.Fatal(err)
	}
	st := col.Snapshot()
	if st.SlabReads != 1 {
		t.Fatalf("SlabReads = %d, want 1", st.SlabReads)
	}
	if want := int64(len(data) * 8); st.BytesRead != want {
		t.Fatalf("BytesRead = %d, want %d", st.BytesRead, want)
	}

	// A second, partial read accumulates.
	if _, err := f.ReadCellRangeCtx(ctx, "t", 0, 3*5); err != nil {
		t.Fatal(err)
	}
	st = col.Snapshot()
	if st.SlabReads != 2 {
		t.Fatalf("SlabReads = %d, want 2", st.SlabReads)
	}
	if want := int64((len(data) + 3*5) * 8); st.BytesRead != want {
		t.Fatalf("BytesRead = %d, want %d", st.BytesRead, want)
	}

	// Empty ranges are not counted as reads.
	if _, err := h.ReadRange(ctx, 5, 0); err != nil {
		t.Fatal(err)
	}
	if got := col.Snapshot().SlabReads; got != 2 {
		t.Fatalf("empty range counted: SlabReads = %d", got)
	}

	// A read whose context carries another collector, or none, leaves
	// this one as it was.
	other, col2 := trace.WithCollector(context.Background())
	if _, err := h.ReadRange(other, 0, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAll("t"); err != nil {
		t.Fatal(err)
	}
	if got := col.Snapshot(); got != st {
		t.Errorf("collector moved to %+v on reads under other contexts, want %+v", got, st)
	}
	if got := col2.Snapshot(); got.SlabReads != 1 || got.BytesRead != 5*8 {
		t.Errorf("second collector = %+v, want 1 slab read of 40 bytes", got)
	}
}

// TestCollectorRetryAndFaultCounters: a read through a retrying reader over
// a faulty one counts, in its context's collector, each failed attempt as a
// fault and each re-attempt as a retry, beside the slab read itself.
func TestCollectorRetryAndFaultCounters(t *testing.T) {
	path, _ := buildTestFile(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	faulty := NewFaultyReaderAt(bytes.NewReader(raw))
	retrying := NewRetryingReaderAt(faulty, RetryConfig{MaxRetries: 3, BaseDelay: time.Microsecond})
	f, err := Read(retrying)
	if err != nil {
		t.Fatal(err)
	}
	// Inject failures for the next two reads, now that the header is
	// parsed.
	faulty.SetSchedule(0, Fault{Err: ErrInjected}, Fault{Err: ErrInjected})

	ctx, col := trace.WithCollector(context.Background())
	if _, err := f.ReadCellRangeCtx(ctx, "t", 0, 100); err != nil {
		t.Fatal(err)
	}
	st := col.Snapshot()
	if st.Retries != 2 {
		t.Fatalf("Retries = %d, want 2", st.Retries)
	}
	if st.Faults != 2 {
		t.Fatalf("Faults = %d, want 2", st.Faults)
	}
	if st.SlabReads != 1 || st.BytesRead == 0 {
		t.Fatalf("slab counters missing through wrapper stack: %+v", st)
	}
}
