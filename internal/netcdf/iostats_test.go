package netcdf

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
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

func TestIOStatsSlabCounters(t *testing.T) {
	path, data := buildTestFile(t)
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	if st := f.IOStats(); st != (IOStats{}) {
		t.Fatalf("fresh file has stats %+v", st)
	}
	if _, err := f.ReadAll("t"); err != nil {
		t.Fatal(err)
	}
	st := f.IOStats()
	if st.SlabReads != 1 {
		t.Fatalf("SlabReads = %d, want 1", st.SlabReads)
	}
	if want := int64(len(data) * 8); st.BytesRead != want {
		t.Fatalf("BytesRead = %d, want %d", st.BytesRead, want)
	}

	// A second, partial read accumulates.
	if _, err := f.ReadSlab("t", []int{0, 0}, []int{3, 5}); err != nil {
		t.Fatal(err)
	}
	st = f.IOStats()
	if st.SlabReads != 2 {
		t.Fatalf("SlabReads = %d, want 2", st.SlabReads)
	}
	if want := int64((len(data) + 3*5) * 8); st.BytesRead != want {
		t.Fatalf("BytesRead = %d, want %d", st.BytesRead, want)
	}

	// Empty slabs are not counted as reads.
	if _, err := f.ReadSlab("t", []int{0, 0}, []int{0, 5}); err != nil {
		t.Fatal(err)
	}
	if got := f.IOStats().SlabReads; got != 2 {
		t.Fatalf("empty slab counted: SlabReads = %d", got)
	}
}

func TestIOStatsCollectsRetryAndFaultCounters(t *testing.T) {
	path, _ := buildTestFile(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Schedule one injected failure on the first data read (header reads
	// happen during parse, before we install the schedule — so parse on a
	// clean stack, then retrofit faults by building the stack first and
	// scheduling only beyond the header reads is fragile; instead, build
	// the stack with a generous clean prefix).
	faulty := NewFaultyReaderAt(bytes.NewReader(raw))
	retrying := NewRetryingReaderAt(faulty, RetryConfig{MaxRetries: 3, BaseDelay: time.Microsecond})
	f, err := Read(retrying)
	if err != nil {
		t.Fatal(err)
	}
	// Inject failures for the next two reads, now that the header is
	// parsed.
	faulty.mu.Lock()
	faulty.schedule = make([]Fault, faulty.calls, faulty.calls+2)
	faulty.schedule = append(faulty.schedule, Fault{Err: ErrInjected}, Fault{Err: ErrInjected})
	faulty.mu.Unlock()

	if _, err := f.ReadAll("t"); err != nil {
		t.Fatal(err)
	}
	st := f.IOStats()
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

func TestIOStatsAdd(t *testing.T) {
	a := IOStats{SlabReads: 1, BytesRead: 10}
	a.Add(IOStats{SlabReads: 2, BytesRead: 5, Retries: 1, Faults: 3})
	want := IOStats{SlabReads: 3, BytesRead: 15, Retries: 1, Faults: 3}
	if a != want {
		t.Fatalf("Add = %+v, want %+v", a, want)
	}
}
