package netcdf

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/aqldb/aql/internal/trace"
)

// rangeFile builds a file with a plain 2-D double variable and an
// interleaved pair of record variables, returning its bytes.
func rangeFile(t *testing.T) []byte {
	t.Helper()
	b := NewBuilder()
	dx, _ := b.AddDim("x", 3)
	dy, _ := b.AddDim("y", 4)
	plain := make([]float64, 12)
	for i := range plain {
		plain[i] = float64(i) * 0.5
	}
	if err := b.AddVar("plain", Double, []int{dx, dy}, nil, plain); err != nil {
		t.Fatal(err)
	}
	rec, _ := b.AddRecordDim("t", 5)
	ra := make([]float64, 5*4)
	rb := make([]float64, 5*4)
	for i := range ra {
		ra[i] = 100 + float64(i)
		rb[i] = 200 + float64(i)
	}
	// Two record variables force per-record interleaving in the data
	// region: record r of "recA" and "recB" are adjacent, not the whole
	// variables.
	if err := b.AddVar("recA", Double, []int{rec, dy}, nil, ra); err != nil {
		t.Fatal(err)
	}
	if err := b.AddVar("recB", Int, []int{rec, dy}, nil, rb); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := b.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadCellRange(t *testing.T) {
	f, err := Read(bytes.NewReader(rangeFile(t)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		varName string
		base    float64
		size    int
	}{
		{"plain", 0, 12}, // base*0.5 handled below
		{"recA", 100, 20},
		{"recB", 200, 20},
	} {
		want := func(i int) float64 {
			if tc.varName == "plain" {
				return float64(i) * 0.5
			}
			return tc.base + float64(i)
		}
		// Every (start, n) sub-range must agree with the flat expectation,
		// including ranges spanning record boundaries mid-record.
		for start := 0; start <= tc.size; start++ {
			for n := 0; start+n <= tc.size; n += 3 {
				got, err := f.ReadCellRangeCtx(context.Background(), tc.varName, start, n)
				if err != nil {
					t.Fatalf("%s[%d,%d): %v", tc.varName, start, start+n, err)
				}
				if len(got) != n {
					t.Fatalf("%s[%d,%d): %d cells", tc.varName, start, start+n, len(got))
				}
				for i, v := range got {
					if v != want(start+i) {
						t.Fatalf("%s[%d] = %v, want %v", tc.varName, start+i, v, want(start+i))
					}
				}
			}
		}
	}
}

func TestReadCellRangeValidation(t *testing.T) {
	data := rangeFile(t)
	f, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadCellRangeCtx(nil, "plain", 10, 3); err == nil {
		t.Error("range past variable extent succeeded")
	}
	if _, err := f.ReadCellRangeCtx(nil, "plain", -1, 1); err == nil {
		t.Error("negative start succeeded")
	}
	if _, err := f.ReadCellRangeCtx(nil, "nope", 0, 1); err == nil {
		t.Error("unknown variable succeeded")
	}
	if _, err := f.WholeVar("plain"); err != nil {
		t.Errorf("full-extent validate failed: %v", err)
	}

	// A file truncated inside the data region: the header still parses,
	// but validation of the tail cells reports truncation without reading.
	cut := data[:len(data)-24]
	tf, err := Read(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	_, err = tf.WholeVar("recB")
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("truncated-file validate = %v, want truncation error", err)
	}
}

func TestReadCellRangeCtxCancel(t *testing.T) {
	f, err := Read(bytes.NewReader(rangeFile(t)))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.ReadCellRangeCtx(ctx, "plain", 0, 12); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled range read = %v, want context.Canceled", err)
	}
}

// TestReadCellRangeFaultRetry drives a mid-range injected fault through the
// retrying reader: a transient fault is retried invisibly; a persistent one
// surfaces the injected error to the caller.
func TestReadCellRangeFaultRetry(t *testing.T) {
	data := rangeFile(t)

	// Transient: the first data read fails once, then passes.
	faulty := NewFaultyReaderAt(bytes.NewReader(data))
	retrying := NewRetryingReaderAt(faulty, RetryConfig{})
	f, err := Read(retrying)
	if err != nil {
		t.Fatal(err)
	}
	headerCalls := faulty.Calls()
	faulty.mu.Lock()
	faulty.schedule = make([]Fault, headerCalls+1)
	faulty.schedule[headerCalls] = Fault{Err: ErrInjected}
	faulty.mu.Unlock()

	ctx, col := trace.WithCollector(context.Background())
	got, err := f.ReadCellRangeCtx(ctx, "plain", 0, 12)
	if err != nil {
		t.Fatalf("transient fault not retried: %v", err)
	}
	for i, v := range got {
		if v != float64(i)*0.5 {
			t.Fatalf("cell %d = %v after retry", i, v)
		}
	}
	if st := col.Snapshot(); st.Retries == 0 || st.Faults == 0 {
		t.Errorf("collector retries/faults = %d/%d, want non-zero", st.Retries, st.Faults)
	}

	// Persistent: every attempt fails; the typed injected error surfaces.
	faulty2 := NewFaultyReaderAt(bytes.NewReader(data))
	retrying2 := NewRetryingReaderAt(faulty2, RetryConfig{MaxRetries: 2})
	f2, err := Read(retrying2)
	if err != nil {
		t.Fatal(err)
	}
	n := faulty2.Calls()
	sched := make([]Fault, n+16)
	for i := n; i < int64(len(sched)); i++ {
		sched[i] = Fault{Err: ErrInjected}
	}
	faulty2.mu.Lock()
	faulty2.schedule = sched
	faulty2.mu.Unlock()
	if _, err := f2.ReadCellRangeCtx(context.Background(), "plain", 0, 12); !errors.Is(err, ErrInjected) {
		t.Errorf("persistent fault = %v, want ErrInjected", err)
	}
}
