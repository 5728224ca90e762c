package netcdf

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"github.com/aqldb/aql/internal/trace"
)

func TestFaultyReaderSchedule(t *testing.T) {
	data := []byte("abcdefgh")
	fr := NewFaultyReaderAt(bytes.NewReader(data),
		Fault{},                        // call 0: clean
		Fault{Err: ErrInjected},        // call 1: fails
		Fault{Short: true},             // call 2: short read
		Fault{Delay: time.Microsecond}, // call 3: delayed but clean
	)
	buf := make([]byte, 4)

	if _, err := fr.ReadAt(buf, 0); err != nil {
		t.Fatalf("call 0: %v", err)
	}
	if _, err := fr.ReadAt(buf, 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("call 1: err = %v, want ErrInjected", err)
	}
	if n, err := fr.ReadAt(buf, 0); n != 2 || !errors.Is(err, ErrInjected) {
		t.Fatalf("call 2: n=%d err=%v, want short read of 2 with ErrInjected", n, err)
	}
	if _, err := fr.ReadAt(buf, 0); err != nil {
		t.Fatalf("call 3: %v", err)
	}
	// Beyond the schedule: pass-through.
	if _, err := fr.ReadAt(buf, 4); err != nil {
		t.Fatalf("call 4: %v", err)
	}
	if fr.Calls() != 5 || fr.Injected() != 2 {
		t.Errorf("Calls=%d Injected=%d, want 5 and 2", fr.Calls(), fr.Injected())
	}
}

func TestRetryingReaderRecoversTransientFaults(t *testing.T) {
	data := []byte("the quick brown fox")
	fr := NewFaultyReaderAt(bytes.NewReader(data),
		Fault{Err: ErrInjected},
		Fault{Err: ErrInjected},
	)
	rr := NewRetryingReaderAt(fr, RetryConfig{BaseDelay: time.Microsecond})
	ctx, col := trace.WithCollector(context.Background())
	buf := make([]byte, len(data))
	n, err := rr.ReadAtCtx(ctx, buf, 0)
	if err != nil || n != len(data) {
		t.Fatalf("ReadAtCtx = %d, %v", n, err)
	}
	if !bytes.Equal(buf, data) {
		t.Errorf("data corrupted: %q", buf)
	}
	if st := col.Snapshot(); st.Retries != 2 || st.Faults != 2 {
		t.Errorf("Retries = %d, Faults = %d, want 2 and 2", st.Retries, st.Faults)
	}
}

func TestRetryingReaderShortReadRetried(t *testing.T) {
	data := []byte("0123456789")
	fr := NewFaultyReaderAt(bytes.NewReader(data), Fault{Short: true})
	rr := NewRetryingReaderAt(fr, RetryConfig{BaseDelay: time.Microsecond})
	ctx, col := trace.WithCollector(context.Background())
	buf := make([]byte, len(data))
	n, err := rr.ReadAtCtx(ctx, buf, 0)
	if err != nil || n != len(data) {
		t.Fatalf("ReadAtCtx = %d, %v", n, err)
	}
	if col.Snapshot().Retries == 0 {
		t.Error("short read should have been retried")
	}
}

func TestRetryingReaderPermanentErrorNotRetried(t *testing.T) {
	data := []byte("tiny")
	rr := NewRetryingReaderAt(bytes.NewReader(data), RetryConfig{BaseDelay: time.Microsecond})
	ctx, col := trace.WithCollector(context.Background())
	buf := make([]byte, 64)
	// Reading past EOF is permanent: no amount of retrying grows the file.
	_, err := rr.ReadAtCtx(ctx, buf, 0)
	if err == nil {
		t.Fatal("read past EOF succeeded")
	}
	// The one failed attempt is a fault; it is not retried.
	if st := col.Snapshot(); st.Retries != 0 || st.Faults != 1 {
		t.Errorf("Retries = %d, Faults = %d on a permanent error, want 0 and 1", st.Retries, st.Faults)
	}
}

func TestRetryingReaderBudgetExhausted(t *testing.T) {
	faults := make([]Fault, 16)
	for i := range faults {
		faults[i] = Fault{Err: ErrInjected}
	}
	fr := NewFaultyReaderAt(bytes.NewReader([]byte("x")), faults...)
	rr := NewRetryingReaderAt(fr, RetryConfig{MaxRetries: 3, BaseDelay: time.Microsecond})
	ctx, col := trace.WithCollector(context.Background())
	_, err := rr.ReadAtCtx(ctx, make([]byte, 1), 0)
	if err == nil {
		t.Fatal("exhausted retries should fail")
	}
	if st := col.Snapshot(); st.Retries != 3 || st.Faults != 4 {
		t.Errorf("Retries = %d, Faults = %d, want 3 re-attempts of 4 failed attempts", st.Retries, st.Faults)
	}
	if !errors.Is(err, ErrInjected) {
		t.Errorf("final error %v should wrap the cause", err)
	}
	if !strings.Contains(err.Error(), "attempts") {
		t.Errorf("final error %q should report the attempt count", err)
	}
}

// TestReadSlabThroughFaultyStorage is the end-to-end scenario: a NetCDF
// file on flaky storage, read through the retry layer, survives injected
// transient faults and returns correct data.
func TestReadSlabThroughFaultyStorage(t *testing.T) {
	full := richFile(t)
	fr := NewFaultyReaderAt(bytes.NewReader(full),
		Fault{Err: ErrInjected}, // first header read fails
		Fault{},
		Fault{Short: true}, // a later read is torn
	)
	rr := NewRetryingReaderAt(fr, RetryConfig{BaseDelay: time.Microsecond})
	f, err := Read(rr)
	if err != nil {
		t.Fatalf("Read through faulty storage: %v", err)
	}
	// Header parsing carries no context: its retries are in no collector.
	// Tear the first data read too, which runs under one.
	fr.SetSchedule(0, Fault{Short: true})
	ctx, col := trace.WithCollector(context.Background())
	if f.fsize != int64(len(full)) {
		t.Errorf("fsize through retry+fault layers = %d, want %d", f.fsize, len(full))
	}
	h, err := f.Hyperslab("recv", []int{1, 0}, []int{2, 3})
	if err != nil {
		t.Fatalf("Hyperslab: %v", err)
	}
	vals, err := h.ReadRange(ctx, 0, h.Size())
	if err != nil {
		t.Fatalf("ReadRange: %v", err)
	}
	want := []float64{10, 11, 12, 20, 21, 22}
	for i, w := range want {
		if vals[i] != w {
			t.Errorf("slab[%d] = %v, want %v", i, vals[i], w)
		}
	}
	if st := col.Snapshot(); st.Retries != 1 || st.Faults != 1 {
		t.Errorf("Retries = %d, Faults = %d, want 1 and 1 (the torn data read)", st.Retries, st.Faults)
	}
	if fr.Injected() < 2 {
		t.Errorf("Injected = %d, want >= 2", fr.Injected())
	}
}

// TestFaultyReaderConcurrentUse exercises the mutex under -race.
func TestFaultyReaderConcurrentUse(t *testing.T) {
	data := bytes.Repeat([]byte("ab"), 512)
	faults := make([]Fault, 8)
	for i := range faults {
		faults[i] = Fault{Err: ErrInjected}
	}
	fr := NewFaultyReaderAt(bytes.NewReader(data), faults...)
	rr := NewRetryingReaderAt(fr, RetryConfig{BaseDelay: time.Microsecond})
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			buf := make([]byte, 16)
			for i := 0; i < 32; i++ {
				if _, err := rr.ReadAt(buf, int64(i*16)); err != nil && !errors.Is(err, io.EOF) {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}

// TestRetryingReaderCancelledBackoff: cancelling the read's context while
// a retry backoff is sleeping returns promptly — well before the schedule
// would have slept out — with an error wrapping both the read failure and
// the cancellation.
func TestRetryingReaderCancelledBackoff(t *testing.T) {
	faults := make([]Fault, 64)
	for i := range faults {
		faults[i] = Fault{Err: ErrInjected}
	}
	fr := NewFaultyReaderAt(bytes.NewReader([]byte("x")), faults...)
	ctx, cancel := context.WithCancel(context.Background())
	ctx, col := trace.WithCollector(ctx)
	rr := NewRetryingReaderAt(fr, RetryConfig{
		MaxRetries: 8,
		BaseDelay:  time.Hour, // would block forever if the sleep ignored ctx
	})

	done := make(chan error, 1)
	go func() {
		_, err := rr.ReadAtCtx(ctx, make([]byte, 1), 0)
		done <- err
	}()

	// Let the first attempt fail and enter its one-hour backoff.
	for col.Snapshot().Retries == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("error %v should wrap context.Canceled", err)
		}
		if !errors.Is(err, ErrInjected) {
			t.Errorf("error %v should wrap the read failure", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ReadAtCtx did not return after cancellation")
	}
	if fr.Calls() != 1 {
		t.Errorf("Calls = %d after cancel during first backoff, want 1", fr.Calls())
	}
}
