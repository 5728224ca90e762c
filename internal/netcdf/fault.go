package netcdf

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/aqldb/aql/internal/trace"
)

// ErrInjected is the default error delivered by a FaultyReaderAt fault.
var ErrInjected = errors.New("netcdf: injected I/O fault")

// Fault describes the outcome of a single ReadAt call on a FaultyReaderAt.
// The zero Fault is a clean pass-through, so a schedule like
// {{}, {Err: ErrInjected}, {}} fails exactly the second read.
type Fault struct {
	// Err, when non-nil, fails the call with this error without touching
	// the underlying reader.
	Err error
	// Short, when true, delivers only half the requested bytes and
	// reports Err (or ErrInjected when Err is nil), simulating a
	// torn/partial read from flaky storage.
	Short bool
	// Delay is slept before the call is served (or failed), simulating
	// storage latency.
	Delay time.Duration
}

// FaultyReaderAt wraps an io.ReaderAt with a deterministic fault schedule:
// the n-th ReadAt call receives the n-th Fault; calls beyond the schedule
// pass through untouched. It exists for tests that need reproducible I/O
// failure sequences and for soak-testing retry logic against simulated
// flaky storage. Safe for concurrent use.
type FaultyReaderAt struct {
	r io.ReaderAt

	mu       sync.Mutex
	schedule []Fault
	calls    int64
	injected int64
}

// NewFaultyReaderAt wraps r with the given per-call fault schedule.
func NewFaultyReaderAt(r io.ReaderAt, schedule ...Fault) *FaultyReaderAt {
	return &FaultyReaderAt{r: r, schedule: schedule}
}

// ReadAt implements io.ReaderAt, applying the next scheduled fault.
func (f *FaultyReaderAt) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	var ft Fault
	if int(f.calls) < len(f.schedule) {
		ft = f.schedule[f.calls]
	}
	f.calls++
	if ft.Err != nil || ft.Short {
		f.injected++
	}
	f.mu.Unlock()

	if ft.Delay > 0 {
		time.Sleep(ft.Delay)
	}
	if ft.Err != nil && !ft.Short {
		return 0, ft.Err
	}
	if ft.Short {
		err := ft.Err
		if err == nil {
			err = ErrInjected
		}
		n, rerr := f.r.ReadAt(p[:len(p)/2], off)
		if rerr != nil {
			return n, rerr
		}
		return n, err
	}
	return f.r.ReadAt(p, off)
}

// SetSchedule replaces the fault schedule relative to the current call
// count: the next skip calls pass through untouched, then the given faults
// apply one per call, and calls beyond them pass through again. Tests use
// it to stage faults mid-stream after header parsing has consumed an
// unknown number of reads.
func (f *FaultyReaderAt) SetSchedule(skip int, schedule ...Fault) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.schedule = append(make([]Fault, int(f.calls)+skip), schedule...)
}

// Calls reports the total number of ReadAt calls observed.
func (f *FaultyReaderAt) Calls() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

// Injected reports how many calls had a fault injected.
func (f *FaultyReaderAt) Injected() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// Size exposes the underlying reader's size so the header parser's
// bounds checks keep working through the fault layer.
func (f *FaultyReaderAt) Size() int64 { return readerSize(f.r) }

// RetryConfig tunes a RetryingReaderAt. The zero value selects the
// defaults noted on each field.
type RetryConfig struct {
	// MaxRetries is the number of re-attempts after the first failure
	// (default 4, so up to 5 attempts total).
	MaxRetries int
	// BaseDelay is the backoff before the first retry (default 1ms); it
	// doubles per retry.
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff (default 100ms).
	MaxDelay time.Duration
	// IsTransient classifies errors worth retrying. The default treats
	// io.EOF and io.ErrUnexpectedEOF as permanent (re-reading a short
	// file cannot help) and everything else as transient.
	IsTransient func(error) bool
}

func (c *RetryConfig) maxRetries() int {
	if c.MaxRetries > 0 {
		return c.MaxRetries
	}
	return 4
}

func (c *RetryConfig) baseDelay() time.Duration {
	if c.BaseDelay > 0 {
		return c.BaseDelay
	}
	return time.Millisecond
}

func (c *RetryConfig) maxDelay() time.Duration {
	if c.MaxDelay > 0 {
		return c.MaxDelay
	}
	return 100 * time.Millisecond
}

func (c *RetryConfig) isTransient(err error) bool {
	if c.IsTransient != nil {
		return c.IsTransient(err)
	}
	return !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF)
}

// RetryingReaderAt wraps an io.ReaderAt and retries transient read errors
// with capped exponential backoff — an opt-in resilience layer for NetCDF
// files on flaky storage (network filesystems, object-store gateways):
//
//	f, _ := os.Open(path)
//	nc, err := netcdf.Read(netcdf.NewRetryingReaderAt(f, netcdf.RetryConfig{}))
//
// It counts each failed attempt as a Fault and each re-attempt as a Retry in
// the trace.Collector of the read's context. Safe for concurrent use.
type RetryingReaderAt struct {
	r   io.ReaderAt
	cfg RetryConfig
}

// NewRetryingReaderAt wraps r with the given retry policy.
func NewRetryingReaderAt(r io.ReaderAt, cfg RetryConfig) *RetryingReaderAt {
	return &RetryingReaderAt{r: r, cfg: cfg}
}

// ReadAt implements io.ReaderAt: ReadAtCtx under context.Background.
func (r *RetryingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	return r.ReadAtCtx(context.Background(), p, off)
}

// ReadAtCtx reads like io.ReaderAt, retrying transient failures. A short
// read with a transient error is retried from scratch (ReadAt is stateless,
// so re-reading the full range is safe). Permanent errors and budget
// exhaustion return the last error, wrapped with the attempt count. ctx is
// checked before each attempt and bounds each backoff sleep, so a cancelled
// query aborts an in-flight tile fetch instead of sleeping out the retry
// schedule; a nil ctx is context.Background.
func (r *RetryingReaderAt) ReadAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	delay := r.cfg.baseDelay()
	maxRetries := r.cfg.maxRetries()
	var n int
	var err error
	for attempt := 0; ; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return n, fmt.Errorf("netcdf: read cancelled after %d attempts: %w",
				attempt, errors.Join(err, cerr))
		}
		n, err = r.r.ReadAt(p, off)
		if err == nil {
			return n, nil
		}
		col := trace.CollectorFrom(ctx)
		col.Add(&trace.IOCounters{Faults: 1})
		if !r.cfg.isTransient(err) {
			return n, err
		}
		if attempt >= maxRetries {
			return n, fmt.Errorf("netcdf: read failed after %d attempts: %w", attempt+1, err)
		}
		col.Add(&trace.IOCounters{Retries: 1})
		if serr := sleepCtx(ctx, delay); serr != nil {
			return n, fmt.Errorf("netcdf: read cancelled during retry backoff after %d attempts: %w",
				attempt+1, errors.Join(err, serr))
		}
		delay *= 2
		if max := r.cfg.maxDelay(); delay > max {
			delay = max
		}
	}
}

// sleepCtx waits out one backoff delay, cut short by ctx.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Size exposes the underlying reader's size so the header parser's
// bounds checks keep working through the retry layer.
func (r *RetryingReaderAt) Size() int64 { return readerSize(r.r) }
