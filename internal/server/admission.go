package server

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/aqldb/aql/internal/trace"
)

// Admission defaults, used when Config leaves the fields zero.
const (
	DefaultMaxConcurrent = 8
	DefaultMaxQueued     = 32
	DefaultQueueTimeout  = 2 * time.Second
)

// AdmissionKind distinguishes why admission rejected a request.
type AdmissionKind string

const (
	// AdmissionQueueFull: the wait queue was at capacity; the request was
	// turned away immediately (HTTP 429).
	AdmissionQueueFull AdmissionKind = "queue_full"
	// AdmissionQueueTimeout: the request waited its full queue timeout
	// without an execution slot freeing up (HTTP 503).
	AdmissionQueueTimeout AdmissionKind = "queue_timeout"
	// AdmissionCancelled: the client went away while the request was still
	// queued.
	AdmissionCancelled AdmissionKind = "cancelled"
)

// AdmissionError is the typed rejection returned when a request does not
// get an execution slot.
type AdmissionError struct {
	Kind AdmissionKind
	// Waited is how long the request spent queued before rejection.
	Waited time.Duration
}

func (e *AdmissionError) Error() string {
	switch e.Kind {
	case AdmissionQueueFull:
		return "admission: queue full"
	case AdmissionQueueTimeout:
		return fmt.Sprintf("admission: no slot within %s", e.Waited.Round(time.Millisecond))
	default:
		return "admission: cancelled while queued"
	}
}

// AdmissionStats is a snapshot of the admission controller's counters and
// current occupancy.
type AdmissionStats struct {
	MaxConcurrent int   `json:"max_concurrent"`
	MaxQueued     int   `json:"max_queued"`
	Active        int   `json:"active"`
	Queued        int   `json:"queued"`
	Admitted      int64 `json:"admitted"`
	RejectedFull  int64 `json:"rejected_queue_full"`
	RejectedWait  int64 `json:"rejected_queue_timeout"`
	Cancelled     int64 `json:"cancelled_while_queued"`
}

// admission bounds in-flight query executions with a semaphore and a
// bounded wait queue: at most maxConcurrent requests execute, at most
// maxQueued more wait (up to queueTimeout each), and anything beyond that
// is rejected immediately with a typed error. All methods are safe for
// concurrent use.
type admission struct {
	slots        chan struct{} // execution slots; acquire = send
	queueTimeout time.Duration
	maxQueued    int

	queued       atomic.Int64
	admitted     atomic.Int64
	rejectedFull atomic.Int64
	rejectedWait atomic.Int64
	cancelled    atomic.Int64

	// queueWait is the wait of every request that queued or took the fast
	// path, with its trace id as the bucket exemplar.
	queueWait trace.ExemplarHistogram
}

func newAdmission(maxConcurrent, maxQueued int, queueTimeout time.Duration) *admission {
	if maxConcurrent <= 0 {
		maxConcurrent = DefaultMaxConcurrent
	}
	if maxQueued <= 0 {
		maxQueued = DefaultMaxQueued
	}
	if queueTimeout <= 0 {
		queueTimeout = DefaultQueueTimeout
	}
	return &admission{
		slots:        make(chan struct{}, maxConcurrent),
		maxQueued:    maxQueued,
		queueTimeout: queueTimeout,
	}
}

// acquire blocks until the request holds an execution slot, up to the queue
// timeout, and returns a release func plus the time spent queued (zero on
// the fast path). The error, when non-nil, is an *AdmissionError; the
// caller maps its Kind to an HTTP status. Every wait — admitted or not —
// feeds the queue-wait histogram under the request's trace id, so /metrics
// separates queueing delay from evaluation time under overload.
func (a *admission) acquire(ctx context.Context, traceID string) (release func(), waited time.Duration, err error) {
	// A client that is already gone is never admitted, even when a slot is
	// free: running its query would only be torn down again by the eval
	// context, skewing the admitted/active counters meanwhile.
	if ctx.Err() != nil {
		a.cancelled.Add(1)
		return nil, 0, &AdmissionError{Kind: AdmissionCancelled}
	}

	// Fast path: a slot is free right now.
	select {
	case a.slots <- struct{}{}:
		a.admitted.Add(1)
		a.queueWait.Observe(0, traceID, time.Now())
		return a.release, 0, nil
	default:
	}

	// Queue, if there is room. Turned-away requests never waited, so they
	// do not feed the histogram.
	if q := a.queued.Add(1); q > int64(a.maxQueued) {
		a.queued.Add(-1)
		a.rejectedFull.Add(1)
		return nil, 0, &AdmissionError{Kind: AdmissionQueueFull}
	}
	defer a.queued.Add(-1)

	start := time.Now()
	t := time.NewTimer(a.queueTimeout)
	defer t.Stop()
	select {
	case a.slots <- struct{}{}:
		a.admitted.Add(1)
		waited = time.Since(start)
		a.queueWait.Observe(waited, traceID, start.Add(waited))
		return a.release, waited, nil
	case <-t.C:
		a.rejectedWait.Add(1)
		waited = time.Since(start)
		a.queueWait.Observe(waited, traceID, start.Add(waited))
		return nil, waited, &AdmissionError{Kind: AdmissionQueueTimeout, Waited: waited}
	case <-ctx.Done():
		a.cancelled.Add(1)
		waited = time.Since(start)
		a.queueWait.Observe(waited, traceID, start.Add(waited))
		return nil, waited, &AdmissionError{Kind: AdmissionCancelled, Waited: waited}
	}
}

func (a *admission) release() { <-a.slots }

// stats snapshots counters and occupancy.
func (a *admission) stats() AdmissionStats {
	return AdmissionStats{
		MaxConcurrent: cap(a.slots),
		MaxQueued:     a.maxQueued,
		Active:        len(a.slots),
		Queued:        int(a.queued.Load()),
		Admitted:      a.admitted.Load(),
		RejectedFull:  a.rejectedFull.Load(),
		RejectedWait:  a.rejectedWait.Load(),
		Cancelled:     a.cancelled.Load(),
	}
}
