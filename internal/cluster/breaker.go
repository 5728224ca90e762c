package cluster

import (
	"sync"
	"time"
)

// breaker is a per-worker circuit breaker. Consecutive dispatch failures
// beyond a threshold open it; while open the worker receives no shards.
// After a cooldown one caller at a time is admitted to run a health probe:
// a successful probe closes the breaker, a failed one restarts the
// cooldown. State transitions are the usual closed → open → half-open
// (probe) → closed/open cycle.
type breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	fails     int // consecutive failures while closed
	open      bool
	openedAt  time.Time
	probing   bool // a caller holds the half-open probe slot
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown}
}

// state is what allow tells its caller to do.
type breakerState int

const (
	breakerClosed breakerState = iota // dispatch normally
	breakerOpen                       // skip this worker
	breakerProbe                      // caller owns the half-open probe: health-check, then report
)

// allow returns the action for a caller that wants to use the worker. At
// most one caller receives breakerProbe per cooldown window.
func (b *breaker) allow(now time.Time) breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return breakerClosed
	}
	if b.probing || now.Sub(b.openedAt) < b.cooldown {
		return breakerOpen
	}
	b.probing = true
	return breakerProbe
}

// probeResult reports the outcome of a health probe issued after
// breakerProbe: success closes the breaker, failure re-opens it for another
// cooldown.
func (b *breaker) probeResult(ok bool, now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	if ok {
		b.open = false
		b.fails = 0
	} else {
		b.openedAt = now
	}
}

// onSuccess records a successful dispatch, resetting the failure streak.
func (b *breaker) onSuccess() {
	b.mu.Lock()
	b.fails = 0
	b.open = false
	b.mu.Unlock()
}

// onFailure records a failed dispatch; returns true when this failure
// opened the breaker.
func (b *breaker) onFailure(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.open {
		return false
	}
	b.fails++
	if b.fails >= b.threshold {
		b.open = true
		b.openedAt = now
		return true
	}
	return false
}
