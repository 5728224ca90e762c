package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/aqldb/aql/internal/exchange"
)

// ChaosTransport is the HTTP analogue of netcdf.FaultyReaderAt: a Transport
// wrapper that injects failures deterministically, keyed by (shard index,
// attempt number), so every retry/hedge/breaker path is testable without
// real network flakiness. Faults are one-shot by construction — each
// (shard, attempt) pair is dispatched at most once, and retries/hedges get
// fresh attempt numbers — so a schedule reads as "attempt k of shard s
// fails this way".
type ChaosTransport struct {
	// Inner is the real transport faults wrap around.
	Inner Transport

	mu       sync.Mutex
	schedule map[[2]int]ChaosFault
	down     map[string]bool

	// Dispatches counts Shard calls that reached the transport (including
	// faulted ones); Faults counts injected failures.
	dispatches int
	faults     int
}

// ChaosFault is one injected failure.
type ChaosFault struct {
	Kind ChaosFaultKind
	// Delay is how long FaultDelay stalls (cancellable); it also delays
	// FaultErr/FaultDrop when set, to model slow failures.
	Delay time.Duration
}

// ChaosFaultKind enumerates the failure modes.
type ChaosFaultKind int

const (
	// FaultErr fails the dispatch before any work happens (connection
	// refused).
	FaultErr ChaosFaultKind = iota
	// FaultDelay stalls the dispatch, then lets it through — a straggler.
	FaultDelay
	// FaultDrop performs the dispatch (the worker does the work) but drops
	// the response on the floor — the hardest case for exactly-once
	// counters, since the work happened but must not be counted.
	FaultDrop
	// FaultGarble performs the dispatch but truncates the response values,
	// which the coordinator must detect and treat as a transport failure.
	FaultGarble
	// FaultSkew performs the dispatch but rewrites the response's counters
	// and queue wait to negative figures no execution can charge, which the
	// coordinator must reject as a transport failure rather than merge.
	FaultSkew
)

// Fail schedules a fault for the given (shard, attempt) dispatch.
func (c *ChaosTransport) Fail(shard, attempt int, f ChaosFault) {
	c.mu.Lock()
	if c.schedule == nil {
		c.schedule = map[[2]int]ChaosFault{}
	}
	c.schedule[[2]int{shard, attempt}] = f
	c.mu.Unlock()
}

// SetDown marks a worker unreachable (every dispatch and health probe
// fails) until SetDown(worker, false).
func (c *ChaosTransport) SetDown(worker string, down bool) {
	c.mu.Lock()
	if c.down == nil {
		c.down = map[string]bool{}
	}
	c.down[worker] = down
	c.mu.Unlock()
}

// Counts returns (dispatches, injected faults) so far.
func (c *ChaosTransport) Counts() (dispatches, faults int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dispatches, c.faults
}

// Shard implements Transport with fault injection.
func (c *ChaosTransport) Shard(ctx context.Context, worker string, req *exchange.ShardRequest) (*exchange.ShardResponse, error) {
	c.mu.Lock()
	c.dispatches++
	if c.down[worker] {
		c.faults++
		c.mu.Unlock()
		return nil, &ShardError{Worker: worker, Kind: "transport", Message: "chaos: worker down", Off: -1}
	}
	fault, ok := c.schedule[[2]int{req.Shard, req.Attempt}]
	if ok {
		c.faults++
	}
	c.mu.Unlock()
	if !ok {
		return c.Inner.Shard(ctx, worker, req)
	}
	if fault.Delay > 0 {
		t := time.NewTimer(fault.Delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		}
	}
	switch fault.Kind {
	case FaultErr:
		return nil, &ShardError{Worker: worker, Kind: "transport",
			Message: fmt.Sprintf("chaos: injected error (shard %d attempt %d)", req.Shard, req.Attempt), Off: -1}
	case FaultDelay:
		return c.Inner.Shard(ctx, worker, req)
	case FaultDrop:
		if _, err := c.Inner.Shard(ctx, worker, req); err != nil {
			return nil, err
		}
		return nil, &ShardError{Worker: worker, Kind: "transport",
			Message: fmt.Sprintf("chaos: connection dropped after response (shard %d attempt %d)", req.Shard, req.Attempt), Off: -1}
	case FaultGarble:
		resp, err := c.Inner.Shard(ctx, worker, req)
		if err != nil {
			return nil, err
		}
		if len(resp.Values) > 0 {
			resp.Values = resp.Values[:len(resp.Values)/2]
		} else {
			resp.Values = "[[garbage"
		}
		return resp, nil
	case FaultSkew:
		resp, err := c.Inner.Shard(ctx, worker, req)
		if err != nil {
			return nil, err
		}
		resp.Eval.Steps, resp.Eval.Cells, resp.QueueWaitNS = -1000, -7, -5
		return resp, nil
	default:
		return nil, fmt.Errorf("cluster: unknown chaos fault kind %d", fault.Kind)
	}
}

// Healthz implements Transport; down workers fail their probes.
func (c *ChaosTransport) Healthz(ctx context.Context, worker string) error {
	c.mu.Lock()
	down := c.down[worker]
	c.mu.Unlock()
	if down {
		return fmt.Errorf("cluster: chaos: worker %s down", worker)
	}
	return c.Inner.Healthz(ctx, worker)
}
