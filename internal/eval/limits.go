package eval

import (
	"fmt"
	"time"
	"unsafe"

	"github.com/aqldb/aql/internal/object"
)

// Limits bounds the resources a single query evaluation may consume. The
// zero value imposes no limits. Budgets exist because AQL's tabulate and
// index iteration make naive evaluation capable of materializing enormous
// intermediate arrays (the very problem the optimizer of section 5
// attacks); a server must fail such queries fast and cheaply rather than
// exhaust memory or wall-clock on them.
type Limits struct {
	// MaxSteps bounds evaluated core-calculus nodes; a machine-independent
	// CPU budget.
	MaxSteps int64
	// MaxCells bounds the total cells allocated by set/bag/array
	// constructors, tabulation, gen and index. A tabulation's cell count
	// is charged before its result array is allocated, so a
	// [| ... | i < 10^9 |] query fails fast instead of OOMing.
	MaxCells int64
	// MaxDepth bounds evaluator recursion depth, guarding against
	// stack exhaustion from pathologically nested expressions.
	MaxDepth int
	// Timeout bounds wall-clock time per evaluation, measured from
	// EvalCtx. Checked amortized (every interruptInterval steps) so the
	// per-node hot path stays branch-cheap.
	Timeout time.Duration
}

// ResourceKind names the budget a query exhausted.
type ResourceKind string

// The kinds of resource exhaustion.
const (
	ResourceSteps     ResourceKind = "steps"
	ResourceCells     ResourceKind = "cells"
	ResourceDepth     ResourceKind = "depth"
	ResourceTimeout   ResourceKind = "timeout"
	ResourceCancelled ResourceKind = "cancelled"
)

// ResourceError reports that evaluation was aborted because a resource
// budget was exhausted, the deadline passed, or the context was cancelled.
// It is a structured error so servers can distinguish "your query is too
// expensive" from genuine evaluation failures; unwrap with errors.As.
type ResourceError struct {
	Kind  ResourceKind
	Limit int64 // the budget (steps/cells/depth; Timeout in nanoseconds)
	Used  int64 // consumption observed when the budget tripped
	Cause error // ctx.Err() for timeout/cancelled, nil otherwise
}

// Error renders a per-kind diagnostic.
func (e *ResourceError) Error() string {
	switch e.Kind {
	case ResourceSteps:
		return fmt.Sprintf("eval: step budget %d exhausted", e.Limit)
	case ResourceCells:
		return fmt.Sprintf("eval: cell budget %d exhausted (%d cells requested)", e.Limit, e.Used)
	case ResourceDepth:
		return fmt.Sprintf("eval: depth budget %d exhausted", e.Limit)
	case ResourceTimeout:
		if e.Limit > 0 {
			return fmt.Sprintf("eval: query timed out after %s", time.Duration(e.Limit))
		}
		return "eval: query timed out"
	case ResourceCancelled:
		return "eval: query cancelled"
	}
	return fmt.Sprintf("eval: resource budget exceeded (%s)", e.Kind)
}

// Unwrap exposes the context error so errors.Is(err, context.Canceled)
// and errors.Is(err, context.DeadlineExceeded) work through a
// ResourceError.
func (e *ResourceError) Unwrap() error { return e.Cause }

// maxAllocCells is the most cells one allocation may hold: a slice of more
// 80-byte values than this exceeds the Go runtime's largest allocation
// (1<<48 bytes on 64-bit platforms), and make would panic.
const maxAllocCells = (1 << 48) / int64(unsafe.Sizeof(object.Value{}))

// SizeError reports a run-time sized allocation (gen, a tabulation, index)
// larger than maxAllocCells. Both engines raise it at the charge that
// precedes the allocation, so nothing is allocated.
type SizeError struct {
	Cells int64 // the cells requested
}

func (e *SizeError) Error() string {
	return fmt.Sprintf("eval: %d cells exceed the largest allocation (%d cells)", e.Cells, maxAllocCells)
}

// CheckAlloc rejects an allocation of n cells that the Go runtime cannot
// make.
func CheckAlloc(n int64) error {
	if n > maxAllocCells {
		return &SizeError{Cells: n}
	}
	return nil
}
