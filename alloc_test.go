package aql

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"github.com/aqldb/aql/internal/object"
)

// TestPreparedExecAllocsFlat pins the compiled engine's dense path to a
// fixed number of allocations per prepared execution, whatever the size:
// a ⊥-free numeric head allocates nothing per cell, and a summation nothing
// per iteration. Each statement runs at two sizes and must not allocate more
// at the larger one, up to the runtime's goroutine starts. GOMAXPROCS is
// held at 2 so both sizes of the tabulation fan out over the same number of
// workers. A head evaluated in blocks of lanes takes its lane buffers from
// the free list an earlier execution handed them back to, so they add none.
//
// Allocations per Exec (small / large size), measured on a 2-core x86-64
// VM (the stencil and Σ statements of dense_compute were added with the
// block form; their scalar-form row was measured on the code before it):
//
//	                               matmul     (i*i + 7) % 93   stencil       Σ V[i]
//	                               24² / 48²  50k / 100k       80² / 160²    50k / 100k
//	every node boxed (before):     18 / 18    15 / 15
//	numeric nodes in scalar form:  18 / 18    14 / 14–15       13 / 13–14    11 / 11
//	numeric heads in lanes:        18 / 18    13–14 / 14       13 / 13–14    11 / 11
func TestPreparedExecAllocsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("100 000-cell executions")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	matmul := func(n int) func(*Session) (*Stmt, error) {
		return func(s *Session) (*Stmt, error) {
			cells := make([]object.Value, n*n)
			for i := range cells {
				cells[i] = object.Nat(int64(i % 97))
			}
			a, err := ArrayOf([]int{n, n}, cells)
			if err != nil {
				return nil, err
			}
			for name, v := range map[string]Value{"n": object.Nat(int64(n)), "A": a, "B": a} {
				if err := s.SetVal(name, v); err != nil {
					return nil, err
				}
			}
			return s.Prepare(`[[ summap(fn \k => A[i,k] * B[k,j])!(gen!n) | \i < n, \j < n ]]`)
		}
	}
	tab := func(n int) func(*Session) (*Stmt, error) {
		return func(s *Session) (*Stmt, error) {
			return s.Prepare(fmt.Sprintf(`[[ (i*i + 7) %% 93 | \i < %d ]]`, n))
		}
	}
	stencil := func(m int) func(*Session) (*Stmt, error) {
		return func(s *Session) (*Stmt, error) {
			cells := make([]object.Value, m*m)
			for i := range cells {
				cells[i] = object.Real(float64(i*7%256) / 4)
			}
			g, err := ArrayOf([]int{m, m}, cells)
			if err != nil {
				return nil, err
			}
			if err := s.SetVal("G", g); err != nil {
				return nil, err
			}
			return s.Prepare(fmt.Sprintf(`[[ (G[i,j+1] + G[i+2,j+1] + G[i+1,j] + G[i+1,j+2]) / 4.0 | \i < %d, \j < %d ]]`, m-2, m-2))
		}
	}
	reduce := func(n int) func(*Session) (*Stmt, error) {
		return func(s *Session) (*Stmt, error) {
			cells := make([]object.Value, n)
			for i := range cells {
				cells[i] = object.Nat(int64(i * 13 % 1000))
			}
			if err := s.SetVal("V", VectorOf(cells...)); err != nil {
				return nil, err
			}
			return s.Prepare(fmt.Sprintf(`summap(fn \i => V[i])!(gen!%d)`, n))
		}
	}
	for _, w := range []struct {
		name         string
		small, large func(*Session) (*Stmt, error)
	}{
		{"matmul", matmul(24), matmul(48)},
		{"puretab", tab(50_000), tab(100_000)},
		{"stencil", stencil(80), stencil(160)},
		{"reduce", reduce(50_000), reduce(100_000)},
	} {
		t.Run(w.name, func(t *testing.T) {
			allocs := func(prepare func(*Session) (*Stmt, error)) float64 {
				s, err := NewSession()
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				st, err := prepare(s)
				if err != nil {
					t.Fatal(err)
				}
				ctx := context.Background()
				return testing.AllocsPerRun(5, func() {
					if _, err := st.Exec(ctx, nil); err != nil {
						t.Fatal(err)
					}
				})
			}
			small, large := allocs(w.small), allocs(w.large)
			t.Logf("allocations per Exec: %v small, %v large", small, large)
			// A per-cell allocation would add thousands; starting a fan-out
			// worker may or may not allocate a goroutine, one per worker.
			if large > small+2 {
				t.Errorf("allocations per Exec grow with size: %v at the small size, %v at the large one", small, large)
			}
		})
	}
}
