package aql

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"testing"

	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/tile"
)

// denseStmts prepares the four statements of the dense_compute workload
// (benchmarks/dense.go) at its full sizes, over fixed data: a 48x48
// matrix product, a 4-point stencil over 160x160 reals, a 100,000-cell
// tabulation and a summap over a 100,000-cell vector. Each statement has
// run once, as the workload's setup runs a round, so a tabulation has
// measured its steps per cell.
func denseStmts(tb testing.TB) (names [4]string, stmts [4]*Stmt) {
	tb.Helper()
	s, err := NewSession()
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	const n, m, cells = 48, 160, 100_000
	mat := func(f func(i int) int64) Value {
		data := make([]Value, n*n)
		for i := range data {
			data[i] = Nat(f(i))
		}
		v, err := ArrayOf([]int{n, n}, data)
		if err != nil {
			tb.Fatal(err)
		}
		return v
	}
	grid := make([]Value, m*m)
	for i := range grid {
		grid[i] = Real(float64(i*7%256) / 4)
	}
	g, err := ArrayOf([]int{m, m}, grid)
	if err != nil {
		tb.Fatal(err)
	}
	vec := make([]Value, cells)
	for i := range vec {
		vec[i] = Nat(int64(i * 13 % 1000))
	}
	for name, v := range map[string]Value{
		"n": Nat(n), "A": mat(func(i int) int64 { return int64(i * 7 % 100) }),
		"B": mat(func(i int) int64 { return int64(i * 3 % 100) }), "G": g, "V": VectorOf(vec...),
	} {
		if err := s.SetVal(name, v); err != nil {
			tb.Fatal(err)
		}
	}
	names = [4]string{"matmul", "stencil", "puretab", "reduce"}
	texts := [4]string{
		`[[ summap(fn \k => A[i,k] * B[k,j])!(gen!n) | \i < n, \j < n ]]`,
		fmt.Sprintf(`[[ (G[i,j+1] + G[i+2,j+1] + G[i+1,j] + G[i+1,j+2]) / 4.0 | \i < %d, \j < %d ]]`, m-2, m-2),
		fmt.Sprintf(`[[ (i*i + 17) %% 93 | \i < %d ]]`, cells),
		fmt.Sprintf(`summap(fn \i => V[i])!(gen!%d)`, cells),
	}
	for c, text := range texts {
		if stmts[c], err = s.Prepare(text); err != nil {
			tb.Fatal(err)
		}
		if _, err := stmts[c].Exec(context.Background(), nil); err != nil {
			tb.Fatal(err)
		}
	}
	return names, stmts
}

// BenchmarkDenseCompute runs dense_compute's statements in-package, one
// sub-benchmark each and one for the round of all four, prepared and
// warmed as the workload runs them. Run it with -cpu 1,2: the matmul fans
// out on measured steps, so its two columns differ.
func BenchmarkDenseCompute(b *testing.B) {
	names, stmts := denseStmts(b)
	ctx := context.Background()
	for c, st := range stmts {
		b.Run(names[c], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := st.Exec(ctx, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("round", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, st := range stmts {
				if _, err := st.Exec(ctx, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkGenRepro applies a val-bound function that sums over
// gen!3000000, and reports the heap one application reaches: with the
// collector off for that one application, the live heap bytes
// (runtime/metrics) after it bound its peak from above. A gen that built
// its set would hold 3,000,000 80-byte values, 240 MB.
func BenchmarkGenRepro(b *testing.B) {
	s, err := NewSession()
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Exec(`val f = fn \x => summap(fn \i => i + x)!(gen!3000000);`); err != nil {
		b.Fatal(err)
	}
	st, err := s.Prepare(`f!1`)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	exec := func() {
		if _, err := st.Exec(ctx, nil); err != nil {
			b.Fatal(err)
		}
	}
	exec()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exec()
	}
	b.StopTimer()
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	exec()
	metrics.Read(sample)
	b.ReportMetric(float64(sample[0].Value.Uint64())/(1<<20), "peak-heap-MB")
}

// TestGenLoopAllocs pins Σ and ⋃ over gen!m to no allocation that grows
// with m: each statement allocates as many objects and as many bytes per
// execution over a large gen as over a small one, where a gen built as a set
// would add an 80 MB slice. Each comparison stays on one path: 16 against
// 1,000,000 on one worker, where every Σ is serial, and 1,000,000 against
// 4,000,000 on four, where both Σs fan out.
func TestGenLoopAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("million-iteration executions")
	}
	s, err := NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	perExec := func(text string) (allocs, bytes uint64) {
		st, err := s.Prepare(text)
		if err != nil {
			t.Fatal(err)
		}
		const runs = 4
		var before, after runtime.MemStats
		for i := 0; i <= runs; i++ {
			if i == 1 {
				runtime.ReadMemStats(&before)
			}
			if _, err := st.Exec(ctx, nil); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.Mallocs - before.Mallocs) / runs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	for _, tmpl := range []string{
		`summap(fn \i => i * 2)!(gen!%d)`,
		`count!{ x | \x <- gen!%d, x > 5000000 }`,
	} {
		for _, c := range []struct {
			workers      int
			small, large int
		}{{1, 16, 1_000_000}, {4, 1_000_000, 4_000_000}} {
			s.s.Workers = c.workers
			smallA, smallB := perExec(fmt.Sprintf(tmpl, c.small))
			largeA, largeB := perExec(fmt.Sprintf(tmpl, c.large))
			t.Logf("%s on %d workers: %d allocations, %d B per Exec at %d; %d, %d B at %d",
				tmpl, c.workers, smallA, smallB, c.small, largeA, largeB, c.large)
			if largeA > smallA+2 || largeB > smallB+1024 {
				t.Errorf("%s on %d workers: allocations grow with m: %d allocations, %d B at %d; %d, %d B at %d",
					tmpl, c.workers, smallA, smallB, c.small, largeA, largeB, c.large)
			}
		}
	}
}

// BenchmarkWeatherReduction runs a section-1-style reduction over a NetCDF
// variable larger than the tile budget: the month's mean temperature over
// 720 hours × 512 stations, Σ_h Σ_s T[h, s] / cells. The session writes the
// file itself (writeval ... using NETCDF, 2.9 MB of doubles) and reads it
// back lazily through a tile cache that holds a sixth of it, so every scan
// faults tiles in and evicts them. Temperatures are multiples of 1/8, so the
// sum is exact in any order. It reports the heap one scan reaches, as
// BenchmarkGenRepro does: tiles come and go within the budget, and nothing
// the Σ keeps grows with the variable.
func BenchmarkWeatherReduction(b *testing.B) {
	const hours, stations, tileCells = 720, 512, 4096
	path := filepath.Join(b.TempDir(), "month.nc")
	s, err := NewSession()
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	s.SetTileConfig(tileCells, 16*tile.RealTileBytes(tileCells))
	temp := func(h, st int) float64 { return 60 + float64((h*7+st*13)%400)/8 }
	if _, err := s.Exec(fmt.Sprintf(`writeval [[ 60.0 + real!((h*7 + s*13) %% 400) / 8.0 | \h < %d, \s < %d ]] using NETCDF at (%q, "temp");
		readval \T using NETCDF at (%q, "temp");`, hours, stations, path, path)); err != nil {
		b.Fatal(err)
	}
	want := 0.0
	for h := 0; h < hours; h++ {
		for st := 0; st < stations; st++ {
			want += temp(h, st)
		}
	}
	want /= hours * stations
	st, err := s.Prepare(fmt.Sprintf(`summap(fn \h => summap(fn \s => T[h, s])!(gen!%d))!(gen!%d) / %d.0`, stations, hours, hours*stations))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	exec := func() {
		v, err := st.Exec(ctx, nil)
		if err != nil {
			b.Fatal(err)
		}
		if v.Kind != object.KReal || v.R != want {
			b.Fatalf("mean temperature = %s, want %v", v, want)
		}
	}
	exec()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exec()
	}
	b.StopTimer()
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	exec()
	metrics.Read(sample)
	b.ReportMetric(float64(sample[0].Value.Uint64())/(1<<20), "peak-heap-MB")
}
