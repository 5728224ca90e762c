package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"github.com/aqldb/aql"
	"github.com/aqldb/aql/internal/bench"
)

// dense_compute: compile/execute does nearly all the work. One operation is
// a round of four prepared statements over eager arrays: a matrix product, a
// 4-point stencil, a pure tabulation and a summap reduction. Tabulation
// (writing cells) sits beside reduction (reading cells) so a layout that
// helps one and costs the other shows.

type denseSizes struct {
	mat     int // matmul is mat x mat
	stencil int // stencil input is stencil x stencil reals
	tab     int // cells of the pure tabulation
	red     int // cells of the reduced vector
}

// The sizes are the issue's (60, 250, 300k, 300k) scaled down so that a
// round costs about 100 ms on the seed commit in this sandbox and a 20 s run
// holds well over 100 rounds, which p90 needs for ten samples beyond it.
var (
	denseFull  = denseSizes{mat: 48, stencil: 160, tab: 100000, red: 100000}
	denseQuick = denseSizes{mat: 10, stencil: 32, tab: 4700, red: 4700}
)

// denseClasses are the statements of a round, in execution order.
var denseClasses = []string{"matmul", "stencil", "puretab", "reduce"}

type denseWorkload struct {
	sz    denseSizes
	tabC  int64 // seeded constant of the pure tabulation
	a, b  []int64
	g     []float64
	v     []int64
	texts [4]string
	ihash string

	// Oracle results, computed natively.
	wantMat     []int64
	wantStencil []float64
	wantTab     []int64
	wantRed     int64
}

// matmulText is bench.MatmulQuery's expression, so this workload and the
// E19 experiment measure the same query.
func matmulText() string {
	return strings.TrimSuffix(strings.TrimPrefix(bench.MatmulQuery, "val C = "), ";")
}

func newDense(cfg config) *denseWorkload {
	w := &denseWorkload{sz: denseFull}
	if cfg.quick {
		w.sz = denseQuick
	}
	r := newRNG(cfg.seed, "dense_compute")
	n, m := w.sz.mat, w.sz.stencil
	w.a, w.b = make([]int64, n*n), make([]int64, n*n)
	for i := range w.a {
		w.a[i] = int64(r.intn(100))
		w.b[i] = int64(r.intn(100))
	}
	w.g = make([]float64, m*m)
	for i := range w.g {
		w.g[i] = float64(r.intn(256)) / 4
	}
	w.v = make([]int64, w.sz.red)
	for i := range w.v {
		w.v[i] = int64(r.intn(1000))
	}
	w.tabC = int64(1 + r.intn(92))

	w.texts = [4]string{
		matmulText(),
		fmt.Sprintf(`[[ (G[i,j+1] + G[i+2,j+1] + G[i+1,j] + G[i+1,j+2]) / 4.0 | \i < %d, \j < %d ]]`, m-2, m-2),
		fmt.Sprintf(`[[ (i*i + %d) %% 93 | \i < %d ]]`, w.tabC, w.sz.tab),
		fmt.Sprintf(`summap(fn \i => V[i])!(gen!%d)`, w.sz.red),
	}

	w.wantMat = make([]int64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s int64
			for k := 0; k < n; k++ {
				s += w.a[i*n+k] * w.b[k*n+j]
			}
			w.wantMat[i*n+j] = s
		}
	}
	w.wantStencil = make([]float64, (m-2)*(m-2))
	for i := 0; i < m-2; i++ {
		for j := 0; j < m-2; j++ {
			w.wantStencil[i*(m-2)+j] = (w.g[i*m+j+1] + w.g[(i+2)*m+j+1] + w.g[(i+1)*m+j] + w.g[(i+1)*m+j+2]) / 4.0
		}
	}
	w.wantTab = make([]int64, w.sz.tab)
	for i := range w.wantTab {
		w.wantTab[i] = (int64(i)*int64(i) + w.tabC) % 93
	}
	for _, x := range w.v {
		w.wantRed += x
	}

	h := newInputHash()
	h.ints(w.a)
	h.ints(w.b)
	h.floats(w.g)
	h.ints(w.v)
	for _, t := range w.texts {
		h.str(t)
	}
	w.ihash = h.sum()
	return w
}

func (w *denseWorkload) name() string { return "dense_compute" }
func (w *denseWorkload) hash() string { return w.ihash }

func (w *denseWorkload) cellsPerOp() int {
	m := w.sz.stencil - 2
	return w.sz.mat*w.sz.mat + m*m + w.sz.tab + w.sz.red
}

// cellsOf is the cell count of one statement class, for ns-per-cell.
func (w *denseWorkload) cellsOf(class int) int {
	m := w.sz.stencil - 2
	return [4]int{w.sz.mat * w.sz.mat, m * m, w.sz.tab, w.sz.red}[class]
}

// bind puts the workload's data into a session under the names the
// statements use.
func (w *denseWorkload) bind(s *aql.Session) error {
	n, m := w.sz.mat, w.sz.stencil
	a, err := aql.ArrayOf([]int{n, n}, natCells(w.a))
	if err != nil {
		return err
	}
	b, err := aql.ArrayOf([]int{n, n}, natCells(w.b))
	if err != nil {
		return err
	}
	g, err := aql.ArrayOf([]int{m, m}, realCells(w.g))
	if err != nil {
		return err
	}
	vals := []struct {
		name string
		v    aql.Value
	}{{"n", aql.Nat(int64(n))}, {"A", a}, {"B", b}, {"G", g}, {"V", aql.VectorOf(natCells(w.v)...)}}
	for _, b := range vals {
		if err := s.SetVal(b.name, b.v); err != nil {
			return err
		}
	}
	return nil
}

// check compares one statement's result with the native oracle.
func (w *denseWorkload) check(class int, v aql.Value) error {
	n, m := w.sz.mat, w.sz.stencil-2
	switch class {
	case 0:
		return wantNatArray(v, []int{n, n}, w.wantMat)
	case 1:
		return wantRealArray(v, []int{m, m}, w.wantStencil)
	case 2:
		return wantNatArray(v, []int{w.sz.tab}, w.wantTab)
	}
	return wantNat(v, w.wantRed)
}

type denseInstance struct {
	w     *denseWorkload
	s     *aql.Session
	stmts [4]*aql.Stmt
}

func (w *denseWorkload) setup() (instance, error) {
	s, err := aql.NewSession()
	if err != nil {
		return nil, err
	}
	inst := &denseInstance{w: w, s: s}
	if err := w.bind(s); err != nil {
		return nil, err
	}
	for c, text := range w.texts {
		if inst.stmts[c], err = s.Prepare(text); err != nil {
			return nil, fmt.Errorf("prepare %s: %w", denseClasses[c], err)
		}
	}
	if _, err := inst.op(context.Background(), 0); err != nil {
		return nil, err
	}
	return inst, nil
}

func (in *denseInstance) op(ctx context.Context, _ int) (time.Duration, error) {
	var total time.Duration
	for c, st := range in.stmts {
		t0 := time.Now()
		v, err := st.Exec(ctx, nil)
		d := time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", denseClasses[c], err)
		}
		if err := in.w.check(c, v); err != nil {
			return 0, fmt.Errorf("%s: wrong answer: %w", denseClasses[c], err)
		}
		total += d
	}
	return total, nil
}

func (in *denseInstance) close() { in.s.Close() }
