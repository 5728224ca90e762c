package main

import (
	"context"
	"fmt"
	"time"

	"github.com/aqldb/aql"
	"github.com/aqldb/aql/internal/bench"
)

// plan_cold: the whole front end. Every operation is a distinct query text
// run through Session.QueryCtx, drawn by seed from the paper's query
// families with literals varied; arrays hold at most 64 cells, so
// evaluation is small by construction and scan -> parse -> desugar -> macro
// -> typecheck -> optimize -> lower is what a query costs. It is what a
// plan-cache miss costs a server.

// planPrelude defines the macros the families use beyond the standard ones.
const planPrelude = bench.HistMacros + `
val \months = [[0,31,28,31,30,31,30,31,31,30,31,30]];
macro \days_since_1_1 = fn (\m,\d,\y) =>
  d + summap(fn \i => months[i])!(gen!m) +
  if m > 2 and y % 4 = 0 then 1 else 0;
`

var monthDays = [12]int64{0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30}

// The weather arrays of the section 1 query, scaled to planDays days of
// planHours readings. Day d reads 10*d degrees at zero humidity, so below
// 80 F the heat index is the Steadman average 1.1*T - 10.3 = 11*d - 10.3
// and the days above a threshold are a closed form.
const (
	planDays  = 6
	planHours = 4
)

var planFamilies = []string{"motivating", "hist", "hist2", "months",
	"transpose", "zip_subseq", "subseq_zip", "beta_p", "eta_p", "delta_p"}

// standardFamilies need nothing beyond the standard macros, so a default
// aqld can run them: they are serve_mixed's never-seen texts.
var standardFamilies = planFamilies[4:]

// planQuery is one generated operation: its text and its closed-form answer.
type planQuery struct {
	family string
	text   string
	want   expect
}

// genPlanQuery draws one query. serial is unique within the run and is
// folded into a literal of every text, so no two operations share a text.
func genPlanQuery(r *rng, families []string, serial int) planQuery {
	salt := int64(serial)
	q := planQuery{family: families[r.intn(len(families))]}
	switch q.family {
	case "motivating":
		// A threshold in [11k+0.1, 11k+0.5) lies strictly between the heat
		// index of day k and of day k+1, so the answer is exactly d > k.
		k := r.intn(planDays)
		threshold := float64(11*k) + 0.1 + float64(salt%400000)/1e6
		q.text = fmt.Sprintf(`{d | \d <- gen!%d,
  \WS' == evenpos!(proj_col!(WS, 0)),
  \TRW == zip_3!(T, RH, WS'),
  \A == subseq!(TRW, d*%d, d*%d+%d),
  heatindex!(A) > %.6f}`, planDays, planHours, planHours, planHours-1, threshold)
		var want []int64
		for d := k + 1; d < planDays; d++ {
			want = append(want, int64(d))
		}
		q.want = expect{kind: "set", a: want}
	case "hist", "hist2":
		n, m := 24+r.intn(40), 3+r.intn(12)
		a := int64(1 + r.intn(9))
		macro := "hist"
		if q.family == "hist2" {
			macro = "hist'"
		}
		q.text = fmt.Sprintf(`%s!([[ (i*%d + %d) %% %d | \i < %d ]])`, macro, a, salt, m, n)
		maxV := int64(0)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = (int64(i)*a + salt) % int64(m)
			if vals[i] > maxV {
				maxV = vals[i]
			}
		}
		want := make([]int64, maxV+1)
		for _, x := range vals {
			want[x]++
		}
		q.want = expect{kind: "array", shape: []int{len(want)}, a: want}
	case "transpose":
		m, n := 2+r.intn(7), 2+r.intn(7)
		c := int64(10 + r.intn(90))
		q.text = fmt.Sprintf(`transpose![[ i * %d + j + %d | \i < %d, \j < %d ]]`, c, salt, m, n)
		want := make([]int64, n*m)
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				want[j*m+i] = int64(i)*c + int64(j) + salt
			}
		}
		q.want = expect{kind: "array", shape: []int{n, m}, a: want}
	case "zip_subseq", "subseq_zip":
		n := 16 + r.intn(48)
		lo := r.intn(n / 2)
		hi := lo + r.intn(n-lo)
		mul := int64(2 + r.intn(8))
		a := fmt.Sprintf(`[[ i*%d + %d | \i < %d ]]`, mul, salt, n)
		b := fmt.Sprintf(`[[ i + %d | \i < %d ]]`, mul, n)
		if q.family == "zip_subseq" {
			q.text = fmt.Sprintf(`subseq!(zip!(%s, %s), %d, %d)`, a, b, lo, hi)
		} else {
			q.text = fmt.Sprintf(`zip!(subseq!(%s, %d, %d), subseq!(%s, %d, %d))`, a, lo, hi, b, lo, hi)
		}
		wa, wb := make([]int64, hi-lo+1), make([]int64, hi-lo+1)
		for k := range wa {
			wa[k] = int64(lo+k)*mul + salt
			wb[k] = int64(lo+k) + mul
		}
		q.want = expect{kind: "pairs", a: wa, b: wb}
	case "months":
		m, d := 1+r.intn(11), 1+r.intn(28)
		y := salt
		q.text = fmt.Sprintf(`days_since_1_1!(%d, %d, %d)`, m, d, y)
		want := int64(d)
		for i := 0; i < m; i++ {
			want += monthDays[i]
		}
		if m > 2 && y%4 == 0 {
			want++
		}
		q.want = expect{kind: "nat", n: want}
	case "beta_p":
		n := 8 + r.intn(56)
		k := r.intn(n)
		q.text = fmt.Sprintf(`[[ i*i + %d | \i < %d ]][%d]`, salt, n, k)
		q.want = expect{kind: "nat", n: int64(k*k) + salt}
	case "eta_p":
		n := 8 + r.intn(56)
		mul := int64(2 + r.intn(8))
		tab := fmt.Sprintf(`[[ j*%d + %d | \j < %d ]]`, mul, salt, n)
		q.text = fmt.Sprintf(`[[ %s[i] | \i < len!(%s) ]]`, tab, tab)
		want := make([]int64, n)
		for j := range want {
			want[j] = int64(j)*mul + salt
		}
		q.want = expect{kind: "array", shape: []int{n}, a: want}
	case "delta_p":
		n := 8 + r.intn(56)
		q.text = fmt.Sprintf(`len!([[ i*i + %d | \i < %d ]])`, salt, n)
		q.want = expect{kind: "nat", n: int64(n)}
	}
	return q
}

type planWorkload struct {
	seed  int64
	ihash string
}

func newPlan(cfg config) *planWorkload {
	w := &planWorkload{seed: cfg.seed}
	// The hash covers the first queries of the stream; the stream is
	// longer than any run, and a run consumes a prefix of it.
	h := newInputHash()
	for _, q := range w.sample(256) {
		h.str(q.text)
	}
	w.ihash = h.sum()
	return w
}

// sample returns the first n queries of the seeded stream.
func (w *planWorkload) sample(n int) []planQuery {
	r := newRNG(w.seed, "plan_cold")
	out := make([]planQuery, n)
	for i := range out {
		out[i] = genPlanQuery(r, planFamilies, i)
	}
	return out
}

func (w *planWorkload) name() string    { return "plan_cold" }
func (w *planWorkload) hash() string    { return w.ihash }
func (w *planWorkload) cellsPerOp() int { return 0 }

// bindPlanData defines the prelude and binds the tiny weather arrays, on
// either session type.
func bindPlanData(s interface {
	Exec(src string) ([]aql.Result, error)
}) error {
	data := fmt.Sprintf(`val T = [[ real!((i/%d)*10) | \i < %d ]];
val RH = [[ 0.0 | \i < %d ]];
val WS = [[ 1.0 | \i < %d, \j < 1 ]];`, planHours, planDays*planHours, planDays*planHours, 2*planDays*planHours)
	if _, err := s.Exec(planPrelude + data); err != nil {
		return fmt.Errorf("prelude: %w", err)
	}
	return nil
}

type planInstance struct {
	s      *aql.Session
	r      *rng
	serial int
}

func (w *planWorkload) setup() (instance, error) {
	s, err := aql.NewSession()
	if err != nil {
		return nil, err
	}
	if err := bindPlanData(s); err != nil {
		return nil, err
	}
	inst := &planInstance{s: s, r: newRNG(w.seed, "plan_cold")}
	if _, err := inst.op(context.Background(), 0); err != nil {
		return nil, err
	}
	return inst, nil
}

func (in *planInstance) op(ctx context.Context, _ int) (time.Duration, error) {
	q := genPlanQuery(in.r, planFamilies, in.serial)
	in.serial++
	t0 := time.Now()
	v, _, err := in.s.QueryCtx(ctx, q.text)
	d := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("%s: %w\n%s", q.family, err, q.text)
	}
	if err := q.want.check(v); err != nil {
		return 0, fmt.Errorf("%s: wrong answer: %w\n%s", q.family, err, q.text)
	}
	return d, nil
}

func (in *planInstance) close() { in.s.Close() }
