package bench

import (
	"fmt"
	"math/rand"
)

// --- plan_cold: the front end of a plan-cache miss ----------------------------------

// The plan_cold workload's prelude and weather arrays (benchmarks/plan.go),
// restated here for the tests and testing.B benchmarks: that package is a
// main package.
const (
	planDays  = 6
	planHours = 4
)

// PlanPrelude declares the macros every plan_cold family reads.
const PlanPrelude = HistMacros + `
val \months = [[0,31,28,31,30,31,30,31,31,30,31,30]];
macro \days_since_1_1 = fn (\m,\d,\y) =>
  d + summap(fn \i => months[i])!(gen!m) +
  if m > 2 and y % 4 = 0 then 1 else 0;
`

// PlanData binds the weather arrays the motivating family reads: day d
// reads 10*d degrees.
var PlanData = fmt.Sprintf(`val T = [[ real!((i/%d)*10) | \i < %d ]];
val RH = [[ 0.0 | \i < %d ]];
val WS = [[ 1.0 | \i < %d, \j < 1 ]];`, planHours, planDays*planHours, planDays*planHours, 2*planDays*planHours)

// PlanMotivating is the motivating family's text: the section 1 query
// over planDays days of planHours readings.
func PlanMotivating(threshold float64) string {
	return fmt.Sprintf(`{d | \d <- gen!%d,
  \WS' == evenpos!(proj_col!(WS, 0)),
  \TRW == zip_3!(T, RH, WS'),
  \A == subseq!(TRW, d*%d, d*%d+%d),
  heatindex!(A) > %.6f}`, planDays, planHours, planHours, planHours-1, threshold)
}

// PlanFamilies names plan_cold's ten query families.
var PlanFamilies = []string{"motivating", "hist", "hist2", "months",
	"transpose", "zip_subseq", "subseq_zip", "beta_p", "eta_p", "delta_p"}

// PlanText draws one text from plan_cold's ten families, with the same
// templates and literal ranges as the benchmark; serial is folded into a
// literal so no two texts are equal.
func PlanText(r *rand.Rand, serial int) (family, text string) {
	salt := int64(serial)
	family = PlanFamilies[r.Intn(len(PlanFamilies))]
	switch family {
	case "motivating":
		k := r.Intn(planDays)
		text = PlanMotivating(float64(11*k) + 0.1 + float64(salt%400000)/1e6)
	case "hist", "hist2":
		n, m := 24+r.Intn(40), 3+r.Intn(12)
		a := int64(1 + r.Intn(9))
		macro := "hist"
		if family == "hist2" {
			macro = "hist'"
		}
		text = fmt.Sprintf(`%s!([[ (i*%d + %d) %% %d | \i < %d ]])`, macro, a, salt, m, n)
	case "transpose":
		m, n := 2+r.Intn(7), 2+r.Intn(7)
		c := int64(10 + r.Intn(90))
		text = fmt.Sprintf(`transpose![[ i * %d + j + %d | \i < %d, \j < %d ]]`, c, salt, m, n)
	case "zip_subseq", "subseq_zip":
		n := 16 + r.Intn(48)
		lo := r.Intn(n / 2)
		hi := lo + r.Intn(n-lo)
		mul := int64(2 + r.Intn(8))
		a := fmt.Sprintf(`[[ i*%d + %d | \i < %d ]]`, mul, salt, n)
		b := fmt.Sprintf(`[[ i + %d | \i < %d ]]`, mul, n)
		if family == "zip_subseq" {
			text = fmt.Sprintf(`subseq!(zip!(%s, %s), %d, %d)`, a, b, lo, hi)
		} else {
			text = fmt.Sprintf(`zip!(subseq!(%s, %d, %d), subseq!(%s, %d, %d))`, a, lo, hi, b, lo, hi)
		}
	case "months":
		m, d := 1+r.Intn(11), 1+r.Intn(28)
		text = fmt.Sprintf(`days_since_1_1!(%d, %d, %d)`, m, d, salt)
	case "beta_p":
		n := 8 + r.Intn(56)
		text = fmt.Sprintf(`[[ i*i + %d | \i < %d ]][%d]`, salt, n, r.Intn(n))
	case "eta_p":
		n := 8 + r.Intn(56)
		mul := int64(2 + r.Intn(8))
		tab := fmt.Sprintf(`[[ j*%d + %d | \j < %d ]]`, mul, salt, n)
		text = fmt.Sprintf(`[[ %s[i] | \i < len!(%s) ]]`, tab, tab)
	case "delta_p":
		n := 8 + r.Intn(56)
		text = fmt.Sprintf(`len!([[ i*i + %d | \i < %d ]])`, salt, n)
	}
	return family, text
}
