package trace

import (
	"fmt"
	"strconv"
	"strings"
)

// DefaultQErrorThreshold is the q-error above which a per-operator estimate
// is flagged as a misestimate when no explicit threshold is configured. A
// q-error of 2 means the estimate was off by 2x in either direction.
const DefaultQErrorThreshold = 2.0

// Card is an estimated cardinality or cost: either a known exact value or
// the explicit marker "unknown". The estimator never fabricates a number —
// anything parameter- or data-dependent is unknown, so a known Card can be
// held to exact agreement with the recorded actuals.
type Card struct {
	Known bool
	N     int64
}

// KnownCard returns a known cardinality.
func KnownCard(n int64) Card { return Card{Known: true, N: n} }

// UnknownCard returns the explicit unknown marker.
func UnknownCard() Card { return Card{} }

// String renders a known value as digits and unknown as "?".
func (c Card) String() string {
	if !c.Known {
		return "?"
	}
	return strconv.FormatInt(c.N, 10)
}

// MarshalJSON writes a known Card as a JSON number and an unknown one as
// the string "unknown", so API consumers cannot mistake a marker for zero.
func (c Card) MarshalJSON() ([]byte, error) {
	if !c.Known {
		return []byte(`"unknown"`), nil
	}
	return []byte(strconv.FormatInt(c.N, 10)), nil
}

// UnmarshalJSON accepts the two encodings MarshalJSON produces.
func (c *Card) UnmarshalJSON(b []byte) error {
	s := string(b)
	if s == `"unknown"` || s == "null" {
		*c = Card{}
		return nil
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return fmt.Errorf("card: want a number or \"unknown\", got %s", s)
	}
	*c = Card{Known: true, N: n}
	return nil
}

// AddCard sums two cards; unknown poisons the sum.
func AddCard(a, b Card) Card {
	if !a.Known || !b.Known {
		return UnknownCard()
	}
	if a.N > 0 && b.N > mathMaxInt64-a.N {
		return UnknownCard()
	}
	return KnownCard(a.N + b.N)
}

// MulCard multiplies two cards. A known zero factor yields a known zero even
// when the other factor is unknown: zero invocations charge zero work no
// matter what one invocation would have cost.
func MulCard(a, b Card) Card {
	if a.Known && a.N == 0 {
		return KnownCard(0)
	}
	if b.Known && b.N == 0 {
		return KnownCard(0)
	}
	if !a.Known || !b.Known {
		return UnknownCard()
	}
	p := a.N * b.N
	if a.N != 0 && (p/a.N != b.N || p < 0) {
		return UnknownCard()
	}
	return KnownCard(p)
}

const mathMaxInt64 = int64(^uint64(0) >> 1)

// Estimates is the cost estimator's (internal/cost) description of one
// optimized query, made at prepare time and shared by every execution.
type Estimates struct {
	// Rows holds one estimate per span id of the query's full-level span
	// plan (eval.SpanPlan), in id order: the plan alone decides which node
	// is which span, so row i is the estimate of span i.
	Rows []EstNode
	// Tiles is the estimated number of storage tiles the query touches:
	// the sum of the tile counts of every lazy (out-of-core) global it
	// references, i.e. an exact count for full scans and an upper bound
	// for selective access. Nil when the query references no lazy arrays.
	Tiles *Card
}

// EstNode is the estimate of one operator: one row of Estimates.
type EstNode struct {
	// Op is the span's operator and Depth its depth below the root; the
	// join checks both against the span it pairs the row with.
	Op    string `json:"op"`
	Depth int    `json:"depth"`
	// Card is the estimated output cardinality of one evaluation of this
	// operator: cells for tabulations and arrays, rows for set and bag
	// operations, 1 for scalars.
	Card Card `json:"card"`
	// Cells is the estimated total cells this operator charges across all
	// of its invocations; Cost is the estimated steps charged to the
	// operator itself (its invocation count — the evaluator charges one
	// step per node evaluation).
	Cells Card `json:"cells"`
	Cost  Card `json:"cost"`
}

// ExplainRow is one operator of the joined estimate-vs-actual table.
type ExplainRow struct {
	// Path is the slash-separated operator path from the root; Depth is
	// the tree depth, for indentation.
	Path  string `json:"path"`
	Op    string `json:"op"`
	Depth int    `json:"depth"`

	EstCard  Card `json:"est_card"`
	EstCells Card `json:"est_cells"`
	EstCost  Card `json:"est_cost"`

	ActInvocations int64 `json:"act_invocations"`
	ActCells       int64 `json:"act_cells"`
	ActSelfSteps   int64 `json:"act_self_steps"`

	// QError is the worst q-error across the known estimate dimensions
	// (cells, cost); 0 when every estimate on the row is unknown.
	QError  float64 `json:"q_error,omitempty"`
	Flagged bool    `json:"flagged,omitempty"`
}

// ShardActuals is one shard's merged worker actuals appended to a
// cluster query's joined table: the counters recorded under the shard's
// winning attempt. Per-shard estimates are not fabricated — the estimate
// tree describes the whole query, and shard boundaries are data-dependent.
type ShardActuals struct {
	Shard  int    `json:"shard"`
	Worker string `json:"worker"`
	Cells  int64  `json:"cells"`
	Steps  int64  `json:"steps"`
}

// ExplainTable is the joined estimate-vs-actual table of one query run.
type ExplainTable struct {
	// Mode is "operator" when the span tree was recorded at prof level
	// full and its spans pair with the estimate rows by span id (one row
	// per operator), and "root" when only flat counters were available (a
	// single row of query totals).
	Mode string `json:"mode"`
	// Threshold is the q-error above which a row is flagged.
	Threshold float64 `json:"threshold"`

	Rows []ExplainRow `json:"rows"`
	// Shards carries per-shard worker actuals for cluster queries.
	Shards []ShardActuals `json:"shards,omitempty"`

	// EstTiles is the estimator's full-scan tile count over the lazy
	// arrays the query references (nil when it references none); ActTiles
	// is the number of tiles actually fetched from storage during the run
	// (demand misses plus prefetches — cache hits touch no storage).
	EstTiles *Card `json:"est_tiles,omitempty"`
	ActTiles int64 `json:"act_tiles,omitempty"`

	// Misestimates counts flagged rows; WorstQError/WorstOp identify the
	// worst offender.
	Misestimates int     `json:"misestimates"`
	WorstQError  float64 `json:"worst_q_error,omitempty"`
	WorstOp      string  `json:"worst_op,omitempty"`
}

// QError is the standard multiplicative estimation error
// max(est/act, act/est), computed on values clamped to >= 1 so zero
// estimates and zero actuals are comparable. An exact estimate has
// q-error exactly 1.
func QError(est, act int64) float64 {
	e, a := float64(est), float64(act)
	if e < 1 {
		e = 1
	}
	if a < 1 {
		a = 1
	}
	if e > a {
		return e / a
	}
	return a / e
}

// JoinEstimates joins a query's estimates with a finished query report,
// producing the per-operator estimate-vs-actual table. When the report
// carries a full-profile span tree, its nodes are paired with the estimate
// rows by span id: a pre-order walk of the tree visits the spans in id
// order (eval.ProfCtx.Fold lays the tree out by id), so the i-th node
// visited is span i. The join is per-operator when every node's operator
// and depth equal its row's and the counts agree; otherwise (a sampled
// profile, or estimates of another plan) it degrades to a single row
// joining whole-query totals. Cluster reports contribute per-shard worker
// actuals. A threshold <= 0 selects DefaultQErrorThreshold.
func JoinEstimates(est *Estimates, rep *QueryReport, threshold float64) *ExplainTable {
	if est == nil || len(est.Rows) == 0 || rep == nil {
		return nil
	}
	if threshold <= 0 {
		threshold = DefaultQErrorThreshold
	}
	t := &ExplainTable{Threshold: threshold}

	var rows []ExplainRow
	ok := false
	if rep.Spans != nil && rep.ProfLevel == ProfFull {
		rows = make([]ExplainRow, 0, len(est.Rows))
		ok = joinSpans(&rows, est.Rows, rep.Spans, rep.Spans.Op, 0) && len(rows) == len(est.Rows)
	}
	if ok {
		t.Mode = "operator"
	} else {
		t.Mode = "root"
		root := &est.Rows[0]
		row := ExplainRow{
			Path:           root.Op,
			Op:             root.Op,
			EstCard:        root.Card,
			EstCells:       KnownCard(0),
			EstCost:        KnownCard(0),
			ActInvocations: 1,
			ActCells:       rep.Eval.Cells,
			ActSelfSteps:   rep.Eval.Steps,
		}
		for _, r := range est.Rows {
			row.EstCells = AddCard(row.EstCells, r.Cells)
			row.EstCost = AddCard(row.EstCost, r.Cost)
		}
		rows = append(rows[:0], row)
	}
	for i := range rows {
		scoreRow(t, &rows[i])
	}
	t.Rows = rows

	t.EstTiles = est.Tiles
	t.ActTiles = rep.IO.TileMisses + rep.IO.Prefetches

	for _, sh := range rep.Shards {
		sa := ShardActuals{Shard: sh.Shard, Worker: sh.Worker}
		sh.Spans.Walk(func(n *SpanNode) {
			sa.Cells += n.Cells
			sa.Steps += n.Steps
		})
		t.Shards = append(t.Shards, sa)
	}
	return t
}

// ProfFull is the span-profile level name at which span self counters are
// exact per-operator attributions (it mirrors eval.ProfFull.String()).
const ProfFull = "full"

// joinSpans appends the row of span s, at the given path and depth, and of
// its subtree in pre-order, pairing the i-th span visited with est[i]. It
// reports false at the first span whose operator or depth differs from its
// row's, or that has no row.
func joinSpans(rows *[]ExplainRow, est []EstNode, s *SpanNode, path string, depth int) bool {
	i := len(*rows)
	if i >= len(est) || est[i].Op != s.Op || est[i].Depth != depth {
		return false
	}
	e := &est[i]
	*rows = append(*rows, ExplainRow{
		Path:           path,
		Op:             e.Op,
		Depth:          depth,
		EstCard:        e.Card,
		EstCells:       e.Cells,
		EstCost:        e.Cost,
		ActInvocations: s.Invocations,
		ActCells:       s.Cells,
		ActSelfSteps:   s.Steps,
	})
	for _, c := range s.Children {
		if !joinSpans(rows, est, c, path+"/"+c.Op, depth+1) {
			return false
		}
	}
	return true
}

// scoreRow computes the row's q-error over its known estimate dimensions
// and updates the table's misestimate summary.
func scoreRow(t *ExplainTable, row *ExplainRow) {
	q := 0.0
	if row.EstCells.Known {
		q = QError(row.EstCells.N, row.ActCells)
	}
	if row.EstCost.Known {
		if qc := QError(row.EstCost.N, row.ActSelfSteps); qc > q {
			q = qc
		}
	}
	row.QError = q
	if q > t.Threshold {
		row.Flagged = true
		t.Misestimates++
	}
	if q > t.WorstQError {
		t.WorstQError = q
		t.WorstOp = row.Path
	}
}

// Format renders the joined table for the REPL and CLI: one row per
// operator, estimate columns ("?" marks unknown), actual columns, q-error
// ("-" when every estimate on the row is unknown) and a trailing "!" flag
// on misestimates.
func (t *ExplainTable) Format() string {
	if t == nil {
		return "no explain table (estimates unavailable)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "explain analyze  mode=%s  q-error threshold=%.2f\n", t.Mode, t.Threshold)
	fmt.Fprintf(&b, "  %-34s %9s %10s %10s %10s %10s %8s\n",
		"operator", "est card", "est cells", "est cost", "act cells", "act steps", "q-err")
	for _, r := range t.Rows {
		name := strings.Repeat("  ", r.Depth) + r.Op
		if len(name) > 34 {
			name = name[:31] + "..."
		}
		qe := "-"
		if r.QError > 0 {
			qe = fmt.Sprintf("%.2f", r.QError)
		}
		flag := ""
		if r.Flagged {
			flag = " !"
		}
		fmt.Fprintf(&b, "  %-34s %9s %10s %10s %10d %10d %8s%s\n",
			name, r.EstCard, r.EstCells, r.EstCost, r.ActCells, r.ActSelfSteps, qe, flag)
	}
	for _, sh := range t.Shards {
		fmt.Fprintf(&b, "  shard %-2d worker=%s  cells=%d steps=%d\n",
			sh.Shard, sh.Worker, sh.Cells, sh.Steps)
	}
	if t.EstTiles != nil || t.ActTiles > 0 {
		est := "?"
		if t.EstTiles != nil {
			est = t.EstTiles.String()
		}
		fmt.Fprintf(&b, "tiles: est %s (full scan), fetched %d\n", est, t.ActTiles)
	}
	if t.Misestimates > 0 {
		fmt.Fprintf(&b, "misestimates: %d (worst q-error %.2f at %s)\n",
			t.Misestimates, t.WorstQError, t.WorstOp)
	} else {
		b.WriteString("misestimates: none\n")
	}
	return b.String()
}
