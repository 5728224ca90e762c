package aql

import (
	"context"
	"flag"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"github.com/aqldb/aql/internal/netcdf"
	"github.com/aqldb/aql/internal/repl"
	"github.com/aqldb/aql/internal/trace"
)

var updateExplain = flag.Bool("update-explain", false, "rewrite testdata/explain.golden from the current estimator and join")

const explainGolden = "testdata/explain.golden"

// explainExtra are queries beyond the differential corpus whose joined
// tables are pinned too: a tabulation, a comprehension over a range and a
// subscript of a 2-D tabulation.
var explainExtra = []string{
	`[[ i*i | \i < 12 ]]`,
	`{x * 2 | \x <- gen!5}`,
	`[[ i + j | \i < 3, \j < 4 ]][1, 2]`,
}

// explainLazy are queries over V, a lazy 64-cell NetCDF variable read in
// tiles of 16 cells, whose tables carry the tile estimate: a full scan, two
// single cells, one name read at two sites, and a query beside it that
// reads no lazy array.
var explainLazy = []string{
	`summap(fn \i => V[i])!(gen!64)`,
	`V[3] + V[60]`,
	`[[ V[i] + V[63 - i] | \i < 64 ]]`,
	`summap(fn \i => A[i])!(gen!10)`,
}

// lazySession is diffSession with V bound to a lazy NetCDF variable of 64
// doubles, read through a tile cache of 16-cell tiles that never prefetches.
func lazySession(t *testing.T) *repl.Session {
	t.Helper()
	b := netcdf.NewBuilder()
	d0, _ := b.AddDim("x", 64)
	data := make([]float64, 64)
	for i := range data {
		data[i] = float64(i) / 2
	}
	if err := b.AddVar("v", netcdf.Double, []int{d0}, nil, data); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "v.nc")
	if err := b.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	s := diffSession(t)
	s.SetTileConfig(16, 1<<20, true)
	if _, err := s.Exec(fmt.Sprintf(`readval \V using NETCDF at (%q, "v");`, path)); err != nil {
		t.Fatal(err)
	}
	return s
}

// renderExplain writes, for every differential-corpus query and every
// explainExtra and explainLazy query, the joined estimate-vs-actual table of
// :explain analyze: mode, threshold, every row's path, operator, depth,
// estimates, actuals, q-error and flag, the tile counts and the misestimate
// summary. Wall times are not recorded; everything written is exact.
func renderExplain(t *testing.T) string {
	var b strings.Builder
	for _, q := range append(append([]string(nil), diffCorpus...), explainExtra...) {
		fmt.Fprintf(&b, "query %s\n", q)
		table, _, _, err := diffSession(t).ExplainAnalyzeTable(context.Background(), q)
		if err != nil {
			fmt.Fprintf(&b, "  error %v\n", err)
			continue
		}
		writeExplainTable(&b, table)
	}
	for _, q := range explainLazy {
		fmt.Fprintf(&b, "lazy query %s\n", q)
		table, _, _, err := lazySession(t).ExplainAnalyzeTable(context.Background(), q)
		if err != nil {
			fmt.Fprintf(&b, "  error %v\n", err)
			continue
		}
		writeExplainTable(&b, table)
	}
	return b.String()
}

func writeExplainTable(b *strings.Builder, t *trace.ExplainTable) {
	if t == nil {
		b.WriteString("  no table\n")
		return
	}
	fmt.Fprintf(b, "  mode %s threshold %g\n", t.Mode, t.Threshold)
	for _, r := range t.Rows {
		fmt.Fprintf(b, "  row %s op=%s depth=%d est card=%s cells=%s cost=%s act inv=%d cells=%d steps=%d q=%g",
			r.Path, r.Op, r.Depth, r.EstCard, r.EstCells, r.EstCost,
			r.ActInvocations, r.ActCells, r.ActSelfSteps, r.QError)
		if r.Flagged {
			b.WriteString(" flagged")
		}
		b.WriteByte('\n')
	}
	for _, sh := range t.Shards {
		fmt.Fprintf(b, "  shard %d worker=%s cells=%d steps=%d\n", sh.Shard, sh.Worker, sh.Cells, sh.Steps)
	}
	est := "none"
	if t.EstTiles != nil {
		est = t.EstTiles.String()
	}
	fmt.Fprintf(b, "  tiles est %s act %d\n", est, t.ActTiles)
	fmt.Fprintf(b, "  misestimates %d worst %g at %q\n", t.Misestimates, t.WorstQError, t.WorstOp)
}

// TestExplainGolden pins the joined estimate-vs-actual table of every
// differential-corpus query against tables recorded before the estimator
// took its rows from the span plan. Run with -update-explain to rewrite the
// golden after an intended change.
func TestExplainGolden(t *testing.T) {
	checkGolden(t, explainGolden, renderExplain(t), *updateExplain, "-update-explain")
}
