package aql

import (
	"context"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/exchange"
	"github.com/aqldb/aql/internal/object"
)

var updateExchange = flag.Bool("update-exchange", false, "rewrite testdata/exchange.golden from the current encoder")

const exchangeGolden = "testdata/exchange.golden"

// exchangeSeeds are the exchange reader's fuzz seeds (internal/exchange
// FuzzReadString) and inputs at its error sites and token edges; the error
// text of each rejected one is recorded, and each accepted one rendered.
var exchangeSeeds = []string{
	`{25, 27, 28}`, `[[0, 31, 28]]`, `[[2, 2; 1, 2, 3, 4]]`, `(67.3, true, "x")`,
	`{|1, 1|}`, `_|_`, `b#"lit"`, `{(1, {2}), (3, {})}`, `(* c *) 1`,
	`[[`, `{`, `((`, `1e999`, `-`, `#`, `"`,
	"", "{1, 2", "[[1, 2", "(1,)", "{1 2}", "[[2; 1]]", "[[2, 2; 1, 2, 3]]",
	"-5", "1e", "foo", `"unterminated`, "1 2", "[[0; ]] extra",
	`x#`, `x#y`, `x#"a\qb"`, `x#"a\"b"`, `"tab\there"`, `"\u00e9\n"`, "\"caf\xc3\xa9\"",
	"tµ#\"lit\"", "t\xd7", "1.5e+3", "2E-2", "+3", "0x10", "1_000", "3.", ".5", "1e5x", "__",
	`(1, x#"y", "z")`, `{| "b", "a", "b" |}`,
}

// failingBacking is a lazy array's backing whose cell bad cannot be read.
type failingBacking struct{ cells, bad int }

func (b failingBacking) Cell(_ context.Context, off int) (object.Value, error) {
	if off == b.bad {
		return object.Value{}, errors.New("disk on fire")
	}
	return object.Real(float64(off) / 4), nil
}

// CellRange is never called: display reads cell by cell, the wire not at all.
func (b failingBacking) CellRange(context.Context, int, int) ([]object.Value, error) {
	return nil, errors.New("failingBacking: no bulk reads")
}

func (b failingBacking) Size() int { return b.cells }

// renderExchange writes, for every value of a fixed set, its display text
// (String), its wire text (exchange.WriteString, or the error) and its REPL
// preview (Pretty(4)). Texts over 160 bytes are recorded by length and
// SHA-256.
func renderExchange(t *testing.T) string {
	var b strings.Builder
	text := func(s string) string {
		if len(s) <= 160 {
			return s
		}
		return fmt.Sprintf("%d bytes sha256:%x", len(s), sha256.Sum256([]byte(s)))
	}
	row := func(label string, v object.Value) {
		fmt.Fprintf(&b, "%s\n  display %s\n", label, text(v.String()))
		if w, err := exchange.WriteString(v); err != nil {
			fmt.Fprintf(&b, "  wire error %v\n", err)
		} else {
			fmt.Fprintf(&b, "  wire %s\n", text(w))
		}
		fmt.Fprintf(&b, "  pretty %s\n", text(v.Pretty(4)))
	}

	b.WriteString("== globals\n")
	s := diffSession(t)
	globals := s.Env.Globals()
	names := make([]string, 0, len(globals))
	for name := range globals {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		row("global "+name, globals[name])
	}

	b.WriteString("== diffCorpus\n")
	for _, src := range diffCorpus {
		core, _, err := s.Compile(src)
		if err != nil {
			t.Fatalf("compile %s: %v", src, err)
		}
		in, _ := diffEngines(globals, eval.Limits{})
		v, err := in.EvalExpr(context.Background(), core)
		if err != nil {
			fmt.Fprintf(&b, "query %s\n  error %v\n", src, err)
			continue
		}
		row("query "+src, v)
	}

	b.WriteString("== exchange seeds\n")
	for _, src := range exchangeSeeds {
		v, err := exchange.ReadString(src)
		if err != nil {
			fmt.Fprintf(&b, "seed %q\n  error %v\n", src, err)
			continue
		}
		row(fmt.Sprintf("seed %q", src), v)
	}

	b.WriteString("== reals\n")
	for _, r := range []float64{
		0, math.Copysign(0, -1), 3, -7, 0.1, 2.5, 1e-5, 1e-4, 1.5e-7, 1e5, 1e6,
		123456, 1234567, 1e15, 1e20, 1e21, 6.02e23, 123456789012345678,
		5e-324, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
	} {
		row(fmt.Sprintf("real %v", r), object.Real(r))
	}

	b.WriteString("== lazy arrays\n")
	for _, fb := range []failingBacking{{cells: 6, bad: -1}, {cells: 6, bad: 2}} {
		v, err := object.LazyArray([]int{2, 3}, fb)
		if err != nil {
			t.Fatal(err)
		}
		row(fmt.Sprintf("lazy 2x3 failing at %d", fb.bad), v)
		row(fmt.Sprintf("tuple of lazy 2x3 failing at %d", fb.bad), object.Tuple(object.Nat(1), v))
	}
	return b.String()
}

// TestExchangeGolden pins the display, wire and preview texts of every
// differential-corpus result, every accepted exchange seed, the real
// formatting boundaries and lazy arrays (a failed cell read included)
// against texts recorded before display and wire shared one encoder. Run
// with -update-exchange to rewrite the golden after an intended change.
func TestExchangeGolden(t *testing.T) {
	checkGolden(t, exchangeGolden, renderExchange(t), *updateExchange, "-update-exchange")
}
