package compile

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/trace"
)

// sumOutcome renders a Σ's outcome with the value's bits: a real as its
// IEEE 754 word, so two sums that print alike but differ in a last bit
// differ here.
func sumOutcome(v object.Value, err error) string {
	switch {
	case err != nil:
		return "error " + err.Error()
	case v.Kind == object.KReal:
		return fmt.Sprintf("real %#016x", math.Float64bits(v.R))
	}
	return v.String()
}

// FuzzSumSplit: a Σ of reals of mixed magnitude (and, on a flag, some nats;
// on another, only nats up to 2^58, whose total may overflow into the
// kernel's nat overflow ⊥),
// with an optional ⊥ and an optional kind error at fuzzed offsets, has one
// outcome — the value's bits, the ⊥ diagnostic, the error text and all five
// counters — however it runs: serially, fanned out over 1 to 8 workers, and
// accumulated in pieces cut at any block boundaries, each started at its cut
// and absorbed in order. That outcome is the interpreter's. The fan-out
// must really split: a Σ of more than one block on more than one worker
// records one WorkerSpan per chunk.
func FuzzSumSplit(f *testing.F) {
	f.Add(int64(1), uint16(1000), uint16(0), uint16(0), uint8(4), uint8(3), uint8(0))
	f.Add(int64(2), uint16(300), uint16(150), uint16(0), uint8(3), uint8(1), uint8(1))
	f.Add(int64(3), uint16(300), uint16(0), uint16(200), uint8(2), uint8(2), uint8(2))
	f.Add(int64(4), uint16(700), uint16(600), uint16(130), uint8(8), uint8(5), uint8(3))
	f.Add(int64(5), uint16(64), uint16(0), uint16(0), uint8(4), uint8(0), uint8(4))
	f.Add(int64(6), uint16(4097), uint16(4000), uint16(4096), uint8(5), uint8(9), uint8(7))
	f.Add(int64(7), uint16(3000), uint16(0), uint16(0), uint8(4), uint8(6), uint8(8))    // nat total overflows
	f.Add(int64(8), uint16(20), uint16(0), uint16(0), uint8(2), uint8(1), uint8(8))      // nat total fits
	f.Add(int64(9), uint16(3000), uint16(2900), uint16(0), uint8(3), uint8(5), uint8(9)) // ⊥ after the overflow
	f.Fuzz(func(t *testing.T, seed int64, size, botAt, errAt uint16, workers, ncuts, flags uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := int(size%5000) + 1
		cells := make([]object.Value, n)
		for i := range cells {
			if flags&8 != 0 {
				cells[i] = object.Nat(rng.Int63n(1 << 58))
				continue
			}
			if flags&4 != 0 && rng.Intn(8) == 0 {
				cells[i] = object.Nat(rng.Int63n(1 << 40))
				continue
			}
			x := rng.Float64() * math.Pow(10, float64(rng.Intn(25)-12))
			if rng.Intn(2) == 0 {
				x = -x
			}
			cells[i] = object.Real(x)
		}
		event := n // the offset the Σ stops at
		if flags&1 != 0 && int(botAt) < n {
			cells[botAt] = object.Bottom(fmt.Sprintf("planted ⊥ at %d", botAt))
			event = int(botAt)
		}
		if flags&2 != 0 && int(errAt) < n {
			cells[errAt] = object.String_("x")
			event = min(event, int(errAt))
		}
		globals := map[string]object.Value{"A": object.Vector(cells...)}
		sum := &ast.Sum{Var: "i", Over: &ast.Gen{N: nat(int64(n))}, Head: &ast.Subscript{Arr: v("A"), Index: v("i")}}
		ctx := context.Background()
		p := NewProgram(sum, globals, eval.Limits{})

		want, wantCounters, wantErr := p.Execute(ctx, ExecOpts{Threshold: -1})
		in := eval.New(globals)
		iv, ierr := in.EvalExpr(ctx, sum)
		if got, ref := sumOutcome(iv, ierr), sumOutcome(want, wantErr); got != ref {
			t.Fatalf("interpreter: %s, serial compiled: %s", got, ref)
		}
		if in.Counters() != wantCounters {
			t.Fatalf("interpreter counters %+v, serial compiled %+v", in.Counters(), wantCounters)
		}

		w := int(workers%8) + 1
		var out Outcome
		got, err := p.Run(ctx, ExecOpts{Threshold: 1, Workers: w, Level: eval.ProfFull}, &out)
		if g, ref := sumOutcome(got, err), sumOutcome(want, wantErr); g != ref {
			t.Fatalf("%d workers: %s, serial: %s", w, g, ref)
		}
		if out.Counters != wantCounters {
			t.Fatalf("%d workers: counters %+v, serial %+v", w, out.Counters, wantCounters)
		}
		var spans []trace.WorkerSpan
		out.Spans.Walk(func(s *trace.SpanNode) {
			if s.Op == "Sum" {
				spans = s.Workers
			}
		})
		if chunks := (n + eval.SumBlock - 1) / eval.SumBlock; w > 1 && chunks > 1 && len(spans) < 2 {
			t.Fatalf("%d workers over %d blocks recorded %d worker spans: the Σ did not fan out", w, chunks, len(spans))
		}

		// Pieces cut at block boundaries up to the Σ's stopping point,
		// each its own accumulator, absorbed in order.
		blocks := (event + eval.SumBlock - 1) / eval.SumBlock
		cuts := []int{0, event}
		for i := 0; i < int(ncuts%16); i++ {
			cuts = append(cuts, min(rng.Intn(blocks+1)*eval.SumBlock, event))
		}
		sort.Ints(cuts)
		var root eval.SumAcc
		for i := 1; i < len(cuts); i++ {
			if cuts[i-1] == cuts[i] {
				continue
			}
			var piece eval.SumAcc
			piece.Start(int64(cuts[i-1]))
			for _, c := range cells[cuts[i-1]:cuts[i]] {
				if err := piece.Add(c); err != nil {
					t.Fatalf("term before the stopping point: %v", err)
				}
			}
			root.Absorb(&piece)
		}
		if event == n {
			if g, ref := sumOutcome(root.Value(), nil), sumOutcome(want, wantErr); g != ref {
				t.Fatalf("pieces cut at %v: %s, serial: %s", cuts, g, ref)
			}
		}
	})
}

// TestSumOrder pins the summation order on terms whose sum it decides: a
// Σ of at most eval.SumBlock terms is the left fold from zero, and a longer
// one combines whole blocks pairwise, so a large term in the first block
// does not swallow the small terms of the next one.
func TestSumOrder(t *testing.T) {
	sum := func(terms []float64) float64 {
		var acc eval.SumAcc
		for _, x := range terms {
			if err := acc.Add(object.Real(x)); err != nil {
				t.Fatal(err)
			}
		}
		return acc.Value().R
	}
	block := make([]float64, eval.SumBlock)
	block[0] = 1e16
	for i := 1; i < len(block); i++ {
		block[i] = 1
	}
	fold := 0.0
	for _, x := range block {
		fold += x
	}
	if got := sum(block); got != fold {
		t.Errorf("one block: %v, want the left fold %v", got, fold)
	}
	// [1e16, 1 × 63] then [1 × 64] then [-1e16, 0 × 63]: the left fold keeps
	// 1e16 + 1 = 1e16 at every step and ends at 0; pairwise, the second block
	// sums to 64 exactly and survives beside 1e16.
	three := append(append([]float64(nil), block...), make([]float64, 2*eval.SumBlock)...)
	for i := eval.SumBlock; i < 2*eval.SumBlock; i++ {
		three[i] = 1
	}
	three[2*eval.SumBlock] = -1e16
	if got := sum(three); got != 64 {
		t.Errorf("three blocks: %v, want 64: ((b0 + b1) + b2) with b1 = 64", got)
	}
}
