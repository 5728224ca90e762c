package compile

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/object"
)

// rangeTab builds [[ (i*j + i + 7) % 93 | i < r, j < c ]]: a 2-D
// tabulation, so range execution must reconstruct multi-indices from flat
// row-major offsets at arbitrary shard boundaries.
func rangeTab(r, c int64) *ast.ArrayTab {
	return &ast.ArrayTab{
		Head: &ast.Arith{
			Op: ast.OpMod,
			L: &ast.Arith{Op: ast.OpAdd,
				L: &ast.Arith{Op: ast.OpMul, L: v("i"), R: v("j")},
				R: &ast.Arith{Op: ast.OpAdd, L: v("i"), R: nat(7)}},
			R: nat(93),
		},
		Idx:    []string{"i", "j"},
		Bounds: []ast.Expr{nat(r), nat(c)},
	}
}

// splitRange cuts [0, size) into n contiguous pieces (the first size%n get
// the extra element), mirroring how a coordinator shards an element space.
func splitRange(size int64, n int) [][2]int64 {
	var out [][2]int64
	base, rem := size/int64(n), size%int64(n)
	off := int64(0)
	for i := 0; i < n; i++ {
		l := base
		if int64(i) < rem {
			l++
		}
		if l == 0 {
			continue
		}
		out = append(out, [2]int64{off, off + l})
		off += l
	}
	return out
}

// TestRangeDifferential: PlanShards + ExecuteRange over any contiguous
// partition reassembles to byte-identical values and exactly the counters
// of a whole-program Execute — the contract distributed scatter-gather
// (internal/cluster) is built on. Exercised over several shard counts,
// including degenerate 1-shard and per-row shards, and over both the serial
// and parallel range kernels.
func TestRangeDifferential(t *testing.T) {
	const r, c = 37, 53
	ctx := context.Background()
	p := NewProgram(rangeTab(r, c), nil, eval.Limits{})
	if !p.Rangeable() {
		t.Fatal("tabulation program not Rangeable")
	}

	wantVal, wantCounters, err := p.Execute(ctx, ExecOpts{})
	if err != nil {
		t.Fatalf("reference Execute: %v", err)
	}
	if wantVal.Kind != object.KArray {
		t.Fatalf("reference value kind = %v, want array", wantVal.Kind)
	}

	for _, tc := range []struct {
		name     string
		shards   int
		execOpts ExecOpts
	}{
		{"one-shard", 1, ExecOpts{Threshold: -1}},
		{"three-shards", 3, ExecOpts{Threshold: -1}},
		{"seven-shards", 7, ExecOpts{Threshold: -1}},
		{"per-row-shards", r, ExecOpts{Threshold: -1}},
		{"parallel-kernel", 3, ExecOpts{Threshold: 1, Workers: 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := p.PlanShards(ctx, ExecOpts{})
			if err != nil {
				t.Fatalf("PlanShards: %v", err)
			}
			if plan.Size != r*c {
				t.Fatalf("plan size = %d, want %d", plan.Size, r*c)
			}
			merged := plan.Counters
			data := make([]object.Value, plan.Size)
			for _, rg := range splitRange(plan.Size, tc.shards) {
				res, err := p.ExecuteRange(ctx, tc.execOpts, plan.Shape, rg[0], rg[1])
				if err != nil {
					t.Fatalf("ExecuteRange [%d,%d): %v", rg[0], rg[1], err)
				}
				if res.BottomOff >= 0 {
					t.Fatalf("unexpected ⊥ at offset %d", res.BottomOff)
				}
				copy(data[rg[0]:rg[1]], res.Values)
				merged = merged.Add(res.Counters)
			}
			got := object.Value{Kind: object.KArray, Shape: plan.Shape, Elems: data}
			if !object.Equal(got, wantVal) {
				t.Errorf("reassembled value differs from Execute's")
			}
			if merged != wantCounters {
				t.Errorf("merged counters = %+v, want %+v", merged, wantCounters)
			}
		})
	}
}

// TestRangeFirstBottom: per-offset ⊥ payloads (out-of-bounds subscripts)
// surface in each shard's Partial; merged, they must give the ⊥ a serial
// whole-program run returns, with an identical diagnostic.
func TestRangeFirstBottom(t *testing.T) {
	const valid, total = 40, 100
	data := make([]object.Value, valid)
	for i := range data {
		data[i] = object.Nat(int64(i))
	}
	globals := map[string]object.Value{"A": object.Vector(data...)}
	tab := &ast.ArrayTab{
		Head:   &ast.Subscript{Arr: v("A"), Index: v("i")},
		Idx:    []string{"i"},
		Bounds: []ast.Expr{nat(total)},
	}
	ctx := context.Background()
	p := NewProgram(tab, globals, eval.Limits{})

	want, wantCounters, err := p.Execute(ctx, ExecOpts{})
	if err != nil {
		t.Fatalf("reference Execute: %v", err)
	}
	if !want.IsBottom() {
		t.Fatalf("reference result = %v, want ⊥", want.Kind)
	}

	plan, err := p.PlanShards(ctx, ExecOpts{})
	if err != nil {
		t.Fatalf("PlanShards: %v", err)
	}
	merged := plan.Counters
	best := Partial{Lo: plan.Size, BottomOff: -1}
	// Scan shards out of order to prove merge order doesn't matter.
	ranges := splitRange(plan.Size, 4)
	for i := len(ranges) - 1; i >= 0; i-- {
		rg := ranges[i]
		res, err := p.ExecuteRange(ctx, ExecOpts{}, plan.Shape, rg[0], rg[1])
		if err != nil {
			t.Fatalf("ExecuteRange [%d,%d): %v", rg[0], rg[1], err)
		}
		best = best.Merge(res.Partial)
		merged = merged.Add(res.Counters)
	}
	if best.Lo != 0 || best.Hi != plan.Size {
		t.Fatalf("merged range = [%d, %d), want [0, %d)", best.Lo, best.Hi, plan.Size)
	}
	if best.BottomOff != valid {
		t.Fatalf("first ⊥ offset = %d, want %d", best.BottomOff, valid)
	}
	if best.Bottom.String() != want.String() {
		t.Errorf("merged ⊥ = %s, want %s", best.Bottom, want)
	}
	if merged != wantCounters {
		t.Errorf("merged counters = %+v, want %+v", merged, wantCounters)
	}
}

// TestRangeErrorOffset: a deterministic head error (arithmetic on a
// non-numeric element) is reported as a RangeError carrying the row-major
// offset it occurred at, so a merge can pick the lowest offset — the error
// a serial scan hits first.
func TestRangeErrorOffset(t *testing.T) {
	const good, total = 25, 60
	data := make([]object.Value, total)
	for i := range data {
		if i < good {
			data[i] = object.Nat(int64(i))
		} else {
			data[i] = object.Bool(true)
		}
	}
	globals := map[string]object.Value{"A": object.Vector(data...)}
	tab := &ast.ArrayTab{
		Head: &ast.Arith{Op: ast.OpAdd,
			L: &ast.Subscript{Arr: v("A"), Index: v("i")}, R: nat(0)},
		Idx:    []string{"i"},
		Bounds: []ast.Expr{nat(total)},
	}
	ctx := context.Background()
	p := NewProgram(tab, globals, eval.Limits{})

	_, _, wantErr := p.Execute(ctx, ExecOpts{})
	if wantErr == nil {
		t.Fatal("reference Execute succeeded, want error")
	}

	plan, err := p.PlanShards(ctx, ExecOpts{})
	if err != nil {
		t.Fatalf("PlanShards: %v", err)
	}
	// A shard that contains the erroring offset fails with that offset...
	_, err = p.ExecuteRange(ctx, ExecOpts{}, plan.Shape, 0, plan.Size)
	var re *RangeError
	if !errors.As(err, &re) {
		t.Fatalf("ExecuteRange err = %v, want *RangeError", err)
	}
	if re.Off != good {
		t.Errorf("error offset = %d, want %d", re.Off, good)
	}
	if re.Error() != wantErr.Error() {
		t.Errorf("error = %q, want %q", re.Error(), wantErr.Error())
	}
	// ...and one that excludes it succeeds.
	if _, err := p.ExecuteRange(ctx, ExecOpts{}, plan.Shape, 0, good); err != nil {
		t.Errorf("ExecuteRange over clean prefix: %v", err)
	}
}

// TestPlanShardsBottomBound: a bound, or a let binding above the
// tabulation, that evaluates to ⊥ makes the whole program that ⊥;
// PlanShards reports it (with counters) instead of a shape, and a
// whole-program Execute agrees. A range executed anyway under a ⊥ let
// binding is poisoned by it.
func TestPlanShardsBottomBound(t *testing.T) {
	div0 := &ast.Arith{Op: ast.OpDiv, L: nat(1), R: nat(0)}
	for name, e := range map[string]ast.Expr{
		"bound": &ast.ArrayTab{Head: v("i"), Idx: []string{"i", "j"}, Bounds: []ast.Expr{div0, nat(3)}},
		"let":   &ast.App{Fn: &ast.Lam{Param: "s", Body: rangeTab(2, 3)}, Arg: div0},
	} {
		ctx := context.Background()
		p := NewProgram(e, nil, eval.Limits{})
		want, wantCounters, err := p.Execute(ctx, ExecOpts{})
		if err != nil {
			t.Fatalf("%s: reference Execute: %v", name, err)
		}
		if !want.IsBottom() {
			t.Fatalf("%s: reference result kind = %v, want ⊥", name, want.Kind)
		}
		plan, err := p.PlanShards(ctx, ExecOpts{})
		if err != nil {
			t.Fatalf("%s: PlanShards: %v", name, err)
		}
		if plan.Bottom.String() != want.String() {
			t.Errorf("%s: plan ⊥ = %s, want %s", name, plan.Bottom, want)
		}
		if plan.Counters != wantCounters {
			t.Errorf("%s: plan counters = %+v, want %+v", name, plan.Counters, wantCounters)
		}
		if name != "let" {
			continue
		}
		res, err := p.ExecuteRange(ctx, ExecOpts{}, []int{2, 3}, 1, 4)
		if err != nil || res.BottomOff != 1 || res.Bottom.String() != want.String() || len(res.Values) != 3 {
			t.Errorf("%s: ExecuteRange = %+v, %v; want [1, 4) poisoned by %s", name, res, err, want)
		}
	}
}

// TestRangeRootByPosition: the root tabulation is the one at the end of the
// root let chain, found by position. Here the same node is also the let's
// bound expression, evaluated whole before the chain reaches the root: a
// range request must pass it by, and the pieces still add up to Execute.
func TestRangeRootByPosition(t *testing.T) {
	tab := rangeTab(5, 7)
	p := NewProgram(&ast.App{Fn: &ast.Lam{Param: "x", Body: tab}, Arg: tab}, nil, eval.Limits{})
	ctx := context.Background()
	want, wantCounters, err := p.Execute(ctx, ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := p.PlanShards(ctx, ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	counters := plan.Counters
	data := make([]object.Value, 0, plan.Size)
	for _, rg := range splitRange(plan.Size, 3) {
		res, err := p.ExecuteRange(ctx, ExecOpts{}, plan.Shape, rg[0], rg[1])
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, res.Values...)
		counters = counters.Add(res.Counters)
	}
	if got := (object.Value{Kind: object.KArray, Shape: plan.Shape, Elems: data}); !object.Equal(got, want) {
		t.Errorf("reassembled value %s, want %s", got, want)
	}
	if counters != wantCounters {
		t.Errorf("merged counters = %+v, want %+v", counters, wantCounters)
	}
}

// TestExecuteRangeValidation: malformed ranges and non-rangeable programs
// are rejected up front.
func TestExecuteRangeValidation(t *testing.T) {
	ctx := context.Background()
	p := NewProgram(rangeTab(4, 4), nil, eval.Limits{})
	if _, err := p.ExecuteRange(ctx, ExecOpts{}, []int{4, 4}, 8, 20); err == nil {
		t.Error("range past element space accepted")
	}
	if _, err := p.ExecuteRange(ctx, ExecOpts{}, []int{4, 4}, -1, 2); err == nil {
		t.Error("negative start accepted")
	}
	for _, shape := range [][]int{{16}, {2, 2, 4}} {
		if _, err := p.ExecuteRange(ctx, ExecOpts{}, shape, 0, 4); err == nil {
			t.Errorf("shape %v accepted for a 2-dimensional tabulation", shape)
		}
	}
	q := NewProgram(nat(1), nil, eval.Limits{})
	if q.Rangeable() {
		t.Error("literal program claims Rangeable")
	}
	if _, err := q.PlanShards(ctx, ExecOpts{}); err == nil {
		t.Error("PlanShards on non-rangeable program succeeded")
	}
	if _, err := q.ExecuteRange(ctx, ExecOpts{}, []int{1}, 0, 1); err == nil {
		t.Error("ExecuteRange on non-rangeable program succeeded")
	}
}

// FuzzRangeSplitMerge: however [0, n) is cut into contiguous pieces, whether
// a piece scans serially or fans out, and however the pieces' Partials are
// grouped under Merge, the outcome is Program.Execute's and the
// interpreter's — value, ⊥ diagnostic, error text and all five counters
// (plan counters plus the pieces' sum). The tabulation is
// [[ A[K[(i,j)]] + s | i < r, j < c ]] with seeded out-of-bounds entries in
// K (per-offset ⊥ diagnostics) and non-numeric entries in A (deterministic
// head errors of two kinds); flags bit 4 puts it under a let binding of s.
// Flags bit 8 compiles a MaxDepth of 1 + (flags>>4)%8 into the program,
// around the head's depth: the head is 6 deep plain and 7 under the let,
// and the last seeds set MaxDepth just below (a trip), at and just above
// that depth.
func FuzzRangeSplitMerge(f *testing.F) {
	f.Add(int64(1), uint8(7), uint8(9), uint8(3), uint8(0))     // clean
	f.Add(int64(2), uint8(40), uint8(25), uint8(5), uint8(1))   // ⊥s
	f.Add(int64(3), uint8(40), uint8(25), uint8(6), uint8(2))   // one error
	f.Add(int64(4), uint8(95), uint8(95), uint8(4), uint8(3))   // ⊥s and an error, 4-worker fan-out
	f.Add(int64(5), uint8(95), uint8(95), uint8(9), uint8(7))   // ⊥s and both errors, under a let
	f.Add(int64(6), uint8(0), uint8(0), uint8(0), uint8(3))     // one cell
	f.Add(int64(7), uint8(60), uint8(70), uint8(200), uint8(5)) // many cuts, ⊥s, under a let
	for _, flags := range []uint8{0x48, 0x58, 0x68, 0x5c, 0x6c, 0x7c} {
		f.Add(int64(8), uint8(9), uint8(11), uint8(4), flags|1) // MaxDepth 5/6/7 plain, 6/7/8 under a let
	}
	f.Fuzz(checkRangeSplit)
}

// TestRangeSplitDepthBudgets runs FuzzRangeSplitMerge's check at every
// MaxDepth from 1 to 8, plain and under a let: a trip in the prologue, in
// the let binding and in the head fails PlanShards + ExecuteRange exactly
// as it fails Execute and the interpreter.
func TestRangeSplitDepthBudgets(t *testing.T) {
	for d := uint8(1); d <= 8; d++ {
		for _, let := range []uint8{0, 4} {
			flags := 8 | (d-1)<<4 | let
			t.Run(fmt.Sprintf("maxdepth=%d/let=%v", d, let != 0), func(t *testing.T) {
				checkRangeSplit(t, int64(d), 13, 17, 5, flags)
			})
		}
	}
}

// TestRangeDepthRepro: a head deeper than MaxDepth fails the same way on
// every path. PlanShards + ExecuteRange once answered [3 4 5 6] here,
// where Execute trips the depth budget.
func TestRangeDepthRepro(t *testing.T) {
	add1 := func(e ast.Expr) ast.Expr { return &ast.Arith{Op: ast.OpAdd, L: e, R: nat(1)} }
	tab := &ast.ArrayTab{Head: add1(add1(add1(v("i")))), Idx: []string{"i"}, Bounds: []ast.Expr{nat(4)}}
	ctx := context.Background()
	p := NewProgram(tab, nil, eval.Limits{MaxDepth: 4})
	_, _, want := p.Execute(ctx, ExecOpts{})
	if want == nil || want.Error() != "eval: depth budget 4 exhausted" {
		t.Fatalf("Execute err = %v, want the depth budget", want)
	}
	plan, err := p.PlanShards(ctx, ExecOpts{})
	if err != nil {
		t.Fatalf("PlanShards: %v", err)
	}
	_, err = p.ExecuteRange(ctx, ExecOpts{}, plan.Shape, 0, plan.Size)
	var re *RangeError
	if !errors.As(err, &re) || re.Off != 0 || err.Error() != want.Error() {
		t.Fatalf("ExecuteRange err = %v, want %v at offset 0", err, want)
	}
}

func checkRangeSplit(t *testing.T, seed int64, rows, cols, ncuts, flags uint8) {
	rng := rand.New(rand.NewSource(seed))
	r, c := int64(rows%96)+1, int64(cols%96)+1
	n := r * c
	keys := make([]object.Value, n)
	elems := make([]object.Value, n)
	for i := range keys {
		keys[i] = object.Nat(int64(i))
		elems[i] = object.Nat(int64(i) * 3 % 17)
		if flags&1 != 0 && rng.Intn(32) == 0 {
			keys[i] = object.Nat(n + int64(i))
		}
	}
	if flags&2 != 0 {
		elems[rng.Int63n(n)] = object.Bool(true)
	}
	if flags&4 != 0 && flags&2 != 0 {
		elems[rng.Int63n(n)] = object.String_("x")
	}
	K, err := object.Array([]int{int(r), int(c)}, keys)
	if err != nil {
		t.Fatal(err)
	}
	globals := map[string]object.Value{"A": object.Vector(elems...), "K": K}
	var expr ast.Expr = &ast.ArrayTab{
		Head: &ast.Arith{Op: ast.OpAdd,
			L: &ast.Subscript{Arr: v("A"), Index: &ast.Subscript{Arr: v("K"), Index: &ast.Tuple{Elems: []ast.Expr{v("i"), v("j")}}}},
			R: v("s")},
		Idx:    []string{"i", "j"},
		Bounds: []ast.Expr{nat(r), nat(c)},
	}
	if flags&4 != 0 {
		expr = &ast.App{Fn: &ast.Lam{Param: "s", Body: expr}, Arg: nat(1)}
	} else {
		globals["s"] = object.Nat(1)
	}
	var lim eval.Limits
	if flags&8 != 0 {
		lim.MaxDepth = int(flags>>4)%8 + 1
	}
	ctx := context.Background()
	p := NewProgram(expr, globals, lim)
	serial, fanned := ExecOpts{Threshold: -1}, ExecOpts{Threshold: 1, Workers: 4}

	want, wantCounters, wantErr := p.Execute(ctx, serial)
	check := func(label string, got object.Value, counters eval.Counters, err error) {
		t.Helper()
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("%s: err = %v, want %v", label, err, wantErr)
		}
		if err != nil {
			return
		}
		if got.String() != want.String() {
			t.Fatalf("%s: value differs from serial Execute's (⊥: %v vs %v)", label, got.IsBottom(), want.IsBottom())
		}
		if counters != wantCounters {
			t.Fatalf("%s: counters = %+v, want %+v", label, counters, wantCounters)
		}
	}
	t.Logf("n=%d pieces=%d maxdepth=%d reference: ⊥=%v err=%v", n, int(ncuts)+1, lim.MaxDepth, want.IsBottom(), wantErr)
	in := eval.New(globals)
	in.Limits = lim
	iv, ierr := in.EvalExpr(ctx, expr)
	check("interpreter", iv, in.Counters(), ierr)
	v4, c4, err4 := p.Execute(ctx, fanned)
	check("fanned Execute", v4, c4, err4)

	cuts := []int64{0, n}
	for i := 0; i < int(ncuts); i++ {
		cuts = append(cuts, rng.Int63n(n+1))
	}
	sort.Slice(cuts, func(a, b int) bool { return cuts[a] < cuts[b] })
	plan, err := p.PlanShards(ctx, serial)
	if err != nil {
		check("PlanShards", object.Value{}, eval.Counters{}, err)
		return
	}
	counters := plan.Counters
	data := make([]object.Value, n)
	parts := make([]Partial, len(cuts)-1)
	for i := range parts {
		lo, hi := cuts[i], cuts[i+1]
		opts := serial
		if rng.Intn(2) == 0 {
			opts = fanned
		}
		res, err := p.ExecuteRange(ctx, opts, plan.Shape, lo, hi)
		var re *RangeError
		switch {
		case errors.As(err, &re):
			parts[i] = Partial{Lo: lo, Hi: hi, BottomOff: -1, ErrOff: re.Off, Err: re.Err}
		case err != nil:
			t.Fatalf("ExecuteRange [%d,%d): %v", lo, hi, err)
		default:
			parts[i] = res.Partial
			copy(data[lo:hi], res.Values)
			counters = counters.Add(res.Counters)
		}
	}

	left, right := parts[0], parts[len(parts)-1]
	for i := 1; i < len(parts); i++ {
		left = left.Merge(parts[i])
		right = parts[len(parts)-1-i].Merge(right)
	}
	var tree func(ps []Partial) Partial
	tree = func(ps []Partial) Partial {
		if len(ps) == 1 {
			return ps[0]
		}
		return tree(ps[:len(ps)/2]).Merge(tree(ps[len(ps)/2:]))
	}
	perm := rng.Perm(len(parts))
	shuffled := parts[perm[0]]
	for _, i := range perm[1:] {
		shuffled = shuffled.Merge(parts[i])
	}
	for label, m := range map[string]Partial{"left fold": left, "right fold": right, "tree": tree(parts), "shuffled": shuffled} {
		if m.Lo != 0 || m.Hi != n {
			t.Fatalf("%s: merged range = [%d, %d), want [0, %d)", label, m.Lo, m.Hi, n)
		}
		got, err := m.Result(plan.Shape, data)
		check(label, got, counters, err)
	}
}
