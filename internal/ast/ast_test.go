package ast

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// mkMap builds map f A = [[ f(A[i]) | i < dim_1(A) ]] for reuse in tests.
func mkMap(f, a Expr) Expr {
	return &ArrayTab{
		Head:   &App{Fn: f, Arg: &Subscript{Arr: a, Index: &Var{Name: "i"}}},
		Idx:    []string{"i"},
		Bounds: []Expr{&Dim{K: 1, Arr: a}},
	}
}

func TestFreeVars(t *testing.T) {
	tests := []struct {
		e    Expr
		want []string
	}{
		{&Var{Name: "x"}, []string{"x"}},
		{&Lam{Param: "x", Body: &Var{Name: "x"}}, nil},
		{&Lam{Param: "x", Body: &Var{Name: "y"}}, []string{"y"}},
		{&BigUnion{Head: &Singleton{Elem: &Var{Name: "x"}}, Var: "x", Over: &Var{Name: "S"}}, []string{"S"}},
		{&Sum{Head: &Var{Name: "x"}, Var: "x", Over: &Var{Name: "x"}}, []string{"x"}}, // Over is outside the binder
		{&ArrayTab{Head: &Var{Name: "i"}, Idx: []string{"i"}, Bounds: []Expr{&Var{Name: "n"}}}, []string{"n"}},
		{&ArrayTab{Head: &Var{Name: "j"}, Idx: []string{"i"}, Bounds: []Expr{&Var{Name: "i"}}}, []string{"i", "j"}},
		{&RankUnion{Head: &Tuple{Elems: []Expr{&Var{Name: "x"}, &Var{Name: "r"}}}, Var: "x", RankVar: "r", Over: &Var{Name: "S"}}, []string{"S"}},
		{mkMap(&Var{Name: "f"}, &Var{Name: "A"}), []string{"A", "f"}},
	}
	for _, tt := range tests {
		got := FreeVars(tt.e)
		if len(got) != len(tt.want) {
			t.Errorf("FreeVars(%s) = %v, want %v", tt.e, got, tt.want)
			continue
		}
		for _, w := range tt.want {
			if !got[w] {
				t.Errorf("FreeVars(%s) missing %q", tt.e, w)
			}
		}
	}
}

func TestSubstBasic(t *testing.T) {
	// (x + y){x := 1} = 1 + y
	e := &Arith{Op: OpAdd, L: &Var{Name: "x"}, R: &Var{Name: "y"}}
	got := Subst(e, "x", &NatLit{Val: 1})
	want := &Arith{Op: OpAdd, L: &NatLit{Val: 1}, R: &Var{Name: "y"}}
	if !AlphaEqual(got, want) {
		t.Errorf("got %s, want %s", got, want)
	}
}

func TestSubstShadowing(t *testing.T) {
	// (\x. x + y){x := 1} leaves the bound x alone.
	e := &Lam{Param: "x", Body: &Arith{Op: OpAdd, L: &Var{Name: "x"}, R: &Var{Name: "y"}}}
	got := Subst(e, "x", &NatLit{Val: 1})
	if !AlphaEqual(got, e) {
		t.Errorf("shadowed substitution changed %s to %s", e, got)
	}
	// But the free y is substituted.
	got = Subst(e, "y", &NatLit{Val: 2})
	want := &Lam{Param: "x", Body: &Arith{Op: OpAdd, L: &Var{Name: "x"}, R: &NatLit{Val: 2}}}
	if !AlphaEqual(got, want) {
		t.Errorf("got %s, want %s", got, want)
	}
}

func TestSubstCaptureAvoidance(t *testing.T) {
	// (\y. x + y){x := y} must NOT capture: result is \y'. y + y'.
	e := &Lam{Param: "y", Body: &Arith{Op: OpAdd, L: &Var{Name: "x"}, R: &Var{Name: "y"}}}
	got := Subst(e, "x", &Var{Name: "y"})
	lam, ok := got.(*Lam)
	if !ok {
		t.Fatalf("got %s", got)
	}
	if lam.Param == "y" {
		t.Fatalf("capture: %s", got)
	}
	body, ok := lam.Body.(*Arith)
	if !ok {
		t.Fatalf("body %s", lam.Body)
	}
	if l, ok := body.L.(*Var); !ok || l.Name != "y" {
		t.Errorf("substituted variable wrong: %s", got)
	}
	if r, ok := body.R.(*Var); !ok || r.Name != lam.Param {
		t.Errorf("bound occurrence not renamed consistently: %s", got)
	}
}

func TestSubstCaptureAvoidanceInArrayTab(t *testing.T) {
	// [[ x | i < n ]]{x := i} must rename the tabulation index.
	e := &ArrayTab{Head: &Var{Name: "x"}, Idx: []string{"i"}, Bounds: []Expr{&Var{Name: "n"}}}
	got := Subst(e, "x", &Var{Name: "i"})
	tab, ok := got.(*ArrayTab)
	if !ok {
		t.Fatalf("got %s", got)
	}
	if tab.Idx[0] == "i" {
		t.Fatalf("capture in tabulation: %s", got)
	}
	if h, ok := tab.Head.(*Var); !ok || h.Name != "i" {
		t.Errorf("head should be the free i: %s", got)
	}
	// The bound in ArrayTab is outside the binder: [[ e | i < i ]]{...}
	// substitution in bounds must still happen.
	e2 := &ArrayTab{Head: &NatLit{Val: 0}, Idx: []string{"i"}, Bounds: []Expr{&Var{Name: "x"}}}
	got2 := Subst(e2, "x", &NatLit{Val: 5}).(*ArrayTab)
	if n, ok := got2.Bounds[0].(*NatLit); !ok || n.Val != 5 {
		t.Errorf("bound not substituted: %s", got2)
	}
}

func TestSubstNoOpSharesStructure(t *testing.T) {
	e := mkMap(&Var{Name: "f"}, &Var{Name: "A"})
	got := Subst(e, "zzz", &NatLit{Val: 0})
	if got != e {
		t.Error("substitution of absent variable should return the same node")
	}
}

func TestAlphaEqual(t *testing.T) {
	id1 := &Lam{Param: "x", Body: &Var{Name: "x"}}
	id2 := &Lam{Param: "y", Body: &Var{Name: "y"}}
	if !AlphaEqual(id1, id2) {
		t.Error("\\x.x and \\y.y should be alpha-equal")
	}
	k1 := &Lam{Param: "x", Body: &Var{Name: "z"}}
	k2 := &Lam{Param: "y", Body: &Var{Name: "z"}}
	if !AlphaEqual(k1, k2) {
		t.Error("\\x.z and \\y.z should be alpha-equal")
	}
	if AlphaEqual(id1, k1) {
		t.Error("\\x.x and \\x.z should differ")
	}
	// Free variables must match by name.
	if AlphaEqual(&Var{Name: "a"}, &Var{Name: "b"}) {
		t.Error("distinct free variables reported equal")
	}
	// Multi-binder nodes.
	r1 := &RankUnion{Head: &Tuple{Elems: []Expr{&Var{Name: "x"}, &Var{Name: "i"}}}, Var: "x", RankVar: "i", Over: &Var{Name: "S"}}
	r2 := &RankUnion{Head: &Tuple{Elems: []Expr{&Var{Name: "a"}, &Var{Name: "b"}}}, Var: "a", RankVar: "b", Over: &Var{Name: "S"}}
	r3 := &RankUnion{Head: &Tuple{Elems: []Expr{&Var{Name: "b"}, &Var{Name: "a"}}}, Var: "a", RankVar: "b", Over: &Var{Name: "S"}}
	if !AlphaEqual(r1, r2) {
		t.Error("rank unions alpha-equal expected")
	}
	if AlphaEqual(r1, r3) {
		t.Error("swapped binders should not be alpha-equal")
	}
	// Tabulations with different index names.
	t1 := &ArrayTab{Head: &Var{Name: "i"}, Idx: []string{"i"}, Bounds: []Expr{&NatLit{Val: 3}}}
	t2 := &ArrayTab{Head: &Var{Name: "j"}, Idx: []string{"j"}, Bounds: []Expr{&NatLit{Val: 3}}}
	if !AlphaEqual(t1, t2) {
		t.Error("tabulations alpha-equal expected")
	}
	// Payload differences.
	if AlphaEqual(&NatLit{Val: 1}, &NatLit{Val: 2}) {
		t.Error("different nat literals equal")
	}
	if AlphaEqual(&Cmp{Op: OpLt, L: id1, R: id1}, &Cmp{Op: OpLe, L: id1, R: id1}) {
		t.Error("different comparison ops equal")
	}
	if AlphaEqual(&Proj{I: 1, K: 2, Tuple: &Var{Name: "x"}}, &Proj{I: 2, K: 2, Tuple: &Var{Name: "x"}}) {
		t.Error("different projections equal")
	}
	// A set node and its bag analogue share a Go type; they are not equal.
	x := &Var{Name: "x"}
	setU := &Union{L: &Singleton{Elem: x}, R: &Singleton{Elem: x}}
	bagU := &Union{L: &Singleton{Elem: x, Bag: true}, R: &Singleton{Elem: x, Bag: true}, Bag: true}
	if AlphaEqual(setU, bagU) || AlphaEqual(bagU, setU) {
		t.Errorf("%s and %s reported equal", setU, bagU)
	}
	if !AlphaEqual(bagU, &Union{L: &Singleton{Elem: x, Bag: true}, R: &Singleton{Elem: x, Bag: true}, Bag: true}) {
		t.Errorf("%s not equal to itself", bagU)
	}
	if AlphaEqual(&Empty{}, &Empty{Bag: true}) {
		t.Error("{} and {||} reported equal")
	}
}

// TestAlphaEqualScopes covers shadowing, a binder of one side free on the
// other, and nesting deeper than AlphaEqual's stack buffer.
func TestAlphaEqualScopes(t *testing.T) {
	lam := func(p string, b Expr) Expr { return &Lam{Param: p, Body: b} }
	v := func(n string) Expr { return &Var{Name: n} }
	cases := []struct {
		a, b Expr
		want bool
	}{
		{lam("x", lam("x", v("x"))), lam("y", lam("z", v("z"))), true},
		{lam("x", lam("x", v("x"))), lam("y", lam("z", v("y"))), false},
		{lam("x", lam("y", v("x"))), lam("y", lam("x", v("y"))), true},
		{lam("x", lam("y", v("x"))), lam("y", lam("x", v("x"))), false},
		{lam("x", v("y")), lam("y", v("y")), false}, // free y vs bound y
		{lam("x", v("x")), v("x"), false},
	}
	deepA, deepB := v("a0"), v("b0")
	for i := 11; i >= 0; i-- {
		deepA = lam(fmt.Sprintf("a%d", i), &Tuple{Elems: []Expr{deepA, v("free")}})
		deepB = lam(fmt.Sprintf("b%d", i), &Tuple{Elems: []Expr{deepB, v("free")}})
	}
	cases = append(cases, struct {
		a, b Expr
		want bool
	}{deepA, deepB, true})
	for i, c := range cases {
		if got := AlphaEqual(c.a, c.b); got != c.want {
			t.Errorf("case %d: AlphaEqual(%s, %s) = %v, want %v", i, c.a, c.b, got, c.want)
		}
		if got := AlphaEqual(c.b, c.a); got != c.want {
			t.Errorf("case %d: AlphaEqual is not symmetric on %s, %s", i, c.a, c.b)
		}
	}
}

// TestBindersSharedReadOnly pins the Binders contract: nodes that bind
// nothing share one result, and the traversals in this package only read
// it.
func TestBindersSharedReadOnly(t *testing.T) {
	app := (&App{}).Binders()
	cond := (&If{}).Binders()
	if &app[0] != &cond[0] {
		t.Error("App and If do not share their Binders result")
	}
	e := mkMap(&Var{Name: "f"}, &Var{Name: "A"})
	repl := &Tuple{Elems: []Expr{&Var{Name: "i"}, &Var{Name: "j"}}}
	FreeVars(e)
	IsFree("A", e)
	AlphaEqual(e, Subst(e, "A", repl))
	Subst(&Lam{Param: "i", Body: e}, "f", repl)
	CountNodes(e)
	for i, b := range noBinders {
		if b != nil {
			t.Fatalf("shared Binders entry %d was written: %v", i, b)
		}
	}
}

// oneOfEachNode returns one node of every kind, in Kind order.
func oneOfEachNode() []Expr {
	return []Expr{
		&Var{Name: "x"},
		&Param{Name: "q"},
		&Lam{Param: "x", Body: &Var{Name: "x"}},
		&App{Fn: &Var{Name: "f"}, Arg: &Var{Name: "x"}},
		&Tuple{Elems: []Expr{&NatLit{Val: 1}, &NatLit{Val: 2}}},
		&Proj{I: 1, K: 2, Tuple: &Var{Name: "p"}},
		&Empty{},
		&Singleton{Elem: &NatLit{Val: 1}},
		&Union{L: &Empty{}, R: &Empty{}},
		&BigUnion{Head: &Singleton{Elem: &Var{Name: "x"}}, Var: "x", Over: &Var{Name: "S"}},
		&Get{Set: &Var{Name: "S"}},
		&BoolLit{Val: true},
		&If{Cond: &BoolLit{Val: true}, Then: &NatLit{Val: 1}, Else: &NatLit{Val: 2}},
		&Cmp{Op: OpEq, L: &NatLit{Val: 1}, R: &NatLit{Val: 1}},
		&NatLit{Val: 7},
		&RealLit{Val: 2.5},
		&StringLit{Val: "s"},
		&Arith{Op: OpAdd, L: &NatLit{Val: 1}, R: &NatLit{Val: 2}},
		&Gen{N: &NatLit{Val: 5}},
		&Sum{Head: &Var{Name: "x"}, Var: "x", Over: &Var{Name: "S"}},
		&ArrayTab{Head: &Var{Name: "i"}, Idx: []string{"i"}, Bounds: []Expr{&NatLit{Val: 3}}},
		&Subscript{Arr: &Var{Name: "A"}, Index: &NatLit{Val: 0}},
		&Dim{K: 2, Arr: &Var{Name: "A"}},
		&Index{K: 1, Set: &Var{Name: "S"}},
		&MkArray{Dims: []Expr{&NatLit{Val: 2}}, Elems: []Expr{&NatLit{Val: 1}, &NatLit{Val: 2}}},
		&Bottom{},
		&Empty{Bag: true},
		&Singleton{Elem: &NatLit{Val: 1}, Bag: true},
		&Union{L: &Empty{Bag: true}, R: &Empty{Bag: true}, Bag: true},
		&BigUnion{Head: &Singleton{Elem: &Var{Name: "x"}, Bag: true}, Var: "x", Over: &Var{Name: "B"}, Bag: true},
		&RankUnion{Head: &Singleton{Elem: &Var{Name: "i"}}, Var: "x", RankVar: "i", Over: &Var{Name: "S"}},
		&RankUnion{Head: &Singleton{Elem: &Var{Name: "i"}, Bag: true}, Var: "x", RankVar: "i", Over: &Var{Name: "B"}, Bag: true},
	}
}

func TestWithChildrenRoundTrip(t *testing.T) {
	// For every node type: WithChildren(Children()) must be alpha-equal to
	// the original, and Binders must align with Children.
	exprs := oneOfEachNode()
	if len(exprs) != len(AllNodeNames()) {
		t.Fatalf("test covers %d node types, ast declares %d", len(exprs), len(AllNodeNames()))
	}
	seen := map[string]bool{}
	for i, e := range exprs {
		seen[NodeName(e)] = true
		if k := KindOf(e); k != Kind(i+1) || k.String() != NodeName(e) {
			t.Errorf("%s: KindOf = %d (%s), want %d", NodeName(e), k, k, i+1)
		}
		kids := e.Children()
		if got := e.WithChildren(kids); !AlphaEqual(e, got) {
			t.Errorf("%s: WithChildren(Children()) = %s, not alpha-equal", NodeName(e), got)
		}
		if len(e.Binders()) != len(kids) {
			t.Errorf("%s: Binders/Children misaligned: %d vs %d", NodeName(e), len(e.Binders()), len(kids))
		}
		if e.String() == "" {
			t.Errorf("%s: empty String()", NodeName(e))
		}
	}
	for _, name := range AllNodeNames() {
		if !seen[name] {
			t.Errorf("node %s not covered", name)
		}
	}
}

func TestSize(t *testing.T) {
	e := mkMap(&Var{Name: "f"}, &Var{Name: "A"})
	// ArrayTab + App + Var(f) + Subscript + Var(A) + Var(i) + Dim + Var(A) = 8
	if got := CountNodes(e); got != 8 {
		t.Errorf("CountNodes = %d, want 8", got)
	}
}

func TestFreshNeverCollidesWithSourceNames(t *testing.T) {
	for i := 0; i < 10; i++ {
		f := Fresh("x")
		if !strings.HasPrefix(f, "%") {
			t.Fatalf("fresh name %q lacks the reserved prefix", f)
		}
	}
	a, b := Fresh("x"), Fresh("x")
	if a == b {
		t.Error("fresh names not unique")
	}
}

func TestStringRendering(t *testing.T) {
	e := &ArrayTab{
		Head:   &Subscript{Arr: &Var{Name: "A"}, Index: &Arith{Op: OpMul, L: &Var{Name: "i"}, R: &NatLit{Val: 2}}},
		Idx:    []string{"i"},
		Bounds: []Expr{&Arith{Op: OpDiv, L: &Dim{K: 1, Arr: &Var{Name: "A"}}, R: &NatLit{Val: 2}}},
	}
	want := "[[ A[(i * 2)] | i < (dim_1(A) / 2) ]]"
	if got := e.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

// TestTraversalMatchesChildren checks Open against Children and Binders
// on every node kind and on the variable-width shapes — tuples of 0, 1, 5
// and 17 elements, tabulations of 1 to 6 bounds, array literals inside and
// beyond the inline buffer — and that Open allocates nothing for a node
// that fits it.
func TestTraversalMatchesChildren(t *testing.T) {
	nats := func(n int) []Expr {
		out := make([]Expr, n)
		for i := range out {
			out[i] = &NatLit{Val: int64(i)}
		}
		return out
	}
	exprs := oneOfEachNode()
	for _, n := range []int{0, 1, 5, 17} {
		exprs = append(exprs, &Tuple{Elems: nats(n)})
	}
	for k := 1; k <= 6; k++ {
		idx := make([]string, k)
		for j := range idx {
			idx[j] = fmt.Sprintf("i%d", j)
		}
		exprs = append(exprs, &ArrayTab{Head: &Var{Name: "i0"}, Idx: idx, Bounds: nats(k)})
	}
	exprs = append(exprs,
		&MkArray{Dims: nats(2), Elems: nats(4)},
		&MkArray{Dims: nats(1), Elems: nats(12)})
	for _, e := range exprs {
		var buf Buf
		kids, binders := Open(e, &buf)
		wantKids, wantBinders := e.Children(), e.Binders()
		if len(kids) != len(wantKids) || len(binders) != len(wantBinders) || len(kids) != len(binders) {
			t.Errorf("%s: Open gives %d children, %d binders; Children %d, Binders %d",
				e, len(kids), len(binders), len(wantKids), len(wantBinders))
			continue
		}
		for i := range kids {
			if kids[i] != wantKids[i] {
				t.Errorf("%s: child %d is %s, Children has %s", e, i, kids[i], wantKids[i])
			}
			if !slices.Equal(binders[i], wantBinders[i]) {
				t.Errorf("%s: child %d bound by %v, Binders says %v", e, i, binders[i], wantBinders[i])
			}
		}
		if !fitsBuf(e) {
			continue
		}
		if got := testing.AllocsPerRun(10, func() { Open(e, &buf) }); got != 0 {
			t.Errorf("%s: Open allocates %.0f times", e, got)
		}
	}
}

// fitsBuf reports whether Open serves e without allocating.
func fitsBuf(e Expr) bool {
	switch n := e.(type) {
	case *Tuple:
		return len(n.Elems) <= len(noBinders)
	case *ArrayTab:
		return len(n.Bounds) < bufLen
	case *MkArray:
		return len(n.Dims)+len(n.Elems) <= bufLen
	}
	return true
}
