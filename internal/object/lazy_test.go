package object

import (
	"context"
	"errors"
	"testing"
)

var errFlaky = errors.New("flaky backing: injected fault")

// flakyBacking serves Nat(off) and fails its first fails reads (a Cell or a
// CellRange each count as one).
type flakyBacking struct {
	size, fails int
}

func (b *flakyBacking) Size() int { return b.size }

func (b *flakyBacking) read() error {
	if b.fails > 0 {
		b.fails--
		return errFlaky
	}
	return nil
}

func (b *flakyBacking) Cell(_ context.Context, off int) (Value, error) {
	if err := b.read(); err != nil {
		return Value{}, err
	}
	return Nat(int64(off)), nil
}

// CellRange reads cell by cell, so a fault can land anywhere in the range.
func (b *flakyBacking) CellRange(ctx context.Context, start, n int) ([]Value, error) {
	out := make([]Value, n)
	for i := range out {
		c, err := b.Cell(ctx, start+i)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// rangeFlakyBacking reads a range in one call, which fails or succeeds whole.
type rangeFlakyBacking struct{ flakyBacking }

func (b *rangeFlakyBacking) CellRange(_ context.Context, start, n int) ([]Value, error) {
	if err := b.read(); err != nil {
		return nil, err
	}
	out := make([]Value, n)
	for i := range out {
		out[i] = Nat(int64(start + i))
	}
	return out, nil
}

// TestLazyMaterializeRetriesAfterFailure: a materialization that fails is
// not remembered. The failing call reports the backing's error, and the next
// access, cell or whole array, reads through the backing again and succeeds.
func TestLazyMaterializeRetriesAfterFailure(t *testing.T) {
	for _, tc := range []struct {
		name    string
		backing ArrayBacking
	}{
		{"cell backing", &flakyBacking{size: 6, fails: 1}},
		{"range backing", &rangeFlakyBacking{flakyBacking{size: 6, fails: 1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v, err := LazyArray([]int{2, 3}, tc.backing)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := v.Cells(); !errors.Is(err, errFlaky) {
				t.Fatalf("first materialization: err = %v, want the injected fault", err)
			}
			c, err := v.CellAtCtx(context.Background(), 4)
			if err != nil || c.N != 4 {
				t.Fatalf("cell after a failed materialization = %v, %v; want 4", c, err)
			}
			cells, err := v.Cells()
			if err != nil || len(cells) != 6 || cells[5].N != 5 {
				t.Fatalf("materialization retried = %v, %v; want 6 cells", cells, err)
			}
		})
	}
}
