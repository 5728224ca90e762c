package exchange

import (
	"errors"
	"strings"
	"testing"
)

// nest wraps inner in depth tuple levels, each a pair so none collapses.
func nest(depth int, inner string) string {
	return strings.Repeat("(1, ", depth) + inner + strings.Repeat(")", depth)
}

func TestReadStringLimitsDepth(t *testing.T) {
	// Set, tuple, bag and array each add a level: MaxDepth-4 tuples around
	// them is exactly MaxDepth.
	src := nest(MaxDepth-4, "{(1, {|[[7]]|})}")
	if _, err := ReadString(src); err != nil {
		t.Fatalf("at the bound: %v", err)
	}
	_, err := ReadString(nest(1, src))
	var le *LimitError
	if !errors.As(err, &le) || le.Kind != "depth" || le.Limit != MaxDepth {
		t.Fatalf("over the bound: got %v, want depth LimitError at %d", err, MaxDepth)
	}
}

// TestReadLimitsDeepNesting: a pathological deeply left-nested input must be
// rejected by the depth guard rather than exhausting the parser's stack.
func TestReadLimitsDeepNesting(t *testing.T) {
	src := strings.Repeat("(", 100_000) + "1" + strings.Repeat(", 2)", 100_000)
	for _, read := range []func() error{
		func() error { _, err := ReadString(src); return err },
		func() error { _, err := Read(strings.NewReader(src)); return err },
	} {
		var le *LimitError
		if err := read(); !errors.As(err, &le) || le.Kind != "depth" || le.Limit != MaxDepth {
			t.Fatalf("got %v, want depth LimitError at %d", err, MaxDepth)
		}
	}
}
