package exchange

import (
	"strings"
	"testing"

	"github.com/aqldb/aql/internal/object"
)

// FuzzReadString asserts the exchange parser never panics, that any value
// it accepts survives a write → read round trip, that the written text w
// is a fixed point (WriteString(ReadString(w)) == w), and that the input as
// a ⊥ diagnostic in a tuple survives a round trip too.
func FuzzReadString(f *testing.F) {
	seeds := []string{
		`{25, 27, 28}`,
		`[[0, 31, 28]]`,
		`[[2, 2; 1, 2, 3, 4]]`,
		`(67.3, true, "x")`,
		`{|1, 1|}`,
		`_|_`,
		`b#"lit"`,
		`{(1, {2}), (3, {})}`,
		`(* c *) 1`,
		`[[`, `{`, `((`, `1e999`, `-`, `#`, `"`,
		`a *) b`, `x (* y`,
		"1_000", "+3", "0x1p4", ".5", "3.", "-0", "1_0.5",
		`nat#"3"`, `1#"x"`, `-#"x"`, "\xe9#\"x\"", `é#"x"`,
		"{1,\xa02}", "{1,\x852}", "[[1000000000; 1]]",
		strings.Repeat("(", MaxDepth+1) + "1" + strings.Repeat(")", MaxDepth+1),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		diag := object.Tuple(object.Bottom(src), object.Nat(1))
		out, err := WriteString(diag)
		if err != nil {
			t.Fatalf("cannot write ⊥ diagnostic %q: %v", src, err)
		}
		if back, err := ReadString(out); err != nil || !object.Equal(diag, back) {
			t.Fatalf("⊥ diagnostic %q wrote %q, which re-reads as %s, %v", src, out, back, err)
		}
		v, err := ReadString(src)
		if err != nil {
			return
		}
		out, err = WriteString(v)
		if err != nil {
			t.Fatalf("accepted %q but cannot write %s: %v", src, v, err)
		}
		back, err := ReadString(out)
		if err != nil {
			t.Fatalf("round trip of %q failed at re-read %q: %v", src, out, err)
		}
		if !object.Equal(v, back) {
			t.Fatalf("round trip of %q changed the value: %s vs %s", src, v, back)
		}
		// What the writer produces, the reader reads back to the same text.
		if again, err := WriteString(back); err != nil || again != out {
			t.Fatalf("write of %q is no fixed point: %q then %q, %v", src, out, again, err)
		}
	})
}
