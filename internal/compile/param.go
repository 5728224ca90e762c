package compile

import "github.com/aqldb/aql/internal/object"

// paramTable assigns each $name placeholder of a program a stable index
// into the per-execution argument frame (execution.args). The table is built
// during the resolve pass and shared — by pointer — between the top-level
// compiler of each profiling level and every lambda-body sub-compiler, so
// one name means one index everywhere in the program.
//
// The table is immutable after compilation: executions only read it, which
// is what makes one prepared Program safe to Execute concurrently with
// different argument frames.
type paramTable struct {
	names []string
	index map[string]int
}

// slot returns the frame index of name, assigning the next one on first use.
func (t *paramTable) slot(name string) int {
	if i, ok := t.index[name]; ok {
		return i
	}
	if t.index == nil {
		t.index = map[string]int{}
	}
	i := len(t.names)
	t.names = append(t.names, name)
	t.index[name] = i
	return i
}

// resolve builds the argument frame for one execution: values land at their
// table index, with explicit presence flags (the zero object.Value is not a
// usable sentinel). Names the program never mentions are ignored here —
// strict unknown-argument rejection is the caller's job (the server and the
// Go API both validate against ParamNames before executing).
func (t *paramTable) resolve(args map[string]object.Value) (vals []object.Value, ok []bool) {
	if t == nil || len(t.names) == 0 || len(args) == 0 {
		return nil, nil
	}
	vals = make([]object.Value, len(t.names))
	ok = make([]bool, len(t.names))
	for name, v := range args {
		if i, found := t.index[name]; found {
			vals[i] = v
			ok[i] = true
		}
	}
	return vals, ok
}
