// Package env implements the AQL top-level environment (section 4.1 of the
// paper): the registries that make the system open. External primitives,
// data readers and writers, macros, vals, and optimizer rules can all be
// added at runtime, mirroring the paper's RegisterCO and registration
// routines.
//
// An Env is safe for concurrent use: registrations and val bindings take a
// write lock, lookups and the Globals/GlobalTypes snapshots a read lock.
// Every mutation bumps a monotone epoch counter. A kept plan records the
// epoch it was prepared under (repl.Plan.Current compares it), so a `val`
// rebinding or a new reader registration makes stale exactly the plans whose
// global snapshot it could have changed. Bindings of `it`, which every bare
// query and prepared execution makes, are counted apart (PlanEpoch) so that
// a plan which does not read `it` outlives them.
package env

import (
	"fmt"
	"sort"
	"sync"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/opt"
	"github.com/aqldb/aql/internal/prim"
	"github.com/aqldb/aql/internal/types"
)

// ItName is the val a bare query's or a prepared execution's result is bound
// to.
const ItName = "it"

// Reader inputs a complex object given a parameter object — the
// counterpart of the paper's `readval V using READER at E` (section 4.1).
type Reader func(arg object.Value) (object.Value, error)

// Writer outputs a complex object given a parameter object — the
// counterpart of `writeval E using WRITER at E'`.
type Writer func(arg, data object.Value) error

// Env is the AQL top-level environment.
type Env struct {
	mu    sync.RWMutex
	epoch uint64
	// itBinds is how many of epoch's bumps were bindings of ItName.
	itBinds   uint64
	prims     map[string]object.Value
	primTypes map[string]*types.Type
	vals      map[string]object.Value
	valTypes  map[string]*types.Type
	macros    map[string]ast.Expr
	macroType map[string]*types.Type
	readers   map[string]Reader
	writers   map[string]Writer

	// Optimizer is the query optimizer; its rule bases are extensible via
	// Optimizer.AddRule.
	Optimizer *opt.Optimizer
}

// New returns an environment with the derived-operator builtins (min, max,
// member, not, count), the standard external primitive library (heatindex,
// sunset, scalar math), and the standard optimizer. Callers add macros and
// readers on top (package repl registers the standard macros and the
// NetCDF readers).
func New() *Env {
	e := &Env{
		prims:     map[string]object.Value{},
		primTypes: map[string]*types.Type{},
		vals:      map[string]object.Value{},
		valTypes:  map[string]*types.Type{},
		macros:    map[string]ast.Expr{},
		macroType: map[string]*types.Type{},
		readers:   map[string]Reader{},
		writers:   map[string]Writer{},
		Optimizer: opt.New(),
	}
	for name, fn := range eval.Builtins() {
		e.prims[name] = fn
	}
	e.primTypes["min"] = types.MustParse("{'a} -> 'a")
	e.primTypes["max"] = types.MustParse("{'a} -> 'a")
	e.primTypes["member"] = types.MustParse("'a * {'a} -> bool")
	e.primTypes["not"] = types.MustParse("bool -> bool")
	e.primTypes["count"] = types.MustParse("{'a} -> nat")
	e.primTypes["rank"] = types.MustParse("{'a} -> {'a * nat}")
	for _, p := range prim.Standard() {
		e.prims[p.Name] = p.Fn
		e.primTypes[p.Name] = p.Type
	}
	return e
}

// Epoch returns the environment's mutation counter. It increases on every
// registration or val binding, so two equal epochs bracket a window in
// which Globals/GlobalTypes snapshots were identical.
func (e *Env) Epoch() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.epoch
}

// PlanEpoch returns the mutation counter a prepared plan is valid under: the
// full epoch for a plan that reads ItName, and the epoch less the bindings
// of ItName for one that does not. Both are monotone; a plan is current
// while the counter for its kind still equals the one read before its
// globals snapshot was taken.
func (e *Env) PlanEpoch(readsIt bool) uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if readsIt {
		return e.epoch
	}
	return e.epoch - e.itBinds
}

// RegisterPrimitive makes an external function available to queries under
// the given name with the given declared type — the paper's RegisterCO. Both
// engines hand fn its argument materialized (eval.Materialize): no lazy
// array reaches it, so it reads cells from Elems.
func (e *Env) RegisterPrimitive(name string, fn func(object.Value) (object.Value, error), typ *types.Type) error {
	if typ == nil || typ.Kind != types.KindFunc {
		return fmt.Errorf("env: primitive %q needs a function type, got %v", name, typ)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.prims[name] = object.Func(fn)
	e.primTypes[name] = typ
	e.epoch++
	return nil
}

// RegisterReader registers a data reader under the given name.
func (e *Env) RegisterReader(name string, r Reader) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.readers[name] = r
	e.epoch++
}

// RegisterWriter registers a data writer under the given name. A writer is
// handed its data materialized, read under the writeval statement's
// execution: no lazy array reaches it.
func (e *Env) RegisterWriter(name string, w Writer) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.writers[name] = w
	e.epoch++
}

// Reader returns the named reader.
func (e *Env) Reader(name string) (Reader, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	r, ok := e.readers[name]
	if !ok {
		return nil, fmt.Errorf("env: no reader registered as %q", name)
	}
	return r, nil
}

// Writer returns the named writer.
func (e *Env) Writer(name string) (Writer, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	w, ok := e.writers[name]
	if !ok {
		return nil, fmt.Errorf("env: no writer registered as %q", name)
	}
	return w, nil
}

// SetVal binds a complex object to a top-level name with its type.
func (e *Env) SetVal(name string, v object.Value, typ *types.Type) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.vals[name] = v
	e.valTypes[name] = typ
	e.epoch++
	if name == ItName {
		e.itBinds++
	}
}

// Val returns a top-level val.
func (e *Env) Val(name string) (object.Value, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	v, ok := e.vals[name]
	return v, ok
}

// DefineMacro records a core-calculus query under a name; macros are
// substituted into later queries before optimization (section 4.1). The
// body must already be macro-free (repl expands macros at definition time).
func (e *Env) DefineMacro(name string, body ast.Expr, typ *types.Type) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.macros[name] = body
	e.macroType[name] = typ
	e.epoch++
}

// Macro returns a macro body.
func (e *Env) Macro(name string) (ast.Expr, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	m, ok := e.macros[name]
	return m, ok
}

// ExpandMacros substitutes macro bodies for free occurrences of macro names
// in the query. Macro bodies are themselves macro-free, so a single pass
// over the free variables suffices.
func (e *Env) ExpandMacros(query ast.Expr) ast.Expr {
	e.mu.RLock()
	defer e.mu.RUnlock()
	free := ast.FreeVars(query)
	names := make([]string, 0, len(free))
	for name := range free {
		if _, ok := e.macros[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names) // deterministic expansion order
	for _, name := range names {
		query = ast.Subst(query, name, e.macros[name])
	}
	return query
}

// Globals returns the evaluation environment: primitives and vals. The
// returned map is a fresh snapshot; mutating the Env afterwards does not
// change it (callers must still not modify it, as the Values are shared).
func (e *Env) Globals() map[string]object.Value {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make(map[string]object.Value, len(e.prims)+len(e.vals))
	for k, v := range e.prims {
		out[k] = v
	}
	for k, v := range e.vals {
		out[k] = v
	}
	return out
}

// GlobalTypes returns the typechecking environment for primitives and
// vals. Macro names are not included: macros are substituted before
// typechecking.
func (e *Env) GlobalTypes() map[string]*types.Type {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make(map[string]*types.Type, len(e.primTypes)+len(e.valTypes))
	for k, v := range e.primTypes {
		out[k] = v
	}
	for k, v := range e.valTypes {
		out[k] = v
	}
	return out
}

// Names returns all defined names (primitives, vals, macros), sorted; used
// by the REPL for diagnostics.
func (e *Env) Names() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var names []string
	for k := range e.prims {
		names = append(names, k)
	}
	for k := range e.vals {
		names = append(names, k)
	}
	for k := range e.macros {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
