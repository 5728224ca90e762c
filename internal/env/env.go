// Package env implements the AQL top-level environment (section 4.1 of the
// paper): the registries that make the system open. External primitives,
// data readers and writers, macros, vals, and optimizer rules can all be
// added at runtime, mirroring the paper's RegisterCO and registration
// routines.
//
// An Env is safe for concurrent use: mutations take a write lock, lookups a
// read lock. Each primitive and val is an immutable record (Global); a
// binding makes a new one. The optimizer is one too: registering a rule
// replaces it with an extended copy (opt.Optimizer.WithRule). A plan keeps
// the records its query names and the optimizer in force (Expand reads them
// under one lock), and stays current while each name resolves alike and no
// mutation but a val binding has landed (Current): rebinding a val, `it`
// included, stales only the plans that read it.
package env

import (
	"fmt"
	"maps"
	"sort"
	"sync"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/opt"
	"github.com/aqldb/aql/internal/prim"
	"github.com/aqldb/aql/internal/types"
)

// ItName is the val bare queries and prepared executions bind results to.
const ItName = "it"

// Reader inputs a complex object given a parameter object — the
// counterpart of the paper's `readval V using READER at E` (section 4.1).
type Reader func(arg object.Value) (object.Value, error)

// Writer outputs a complex object given a parameter object — the
// counterpart of `writeval E using WRITER at E'`.
type Writer func(arg, data object.Value) error

// Global is one primitive or val binding, never changed once made: two
// lookups of a name that return the same record saw the same binding.
type Global struct {
	Value object.Value
	Type  *types.Type
}

// macro is a macro body with the free names it brings into a query.
type macro struct {
	body ast.Expr
	free map[string]bool
}

// Env is the AQL top-level environment.
type Env struct {
	mu sync.RWMutex
	// epoch counts every mutation, structural those other than val bindings.
	epoch, structural uint64
	prims, vals       map[string]*Global
	macros            map[string]macro
	readers           map[string]Reader
	writers           map[string]Writer

	// Optimizer is the rule base in force, replaced (never changed) by
	// AddRule. Plans read it through Expand's Bindings and Session.Optimize
	// through CurrentOptimizer; a direct read is only for code that never
	// races a registration (benchmarks and tests).
	Optimizer *opt.Optimizer
}

// New returns an environment with the derived-operator builtins (min, max,
// member, not, count), the standard external primitive library (heatindex,
// sunset, scalar math), and the standard optimizer. Callers add macros and
// readers on top (package repl registers the standard macros and the
// NetCDF readers).
func New() *Env {
	e := &Env{
		prims:     map[string]*Global{},
		vals:      map[string]*Global{},
		macros:    map[string]macro{},
		readers:   map[string]Reader{},
		writers:   map[string]Writer{},
		Optimizer: opt.New(),
	}
	builtins := eval.Builtins()
	for name, typ := range map[string]string{
		"min": "{'a} -> 'a", "max": "{'a} -> 'a", "member": "'a * {'a} -> bool",
		"not": "bool -> bool", "count": "{'a} -> nat", "rank": "{'a} -> {'a * nat}",
	} {
		e.prims[name] = &Global{Value: builtins[name], Type: types.MustParse(typ)}
	}
	for _, p := range prim.Standard() {
		e.prims[p.Name] = &Global{Value: p.Fn, Type: p.Type}
	}
	return e
}

// Epoch returns the environment's counter of mutations of every kind.
func (e *Env) Epoch() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.epoch
}

// mutate runs f under the write lock as one mutation, structural or not.
func (e *Env) mutate(structural bool, f func()) {
	e.mu.Lock()
	defer e.mu.Unlock()
	f()
	e.epoch++
	if structural {
		e.structural++
	}
}

// RegisterPrimitive makes an external function available to queries under
// the given name with the given declared type — the paper's RegisterCO. Both
// engines hand fn its argument materialized (eval.Materialize): no lazy
// array reaches it, so it reads cells from Elems.
func (e *Env) RegisterPrimitive(name string, fn func(object.Value) (object.Value, error), typ *types.Type) error {
	if typ == nil || typ.Kind != types.KindFunc {
		return fmt.Errorf("env: primitive %q needs a function type, got %v", name, typ)
	}
	e.mutate(true, func() { e.prims[name] = &Global{Value: object.Func(fn), Type: typ} })
	return nil
}

// RegisterReader registers a data reader under the given name.
func (e *Env) RegisterReader(name string, r Reader) {
	e.mutate(true, func() { e.readers[name] = r })
}

// RegisterWriter registers a data writer under the given name. A writer is
// handed its data materialized, read under the writeval statement's
// execution: no lazy array reaches it.
func (e *Env) RegisterWriter(name string, w Writer) {
	e.mutate(true, func() { e.writers[name] = w })
}

// AddRule puts in force an optimizer with r appended to the named phase
// (opt.Optimizer.WithRule), as a structural mutation: no plan optimized
// without the rule stays current.
func (e *Env) AddRule(phase string, r opt.Rule) {
	e.mutate(true, func() { e.Optimizer = e.Optimizer.WithRule(phase, r) })
}

// CurrentOptimizer returns the optimizer in force, for a rewrite that makes
// no plan; a plan takes its optimizer from the Bindings it read.
func (e *Env) CurrentOptimizer() *opt.Optimizer {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.Optimizer
}

// Reader returns the named reader.
func (e *Env) Reader(name string) (Reader, error) { return registered(e, e.readers, "reader", name) }

// Writer returns the named writer.
func (e *Env) Writer(name string) (Writer, error) { return registered(e, e.writers, "writer", name) }

func registered[T any](e *Env, m map[string]T, kind, name string) (T, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	f, ok := m[name]
	if !ok {
		return f, fmt.Errorf("env: no %s registered as %q", kind, name)
	}
	return f, nil
}

// SetVal binds a complex object to a top-level name with its type.
func (e *Env) SetVal(name string, v object.Value, typ *types.Type) {
	e.mutate(false, func() { e.vals[name] = &Global{Value: v, Type: typ} })
}

// Val returns a top-level val.
func (e *Env) Val(name string) (object.Value, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if g, ok := e.vals[name]; ok {
		return g.Value, true
	}
	return object.Value{}, false
}

// DefineMacro records a core-calculus query under a name; macros are
// substituted into later queries before optimization (section 4.1). The
// body must already be macro-free (repl expands macros at definition time).
func (e *Env) DefineMacro(name string, body ast.Expr) {
	m := macro{body: body, free: ast.FreeVars(body)}
	e.mutate(true, func() { e.macros[name] = m })
}

// ExpandMacros is Expand without the bindings.
func (e *Env) ExpandMacros(query ast.Expr) ast.Expr {
	query, _ = e.Expand(query)
	return query
}

// Expand substitutes macro bodies for free occurrences of macro names in the
// query and, under the same read lock, resolves every global the expanded
// query names and takes the optimizer in force. Macro bodies are themselves
// macro-free, so one pass over the query's free names suffices, and a
// substituted body brings its own.
func (e *Env) Expand(query ast.Expr) (ast.Expr, *Bindings) {
	free := ast.FreeVars(query)
	e.mu.RLock()
	defer e.mu.RUnlock()
	b := &Bindings{structural: e.structural, opt: e.Optimizer, read: make(map[string]*Global, len(free))}
	var names []string
	for name := range free {
		m, ok := e.macros[name]
		if !ok {
			b.read[name] = e.lookup(name)
			continue
		}
		names = append(names, name)
		for g := range m.free {
			b.read[g] = e.lookup(g)
		}
	}
	sort.Strings(names) // deterministic expansion order
	for _, name := range names {
		query = ast.Subst(query, name, e.macros[name].body)
	}
	return query, b
}

// Resolve adds to b, and returns, each of names that b has not read yet; a
// nil b starts empty. Only b's builder may call it, before b is shared.
func (e *Env) Resolve(b *Bindings, names map[string]bool) *Bindings {
	if b == nil {
		b = &Bindings{read: make(map[string]*Global, len(names))}
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	for name := range names {
		if _, ok := b.read[name]; !ok {
			b.read[name] = e.lookup(name)
		}
	}
	return b
}

// lookup resolves a global name, a val shadowing a primitive; nil when the
// name is unbound. The caller holds the lock.
func (e *Env) lookup(name string) *Global {
	if g, ok := e.vals[name]; ok {
		return g
	}
	return e.prims[name]
}

// Current reports whether b still holds: no structural mutation since it was
// resolved, and every name it read resolving to the same record (or none).
func (e *Env) Current(b *Bindings) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if b.structural != e.structural {
		return false
	}
	for name, g := range b.read {
		if e.lookup(name) != g {
			return false
		}
	}
	return true
}

// Bindings is what one plan read of the environment: the record each name
// it names resolved to (nil: unbound), the structural epoch then, and the
// optimizer in force at that epoch.
type Bindings struct {
	structural uint64
	opt        *opt.Optimizer
	read       map[string]*Global
}

// Optimizer returns the optimizer in force when b was read by Expand.
func (b *Bindings) Optimizer() *opt.Optimizer { return b.opt }

// Values returns the bound values by name, as a fresh map.
func (b *Bindings) Values() map[string]object.Value {
	return project(b, func(g *Global) object.Value { return g.Value })
}

// Types returns the bound types by name, as a fresh map.
func (b *Bindings) Types() map[string]*types.Type {
	return project(b, func(g *Global) *types.Type { return g.Type })
}

func project[T any](b *Bindings, field func(*Global) T) map[string]T {
	out := make(map[string]T, len(b.read))
	for name, g := range b.read {
		if g != nil {
			out[name] = field(g)
		}
	}
	return out
}

// Globals returns every primitive and val by name, as a fresh map (callers
// must still not modify the Values, which are shared).
func (e *Env) Globals() map[string]object.Value { return e.all().Values() }

// GlobalTypes returns every primitive's and val's type by name, as a fresh
// map. Macros are substituted before typechecking, so none is included.
func (e *Env) GlobalTypes() map[string]*types.Type { return e.all().Types() }

// all reads every global, vals shadowing primitives.
func (e *Env) all() *Bindings {
	e.mu.RLock()
	defer e.mu.RUnlock()
	b := &Bindings{read: maps.Clone(e.prims)}
	maps.Copy(b.read, e.vals)
	return b
}

// Names returns all defined names (primitives, vals, macros), sorted; used
// by the REPL for diagnostics.
func (e *Env) Names() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var names []string
	for _, m := range []map[string]*Global{e.prims, e.vals} {
		for k := range m {
			names = append(names, k)
		}
	}
	for k := range e.macros {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
