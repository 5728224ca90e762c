package aql

import (
	"context"
	"fmt"
	"math"

	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/repl"
)

// BindError is the typed error for prepared-statement argument failures: a
// placeholder left unbound, an argument naming no placeholder, a Go value
// with no AQL scalar representation, or a type mismatch against the
// placeholder's inferred type. Unwrap with errors.As.
type BindError = repl.BindError

// Stmt is a prepared parameterized statement: an AQL template whose $name
// placeholders are typed holes, compiled once through the whole pipeline
// (parse, desugar, macros, typecheck, optimize, codegen) and executable many
// times with different arguments. On the compiled engine all executions
// share one immutable program; each Exec gets its own argument frame,
// counters and budgets, so concurrent Exec calls are safe. An execution is
// observable like a bare query: its report (Session.LastReport) carries the
// work counters, the lazy-array I/O it caused, and, at a profiling level
// above "off", the operator span tree with its parallel-worker records,
// under the session's limits and worker cap.
type Stmt struct {
	p *repl.Prepared
}

// Prepare compiles tmpl as a parameterized statement. Placeholder types are
// inferred at prepare time — `$i < len!A` types $i as nat — so a mismatched
// argument later is a *BindError, never a runtime surprise. A template with
// no placeholders is simply a statement prepared for cheap re-execution.
func (s *Session) Prepare(tmpl string) (*Stmt, error) {
	p, err := s.s.Prepare(tmpl)
	if err != nil {
		return nil, err
	}
	return &Stmt{p: p}, nil
}

// ParamNames returns the statement's placeholder names, sorted.
func (st *Stmt) ParamNames() []string { return st.p.ParamNames() }

// Type returns the statement's inferred result type.
func (st *Stmt) Type() *Type { return st.p.Type }

// Exec runs the statement with args as its argument frame and returns the
// result (also bound to `it`). Arguments accept Go natives — int kinds map
// to nat (negative values, and unsigned ones beyond 2^63 - 1, are a
// *BindError; use a float for reals), float32
// and float64 to real, string to string, bool to bool — or any Value for
// structured arguments. Binding is strict: every placeholder must be bound,
// every argument must name a placeholder, and every value must unify with
// the placeholder's inferred type; violations are *BindError.
//
// If the session's environment changed under the statement since Prepare —
// a rebinding of a val it reads (`it`, which every Exec and bare query
// binds, included), a macro definition, a rule or a registration — Exec
// transparently re-prepares against the current globals first.
func (st *Stmt) Exec(ctx context.Context, args map[string]any) (Value, error) {
	frame := make(map[string]object.Value, len(args))
	for name, a := range args {
		v, err := toValue(name, a)
		if err != nil {
			return Value{}, err
		}
		frame[name] = v
	}
	return st.p.Exec(ctx, frame)
}

// toValue converts one Go-native argument to a complex object.
func toValue(name string, a any) (object.Value, error) {
	switch x := a.(type) {
	case object.Value:
		return x, nil
	case bool:
		return object.Bool(x), nil
	case string:
		return object.String_(x), nil
	case float64:
		return object.Real(x), nil
	case float32:
		return object.Real(float64(x)), nil
	case int:
		return natArg(name, int64(x))
	case int8:
		return natArg(name, int64(x))
	case int16:
		return natArg(name, int64(x))
	case int32:
		return natArg(name, int64(x))
	case int64:
		return natArg(name, x)
	case uint:
		return uintArg(name, uint64(x))
	case uint8:
		return object.Nat(int64(x)), nil
	case uint16:
		return object.Nat(int64(x)), nil
	case uint32:
		return object.Nat(int64(x)), nil
	case uint64:
		return uintArg(name, x)
	}
	return object.Value{}, &BindError{Name: name,
		Msg: fmt.Sprintf("argument $%s: no AQL representation for Go type %T", name, a)}
}

// natArg maps a signed integer to nat, rejecting negatives (AQL naturals
// are non-negative; reals carry sign).
func natArg(name string, n int64) (object.Value, error) {
	if n < 0 {
		return object.Value{}, &BindError{Name: name,
			Msg: fmt.Sprintf("argument $%s: naturals are non-negative, got %d (bind a real for signed values)", name, n)}
	}
	return object.Nat(n), nil
}

// uintArg maps an unsigned integer to nat, rejecting values beyond the
// largest nat (2^63 - 1).
func uintArg(name string, n uint64) (object.Value, error) {
	if n > math.MaxInt64 {
		return object.Value{}, &BindError{Name: name,
			Msg: fmt.Sprintf("argument $%s: %d exceeds the largest nat, %d", name, n, int64(math.MaxInt64))}
	}
	return object.Nat(int64(n)), nil
}
