package types

import "fmt"

// Unifier solves equations between types by union-find. A variable is a
// node; unifying an unbound variable with a type links the variable to that
// type's root, with no union by rank, so every variable's representative
// is the type a substitution extended at the same step would bind it to,
// and the solved types and the names of the variables left unbound are
// those of a substitution. A variable is unbound again only if the Unify
// that linked it fails.
//
// A Unifier links the variables it is given in place, so it must only be
// given types whose variables belong to the inference it serves: copy a
// shared type with a Renamer first.
type Unifier struct {
	trail []*Type // the variables the current Unify call linked, in order
}

// Unify links variables so that a and b become equal, or returns an error
// describing the first structural mismatch and leaves every variable as it
// was before the call.
func (u *Unifier) Unify(a, b *Type) error {
	u.trail = u.trail[:0]
	return u.unify(a, b)
}

func (u *Unifier) unify(a, b *Type) error {
	a, b = a.Root(), b.Root()
	if a == b {
		return nil
	}
	if a.Kind == KindVar {
		if occurs(a, b) {
			return fmt.Errorf("occurs check: %s in %s", a, b)
		}
		a.link = b
		u.trail = append(u.trail, a)
		return nil
	}
	if b.Kind == KindVar {
		return u.unify(b, a)
	}
	if a.Kind != b.Kind || a.Name != b.Name || a.Dims != b.Dims || len(a.Elts) != len(b.Elts) {
		return fmt.Errorf("cannot unify %s with %s", a, b)
	}
	mark := len(u.trail)
	for i := range a.Elts {
		if err := u.unify(a.Elts[i], b.Elts[i]); err != nil {
			// Print a and b as they were when this level began.
			u.undo(mark)
			return fmt.Errorf("%w (while unifying %s with %s)", err, a, b)
		}
	}
	return nil
}

// undo unlinks the variables linked since the trail was mark long.
func (u *Unifier) undo(mark int) {
	for _, v := range u.trail[mark:] {
		v.link = nil
	}
	u.trail = u.trail[:mark]
}

// occurs reports whether the unbound variable v occurs in t.
func occurs(v, t *Type) bool {
	if t = t.Root(); t == v {
		return true
	}
	for _, e := range t.Elts {
		if occurs(v, e) {
			return true
		}
	}
	return false
}

// Resolve returns t with every linked variable replaced by what it is
// linked to, all the way down: the solved form of t, which no later
// unification changes. It returns t itself when t has no linked variable.
func Resolve(t *Type) *Type {
	t = t.Root()
	var elts []*Type // allocated at the first component that changes
	for i, e := range t.Elts {
		r := Resolve(e)
		if r == e {
			continue
		}
		if elts == nil {
			elts = append([]*Type(nil), t.Elts...)
		}
		elts[i] = r
	}
	if elts == nil {
		return t
	}
	return &Type{Kind: t.Kind, Name: t.Name, Elts: elts, Dims: t.Dims}
}

// Renamer copies types, replacing each variable by the one fresh makes for
// its name on first sight, so every occurrence of a name, in one type or in
// several, gets the same replacement. Ground subtrees are shared, not
// copied. A nil fresh copies each variable under its own name.
type Renamer struct {
	seen []renaming
}

type renaming struct{ from, to *Type }

// Apply returns the copy of t.
func (r *Renamer) Apply(t *Type, fresh func() *Type) *Type {
	t = t.Root()
	if t.Kind == KindVar {
		for _, s := range r.seen {
			if sameName(s.from, t) {
				return s.to
			}
		}
		to := &Type{Kind: KindVar, Name: t.Name, num: t.num}
		if fresh != nil {
			to = fresh()
		}
		r.seen = append(r.seen, renaming{from: t, to: to})
		return to
	}
	var elts []*Type // allocated at the first component that changes
	for i, e := range t.Elts {
		n := r.Apply(e, fresh)
		if n == e {
			continue
		}
		if elts == nil {
			elts = append([]*Type(nil), t.Elts...)
		}
		elts[i] = n
	}
	if elts == nil {
		return t
	}
	return &Type{Kind: t.Kind, Name: t.Name, Elts: elts, Dims: t.Dims}
}
