package amie

import (
	"github.com/remi-kb/remi/internal/kb"
)

// evaluator answers conjunctive queries over the KB by backtracking joins,
// the workhorse behind support and confidence computation.
type evaluator struct {
	k *kb.KB
}

// matchesWithX reports whether the body has at least one match with the
// head variable bound to t.
func (ev evaluator) matchesWithX(r Rule, t kb.EntID) bool {
	binding := make([]kb.EntID, r.NumVars) // 0 = unbound
	binding[0] = t
	return ev.backtrack(r.Body, binding, nil)
}

// xBindings returns the distinct bindings of the head variable x that
// satisfy the body. limit > 0 stops early once more than limit bindings are
// found (enough to reject confidence thresholds cheaply); the returned
// slice is sorted.
func (ev evaluator) xBindings(r Rule, limit int, abort func() bool) []kb.EntID {
	seen := make(map[kb.EntID]struct{})
	binding := make([]kb.EntID, r.NumVars)
	// Enumerate candidate x values from the most selective atom mentioning x.
	cands := ev.xCandidates(r)
	for _, x := range cands {
		if abort != nil && abort() {
			break
		}
		if _, dup := seen[x]; dup {
			continue
		}
		binding[0] = x
		for i := 1; i < len(binding); i++ {
			binding[i] = 0
		}
		if ev.backtrack(r.Body, binding, abort) {
			seen[x] = struct{}{}
			if limit > 0 && len(seen) > limit {
				break
			}
		}
	}
	out := make([]kb.EntID, 0, len(seen))
	for x := range seen {
		out = append(out, x)
	}
	sortIDs(out)
	return out
}

// varBindings returns up to limit distinct values variable v takes across
// the matches of the body with x bound to t.
func (ev evaluator) varBindings(r Rule, v VarID, t kb.EntID, limit int) []kb.EntID {
	if v == 0 {
		return []kb.EntID{t}
	}
	binding := make([]kb.EntID, r.NumVars)
	binding[0] = t
	seen := make(map[kb.EntID]struct{})
	ev.enumerate(r.Body, binding, func() bool {
		if val := binding[v]; val != 0 {
			seen[val] = struct{}{}
		}
		return limit <= 0 || len(seen) < limit
	})
	out := make([]kb.EntID, 0, len(seen))
	for x := range seen {
		out = append(out, x)
	}
	sortIDs(out)
	return out
}

// enumerate visits every full match of the atoms, invoking emit at each;
// emit returning false stops the enumeration (enumerate then returns
// false as well, propagating the stop upward).
func (ev evaluator) enumerate(atoms []Atom, binding []kb.EntID, emit func() bool) bool {
	if len(atoms) == 0 {
		return emit()
	}
	bestIdx, bestCands := -1, []kb.EntID(nil)
	bestFull := -1
	for i, a := range atoms {
		s, sBound := resolve(a.S, binding)
		o, oBound := resolve(a.O, binding)
		switch {
		case sBound && oBound:
			if !ev.k.HasFact(a.P, s, o) {
				return true // dead branch; enumeration itself continues
			}
			bestFull = i
		case sBound:
			c := ev.k.Objects(a.P, s)
			if bestIdx < 0 || len(c) < len(bestCands) {
				bestIdx, bestCands = i, c
			}
		case oBound:
			c := ev.k.Subjects(a.P, o)
			if bestIdx < 0 || len(c) < len(bestCands) {
				bestIdx, bestCands = i, c
			}
		}
	}
	if bestFull >= 0 {
		return ev.enumerate(removeAtom(atoms, bestFull), binding, emit)
	}
	if bestIdx < 0 {
		a := atoms[0]
		rest := removeAtom(atoms, 0)
		for _, pr := range ev.k.Facts(a.P) {
			if undo, ok := bind(a, pr.S, pr.O, binding); ok {
				cont := ev.enumerate(rest, binding, emit)
				unbind(undo, binding)
				if !cont {
					return false
				}
			}
		}
		return true
	}
	a := atoms[bestIdx]
	rest := removeAtom(atoms, bestIdx)
	s, sBound := resolve(a.S, binding)
	o, _ := resolve(a.O, binding)
	for _, cand := range bestCands {
		var undo [2]VarID
		var ok bool
		if sBound {
			undo, ok = bind(a, s, cand, binding)
		} else {
			undo, ok = bind(a, cand, o, binding)
		}
		if ok {
			cont := ev.enumerate(rest, binding, emit)
			unbind(undo, binding)
			if !cont {
				return false
			}
		}
	}
	return true
}

func sortIDs(ids []kb.EntID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// xCandidates enumerates possible x values from the cheapest body atom that
// mentions x directly; when no atom mentions x with a constant companion,
// it falls back to the subjects/objects of an x-atom's predicate.
func (ev evaluator) xCandidates(r Rule) []kb.EntID {
	bestCost := int(^uint(0) >> 1)
	var best []kb.EntID
	record := func(c []kb.EntID) {
		if len(c) < bestCost {
			bestCost = len(c)
			best = c
		}
	}
	for _, a := range r.Body {
		switch {
		case a.S.IsVar && a.S.Var == 0 && !a.O.IsVar:
			record(ev.k.Subjects(a.P, a.O.Const))
		case a.O.IsVar && a.O.Var == 0 && !a.S.IsVar:
			record(ev.k.Objects(a.P, a.S.Const))
		}
	}
	if best != nil {
		return best
	}
	// Fall back to all subjects (or objects) of a predicate mentioning x:
	// the keys of its CSR runs, distinct and ascending.
	for _, a := range r.Body {
		if a.S.IsVar && a.S.Var == 0 {
			subjects, _ := ev.k.SubjectRuns(a.P)
			return subjects
		}
		if a.O.IsVar && a.O.Var == 0 {
			objects, _ := ev.k.ObjectRuns(a.P)
			return objects
		}
	}
	return nil
}

// backtrack extends the partial variable binding until every atom is
// satisfied, choosing the most-bound pending atom first.
func (ev evaluator) backtrack(atoms []Atom, binding []kb.EntID, abort func() bool) bool {
	if len(atoms) == 0 {
		return true
	}
	if abort != nil && abort() {
		return false
	}
	// Pick the atom with the fewest candidate extensions.
	bestIdx, bestCands := -1, []kb.EntID(nil)
	bestFull := -1
	for i, a := range atoms {
		s, sBound := resolve(a.S, binding)
		o, oBound := resolve(a.O, binding)
		switch {
		case sBound && oBound:
			// Fully bound: test immediately.
			if !ev.k.HasFact(a.P, s, o) {
				return false
			}
			bestFull = i
		case sBound:
			c := ev.k.Objects(a.P, s)
			if bestIdx < 0 || len(c) < len(bestCands) {
				bestIdx, bestCands = i, c
			}
		case oBound:
			c := ev.k.Subjects(a.P, o)
			if bestIdx < 0 || len(c) < len(bestCands) {
				bestIdx, bestCands = i, c
			}
		}
	}
	if bestFull >= 0 {
		rest := removeAtom(atoms, bestFull)
		return ev.backtrack(rest, binding, abort)
	}
	if bestIdx < 0 {
		// No atom touches a bound variable: pick the first and enumerate its
		// predicate facts (happens only for disconnected bodies, which the
		// refinement operators do not generate, but stay safe).
		a := atoms[0]
		rest := removeAtom(atoms, 0)
		for _, pr := range ev.k.Facts(a.P) {
			if undo, ok := bind(a, pr.S, pr.O, binding); ok {
				if ev.backtrack(rest, binding, abort) {
					unbind(undo, binding)
					return true
				}
				unbind(undo, binding)
			}
		}
		return false
	}
	a := atoms[bestIdx]
	rest := removeAtom(atoms, bestIdx)
	s, sBound := resolve(a.S, binding)
	o, _ := resolve(a.O, binding)
	for _, cand := range bestCands {
		var undo [2]VarID
		var ok bool
		if sBound {
			undo, ok = bind(a, s, cand, binding)
		} else {
			undo, ok = bind(a, cand, o, binding)
		}
		if ok {
			if ev.backtrack(rest, binding, abort) {
				unbind(undo, binding)
				return true
			}
			unbind(undo, binding)
		}
	}
	return false
}

// resolve returns the constant an argument stands for and whether it is
// bound (constants are always bound; variables when binding[v] != 0).
func resolve(a Arg, binding []kb.EntID) (kb.EntID, bool) {
	if !a.IsVar {
		return a.Const, true
	}
	v := binding[a.Var]
	return v, v != 0
}

// bind unifies atom a with the values (s, o), updating binding in place.
// It returns the variables it newly bound (for unbind) and whether the
// unification succeeded. On failure the binding is left unchanged.
func bind(a Atom, s, o kb.EntID, binding []kb.EntID) (undo [2]VarID, ok bool) {
	undo = [2]VarID{-1, -1}
	if a.S.IsVar {
		switch binding[a.S.Var] {
		case 0:
			binding[a.S.Var] = s
			undo[0] = a.S.Var
		case s:
		default:
			return undo, false
		}
	} else if a.S.Const != s {
		return undo, false
	}
	if a.O.IsVar {
		switch binding[a.O.Var] {
		case 0:
			binding[a.O.Var] = o
			undo[1] = a.O.Var
		case o:
		default:
			unbind(undo, binding)
			return [2]VarID{-1, -1}, false
		}
	} else if a.O.Const != o {
		unbind(undo, binding)
		return [2]VarID{-1, -1}, false
	}
	return undo, true
}

// unbind reverses a successful bind.
func unbind(undo [2]VarID, binding []kb.EntID) {
	if undo[0] >= 0 {
		binding[undo[0]] = 0
	}
	if undo[1] >= 0 {
		binding[undo[1]] = 0
	}
}

func removeAtom(atoms []Atom, i int) []Atom {
	out := make([]Atom, 0, len(atoms)-1)
	out = append(out, atoms[:i]...)
	return append(out, atoms[i+1:]...)
}
