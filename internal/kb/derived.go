package kb

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
)

// The derived array: the per-entity adjacency arena is an exact function of
// the CSR pso indexes, so neither the builder nor the snapshot format
// produces it. A built or reopened KB reconstructs it on first use, so
// building and opening stay free of it and a process that never calls
// AdjacencyOf (snapshot packing, a compaction fold) never pays. A patched KB
// whose base had derived its arena carries that arena over on first use
// instead, at the cost of the edit (carryAdjacency); otherwise it too
// derives it.
//
// Reconstruction visits predicates ascending, subjects ascending within a
// predicate, objects ascending within a subject, so every adjacency run
// comes out (P,O)-sorted with no sort.

// adjacency is a KB's derived arena: arena[off[e-1]:off[e]] is e's run. The
// shallow copy an empty patch makes shares its base's, since the same facts
// derive the same arena: a live KB mines one copy of a generation and
// patches another, and the patch carries over what the mines derived.
type adjacency struct {
	// ready reports whether off and arena are set; they are written once,
	// under mu, before it is stored, so a reader that loads it true may
	// read them without the lock.
	ready atomic.Bool
	mu    sync.Mutex
	off   []uint32
	arena []PO
	// carry, when set, makes off and arena from the arena of the KB a patch
	// started from (carryAdjacency). It runs on first use rather than in
	// ApplyPatch, so the two arenas are both reachable only while it runs,
	// not while the rest of a write allocates.
	carry func() ([]uint32, []PO)
}

// adjacency returns k's arena, carrying it over or deriving it at most
// once.
func (k *KB) adjacency() *adjacency {
	a := k.adj
	if !a.ready.Load() {
		a.mu.Lock()
		defer a.mu.Unlock()
		if !a.ready.Load() {
			if a.carry != nil {
				a.off, a.arena = a.carry()
				a.carry = nil
			} else {
				a.off, a.arena = k.deriveAdjacency()
			}
			a.ready.Store(true)
		}
	}
	return a
}

// derived returns k's arena when it is present, without deriving it.
func (a *adjacency) derived() ([]uint32, []PO, bool) {
	if !a.ready.Load() {
		return nil, nil, false
	}
	return a.off, a.arena, true
}

// deriveAdjacency builds the arena from the pso CSR arrays: a counting pass
// over subject degrees, a prefix sum, then a placement pass in (p, s, o)
// order so every per-subject run comes out sorted by (P,O).
func (k *KB) deriveAdjacency() ([]uint32, []PO) {
	n := k.dict.Len()
	adjOff := make([]uint32, n+1)
	for p := range k.preds {
		ix := &k.preds[p]
		for i, s := range ix.psoKey {
			adjOff[s] += ix.psoOff[i+1] - ix.psoOff[i]
		}
	}
	for i := 1; i <= n; i++ {
		adjOff[i] += adjOff[i-1]
	}
	arena := make([]PO, k.nFacts)
	cur := make([]uint32, n)
	copy(cur, adjOff[:n])
	for p := range k.preds {
		ix := &k.preds[p]
		for i, s := range ix.psoKey {
			for _, o := range ix.psoVal[ix.psoOff[i]:ix.psoOff[i+1]] {
				pos := cur[s-1]
				cur[s-1]++
				arena[pos] = PO{P: PredID(p + 1), O: EntID(o)}
			}
		}
	}
	return adjOff, arena
}

// carryAdjacency returns the carry of the KB that patch p turns the base
// into, with n entities and nFacts facts, from the base's off and arena:
// each subject an edit names gets its (P,O) run merged with its edits, and
// each stretch of subjects between two edited ones is copied with one
// append, its offsets shifted in one loop. The edits must already have
// passed ApplyPatch's membership checks; they are collected now, so the
// carry does not retain the patch.
func carryAdjacency(off []uint32, arena []PO, p Patch, n, nFacts int) func() ([]uint32, []PO) {
	var edits []adjEdit
	collect := func(m map[PredID][]Pair, add bool) {
		for pid, prs := range m {
			for _, pr := range prs {
				edits = append(edits, adjEdit{pr.S, PO{pid, pr.O}, add})
			}
		}
	}
	collect(p.Adds, true)
	collect(p.Dels, false)
	slices.SortFunc(edits, func(a, b adjEdit) int {
		return cmp.Or(cmp.Compare(a.s, b.s), cmp.Compare(a.po.P, b.po.P), cmp.Compare(a.po.O, b.po.O))
	})
	return func() ([]uint32, []PO) {
		return carryRuns(off, arena, edits, n, nFacts)
	}
}

// carryRuns is a carry's work (see carryAdjacency): edits are sorted by
// subject, then by (P,O).
func carryRuns(off []uint32, arena []PO, edits []adjEdit, n, nFacts int) ([]uint32, []PO) {
	nOld := len(off) - 1
	off2 := make([]uint32, n+1)
	arena2 := make([]PO, 0, nFacts)
	// copyRuns places the runs of subjects [from, to) unedited.
	copyRuns := func(from, to int) {
		if last := min(to-1, nOld); from <= last {
			shift := uint32(len(arena2)) - off[from-1]
			arena2 = append(arena2, arena[off[from-1]:off[last]]...)
			for e := from; e <= last; e++ {
				off2[e] = off[e] + shift
			}
			from = last + 1
		}
		for e := from; e < to; e++ { // entities the patch minted
			off2[e] = uint32(len(arena2))
		}
	}
	next := 1 // the first subject not placed yet
	for i := 0; i < len(edits); {
		s := int(edits[i].s)
		copyRuns(next, s)
		var run []PO
		if s <= nOld {
			run = arena[off[s-1]:off[s]]
		}
		for ; i < len(edits) && int(edits[i].s) == s; i++ {
			po := edits[i].po
			for len(run) > 0 && poLess(run[0], po) {
				arena2 = append(arena2, run[0])
				run = run[1:]
			}
			if edits[i].add {
				arena2 = append(arena2, po)
			} else {
				run = run[1:] // the retracted fact: checked present
			}
		}
		arena2 = append(arena2, run...)
		off2[s] = uint32(len(arena2))
		next = s + 1
	}
	copyRuns(next, n+1)
	return off2, arena2
}

// adjEdit is an edit of subject s's adjacency run.
type adjEdit struct {
	s   EntID
	po  PO
	add bool
}

func poLess(a, b PO) bool { return a.P < b.P || a.P == b.P && a.O < b.O }
