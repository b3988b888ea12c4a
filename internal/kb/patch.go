package kb

// Patch materialization: the KB-side half of the live-KB delta layer
// (internal/kb/delta), where each write batch becomes one Patch against the
// newest generation. A Patch is a resolved, dictionary-encoded edit set;
// ApplyPatch folds it into a new KB copy-on-write: each orientation of a
// touched predicate's CSR index is one linear merge of its base runs with
// the sorted edits (mergeRuns), never a sort of its facts, while every
// untouched predicate's index arrays — the overwhelming majority of a real
// KB — are shared with the base by slice header. The adjacency arena is
// carried over on first touch in the same way when the base has derived
// its own, and otherwise derived from the new indexes on first touch
// (derived.go), like any other KB's. The base KB itself is never modified; old
// generations keep serving byte-identical answers while the new one is
// assembled.

import (
	"fmt"
	"maps"

	"github.com/remi-kb/remi/internal/rdf"
)

// Patch is an edit set against the KB it was built for, already
// dictionary-encoded and normalized: the delta overlay builds one per write
// batch, netting the batch's ops out against that KB, so an edit that a
// later op of the batch undoes never reaches the patch.
//
//   - ExtraTerms are new terms absent from the KB's dictionary; they take
//     ids NumEntities+1.. in order.
//   - ExtraPreds are new predicate names (base predicates, no inverses);
//     they take ids NumPredicates+1.. in order.
//   - Adds[p] is (S,O)-sorted, duplicate-free and disjoint from the KB's
//     facts of p; Dels[p] is (S,O)-sorted and every pair is a fact of p.
//
// ApplyPatch re-validates the membership invariants during its merges (a
// violated one returns an error rather than a corrupt KB), but sortedness
// is trusted. It neither modifies nor retains the patch's slices and maps.
type Patch struct {
	ExtraTerms []rdf.Term
	ExtraPreds []string
	Adds       map[PredID][]Pair
	Dels       map[PredID][]Pair
}

// mergeRuns folds sorted edits into one CSR orientation of a predicate:
// keys/off/vals are its base runs, and in adds and dels (both (S,O)-sorted)
// S is the key and O the value. The keys between two edited keys are copied
// as one stretch: one append of their keys, one of their values, and one
// loop that shifts their offsets. An edited key's run is merged with its
// edits, verifying membership as it goes: an add that already exists, or a
// retract that matches no fact, errors out.
func mergeRuns(keys []EntID, off []uint32, vals []EntID, adds, dels []Pair, label string) (keys2 []EntID, off2 []uint32, vals2 []EntID, err error) {
	keys2 = make([]EntID, 0, len(keys)+len(adds))
	off2 = make([]uint32, 0, len(keys)+len(adds)+1)
	vals2 = make([]EntID, 0, max(0, len(vals)+len(adds)-len(dels)))
	// copyKeys places the runs of keys[from:to] unedited.
	copyKeys := func(from, to int) {
		if from == to {
			return
		}
		keys2 = append(keys2, keys[from:to]...)
		shift := uint32(len(vals2)) - off[from]
		for _, o := range off[from:to] {
			off2 = append(off2, o+shift)
		}
		vals2 = append(vals2, vals[off[from]:off[to]]...)
	}
	i, a, d := 0, 0, 0
	for a < len(adds) || d < len(dels) {
		var key EntID
		switch {
		case d == len(dels) || a < len(adds) && adds[a].S < dels[d].S:
			key = adds[a].S
		default:
			key = dels[d].S
		}
		next := i + searchIDs(keys[i:], key)
		copyKeys(i, next)
		i = next
		var run []EntID
		if i < len(keys) && keys[i] == key {
			run = vals[off[i]:off[i+1]]
			i++
		}
		start := len(vals2)
		for _, v := range run {
			for ; a < len(adds) && adds[a].S == key && adds[a].O < v; a++ {
				vals2 = append(vals2, adds[a].O)
			}
			if a < len(adds) && adds[a] == (Pair{S: key, O: v}) {
				return nil, nil, nil, fmt.Errorf("kb: patch %s: add of existing fact (%d,%d)", label, key, v)
			}
			if d < len(dels) && dels[d] == (Pair{S: key, O: v}) {
				d++
			} else {
				vals2 = append(vals2, v)
			}
		}
		for ; a < len(adds) && adds[a].S == key; a++ {
			vals2 = append(vals2, adds[a].O)
		}
		if d < len(dels) && dels[d].S == key {
			return nil, nil, nil, fmt.Errorf("kb: patch %s: retract of absent fact (%d,%d)", label, dels[d].S, dels[d].O)
		}
		if len(vals2) > start {
			keys2 = append(keys2, key)
			off2 = append(off2, uint32(start))
		}
	}
	copyKeys(i, len(keys))
	return keys2, append(off2, uint32(len(vals2))), vals2, nil
}

// ApplyPatch returns a new KB equal to k with the patch folded in. k is
// unchanged and keeps serving; the result shares every index array the
// patch does not touch. The result always owns an independent reference
// on any backing snapshot image, so closing either KB is safe regardless
// of order. An empty patch returns a shallow, independently closeable
// copy, which shares k's adjacency arena too: whichever of the two derives
// it derives it for both.
func (k *KB) ApplyPatch(p Patch) (*KB, error) {
	nEnt := len(k.kind)
	nEnt2 := nEnt + len(p.ExtraTerms)
	nPred := len(k.predNames)
	nPred2 := nPred + len(p.ExtraPreds)

	// Range-check every edit before any allocation depends on it.
	totalAdds, totalDels := 0, 0
	checkPairs := func(m map[PredID][]Pair, allowNewPreds bool) error {
		for pid, prs := range m {
			if pid == 0 || int(pid) > nPred2 || (!allowNewPreds && int(pid) > nPred) {
				return fmt.Errorf("kb: patch: predicate id %d out of range", pid)
			}
			for _, pr := range prs {
				if pr.S == 0 || int(pr.S) > nEnt2 || pr.O == 0 || int(pr.O) > nEnt2 {
					return fmt.Errorf("kb: patch: entity id out of range in (%d,%d)", pr.S, pr.O)
				}
			}
		}
		return nil
	}
	if err := checkPairs(p.Adds, true); err != nil {
		return nil, err
	}
	if err := checkPairs(p.Dels, false); err != nil {
		return nil, err
	}
	for _, prs := range p.Adds {
		totalAdds += len(prs)
	}
	for _, prs := range p.Dels {
		totalDels += len(prs)
	}

	// Dictionary and kind table: extended views sharing the base lookup
	// structures; untouched when no terms are added.
	dict2, kind2 := k.dict, k.kind
	if len(p.ExtraTerms) > 0 {
		var err error
		dict2, err = rdf.ExtendDictionary(k.dict, p.ExtraTerms)
		if err != nil {
			return nil, err
		}
		kind2 = make([]rdf.Kind, nEnt2)
		copy(kind2, k.kind)
		for i, t := range p.ExtraTerms {
			kind2[nEnt+i] = t.Kind
		}
	}

	// Predicate tables.
	predNames2, predIdx2, predIDs2, baseOf2 := k.predNames, k.predIdx, k.predIDs, k.baseOf
	if len(p.ExtraPreds) > 0 {
		predIdx2 = maps.Clone(k.predIdx)
		predNames2 = append(append(make([]string, 0, nPred2), k.predNames...), p.ExtraPreds...)
		baseOf2 = append(append(make([]PredID, 0, nPred2), k.baseOf...), make([]PredID, len(p.ExtraPreds))...)
		for i, name := range p.ExtraPreds {
			if _, dup := predIdx2[name]; dup {
				return nil, fmt.Errorf("kb: patch: predicate %q already exists", name)
			}
			predIdx2[name] = PredID(nPred + i + 1)
		}
		predIDs2 = make([]PredID, nPred2)
		for i := range predIDs2 {
			predIDs2[i] = PredID(i + 1)
		}
	}

	// Per-predicate CSR indexes: clone the slice of headers, rebuild only
	// the touched entries.
	preds2 := make([]predIndex, nPred2)
	copy(preds2, k.preds)
	isInverse := func(pid PredID) bool { return int(pid) <= nPred && k.baseOf[pid-1] != 0 }
	touched := make(map[PredID]bool, len(p.Adds)+len(p.Dels))
	for pid := range p.Adds {
		touched[pid] = true
	}
	for pid := range p.Dels {
		touched[pid] = true
	}
	for pid := range touched {
		var base predIndex // a new predicate has no facts
		if int(pid) <= nPred {
			base = k.preds[pid-1]
		}
		adds, dels, name := p.Adds[pid], p.Dels[pid], predNames2[pid-1]
		ix := &preds2[pid-1]
		var err error
		ix.psoKey, ix.psoOff, ix.psoVal, err = mergeRuns(base.psoKey, base.psoOff, base.psoVal, adds, dels, name)
		if err != nil {
			return nil, err
		}
		ix.posKey, ix.posOff, ix.posVal, err = mergeRuns(base.posKey, base.posOff, base.posVal, swapPairs(adds), swapPairs(dels), name+" (object runs)")
		if err != nil {
			return nil, err
		}
	}

	// Base-fact statistics: inverse predicates hold mirrored facts only,
	// so they contribute to neither nBase nor the prominence frequencies.
	nBase2 := k.nBase
	entFreq2 := k.entFreq
	if totalAdds+totalDels > 0 || len(p.ExtraTerms) > 0 {
		entFreq2 = make([]uint32, nEnt2)
		copy(entFreq2, k.entFreq)
		for pid, prs := range p.Adds {
			if isInverse(pid) {
				continue
			}
			nBase2 += len(prs)
			for _, pr := range prs {
				entFreq2[pr.S-1]++
				entFreq2[pr.O-1]++
			}
		}
		for pid, prs := range p.Dels {
			if isInverse(pid) {
				continue
			}
			nBase2 -= len(prs)
			for _, pr := range prs {
				if entFreq2[pr.S-1] == 0 || entFreq2[pr.O-1] == 0 {
					return nil, fmt.Errorf("kb: patch: frequency underflow retracting (%d,%d)", pr.S, pr.O)
				}
				entFreq2[pr.S-1]--
				entFreq2[pr.O-1]--
			}
		}
	}

	k2 := &KB{
		dict:      dict2,
		kind:      kind2,
		predNames: predNames2,
		predIdx:   predIdx2,
		predIDs:   predIDs2,
		baseOf:    baseOf2,
		preds:     preds2,
		nFacts:    k.nFacts + totalAdds - totalDels,
		nBase:     nBase2,
		entFreq:   entFreq2,
		typePred:  k.typePred,
		lblPred:   k.lblPred,
	}
	switch off, arena, ok := k.adj.derived(); {
	case totalAdds+totalDels == 0 && len(p.ExtraTerms) == 0:
		k2.adj = k.adj // the same facts: the same arena
	case ok:
		k2.adj = &adjacency{carry: carryAdjacency(off, arena, p, nEnt2, k2.nFacts)}
	default:
		k2.adj = new(adjacency)
	}
	if k.src != nil {
		// The new KB aliases arrays inside the base's snapshot image (at
		// minimum every untouched predicate index), so it holds its own
		// reference for its own lifetime.
		k2.src = k.src.Ref()
	}
	return k2, nil
}

// Bare returns a shallow, independently closeable copy of k, as an empty
// patch does, that does not share k's adjacency arena: for a KB kept for
// its fact indexes alone, which should not pin an arena k's readers derive.
func (k *KB) Bare() *KB {
	k2, _ := k.ApplyPatch(Patch{}) // an empty patch cannot fail
	k2.adj = new(adjacency)
	return k2
}
