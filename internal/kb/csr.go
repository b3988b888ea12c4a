package kb

import "slices"

// CSR (compressed sparse row) fact indexes. A KB stores its facts only in
// these immutable flat arrays, built at load time or merged by ApplyPatch:
//
//	predIndex (one per predicate)
//	  psoKey ─┐  distinct subjects, ascending
//	  psoOff ─┼─ psoVal[psoOff[i]:psoOff[i+1]] = objects of psoKey[i]
//	  psoVal ─┘  the O column of the (S,O)-sorted fact list
//	  posKey/posOff/posVal: the same, keyed by object over the S column
//
//	adjacency (one arena for the whole KB, derived on first touch)
//	  adjOff ──  indexed by EntID: adjArena[adjOff[e-1]:adjOff[e]]
//	  adjArena   flat []PO runs, each sorted by (P,O)
//
// A lookup is a binary search over a contiguous key array returning a slice
// view into the value arena, and the per-entity adjacency is a constant-time
// offset pair. HasFact is a second binary search inside the returned run.
// ObjFreq reads a run length from two adjacent offsets without touching the
// values at all. There is no (S,O) pair list: Facts walks the subject runs.

// predIndex holds both CSR orientations of one predicate's facts.
type predIndex struct {
	psoKey []EntID  // distinct subjects, ascending
	psoOff []uint32 // len(psoKey)+1 run boundaries into psoVal
	psoVal []EntID  // objects grouped by subject, each run ascending
	posKey []EntID  // distinct objects, ascending
	posOff []uint32 // len(posKey)+1 run boundaries into posVal
	posVal []EntID  // subjects grouped by object, each run ascending
}

// searchIDs returns the position of key in the ascending slice keys, or the
// insertion point when absent (a hand-rolled sort.Search without the closure
// indirection — this sits under every index probe).
func searchIDs(keys []EntID, key EntID) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// run returns the CSR value run of key, or nil when the key has no facts.
func run(keys []EntID, off []uint32, vals []EntID, key EntID) []EntID {
	i := searchIDs(keys, key)
	if i < len(keys) && keys[i] == key {
		return vals[off[i]:off[i+1]]
	}
	return nil
}

// runLen returns the length of the CSR run of key without touching the
// value arena.
func runLen(keys []EntID, off []uint32, key EntID) int {
	i := searchIDs(keys, key)
	if i < len(keys) && keys[i] == key {
		return int(off[i+1] - off[i])
	}
	return 0
}

// packCSR packs (S,O)-sorted pairs into one CSR orientation keyed by S:
// packPredIndex passes a predicate's facts for pso and swapPairs of them for
// pos.
func packCSR(pairs []Pair) (keys []EntID, off []uint32, vals []EntID) {
	distinct := 0
	for i := range pairs {
		if i == 0 || pairs[i].S != pairs[i-1].S {
			distinct++
		}
	}
	keys = make([]EntID, 0, distinct)
	off = make([]uint32, 0, distinct+1)
	vals = make([]EntID, len(pairs))
	for i, p := range pairs {
		if i == 0 || p.S != pairs[i-1].S {
			keys = append(keys, p.S)
			off = append(off, uint32(i))
		}
		vals[i] = p.O
	}
	off = append(off, uint32(len(pairs)))
	return keys, off, vals
}

// swapPairs returns a copy of pairs with S and O exchanged, (S,O)-sorted:
// facts or edits in the key order of the pos orientation.
func swapPairs(pairs []Pair) []Pair {
	out := make([]Pair, len(pairs))
	for i, p := range pairs {
		out[i] = Pair{S: p.O, O: p.S}
	}
	slices.SortFunc(out, cmpPairSO)
	return out
}

// cmpPairSO orders pairs by (S,O): the order of a CSR orientation.
func cmpPairSO(a, b Pair) int {
	if a.S != b.S {
		return int(a.S) - int(b.S)
	}
	return int(a.O) - int(b.O)
}

// packPredIndex packs one predicate's (S,O)-sorted, duplicate-free pair run
// into both CSR orientations: the builder's path. A patched predicate merges
// its runs instead (mergeRuns). The input is not retained, so a caller can
// reuse it as scratch.
func packPredIndex(pairs []Pair) predIndex {
	var ix predIndex
	ix.psoKey, ix.psoOff, ix.psoVal = packCSR(pairs)
	ix.posKey, ix.posOff, ix.posVal = packCSR(swapPairs(pairs))
	return ix
}
