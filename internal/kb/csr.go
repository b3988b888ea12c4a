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
//	adjacency (one arena for the whole KB, made on first touch: derived,
//	or carried over from the KB a patch started from)
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

// runKey is one fact of a predicate's run as the builder buffers it:
// uint64(O)<<32|S, so that sorting the keys orders the facts by (O,S), the
// key order of the pos orientation.
func runKey(s, o EntID) uint64 { return uint64(o)<<32 | uint64(s) }

// packCSR packs a run of runKeys sorted by (key, value) into one CSR
// orientation. keyShift picks the key half of each runKey: 0 keys by S
// over the O column (pso), 32 keys by O over the S column (pos).
func packCSR(run []uint64, keyShift uint) (keys []EntID, off []uint32, vals []EntID) {
	valShift := 32 - keyShift
	distinct := 0
	for i := range run {
		if i == 0 || EntID(run[i]>>keyShift) != EntID(run[i-1]>>keyShift) {
			distinct++
		}
	}
	keys = make([]EntID, 0, distinct)
	off = make([]uint32, 0, distinct+1)
	vals = make([]EntID, len(run))
	for i, x := range run {
		if key := EntID(x >> keyShift); i == 0 || key != EntID(run[i-1]>>keyShift) {
			keys = append(keys, key)
			off = append(off, uint32(i))
		}
		vals[i] = EntID(x >> valShift)
	}
	off = append(off, uint32(len(run)))
	return keys, off, vals
}

// packRun packs one predicate's duplicate-free run of runKeys, in (S,O)
// order, into both CSR orientations: the builder's path (a patched
// predicate merges its runs instead, mergeRuns). It sorts run in place for
// the pos orientation and retains none of it, so a caller can reuse the
// buffer.
func packRun(run []uint64) predIndex {
	var ix predIndex
	ix.psoKey, ix.psoOff, ix.psoVal = packCSR(run, 0)
	slices.Sort(run)
	ix.posKey, ix.posOff, ix.posVal = packCSR(run, 32)
	return ix
}

// swapPairs returns a copy of pairs with S and O exchanged, (S,O)-sorted:
// facts or edits in the key order of the pos orientation.
func swapPairs(pairs []Pair) []Pair {
	keys := make([]uint64, len(pairs))
	for i, p := range pairs {
		keys[i] = runKey(p.S, p.O)
	}
	slices.Sort(keys)
	out := make([]Pair, len(pairs))
	for i, x := range keys {
		out[i] = Pair{S: EntID(x >> 32), O: EntID(x)}
	}
	return out
}

// filterInverse returns the index of base's inverse restricted to the
// objects keep holds: the pso orientation of p⁻¹(o,s) is base's pos runs of
// the kept objects, and its pos orientation is base's pso runs with only the
// kept objects, empty runs dropped. The result is what packRun makes of the
// (O,S)-sorted kept facts. ok is false when keep holds none of base's
// objects, so that p has no inverse.
func filterInverse(base *predIndex, keep *EntSet) (ix predIndex, ok bool) {
	nKeys, nVals := 0, 0
	for i, o := range base.posKey {
		if keep.Contains(o) {
			nKeys++
			nVals += int(base.posOff[i+1] - base.posOff[i])
		}
	}
	if nKeys == 0 {
		return ix, false
	}
	ix.psoKey = make([]EntID, 0, nKeys)
	ix.psoOff = make([]uint32, 0, nKeys+1)
	ix.psoVal = make([]EntID, 0, nVals)
	for i, o := range base.posKey {
		if keep.Contains(o) {
			ix.psoKey = append(ix.psoKey, o)
			ix.psoOff = append(ix.psoOff, uint32(len(ix.psoVal)))
			ix.psoVal = append(ix.psoVal, base.posVal[base.posOff[i]:base.posOff[i+1]]...)
		}
	}
	ix.psoOff = append(ix.psoOff, uint32(nVals))

	nSubj := min(len(base.psoKey), nVals) // at most; the walk drops empty runs
	ix.posKey = make([]EntID, 0, nSubj)
	ix.posOff = make([]uint32, 0, nSubj+1)
	ix.posVal = make([]EntID, 0, nVals)
	for i, s := range base.psoKey {
		start := len(ix.posVal)
		for _, o := range base.psoVal[base.psoOff[i]:base.psoOff[i+1]] {
			if keep.Contains(o) {
				ix.posVal = append(ix.posVal, o)
			}
		}
		if len(ix.posVal) > start {
			ix.posKey = append(ix.posKey, s)
			ix.posOff = append(ix.posOff, uint32(start))
		}
	}
	ix.posOff = append(ix.posOff, uint32(nVals))
	return ix, true
}
