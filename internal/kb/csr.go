package kb

import "slices"

// CSR (compressed sparse row) fact indexes. The KB used to keep its
// per-(predicate,key) posting lists in hash maps (pso/pos keyed by a packed
// uint64, subjAdj keyed by EntID). Every probe on the mining hot path — an
// Objects lookup per atom, a HasFact per closed-shape test, an AdjacencyOf
// per enumerated entity — paid a hash, a bucket walk and a pointer chase.
// The layout below replaces all of that with immutable flat arrays built
// once at load time:
//
//	predIndex (one per predicate)
//	  psoKey ─┐  distinct subjects, ascending
//	  psoOff ─┼─ psoVal[psoOff[i]:psoOff[i+1]] = objects of psoKey[i]
//	  psoVal ─┘  the O column of the (S,O)-sorted fact list
//	  posKey/posOff/posVal: the same, keyed by object over the S column
//
//	adjacency (one arena for the whole KB)
//	  adjOff ──  indexed by EntID: adjArena[adjOff[e-1]:adjOff[e]]
//	  adjArena   flat []PO runs, each sorted by (P,O)
//
// A lookup is now a binary search over a contiguous key array (cache-line
// friendly, no hashing) returning a slice view into the value arena, and the
// per-entity adjacency is a constant-time offset pair. HasFact is a second
// binary search inside the returned run. ObjFreq reads a run length from two
// adjacent offsets without touching the values at all.

// predIndex holds both CSR orientations of one predicate's facts.
type predIndex struct {
	pairs  []Pair   // sorted by (S,O); backs Facts, derived on first touch
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

// packCSR packs one orientation of a predicate's fact list into a CSR run
// index. pairs must already be sorted by the key column (S when byObject is
// false, O when true), then by the value column.
func packCSR(pairs []Pair, byObject bool) (keys []EntID, off []uint32, vals []EntID) {
	n := len(pairs)
	key := func(p Pair) EntID { return p.S }
	val := func(p Pair) EntID { return p.O }
	if byObject {
		key, val = val, key
	}
	distinct := 0
	for i := range pairs {
		if i == 0 || key(pairs[i]) != key(pairs[i-1]) {
			distinct++
		}
	}
	keys = make([]EntID, 0, distinct)
	off = make([]uint32, 0, distinct+1)
	vals = make([]EntID, n)
	for i, p := range pairs {
		if i == 0 || key(p) != key(pairs[i-1]) {
			keys = append(keys, key(p))
			off = append(off, uint32(i))
		}
		vals[i] = val(p)
	}
	off = append(off, uint32(n))
	return keys, off, vals
}

// packPredIndex packs one predicate's (S,O)-sorted, duplicate-free pair run
// into both CSR orientations, sorting a copy for the object one: the
// builder's path. A patched predicate merges its object runs instead
// (mergeObjectRuns). The input is not retained, so a caller can reuse it as
// scratch.
func packPredIndex(pairs []Pair) predIndex {
	var ix predIndex
	ix.psoKey, ix.psoOff, ix.psoVal = packCSR(pairs, false)
	byObject := slices.Clone(pairs)
	slices.SortFunc(byObject, cmpPairOS)
	ix.posKey, ix.posOff, ix.posVal = packCSR(byObject, true)
	return ix
}
