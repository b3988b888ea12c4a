package kb

// Derived arrays: the per-predicate pair lists and the per-entity adjacency
// arena are exact functions of the CSR pso indexes, so neither the builder
// nor the snapshot format produces them. Every KB — built, reopened from a
// snapshot or patched — reconstructs each on first use, so building and
// opening stay free of them and a process that never touches
// Facts/AdjacencyOf (snapshot packing, a compaction fold) never pays. The
// one shortcut is ApplyPatch, whose merges read and write pair lists anyway:
// its result shares the base's lists and keeps the merged ones.
//
// Reconstruction visits predicates ascending, subjects ascending within a
// predicate, objects ascending within a subject — the (p,s,o) order of the
// builder's merged stream — so pair lists come out (S,O)-sorted and every
// adjacency run (P,O)-sorted with no sort.

// ensurePairs and ensureAdjacency make the derived arrays present, deriving
// them at most once.
func (k *KB) ensurePairs() {
	if !k.pairsReady.Load() {
		k.derivePairs()
	}
}

func (k *KB) ensureAdjacency() {
	if !k.adjReady.Load() {
		k.deriveAdjacency()
	}
}

// derivePairs fills preds[p].pairs for every predicate from the pso CSR
// arrays: one shared arena sized to the total fact count, sliced per
// predicate.
func (k *KB) derivePairs() {
	k.deriveMu.Lock()
	defer k.deriveMu.Unlock()
	if k.pairsReady.Load() {
		return
	}
	arena := make([]Pair, 0, k.nFacts)
	for p := range k.preds {
		ix := &k.preds[p]
		start := len(arena)
		for i, s := range ix.psoKey {
			for _, o := range ix.psoVal[ix.psoOff[i]:ix.psoOff[i+1]] {
				arena = append(arena, Pair{S: EntID(s), O: EntID(o)})
			}
		}
		ix.pairs = arena[start:len(arena):len(arena)]
	}
	k.pairsReady.Store(true)
}

// deriveAdjacency rebuilds adjOff/adjArena from the pso CSR arrays: a
// counting pass over subject degrees, a prefix sum, then a placement pass in
// (p, s, o) order so every per-subject run comes out sorted by (P,O).
func (k *KB) deriveAdjacency() {
	k.deriveMu.Lock()
	defer k.deriveMu.Unlock()
	if k.adjReady.Load() {
		return
	}
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
	k.adjOff = adjOff
	k.adjArena = arena
	k.adjReady.Store(true)
}
