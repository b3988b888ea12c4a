package kb

// The derived array: the per-entity adjacency arena is an exact function of
// the CSR pso indexes, so neither the builder, the snapshot format nor
// ApplyPatch produces it. Every KB — built, reopened from a snapshot or
// patched — reconstructs it on first use, so building and opening stay free
// of it and a process that never calls AdjacencyOf (snapshot packing, a
// compaction fold) never pays.
//
// Reconstruction visits predicates ascending, subjects ascending within a
// predicate, objects ascending within a subject, so every adjacency run
// comes out (P,O)-sorted with no sort.

// ensureAdjacency makes the adjacency arena present, deriving it at most
// once.
func (k *KB) ensureAdjacency() {
	if !k.adjReady.Load() {
		k.deriveAdjacency()
	}
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
