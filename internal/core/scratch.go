package core

import (
	"sync"

	"github.com/remi-kb/remi/internal/bindset"
)

// childBatch is the fan-out of the batch intersection kernel: the DFS child
// loop and the solvable-suffix sweep hand bindset.IntersectMany up to this
// many candidate sets per call, so bitmap prefixes are ANDed word-at-a-time
// across the whole window.
const childBatch = 8

// batchSets is one depth level of DFS scratch: childBatch reusable result
// sets plus the stable pointer/header arrays IntersectMany and the gather
// loop need, kept here so a steady-state search node performs zero heap
// allocations.
type batchSets struct {
	sets [childBatch]bindset.Set
	ptrs [childBatch]*bindset.Set // ptrs[i] == &sets[i], wired once
	bind [childBatch]bindset.Set  // gathered candidate binding-set headers
}

func newBatchSets() *batchSets {
	b := &batchSets{}
	for i := range b.sets {
		b.ptrs[i] = &b.sets[i]
	}
	return b
}

// dfsScratch holds the per-exploration scratch binding sets that make the
// DFS allocation-free in steady state: one batch of reusable sets per depth
// level. A node at depth d intersects its (parent-owned) binding set with a
// window of candidates into level d's batch slots; its children write only
// levels > d, and a later window reuses level d after the subtree returns,
// so no two live sets ever share a buffer. Each P-REMI worker owns one
// dfsScratch — scratch is never shared across goroutines — and finished
// searches return their scratch to a per-miner pool, so repeated Mine calls
// reuse warm buffers instead of reallocating them.
type dfsScratch struct {
	levels []*batchSets
	// sfx is the ping-pong pair of batch levels used by the solvable-suffix
	// sweep: the running floor lives in a slot of the most recently written
	// array while IntersectMany fills the other, so no live buffer is ever
	// an operand of the kernel writing it.
	sfx [2]*batchSets
}

// scratchPool recycles dfsScratch values across Mine calls and workers. The
// pooled sets keep their buffers, so a warmed-up miner allocates nothing
// for scratch on subsequent searches.
var scratchPool = sync.Pool{New: func() any { return &dfsScratch{} }}

func getScratch() *dfsScratch   { return scratchPool.Get().(*dfsScratch) }
func putScratch(sc *dfsScratch) { scratchPool.Put(sc) }

// batch returns the scratch batch of depth d, growing the pool on first
// use. After the first descent to depth d the slots' buffers are reused, so
// the steady-state cost of a search node is a buffer-to-buffer batch
// intersection and zero allocations.
func (sc *dfsScratch) batch(d int) *batchSets {
	for len(sc.levels) <= d {
		sc.levels = append(sc.levels, newBatchSets())
	}
	return sc.levels[d]
}

// suffix returns the ping-pong batch pair of the solvable-suffix sweep.
func (sc *dfsScratch) suffix() [2]*batchSets {
	if sc.sfx[0] == nil {
		sc.sfx[0], sc.sfx[1] = newBatchSets(), newBatchSets()
	}
	return sc.sfx
}
