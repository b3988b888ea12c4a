package core

import (
	"sync"

	"github.com/remi-kb/remi/internal/bindset"
)

// childBatch is the fan-out of the batch intersection kernel: the
// solvable-suffix sweep hands bindset.IntersectMany up to this many
// candidate sets per call, so bitmap floors are ANDed word-at-a-time across
// the whole window.
const childBatch = 8

// batchSets is one window of the sweep: childBatch reusable result sets plus
// the stable pointer/header arrays IntersectMany and the gather loop need.
type batchSets struct {
	sets [childBatch]bindset.Set
	ptrs [childBatch]*bindset.Set // ptrs[i] == &sets[i], wired once
	bind [childBatch]bindset.Set  // gathered candidate binding-set headers
}

// suffixScratch is the ping-pong pair of batches of the solvable-suffix
// sweep: the running floor lives in a slot of the most recently written
// batch while IntersectMany fills the other, so no live buffer is ever an
// operand of the kernel writing it. Pooled across Mine calls, the sets keep
// their buffers.
type suffixScratch [2]batchSets

var suffixPool = sync.Pool{New: func() any {
	sc := new(suffixScratch)
	for b := range sc {
		for i := range sc[b].sets {
			sc[b].ptrs[i] = &sc[b].sets[i]
		}
	}
	return sc
}}
