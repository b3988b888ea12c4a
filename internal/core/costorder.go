package core

import (
	"context"
	"slices"
	"sync"
	"unsafe"

	"github.com/remi-kb/remi/internal/bindset"
	"github.com/remi-kb/remi/internal/expr"
	"github.com/remi-kb/remi/internal/kb"
)

// Both miners search the conjunctions of the sorted queue in nondecreasing
// Ĉ. The tree is Figure 1's: the children of a conjunction extend it with a
// strictly later queue element. A heap with lazy successors enumerates that
// tree in cost order: each popped node pushes its next sibling (its last
// element replaced by the following queue element) and its first child (the
// following queue element appended). Both cost at least as much as the node,
// because the queue is cost-sorted and Ĉ is summed in prefix order, so every
// pop is a conjunction no costlier than anything still on the heap. The
// first RE popped is therefore the answer; nothing costlier than it is
// evaluated.
//
// Ties are broken by the lexicographic order of the queue-index sequences,
// the preorder of §3.3's depth-first search of the same tree. bound.Offer
// keeps the first RE found among equal costs, so REMI's answer is the
// depth-first search's bit for bit, and the first k distinct REs popped are
// its top k. Its prunes stay: solvableRoots cuts the roots, a conjunct
// that does not shrink the binding set is skipped (its next sibling is still
// pushed, its subtree is not), and an RE is not expanded. Side pruning has
// nothing left to cut.

// retainBudget bounds the bytes of binding sets a run keeps for the parents
// of pending heap entries; P-REMI's workers each get an equal share. A parent
// over the budget keeps none, and its set is re-intersected from the
// memo's per-subgraph sets when a child pops, so the binding-set memory
// of a hub run does not grow with its visits. Tests lower it to exercise the
// re-intersection.
var retainBudget = 1 << 20

// frontierBudget bounds the bytes a run's heaps and node arenas hold
// together; P-REMI's workers each get an equal share. Both grow with the
// nodes a search expands, so without a bound a hub run that lasts until its
// timeout would hold memory in proportion to the time it ran. A run whose
// frontier needs more stops as a timed-out one does. Tests lower it.
var frontierBudget = 64 << 20

const (
	entryBytes = int(unsafe.Sizeof(csEntry{}))
	nodeBytes  = int(unsafe.Sizeof(csNode{}))
)

// csEntry is a heap entry: the conjunction of the expanded node parent
// (-1 for a root) with queue[idx], and its Ĉ.
type csEntry struct {
	cost   float64
	parent int32
	idx    int32
}

// csNode is an expanded node: a popped conjunction that is no RE and has
// children. Nodes link to their parents, so a heap entry names its whole
// conjunction with two integers.
type csNode struct {
	cost   float64
	parent int32 // -1 for a root
	idx    int32
	slot   int32 // retained binding set in costScratch.sets, or -1
}

// costScratch is one search's working storage, pooled across Mine calls. A
// P-REMI worker reuses one for each root it claims.
type costScratch struct {
	// frontierMax and retainMax are this scratch's shares of frontierBudget
	// and retainBudget.
	frontierMax, retainMax int

	heap  []csEntry
	nodes []csNode
	// sets are the binding-set slots: one is the working set of the current
	// pop, the others are retained by expanded nodes. free lists the slots
	// not in use; retained and peak count the bytes of the retained ones.
	sets     []bindset.Set
	free     []int32
	retained int
	peak     int
	// frontierPeak is the most bytes of heap entries and nodes held at once
	// since claim.
	frontierPeak int
	// rebuilt is the ping-pong pair a parent's set is re-intersected in, and
	// the one solvableRoots keeps its floor in.
	rebuilt    [2]bindset.Set
	seqA, seqB []int32
	e          expr.Expression
}

var costScratchPool = sync.Pool{New: func() any { return &costScratch{} }}

// Bounds on what a pooled scratch keeps after a search: a hub run's heap,
// node arena and binding-set buffers go to the collector, not back to the
// pool.
const (
	pooledEntries  = 1 << 14
	pooledSetBytes = 256 << 10
)

// getCostScratch returns a scratch holding a 1/shares share of the budgets.
func getCostScratch(shares int) *costScratch {
	sc := costScratchPool.Get().(*costScratch)
	sc.claim(shares)
	return sc
}

// claim readies sc for a run that gives it a 1/shares share of the budgets:
// whatever sc held for an earlier run counts toward no peak, and a heap and
// arena over the new share are dropped.
func (sc *costScratch) claim(shares int) {
	sc.frontierMax, sc.retainMax = frontierBudget/shares, retainBudget/shares
	sc.peak, sc.frontierPeak = 0, 0
	if sc.frontierBytes() > sc.frontierMax {
		sc.heap, sc.nodes = nil, nil
	}
}

// reset empties the heap, the node arena and the binding-set slots for the
// next search. The capacities and the peaks stay.
func (sc *costScratch) reset() {
	sc.heap, sc.nodes = sc.heap[:0], sc.nodes[:0]
	sc.free = sc.free[:0]
	for i := len(sc.sets) - 1; i >= 0; i-- {
		sc.free = append(sc.free, int32(i))
	}
	sc.retained = 0
}

func putCostScratch(sc *costScratch) {
	kept := 0
	for i := range sc.sets {
		if kept += sc.sets[i].Footprint(); kept > pooledSetBytes {
			clear(sc.sets[i:])
			sc.sets = sc.sets[:i]
			break
		}
	}
	if cap(sc.heap) > pooledEntries {
		sc.heap = nil
	}
	if cap(sc.nodes) > pooledEntries {
		sc.nodes = nil
	}
	costScratchPool.Put(sc)
}

// frontierBytes is the capacity of the heap and the node arena in bytes.
func (sc *costScratch) frontierBytes() int {
	return cap(sc.heap)*entryBytes + cap(sc.nodes)*nodeBytes
}

// noteFrontier raises frontierPeak to the bytes the heap and the node arena
// hold now.
func (sc *costScratch) noteFrontier() {
	sc.frontierPeak = max(sc.frontierPeak, len(sc.heap)*entryBytes+len(sc.nodes)*nodeBytes)
}

// reserve makes room for one more heap entry and one more node, the most a
// pop adds, within frontierMax. It reports false when the share is spent.
func (sc *costScratch) reserve() bool {
	sc.noteFrontier()
	if len(sc.heap) < cap(sc.heap) && len(sc.nodes) < cap(sc.nodes) {
		return true
	}
	room := sc.frontierMax - sc.frontierBytes()
	var ok bool
	if sc.heap, ok = growWithin(sc.heap, entryBytes, &room); !ok {
		return false
	}
	sc.nodes, ok = growWithin(sc.nodes, nodeBytes, &room)
	return ok
}

// growWithin gives a full s room for at least one more element: it doubles
// its capacity, or grows it by half of what room bytes still hold (one
// element when less fits), and takes the growth from room. Taking at most
// half leaves the other array of the frontier room to grow, however small
// the share. It reports false when not even one element fits.
func growWithin[T any](s []T, size int, room *int) ([]T, bool) {
	if len(s) < cap(s) {
		return s, true
	}
	if *room < size {
		return s, false
	}
	n := min(max(cap(s), 64), max(*room/2/size, 1))
	*room -= n * size
	t := make([]T, len(s), cap(s)+n)
	copy(t, s)
	return t, true
}

// take returns a free binding-set slot, growing the slab when none is free.
func (sc *costScratch) take() int32 {
	if n := len(sc.free); n > 0 {
		s := sc.free[n-1]
		sc.free = sc.free[:n-1]
		return s
	}
	sc.sets = append(sc.sets, bindset.Set{})
	return int32(len(sc.sets) - 1)
}

func (sc *costScratch) give(s int32) { sc.free = append(sc.free, s) }

// retain keeps slot s for an expanded node when retainMax allows it. The
// slot's spare buffer, left by an earlier set of the other representation,
// is dropped first: it would count against the budget for nothing.
func (sc *costScratch) retain(s int32) bool {
	sc.sets[s].DropSpare()
	fp := sc.sets[s].Footprint()
	if sc.retained+fp > sc.retainMax {
		return false
	}
	sc.retained += fp
	sc.peak = max(sc.peak, sc.retained)
	return true
}

// release frees node p's retained set: its last child has popped.
func (sc *costScratch) release(p int32) {
	if s := sc.nodes[p].slot; s >= 0 {
		sc.retained -= sc.sets[s].Footprint()
		sc.nodes[p].slot = -1
		sc.give(s)
	}
}

// appendSeq appends the queue indices of node p's conjunction, root first.
func (sc *costScratch) appendSeq(dst []int32, p int32) []int32 {
	start := len(dst)
	for ; p >= 0; p = sc.nodes[p].parent {
		dst = append(dst, sc.nodes[p].idx)
	}
	slices.Reverse(dst[start:])
	return dst
}

// less orders heap entries by Ĉ, then by the lexicographic order of their
// queue-index sequences (a prefix first): a depth-first preorder.
func (sc *costScratch) less(a, b *csEntry) bool {
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	sc.seqA = append(sc.appendSeq(sc.seqA[:0], a.parent), a.idx)
	sc.seqB = append(sc.appendSeq(sc.seqB[:0], b.parent), b.idx)
	return slices.Compare(sc.seqA, sc.seqB) < 0
}

func (sc *costScratch) push(e csEntry) {
	h := append(sc.heap, e)
	i := len(h) - 1
	for i > 0 {
		up := (i - 1) / 2
		if !sc.less(&h[i], &h[up]) {
			break
		}
		h[i], h[up] = h[up], h[i]
		i = up
	}
	sc.heap = h
}

func (sc *costScratch) pop() csEntry {
	h := sc.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && sc.less(&h[r], &h[l]) {
			c = r
		}
		if !sc.less(&h[c], &h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	sc.heap = h
	return top
}

// expression renders entry e's conjunction into the reused buffer sc.e, in
// queue order, the order Ĉ is summed in.
func (sc *costScratch) expression(queue []scored, e csEntry) expr.Expression {
	sc.seqA = append(sc.appendSeq(sc.seqA[:0], e.parent), e.idx)
	sc.e = sc.e[:0]
	for _, i := range sc.seqA {
		sc.e = append(sc.e, queue[i].g)
	}
	return sc.e
}

// parentSet returns the binding set of expanded node p: its retained set, a
// root's memoised set, or the intersection of its conjuncts' memoised sets.
func parentSet(sc *costScratch, mm *memo, p int32, st *Stats) bindset.Set {
	nd := &sc.nodes[p]
	switch {
	case nd.slot >= 0:
		return sc.sets[nd.slot]
	case nd.parent < 0:
		return mm.bindings(nd.idx, st)
	}
	sc.seqB = sc.appendSeq(sc.seqB[:0], p)
	cur := mm.bindings(sc.seqB[0], st)
	for j, i := range sc.seqB[1:] {
		dst := &sc.rebuilt[j%2]
		dst.IntersectInto(cur, mm.bindings(i, st))
		cur = *dst
	}
	return cur
}

// searchCostOrder pops, in cost order, the conjunctions whose first element
// is one of the roots queue[lo:hi], each of which can hold an RE (hi is at
// most solvableRoots' n; see the comment at the top of this file), offering
// the REs it pops to bnd. It stops at the k-th RE it pops,
// when the cheapest pending conjunction costs at least bnd.Cost() (the
// shared bound of P-REMI's difference 3, which other workers may lower), when
// ctx ends, or when sc's frontier share is spent; the last two set
// st.TimedOut. A search that stops early has popped no RE cheaper than those
// it offered, and before its subtrees' optimum it has popped none at all.
func (m *Miner) searchCostOrder(ctx context.Context, mm *memo, lo, hi int32,
	targets []kb.EntID, bnd *bound, st *Stats, sc *costScratch) {
	sc.reset()
	queue := mm.queue
	n := int32(len(queue))
	limit := len(targets) + m.cfg.MaxExceptions
	found, k := 0, m.topK()
	if sc.reserve() {
		sc.push(csEntry{cost: queue[lo].cost, parent: -1, idx: lo})
	} else {
		st.TimedOut = true
	}
	for pops := 0; len(sc.heap) > 0; pops++ {
		if sc.heap[0].cost >= bnd.Cost() {
			break // nothing left can improve on the bound
		}
		if !sc.reserve() {
			st.TimedOut = true
			break
		}
		e := sc.pop()
		// Check the context at each root and every 256 pops.
		if (e.parent < 0 || pops%256 == 0) && expired(ctx) {
			st.TimedOut = true
			break
		}
		// A child's next sibling may be any later queue element, a root's
		// only a later root.
		next := e.idx + 1
		switch {
		case next == n:
		case e.parent >= 0:
			sc.push(csEntry{cost: sc.nodes[e.parent].cost + queue[next].cost, parent: e.parent, idx: next})
		case next < hi:
			sc.push(csEntry{cost: queue[next].cost, parent: -1, idx: next})
		}
		// The node's binding set: a root's is memoised; a child's is its
		// parent's intersected with the conjunct's, into a working slot.
		var set bindset.Set
		slot := int32(-1)
		if e.parent < 0 {
			set = mm.bindings(e.idx, st)
		} else {
			ps := parentSet(sc, mm, e.parent, st)
			slot = sc.take()
			sc.sets[slot].IntersectInto(ps, mm.bindings(e.idx, st))
			set = sc.sets[slot]
			if next == n {
				sc.release(e.parent) // the last child of its parent
			}
			// A conjunct that changes nothing is dominated by the same
			// conjunction without it; common candidates always retain T.
			if set.Card() == ps.Card() || set.Card() < len(targets) {
				sc.give(slot)
				continue
			}
		}

		st.Visited++
		st.RETests++
		if m.traceWants(EventVisit) {
			m.trace(EventVisit, sc.expression(queue, e), e.cost)
		}
		if set.Card() <= limit {
			// An RE: its descendants only add cost (pruning by depth).
			st.PrunedDepth++
			x := sc.expression(queue, e)
			m.trace(EventRE, x, e.cost)
			if bnd.Offer(x, e.cost) {
				m.trace(EventNewBest, x, e.cost)
			}
			if slot >= 0 {
				sc.give(slot)
			}
			if found++; found == k {
				break
			}
			continue
		}
		if next < n {
			nd := csNode{cost: e.cost, parent: e.parent, idx: e.idx, slot: -1}
			if slot >= 0 && sc.retain(slot) {
				nd.slot, slot = slot, -1
			}
			sc.nodes = append(sc.nodes, nd)
			sc.push(csEntry{cost: e.cost + queue[next].cost, parent: int32(len(sc.nodes) - 1), idx: next})
		}
		if slot >= 0 {
			sc.give(slot)
		}
	}
	// Each entry left on the heap is the cheapest node of a subtree the
	// answer's cost (or the stop) cut.
	st.PrunedCost += uint64(len(sc.heap))
	sc.noteFrontier()
	st.PeakRetainedBytes = uint64(sc.peak)
	st.FrontierBytes = uint64(sc.frontierPeak)
}
