package core

import (
	"context"
	"math"
	"sync/atomic"

	"github.com/remi-kb/remi/internal/bindset"
	"github.com/remi-kb/remi/internal/complexity"
	"github.com/remi-kb/remi/internal/expr"
	"github.com/remi-kb/remi/internal/kb"
)

// mineParallel is P-REMI (Section 3.4): multiple workers concurrently
// dequeue subgraph expressions from the priority queue and explore the
// subtrees rooted at them. It preserves REMI's logic with the paper's three
// differences:
//
//  1. the least complex solution is shared by all threads (the bound),
//  2. a thread whose exploration rooted at ρi exhausts without a solution
//     signals every thread rooted at ρj (j > i) to stop, because any RE
//     prefixed with a costlier subgraph expression would imply one in ρi's
//     subtree,
//  3. before testing an expression each thread checks the shared bound and
//     backtracks past nodes that can no longer improve on it (implemented
//     as the live cost pruning inside dfsRemi).
func (m *Miner) mineParallel(ctx context.Context, queue []scored, targets []kb.EntID, res *Result) {
	workers := m.cfg.Workers
	if workers > len(queue) && len(queue) > 0 {
		workers = len(queue)
	}
	if workers < 1 {
		workers = 1
	}

	bnd := newBound(m.topK())
	canSolve, timedOut := m.solvableSuffixes(ctx, queue, targets)
	if timedOut {
		res.Stats.TimedOut = true
		return
	}
	var next int64                       // atomic: next queue index to claim
	noSolutionFloor := int64(len(queue)) // atomic: lowest index proven solution-free
	perWorker := make([]Stats, workers)

	var wg workerGroup
	for w := 0; w < workers; w++ {
		wg.Go(func() {
			st := &perWorker[w]
			sc := getScratch() // per-worker scratch: never shared while held
			defer putScratch(sc)
			for {
				i := atomic.AddInt64(&next, 1) - 1
				if i >= int64(len(queue)) {
					return
				}
				if i > atomic.LoadInt64(&noSolutionFloor) {
					return // difference 2: a cheaper subtree proved emptiness
				}
				if !canSolve[i] {
					return // suffix floor: no RE can exist from here on
				}
				if expired(ctx) {
					st.TimedOut = true
					return
				}
				if queue[i].cost >= bnd.Cost() {
					return // every remaining prefix is at least as complex
				}
				prefix := append(make(expr.Expression, 0, 8), queue[i].g)
				_, found := m.dfsRemi(ctx, prefix, queue[i].cost, m.Ev.Bindings(queue[i].g),
					queue, int(i)+1, targets, 0, sc, bnd, st)
				if !found && !st.TimedOut && bnd.Cost() == complexity.Infinite {
					// The subtree was explored exhaustively (no bound existed
					// to prune it) and contains no RE: anything rooted at a
					// costlier subgraph expression is superfluous.
					for {
						cur := atomic.LoadInt64(&noSolutionFloor)
						if i >= cur || atomic.CompareAndSwapInt64(&noSolutionFloor, cur, i) {
							break
						}
					}
				}
			}
		})
	}
	wg.Wait()

	for w := range perWorker {
		res.Stats.add(&perWorker[w])
	}
	res.Expression, _ = bnd.Get()
	res.Solutions = bnd.All()
}

// dfsRemi performs the depth-first exploration of conjunctions described in
// Section 3.3 (the tree of Figure 1): the children of a prefix extend it
// with strictly later queue elements. It applies pruning by depth (stop
// descending after an RE), side pruning (skip costlier siblings after an
// RE), the live cost bound shared with the other P-REMI workers (Algorithm
// 3, line 6), and redundant-conjunct pruning (a child whose subgraph
// expression does not shrink the binding set is dominated by a cheaper
// sibling chain). Bindings are threaded down the recursion so each node
// costs one set intersection instead of re-evaluating the conjunction; the
// child intersections are computed in adaptive windows by the batch kernel
// (bindset.IntersectMany) into the per-depth scratch batch of sc, so a node
// in steady state performs zero heap allocations. depth is the scratch
// level this node's children write to. It returns the cheapest RE cost
// discovered in this subtree and whether any RE was found.
func (m *Miner) dfsRemi(ctx context.Context, prefix expr.Expression, prefixCost float64, bindings bindset.Set,
	queue []scored, from int, targets []kb.EntID, depth int, sc *dfsScratch, bnd *bound, st *Stats) (float64, bool) {

	st.Visited++
	st.RETests++
	m.trace(EventVisit, prefix, prefixCost)
	// The RE test: bindings ⊇ T holds by construction (every queue element
	// is common to the targets), so exactness reduces to a size check; with
	// MaxExceptions > 0 up to that many extra entities are tolerated.
	if bindings.Card() <= len(targets)+m.cfg.MaxExceptions {
		m.trace(EventRE, prefix, prefixCost)
		if bnd.Offer(prefix, prefixCost) {
			m.trace(EventNewBest, prefix, prefixCost)
		}
		// Descendants only add cost: pruning by depth.
		st.PrunedDepth++
		return prefixCost, true
	}

	subtreeMin := math.Inf(1)
	found := false
	lvl := sc.batch(depth)
	i := from
	// The batch window is adaptive: it starts at one child and doubles each
	// time a full window is processed without a pruning break, so nodes
	// whose children die to side or cost pruning almost immediately never
	// pay for speculative intersections, while long sibling scans converge
	// to full-width word-at-a-time batches.
	win := 1
outer:
	for i < len(queue) {
		// Gather a window of children currently under the shared bound and
		// intersect the prefix bindings against all of them in one batch
		// kernel call (word-at-a-time for bitmap prefixes). The queue is
		// cost-ascending, so the window ends exactly where cost pruning
		// would stop the scan.
		bound := bnd.Cost()
		n := 0
		for n < win && i+n < len(queue) && prefixCost+queue[i+n].cost < bound {
			lvl.bind[n] = m.Ev.Bindings(queue[i+n].g)
			n++
		}
		if n == 0 {
			// This child and every later sibling meets or exceeds the
			// incumbent: cost pruning (the P-DFS-REMI backtracking rule).
			st.PrunedCost += uint64(len(queue) - i)
			if m.traceWants(EventPruneCost) {
				m.trace(EventPruneCost, append(prefix.Clone(), queue[i].g), prefixCost+queue[i].cost)
			}
			break
		}
		bindset.IntersectMany(lvl.ptrs[:n], bindings, lvl.bind[:n])
		for j := 0; j < n; j++ {
			idx := i + j
			if st.Visited%256 == 0 && expired(ctx) {
				st.TimedOut = true
				break outer
			}
			childCost := prefixCost + queue[idx].cost
			if childCost >= bnd.Cost() {
				// The bound improved mid-window: cost pruning, exactly where
				// the unbatched scan would have stopped.
				st.PrunedCost += uint64(len(queue) - idx)
				if m.traceWants(EventPruneCost) {
					m.trace(EventPruneCost, append(prefix.Clone(), queue[idx].g), childCost)
				}
				break outer
			}
			childBindings := lvl.ptrs[j]
			if childBindings.Card() == bindings.Card() {
				// The conjunct changed nothing: everything below this child
				// is dominated by the same expressions without it.
				continue
			}
			if childBindings.Card() < len(targets) {
				// Impossible: common candidates always retain T; defensive.
				continue
			}
			child := append(prefix, queue[idx].g)
			c, f := m.dfsRemi(ctx, child, childCost, *childBindings, queue, idx+1, targets, depth+1, sc, bnd, st)
			prefix = child[:len(prefix)]
			if f {
				found = true
				if c < subtreeMin {
					subtreeMin = c
				}
				// Side pruning: when the RE costs no more than the child
				// prefix itself (the child was the RE), every later sibling
				// — and everything below it — is at least as complex. With
				// TopK > 1 siblings may hold wanted alternatives, so only
				// the cost bound applies there.
				if c <= childCost && m.topK() == 1 {
					st.PrunedSide += uint64(len(queue) - idx - 1)
					m.trace(EventPruneSide, child, c)
					break outer
				}
			}
		}
		i += n
		if win < childBatch {
			win *= 2
		}
	}
	return subtreeMin, found
}
