package core

import (
	"context"
	"sync/atomic"

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
