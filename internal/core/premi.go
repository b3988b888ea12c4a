package core

import (
	"context"
	"sync/atomic"

	"github.com/remi-kb/remi/internal/kb"
)

// mineParallel is P-REMI (Section 3.4): workers claim subgraph expressions
// off the sorted queue and search the subtree rooted at each, in cost order
// (searchCostOrder on the one root). It keeps REMI's logic with the paper's
// three differences:
//
//  1. the least complex solutions found so far are shared by all workers
//     (bnd);
//  2. no worker claims a root past the last one whose subtree can hold an
//     RE: canSolve[i] is that test, computed ahead of the search;
//  3. a worker stops claiming once a root costs at least the shared bound,
//     and its search stops once the cheapest conjunction it has pending
//     does.
//
// Each worker's search holds a 1/workers share of the frontier and retention
// budgets, so a run holds no more than one sequential search does. A worker
// whose search stops early, by the context or by its budget share, stops
// the others too: the run then reports Stats.TimedOut and the best REs of
// the roots its workers searched.
func (m *Miner) mineParallel(ctx context.Context, mm *memo, canSolve []bool, targets []kb.EntID, bnd *bound, res *Result) {
	queue := mm.queue
	workers := min(m.cfg.Workers, len(queue))
	ctx, stop := context.WithCancel(ctx)
	defer stop()
	var next atomic.Int32 // the next queue index to claim
	perWorker := make([]Stats, workers)
	var wg workerGroup
	for w := range perWorker {
		wg.Go(func() {
			st := &perWorker[w]
			sc := getCostScratch(workers) // per-worker scratch: never shared while held
			defer putCostScratch(sc)
			for {
				i := next.Add(1) - 1
				if int(i) >= len(queue) || !canSolve[i] || queue[i].cost >= bnd.Cost() {
					return
				}
				m.searchCostOrder(ctx, mm, canSolve, i, i+1, targets, bnd, st, sc)
				if st.TimedOut {
					stop()
					return
				}
			}
		})
	}
	wg.Wait()
	for w := range perWorker {
		res.Stats.add(&perWorker[w])
	}
}
