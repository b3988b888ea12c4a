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
//  2. a worker claims only the roots whose subtrees can hold an RE,
//     queue[:n], which solvableRoots finds ahead of the search;
//  3. a worker stops claiming once a root costs at least the shared bound,
//     and its search stops once the cheapest conjunction it has pending
//     does.
//
// It starts no more workers than there are roots to claim, and each
// worker's search holds a 1/workers share of the frontier and retention
// budgets, so a run holds no more than one sequential search does. A worker
// whose search stops early, by the context or by its budget share, stops
// the others too: the run then reports Stats.TimedOut and the best REs of
// the roots its workers searched.
func (m *Miner) mineParallel(ctx context.Context, mm *memo, n int32, targets []kb.EntID, bnd *bound, res *Result) {
	queue := mm.queue
	workers := min(m.cfg.Workers, int(n))
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
				if i >= n || queue[i].cost >= bnd.Cost() {
					return
				}
				m.searchCostOrder(ctx, mm, i, i+1, targets, bnd, st, sc)
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
