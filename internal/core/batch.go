package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"github.com/remi-kb/remi/internal/kb"
)

// ErrMinePanic wraps a panic recovered from one set's search inside
// MineBatch: the batch's worker goroutines have no recovery above them, so
// an unrecovered panic there would kill the whole process instead of
// failing one set. Test with errors.Is.
var ErrMinePanic = errors.New("core: mining run panicked")

// BatchOutcome is the result of one target set within a MineBatch call.
// Outcomes are positional: MineBatch returns exactly one per input set, in
// input order.
type BatchOutcome struct {
	// Result is the mining result (nil when Err is set).
	Result *Result
	// Err isolates per-set failures (ErrNoTargets for an empty set,
	// ErrMinePanic for a search that panicked): one bad set never fails the
	// batch.
	Err error
}

// MineBatch mines many target sets on this one miner: each set is an
// ordinary MineContext call, so results are byte-identical to per-set calls
// on fresh miners and come back in input order, one outcome per set. Each
// call memoises its own queue's binding sets and nothing outlives it, so the
// batch shares no work between sets: it is a loop over MineContext with a
// worker pool.
//
// concurrency bounds the worker pool fanning sets; values <= 0 pick
// GOMAXPROCS, 1 mines the sets serially. Per-set isolation holds throughout:
// Config.Timeout budgets each set separately, an empty set yields
// ErrNoTargets and a panicking search ErrMinePanic in its own outcome, and
// only cancelling ctx stops the whole batch (each still-running set then
// returns its partial result with Stats.TimedOut set, like MineContext).
func (m *Miner) MineBatch(ctx context.Context, sets [][]kb.EntID, concurrency int) []BatchOutcome {
	out := make([]BatchOutcome, len(sets))
	if concurrency < 1 {
		concurrency = runtime.GOMAXPROCS(0)
	}
	if concurrency > len(sets) {
		concurrency = len(sets)
	}

	run := func(i int) {
		// One set's panic fails its own outcome, not the process (and not
		// its batch neighbors): these goroutines have no recovery above them.
		defer func() {
			if p := recover(); p != nil {
				out[i] = BatchOutcome{Err: fmt.Errorf("%w: %v", ErrMinePanic, p)}
			}
		}()
		res, err := m.MineContext(ctx, sets[i])
		out[i] = BatchOutcome{Result: res, Err: err}
	}
	if concurrency <= 1 {
		for i := range sets {
			run(i)
		}
		return out
	}
	work := make(chan int)
	var wg sync.WaitGroup
	wg.Add(concurrency)
	for w := 0; w < concurrency; w++ {
		go func() {
			defer wg.Done()
			for i := range work {
				run(i)
			}
		}()
	}
	for i := range sets {
		work <- i
	}
	close(work)
	wg.Wait()
	return out
}
