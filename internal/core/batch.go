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
// MineBatch: the batch's worker goroutines run outside any server-side
// recovery, so an unrecovered panic there would kill the whole process
// instead of failing one set. Test with errors.Is.
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
// on fresh miners and come back in input order, one outcome per set. What
// the batch buys over a fresh miner per set is the evaluator's binding-set
// cache, which a miner keeps between calls (striped, with per-key miss
// coalescing when sets run concurrently).
//
// concurrency bounds the worker pool fanning sets; values <= 0 pick
// GOMAXPROCS, 1 mines the sets serially. Per-set isolation holds throughout:
// Config.Timeout budgets each set separately, an empty set yields
// ErrNoTargets and a panicking search ErrMinePanic in its own outcome, and
// only cancelling ctx stops the whole batch (each still-running set then
// returns its partial result with Stats.TimedOut set, like MineContext).
//
// MineBatch may enable evaluator miss coalescing (when concurrency > 1), so
// it must not run concurrently with other Mine calls on the same Miner;
// facade callers construct a Miner per batch.
func (m *Miner) MineBatch(ctx context.Context, sets [][]kb.EntID, concurrency int) []BatchOutcome {
	return m.MineBatchEach(ctx, sets, concurrency, nil)
}

// MineBatchEach is MineBatch with per-set completion delivery: each is
// invoked once per input slot, as soon as that slot's outcome is known, and
// the returned slice still holds every outcome in input order. Invocations
// are serialized (never concurrent with each other), so the callback may
// write to shared state without its own locking. Streaming servers use this
// to push entries to clients while later sets are still mining. A nil each
// makes it exactly MineBatch.
func (m *Miner) MineBatchEach(ctx context.Context, sets [][]kb.EntID, concurrency int, each func(slot int, o BatchOutcome)) []BatchOutcome {
	out := make([]BatchOutcome, len(sets))
	if concurrency < 1 {
		concurrency = runtime.GOMAXPROCS(0)
	}
	if concurrency > len(sets) {
		concurrency = len(sets)
	}
	if concurrency > 1 {
		// Concurrent sets share the evaluator: stripe the cache and coalesce
		// per-key misses so parallel sets hammering the same queue-head
		// subgraphs compute each binding set once. Idempotent when the miner
		// already runs P-REMI workers.
		m.Ev.EnableCoalescing()
	}

	var eachMu sync.Mutex // serializes each() across worker goroutines
	run := func(i int) {
		res, err := func() (res *Result, err error) {
			// One set's panic fails its own outcome, not the process (and
			// not its batch neighbors): these goroutines are the server's
			// only mining path with no recovery above them.
			defer func() {
				if p := recover(); p != nil {
					res, err = nil, fmt.Errorf("%w: %v", ErrMinePanic, p)
				}
			}()
			return m.MineContext(ctx, sets[i])
		}()
		eachMu.Lock()
		out[i] = BatchOutcome{Result: res, Err: err}
		if each != nil {
			each(i, out[i])
		}
		eachMu.Unlock()
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
