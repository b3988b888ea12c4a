package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/remi-kb/remi/internal/kb"
)

// batchFixtureSets builds a workload over the queueTestMiner KB shaped like
// the batch use case: overlapping candidate sets (shared minimum-id anchor),
// an exact repeat, a singleton and an empty set.
func batchFixtureSets(t *testing.T, m *Miner) [][]kb.EntID {
	t.Helper()
	ids := make([]kb.EntID, 0, 16)
	for i := 1; i <= 16; i++ {
		ids = append(ids, m.K.MustEntityID(fmt.Sprintf("http://q/e%d", i)))
	}
	ids = normalizeTargets(ids)
	if len(ids) < 13 {
		t.Fatalf("fixture KB lost entities: %d left", len(ids))
	}
	return [][]kb.EntID{
		{ids[0], ids[5]},
		{ids[0], ids[5], ids[9]}, // superset: shares the enumeration anchor
		{ids[0], ids[7]},         // sibling: same anchor, different rest
		{ids[5], ids[0]},         // repeat of set 0 in another order
		{},                       // per-set failure, must not fail the batch
		{ids[3]},
		{ids[3], ids[12]},
		{ids[1], ids[2]},
	}
}

// TestMineBatchGoldenEquivalence is the batch-vs-sequential golden contract:
// MineBatch over N sets must produce results identical — expressions, bits,
// alternatives, queue sizes — to N independent MineContext calls on fresh
// miners, for every pool width. Run with `go test -race -cpu 1,4,8` to
// run the pool's sets truly in parallel.
func TestMineBatchGoldenEquivalence(t *testing.T) {
	ref, _ := queueTestMiner(t, 31)
	sets := batchFixtureSets(t, ref)

	type golden struct {
		found  bool
		expr   string
		bits   float64
		nsols  int
		ncands int
	}
	want := make([]*golden, len(sets))
	for i, set := range sets {
		if len(set) == 0 {
			continue
		}
		mm := NewMiner(ref.K, ref.Est, ref.cfg)
		res, err := mm.MineContext(context.Background(), set)
		if err != nil {
			t.Fatalf("sequential set %d: %v", i, err)
		}
		want[i] = &golden{
			found:  res.Found(),
			expr:   res.Expression.Format(ref.K),
			bits:   res.Bits,
			nsols:  len(res.Solutions),
			ncands: res.Stats.Candidates,
		}
	}

	for _, conc := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("concurrency=%d", conc), func(t *testing.T) {
			m := NewMiner(ref.K, ref.Est, ref.cfg)
			outs := m.MineBatch(context.Background(), sets, conc)
			if len(outs) != len(sets) {
				t.Fatalf("got %d outcomes for %d sets", len(outs), len(sets))
			}
			for i, o := range outs {
				if want[i] == nil {
					if !errors.Is(o.Err, ErrNoTargets) {
						t.Fatalf("set %d: err = %v, want ErrNoTargets", i, o.Err)
					}
					continue
				}
				if o.Err != nil {
					t.Fatalf("set %d: unexpected error %v", i, o.Err)
				}
				res := o.Result
				if res.Found() != want[i].found {
					t.Fatalf("set %d: found = %v, want %v", i, res.Found(), want[i].found)
				}
				if got := res.Expression.Format(ref.K); got != want[i].expr {
					t.Fatalf("set %d: expression %q, want %q", i, got, want[i].expr)
				}
				if res.Found() && res.Bits != want[i].bits {
					t.Fatalf("set %d: bits %v, want %v", i, res.Bits, want[i].bits)
				}
				if len(res.Solutions) != want[i].nsols {
					t.Fatalf("set %d: %d solutions, want %d", i, len(res.Solutions), want[i].nsols)
				}
				if res.Stats.Candidates != want[i].ncands {
					t.Fatalf("set %d: %d candidates, want %d", i, res.Stats.Candidates, want[i].ncands)
				}
			}
		})
	}
}

// TestMineBatchPerSetTimeout: Config.Timeout budgets each set separately —
// a timed-out set reports TimedOut in its own stats without erroring the
// batch or its neighbors.
func TestMineBatchPerSetTimeout(t *testing.T) {
	m, _ := queueTestMiner(t, 41)
	cfg := m.cfg
	cfg.Timeout = time.Nanosecond
	mm := NewMiner(m.K, m.Est, cfg)
	sets := batchFixtureSets(t, m)
	outs := mm.MineBatch(context.Background(), sets, 2)
	for i, o := range outs {
		if len(sets[i]) == 0 {
			if !errors.Is(o.Err, ErrNoTargets) {
				t.Fatalf("set %d: err = %v, want ErrNoTargets", i, o.Err)
			}
			continue
		}
		if o.Err != nil {
			t.Fatalf("set %d: err = %v, want partial result", i, o.Err)
		}
		if !o.Result.Stats.TimedOut {
			t.Fatalf("set %d: 1ns budget did not time out", i)
		}
	}
}

// TestMineBatchCancelledContext: cancelling the batch context stops every
// set; outcomes are partial results flagged TimedOut, mirroring MineContext.
func TestMineBatchCancelledContext(t *testing.T) {
	m, _ := queueTestMiner(t, 43)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sets := batchFixtureSets(t, m)
	outs := m.MineBatch(ctx, sets, 4)
	for i, o := range outs {
		if len(sets[i]) == 0 {
			continue
		}
		if o.Err != nil {
			t.Fatalf("set %d: err = %v", i, o.Err)
		}
		if !o.Result.Stats.TimedOut {
			t.Fatalf("set %d: cancelled batch did not mark TimedOut", i)
		}
	}
}

// TestMineBatchPerSetCacheCounters: each set's cache counters are its own
// run's memo lookups, equal to what a fresh miner reports for the set, at
// every pool width: sets of one batch share no cache.
func TestMineBatchPerSetCacheCounters(t *testing.T) {
	m, _ := queueTestMiner(t, 53)
	sets := batchFixtureSets(t, m)
	for _, conc := range []int{1, 4} {
		misses := uint64(0)
		for i, o := range NewMiner(m.K, m.Est, m.cfg).MineBatch(context.Background(), sets, conc) {
			if len(sets[i]) == 0 {
				continue
			}
			if o.Err != nil {
				t.Fatalf("set %d: %v", i, o.Err)
			}
			want, err := NewMiner(m.K, m.Est, m.cfg).MineContext(context.Background(), sets[i])
			if err != nil {
				t.Fatal(err)
			}
			got := o.Result.Stats
			if got.CacheHits != want.Stats.CacheHits || got.CacheMisses != want.Stats.CacheMisses {
				t.Fatalf("concurrency %d, set %d: %d hits / %d misses, fresh miner %d / %d",
					conc, i, got.CacheHits, got.CacheMisses, want.Stats.CacheHits, want.Stats.CacheMisses)
			}
			misses += got.CacheMisses
		}
		if misses == 0 {
			t.Fatal("fixture exercised no cache misses")
		}
	}
}

// TestMineBatchPanicIsolation: a panic inside one set's search (here the
// trace callback panics on the first node the whole batch visits) becomes
// that set's ErrMinePanic outcome instead of killing the process, and its
// neighbors — mined concurrently on the same miner — still return the
// answers a fresh miner gives.
func TestMineBatchPanicIsolation(t *testing.T) {
	m, _ := queueTestMiner(t, 59)
	sets := batchFixtureSets(t, m)
	var fired atomic.Bool
	cfg := m.cfg
	cfg.TraceMask = MaskOf(EventVisit)
	cfg.Trace = func(Event) {
		if fired.CompareAndSwap(false, true) {
			panic("first visit")
		}
	}
	outs := NewMiner(m.K, m.Est, cfg).MineBatch(context.Background(), sets, 2)
	panicked := 0
	for i, o := range outs {
		switch {
		case len(sets[i]) == 0:
			if !errors.Is(o.Err, ErrNoTargets) {
				t.Fatalf("empty set %d: err = %v", i, o.Err)
			}
		case errors.Is(o.Err, ErrMinePanic):
			panicked++
		case o.Err != nil:
			t.Fatalf("set %d: err = %v", i, o.Err)
		default:
			want, err := NewMiner(m.K, m.Est, m.cfg).MineContext(context.Background(), sets[i])
			if err != nil {
				t.Fatal(err)
			}
			if got, w := o.Result.Expression.Format(m.K), want.Expression.Format(m.K); got != w {
				t.Fatalf("set %d: neighbor of a panicking set mined %q, want %q", i, got, w)
			}
		}
	}
	if panicked != 1 {
		t.Fatalf("%d sets failed with ErrMinePanic, want exactly the one that panicked", panicked)
	}
}

// TestMinePanicReachesCaller: a panic on a goroutine the miner spawns — the
// parallel queue scoring (here a nil estimator, which the scoring
// dereferences) or a P-REMI worker (here a panicking trace callback) — is
// re-raised on the goroutine that called MineContext, where the caller's
// recover sees it, instead of killing the process. Run with -cpu 1,4,8: the
// queue scoring fans out only when GOMAXPROCS > 1.
func TestMinePanicReachesCaller(t *testing.T) {
	m, _ := queueTestMiner(t, 67)
	sets := batchFixtureSets(t, m)
	premi := m.cfg
	premi.Workers = 4
	premi.Trace = func(Event) { panic("trace callback") }
	cases := []struct {
		name  string
		miner *Miner
		// reaches reports whether a plain miner's run on the set gets to the
		// code that panics.
		reaches func(*Result) bool
	}{
		{"queue scoring", NewMiner(m.K, nil, m.cfg), func(r *Result) bool { return r.Stats.Candidates > 0 }},
		{"P-REMI worker", NewMiner(m.K, m.Est, premi), func(r *Result) bool { return r.Stats.Visited > 0 }},
	}
	for _, c := range cases {
		reached := 0
		for i, set := range sets {
			if len(set) == 0 {
				continue
			}
			ref, err := NewMiner(m.K, m.Est, m.cfg).MineContext(context.Background(), set)
			if err != nil {
				t.Fatal(err)
			}
			p := func() (p any) {
				defer func() { p = recover() }()
				c.miner.MineContext(context.Background(), set)
				return nil
			}()
			if want := c.reaches(ref); (p != nil) != want {
				t.Fatalf("%s: set %d: recovered %v, want a panic: %v", c.name, i, p, want)
			}
			if p != nil {
				reached++
			}
		}
		if reached == 0 {
			t.Fatalf("%s: no set of the fixture reached the panicking code", c.name)
		}
	}
}

// TestMineBatchEmpty covers the zero-set batch.
func TestMineBatchEmpty(t *testing.T) {
	m, _ := queueTestMiner(t, 47)
	if outs := m.MineBatch(context.Background(), nil, 4); len(outs) != 0 {
		t.Fatalf("got %d outcomes for an empty batch", len(outs))
	}
}
