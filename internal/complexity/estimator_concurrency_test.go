package complexity

import (
	"sync"
	"testing"

	"github.com/remi-kb/remi/internal/expr"
	"github.com/remi-kb/remi/internal/kb"
	"github.com/remi-kb/remi/internal/prominence"
)

// TestEstimatorConcurrentColdCache scores many distinct subgraphs on a
// fresh estimator from many goroutines and asserts every value matches the
// sequential reference.
func TestEstimatorConcurrentColdCache(t *testing.T) {
	k, ref := setup(t, Exact)
	var gs []expr.Subgraph
	for p := 1; p <= k.NumPredicates(); p++ {
		for e := 1; e <= k.NumEntities(); e++ {
			gs = append(gs, expr.NewAtom1(kb.PredID(p), kb.EntID(e)))
			gs = append(gs, expr.NewPath(kb.PredID(p), kb.PredID(p), kb.EntID(e)))
		}
	}
	want := make([]float64, len(gs))
	for i, g := range gs {
		want[i] = ref.Subgraph(g)
	}

	_, est := setup(t, Exact)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			for i := range gs {
				j := (i + off*137) % len(gs)
				if got := est.Subgraph(gs[j]); got != want[j] {
					t.Errorf("concurrent cost mismatch for %+v: %f want %f", gs[j], got, want[j])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestEstimatorDoesNotAllocate: Ĉ is computed from the prominence store,
// not memoized, so building an estimator and scoring thousands of distinct
// subgraphs with it allocates at most the estimator itself.
func TestEstimatorDoesNotAllocate(t *testing.T) {
	k := skewedKB(t)
	prom := prominence.Build(k, prominence.Fr)
	nP, nE := k.NumPredicates(), k.NumEntities()
	seen := make(map[expr.Subgraph]bool)
	for p0 := 1; p0 <= nP; p0++ {
		for p1 := 1; p1 <= nP; p1++ {
			for p2 := 1; p2 <= nP; p2++ {
				for i1 := 1; i1 <= nE; i1++ {
					for i2 := 1; i2 <= nE; i2++ {
						seen[expr.NewPathStar(kb.PredID(p0), kb.PredID(p1), kb.EntID(i1), kb.PredID(p2), kb.EntID(i2))] = true
					}
				}
			}
		}
	}
	gs := make([]expr.Subgraph, 0, len(seen))
	for g := range seen {
		gs = append(gs, g)
	}
	if len(gs) < 5000 {
		t.Fatalf("only %d distinct subgraphs; the KB is too small for this test", len(gs))
	}
	for _, mode := range []Mode{Compressed, Exact} {
		// The estimator is built inside the measured function: AllocsPerRun's
		// warm-up call would otherwise hide any state filled on first use.
		allocs := testing.AllocsPerRun(1, func() {
			est := New(k, prom, mode)
			for _, g := range gs {
				est.Subgraph(g)
			}
		})
		if allocs > 1 {
			t.Fatalf("mode %d: scoring %d distinct subgraphs allocated %.0f times, want at most 1", mode, len(gs), allocs)
		}
	}
}
