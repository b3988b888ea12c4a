package expr

// Concurrency tests for the striped evaluator cache: many goroutines hammer
// Bindings over a shared Evaluator (run with -race -cpu 1,4,8 to exercise
// the stripes under contention), asserting correct values, coalesced
// computation counts and consistent statistics.

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/remi-kb/remi/internal/kb"
	"github.com/remi-kb/remi/internal/rdf"
)

// stripeKB builds a small dense KB whose subgraph space comfortably exceeds
// the stripe count, so every stripe sees traffic.
func stripeKB(t testing.TB) *kb.KB {
	t.Helper()
	b := kb.NewBuilder()
	iri := func(s string) rdf.Term { return rdf.NewIRI("http://s/" + s) }
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 600; i++ {
		tr := rdf.Triple{
			S: iri("e" + string(rune('a'+rng.Intn(26)))),
			P: iri("p" + string(rune('a'+rng.Intn(6)))),
			O: iri("e" + string(rune('a'+rng.Intn(26)))),
		}
		if err := b.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build(kb.Options{InverseTopFraction: 0.1})
}

// subgraphPool enumerates a mixed set of subgraph expressions across every
// shape, spread over the stripes by construction.
func subgraphPool(k *kb.KB) []Subgraph {
	var out []Subgraph
	n := kb.EntID(k.NumEntities())
	for _, p := range k.Predicates() {
		for e := kb.EntID(1); e <= n; e += 3 {
			out = append(out, NewAtom1(p, e))
		}
		for _, q := range k.Predicates() {
			if p < q {
				out = append(out, NewClosed2(p, q))
				out = append(out, NewPath(p, q, n/2+1))
			}
		}
	}
	return out
}

// TestEvaluatorStripedConcurrent checks value correctness under heavy
// sharing, with and without coalescing.
func TestEvaluatorStripedConcurrent(t *testing.T) {
	k := stripeKB(t)
	pool := subgraphPool(k)
	want := make(map[Subgraph][]kb.EntID, len(pool))
	for _, g := range pool {
		want[g] = BindingSet(k, g).Slice()
	}
	for _, coalesce := range []bool{false, true} {
		ev := NewEvaluator(k, 1<<12)
		if coalesce {
			ev.EnableCoalescing()
			// Force the full stripe fan-out regardless of the host's core
			// count so the sharded paths are always exercised.
			ev.restripe(evalStripes)
		}
		workers := 4 * runtime.GOMAXPROCS(0)
		var wg sync.WaitGroup
		errs := make(chan string, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 2000; i++ {
					g := pool[rng.Intn(len(pool))]
					got := ev.Bindings(g).Slice()
					exp := want[g]
					if len(got) != len(exp) {
						errs <- "binding length mismatch"
						return
					}
					for j := range got {
						if got[j] != exp[j] {
							errs <- "binding value mismatch"
							return
						}
					}
				}
			}(int64(w))
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatalf("coalesce=%v: %s", coalesce, e)
		}
		evals, hits, misses := ev.Stats()
		if evals != uint64(workers*2000) {
			t.Fatalf("coalesce=%v: evals = %d, want %d", coalesce, evals, workers*2000)
		}
		if hits+misses != evals {
			t.Fatalf("coalesce=%v: hits %d + misses %d != evals %d", coalesce, hits, misses, evals)
		}
		// The cache (4096 across stripes) dwarfs the pool, so nothing is
		// evicted: with coalescing each subgraph is computed exactly once no
		// matter how many workers missed on it concurrently.
		if coalesce && ev.Computes() > uint64(len(pool)) {
			t.Fatalf("coalesced computes = %d for %d distinct subgraphs", ev.Computes(), len(pool))
		}
	}
}

// TestEvaluatorStripeDistribution guards the stripe selector: the pool of
// enumerated subgraphs must not collapse onto a few stripes (which would
// silently restore global contention).
func TestEvaluatorStripeDistribution(t *testing.T) {
	k := stripeKB(t)
	pool := subgraphPool(k)
	if len(pool) < 4*evalStripes {
		t.Fatalf("pool too small to judge distribution: %d", len(pool))
	}
	var hist [evalStripes]int
	for _, g := range pool {
		hist[g.Hash()&(evalStripes-1)]++
	}
	for s, n := range hist {
		if n == 0 {
			t.Fatalf("stripe %d received no subgraphs out of %d", s, len(pool))
		}
	}
}

// TestEvaluatorTinyCache keeps the capacity semantics of striping honest: a
// positive capacity smaller than the stripe count must still cache (one
// entry per stripe) rather than rounding down to zero.
func TestEvaluatorTinyCache(t *testing.T) {
	k := stripeKB(t)
	g := subgraphPool(k)[0]
	for _, striped := range []bool{false, true} {
		ev := NewEvaluator(k, 3)
		if striped {
			ev.EnableCoalescing()
			ev.restripe(evalStripes)
		}
		ev.Bindings(g)
		ev.Bindings(g)
		_, hits, _ := ev.Stats()
		if hits == 0 {
			t.Fatalf("striped=%v: tiny positive capacity must still produce cache hits", striped)
		}
	}
	// Capacity <= 0 keeps the store-nothing contract.
	off := NewEvaluator(k, 0)
	off.Bindings(g)
	off.Bindings(g)
	if _, hits, _ := off.Stats(); hits != 0 {
		t.Fatal("zero capacity must never hit")
	}
}

// TestBindingSetConcurrent evaluates the path shapes, whose working memory
// comes from a shared pool, from several goroutines at once with no cache in
// front, so every call takes and returns pooled scratch.
func TestBindingSetConcurrent(t *testing.T) {
	k := stripeKB(t)
	n := kb.EntID(k.NumEntities())
	var gs []Subgraph
	for _, p := range k.Predicates() {
		for _, q := range k.Predicates() {
			for e := kb.EntID(1); e <= n; e += 4 {
				gs = append(gs, NewPath(p, q, e), NewPathStar(p, q, e, q, n+1-e))
			}
		}
	}
	want := make([][]kb.EntID, len(gs))
	for i, g := range gs {
		want[i] = BindingSet(k, g).Slice()
	}
	var wg sync.WaitGroup
	for w := 0; w < 4*runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for range 500 {
				i := rng.Intn(len(gs))
				if got := BindingSet(k, gs[i]).Slice(); !slices.Equal(got, want[i]) {
					t.Errorf("%v: got %v, want %v", gs[i], got, want[i])
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
}
