package expr

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/remi-kb/remi/internal/kb"
	"github.com/remi-kb/remi/internal/rdf"
)

// denseKB builds a small dense KB: 600 random facts over 26 entities and
// six predicates.
func denseKB(t testing.TB) *kb.KB {
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

// TestBindingSetConcurrent evaluates the path shapes, whose working memory
// comes from a shared pool, from several goroutines at once with no cache in
// front, so every call takes and returns pooled scratch.
func TestBindingSetConcurrent(t *testing.T) {
	k := denseKB(t)
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
