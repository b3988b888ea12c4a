package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/remi-kb/remi/internal/complexity"
	"github.com/remi-kb/remi/internal/datagen"
	"github.com/remi-kb/remi/internal/expr"
	"github.com/remi-kb/remi/internal/kb"
	"github.com/remi-kb/remi/internal/prominence"
	"github.com/remi-kb/remi/internal/rdf"
)

// mineDFS is Algorithm 1 as §3.3 describes it: dequeue subgraph expressions
// in ascending Ĉ order and explore the subtree rooted at each depth first.
// It was the sequential miner's driver; it stays as the reference the
// cost-ordered search must match. Apart from the search it is MineContext.
func mineDFS(m *Miner, targets []kb.EntID) *Result {
	tgt := normalizeTargets(targets)
	res := &Result{Bits: complexity.Infinite}
	queue, _ := m.buildQueue(context.Background(), tgt, &queueBufs{})
	res.Stats.Candidates = len(queue)

	bnd := newBound(m.cfg.TopK)
	st := &res.Stats
	canSolve, _ := m.solvableSuffixes(context.Background(), queue, tgt)
	sc := getScratch()
	defer putScratch(sc)
	for i := range queue {
		if !canSolve[i] {
			break
		}
		if queue[i].cost >= bnd.Cost() {
			st.PrunedCost += uint64(len(queue) - i)
			break
		}
		prefix := append(make(expr.Expression, 0, 8), queue[i].g)
		m.dfsRemi(context.Background(), prefix, queue[i].cost, m.Ev.Bindings(queue[i].g), queue, i+1, tgt, 0, sc, bnd, st)
	}
	res.Expression, _ = bnd.Get()
	res.Solutions = bnd.All()
	if res.Found() {
		res.Bits = m.Est.Expression(res.Expression)
	}
	return res
}

// sameAnswer reports how got differs from the DFS's want: the same
// expression in the same element order, bit-equal Bits and equal Solutions.
func sameAnswer(got, want *Result) error {
	if !slices.Equal(got.Expression, want.Expression) {
		return fmt.Errorf("expression %v, DFS %v", got.Expression, want.Expression)
	}
	if math.Float64bits(got.Bits) != math.Float64bits(want.Bits) {
		return fmt.Errorf("bits %v, DFS %v", got.Bits, want.Bits)
	}
	if len(got.Solutions) != len(want.Solutions) {
		return fmt.Errorf("%d solutions, DFS %d", len(got.Solutions), len(want.Solutions))
	}
	for i := range got.Solutions {
		g, w := got.Solutions[i], want.Solutions[i]
		if !slices.Equal(g.Expression, w.Expression) || math.Float64bits(g.Bits) != math.Float64bits(w.Bits) {
			return fmt.Errorf("solution %d: %v (%v bits), DFS %v (%v bits)", i, g.Expression, g.Bits, w.Expression, w.Bits)
		}
	}
	return nil
}

// refConfigs are the configurations the cost-ordered search is held to the
// DFS on: both languages, top-1 and top-3, strict and with one exception.
func refConfigs() []Config {
	var out []Config
	for _, lang := range []Language{StandardLanguage, ExtendedLanguage} {
		for _, topK := range []int{1, 3} {
			for _, exc := range []int{0, 1} {
				cfg := DefaultConfig()
				cfg.Language, cfg.TopK, cfg.MaxExceptions = lang, topK, exc
				out = append(out, cfg)
			}
		}
	}
	return out
}

// checkAgainstDFS mines every set with the cost-ordered search and with the
// DFS, each on a fresh miner, and requires the same answers and no more
// visits.
func checkAgainstDFS(t *testing.T, k *kb.KB, est *complexity.Estimator, cfg Config, sets [][]kb.EntID) {
	t.Helper()
	for _, set := range sets {
		got, err := NewMiner(k, est, cfg).Mine(set)
		if err != nil {
			t.Fatal(err)
		}
		want := mineDFS(NewMiner(k, est, cfg), set)
		if err := sameAnswer(got, want); err != nil {
			t.Fatalf("targets %v: %v", set, err)
		}
		if got.Stats.Visited > want.Stats.Visited {
			t.Fatalf("targets %v: %d visits, DFS %d", set, got.Stats.Visited, want.Stats.Visited)
		}
		if got.Stats.TimedOut || got.Stats.FrontierBytes > uint64(frontierBudget) {
			t.Fatalf("targets %v: stopped %v with %d frontier bytes, budget %d", set, got.Stats.TimedOut, got.Stats.FrontierBytes, frontierBudget)
		}
		if got.Stats.PeakRetainedBytes > uint64(retainBudget) {
			t.Fatalf("targets %v: %d bytes of binding sets retained, budget %d", set, got.Stats.PeakRetainedBytes, retainBudget)
		}
		if got.Stats.PrunedSide != 0 {
			t.Fatalf("targets %v: %d side prunings on the sequential path", set, got.Stats.PrunedSide)
		}
	}
}

// TestCostOrderMatchesDFS: the sequential miner's cost-ordered search
// returns the DFS's answers — expression, element order, bits and top-k
// solutions — with no more visits, on random small KBs, on TinyGeo and on
// the DBpedia-like KB, for both metrics and every reference configuration.
func TestCostOrderMatchesDFS(t *testing.T) {
	for _, budget := range []int{retainBudget, 256, 0} {
		t.Run(fmt.Sprintf("retain=%d", budget), func(t *testing.T) {
			defer func(b int) { retainBudget = b }(retainBudget)
			retainBudget = budget
			testCostOrderMatchesDFS(t)
		})
	}
}

// testCostOrderMatchesDFS runs the three kinds of input. A small retention
// budget sends most parents' binding sets through re-intersection.
func testCostOrderMatchesDFS(t *testing.T) {
	metrics := []prominence.Metric{prominence.Fr, prominence.Pr}
	t.Run("random", func(t *testing.T) {
		rounds := 150
		if testing.Short() {
			rounds = 30
		}
		rng := rand.New(rand.NewSource(11))
		for round := 0; round < rounds; round++ {
			k := kbOf(randomTriples(rng))
			sets := [][]kb.EntID{randomTargets(rng, k), randomTargets(rng, k)}
			for _, metric := range metrics {
				est := complexity.New(k, prominence.Build(k, metric), complexity.Exact)
				for _, cfg := range refConfigs() {
					checkAgainstDFS(t, k, est, cfg, sets)
				}
			}
		}
	})
	t.Run("tiny", func(t *testing.T) {
		k, _ := tinySetup(t)
		var sets [][]kb.EntID
		for e := 1; e <= k.NumEntities(); e++ {
			sets = append(sets, []kb.EntID{kb.EntID(e)})
		}
		rng := rand.New(rand.NewSource(12))
		for i := 0; i < 40; i++ {
			sets = append(sets, []kb.EntID{kb.EntID(1 + rng.Intn(k.NumEntities())), kb.EntID(1 + rng.Intn(k.NumEntities()))})
		}
		for _, metric := range metrics {
			est := complexity.New(k, prominence.Build(k, metric), complexity.Exact)
			for _, cfg := range refConfigs() {
				checkAgainstDFS(t, k, est, cfg, sets)
			}
		}
	})
	t.Run("dbpedia", func(t *testing.T) {
		d := datagen.DBpediaLike(datagen.Config{Seed: 1, Scale: 0.25})
		k, err := d.BuildKB(kb.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		n := 24
		if testing.Short() {
			n = 6
		}
		rng := rand.New(rand.NewSource(13))
		classes := []string{"Person", "Settlement", "Album", "Film", "Organization"}
		var sets [][]kb.EntID
		for len(sets) < n {
			members := d.Members[classes[rng.Intn(len(classes))]]
			// Ranks 2–12 % of the class, as the canonical benchmark draws.
			lo, hi := len(members)/50, len(members)*12/100
			var set []kb.EntID
			for j := 0; j <= len(sets)%3; j++ {
				id, ok := k.EntityID(rdf.NewIRI(members[lo+rng.Intn(hi-lo)]))
				if !ok {
					t.Fatal("class member missing from the KB")
				}
				set = append(set, id)
			}
			sets = append(sets, set)
		}
		for _, metric := range metrics {
			est := complexity.New(k, prominence.Build(k, metric), complexity.Compressed)
			for _, cfg := range refConfigs() {
				checkAgainstDFS(t, k, est, cfg, sets)
			}
		}
	})
}

// TestFrontierBudgetStopsLikeATimeout: a search whose heap and node arena
// would outgrow frontierBudget stops as a timed-out one does. It never holds
// more than the budget; it returns the DFS's answer when it finishes, and
// otherwise a prefix of the DFS's solutions, none at all under TopK = 1.
func TestFrontierBudgetStopsLikeATimeout(t *testing.T) {
	defer func(b int) { frontierBudget = b }(frontierBudget)
	k, est := tinySetup(t)
	targets := []kb.EntID{mustID(t, k, "Guyana"), mustID(t, k, "Suriname")}
	frontierBudget = 0
	res, err := NewMiner(k, est, DefaultConfig()).Mine(targets)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.TimedOut || res.Found() || res.Stats.FrontierBytes != 0 {
		t.Fatalf("no budget: timed out %v, found %v, %d frontier bytes", res.Stats.TimedOut, res.Found(), res.Stats.FrontierBytes)
	}

	rng := rand.New(rand.NewSource(14))
	for _, budget := range []int{256, 384} {
		frontierBudget = budget
		stopped, finished := 0, 0
		for round := 0; round < 40; round++ {
			k := kbOf(randomTriples(rng))
			est := complexity.New(k, prominence.Build(k, prominence.Fr), complexity.Exact)
			for _, cfg := range refConfigs() {
				for _, set := range [][]kb.EntID{randomTargets(rng, k), randomTargets(rng, k)} {
					got, err := NewMiner(k, est, cfg).Mine(set)
					if err != nil {
						t.Fatal(err)
					}
					if got.Stats.FrontierBytes > uint64(budget) {
						t.Fatalf("budget %d, targets %v: the frontier held %d bytes", budget, set, got.Stats.FrontierBytes)
					}
					want := mineDFS(NewMiner(k, est, cfg), set)
					if !got.Stats.TimedOut {
						finished++
						if err := sameAnswer(got, want); err != nil {
							t.Fatalf("budget %d, targets %v: %v", budget, set, err)
						}
						continue
					}
					stopped++
					if cfg.TopK == 1 && got.Found() {
						t.Fatalf("budget %d, targets %v: a stopped run returned %v", budget, set, got.Expression)
					}
					if len(got.Solutions) >= len(want.Solutions) {
						t.Fatalf("budget %d, targets %v: stopped with %d of the DFS's %d solutions", budget, set, len(got.Solutions), len(want.Solutions))
					}
					for i, g := range got.Solutions {
						w := want.Solutions[i]
						if !slices.Equal(g.Expression, w.Expression) || math.Float64bits(g.Bits) != math.Float64bits(w.Bits) {
							t.Fatalf("budget %d, targets %v: solution %d %v, DFS %v", budget, set, i, g.Expression, w.Expression)
						}
					}
				}
			}
		}
		if stopped == 0 || finished == 0 {
			t.Fatalf("budget %d: %d runs stopped and %d finished; the budget should split them", budget, stopped, finished)
		}
	}
}

// randomTriples draws 35 random facts over ten entities and four
// predicates: the KBs of TestOptimalityAgainstBruteForce.
func randomTriples(rng *rand.Rand) [][3]string {
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}
	preds := []string{"p", "q", "r", "s"}
	out := make([][3]string, 35)
	for i := range out {
		out[i] = [3]string{
			"http://e/" + names[rng.Intn(len(names))],
			"http://e/" + preds[rng.Intn(len(preds))],
			"http://e/" + names[rng.Intn(len(names))],
		}
	}
	return out
}

// kbOf builds a KB of IRI triples.
func kbOf(triples [][3]string) *kb.KB {
	b := kb.NewBuilder()
	for _, tr := range triples {
		b.Add(rdf.Triple{S: rdf.NewIRI(tr[0]), P: rdf.NewIRI(tr[1]), O: rdf.NewIRI(tr[2])})
	}
	return b.Build(kb.Options{})
}

// randomTargets draws one or two distinct entities of k.
func randomTargets(rng *rand.Rand, k *kb.KB) []kb.EntID {
	n := 1 + rng.Intn(2)
	if n > k.NumEntities() {
		n = k.NumEntities()
	}
	var out []kb.EntID
	for len(out) < n {
		id := kb.EntID(rng.Intn(k.NumEntities()) + 1)
		if len(out) == 0 || out[0] != id {
			out = append(out, id)
		}
	}
	return out
}
