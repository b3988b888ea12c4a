package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/remi-kb/remi/internal/bindset"
	"github.com/remi-kb/remi/internal/complexity"
	"github.com/remi-kb/remi/internal/datagen"
	"github.com/remi-kb/remi/internal/expr"
	"github.com/remi-kb/remi/internal/kb"
	"github.com/remi-kb/remi/internal/prominence"
	"github.com/remi-kb/remi/internal/rdf"
)

// mineDFS is Algorithm 1 as §3.3 describes it: dequeue subgraph expressions
// in ascending Ĉ order and explore the subtree rooted at each depth first.
// It was the miners' search; it stays as the reference the cost-ordered
// search must match. Apart from the search it is MineContext.
func mineDFS(m *Miner, targets []kb.EntID) *Result {
	tgt := normalizeTargets(targets)
	res := &Result{Bits: complexity.Infinite}
	qb := &queueBufs{}
	queue, _ := m.buildQueue(context.Background(), tgt, qb)
	res.Stats.Candidates = len(queue)

	mm := qb.newMemo(m.K, queue)
	r := &dfsRef{m: m, mm: mm, queue: queue, targets: tgt, bnd: newBound(m.cfg.TopK), st: &res.Stats}
	n, _ := m.solvableRoots(context.Background(), mm, tgt, r.st, new(costScratch))
	for i := range int(n) {
		if queue[i].cost >= r.bnd.Cost() {
			r.st.PrunedCost += uint64(len(queue) - i)
			break
		}
		r.dfsRemi(expr.Expression{queue[i].g}, queue[i].cost, mm.bindings(int32(i), r.st), i+1, 0)
	}
	res.Expression, _ = r.bnd.Get()
	res.Solutions = r.bnd.All()
	if res.Found() {
		res.Bits = m.Est.Expression(res.Expression)
	}
	return res
}

// dfsRef is one reference search: the queue and its memo, the targets, the
// bound and the stats it fills, and levels[d], the working binding set of a
// child at depth d.
type dfsRef struct {
	m       *Miner
	mm      *memo
	queue   []scored
	targets []kb.EntID
	bnd     *bound
	st      *Stats
	levels  []bindset.Set
}

// dfsRemi explores the subtree below prefix, whose binding set is bindings,
// depth first (the tree of Figure 1): the children of a prefix extend it
// with the queue elements from index from on. It prunes by depth (an RE is
// not expanded), by side (under top-1, the siblings after an RE child that
// is itself the subtree's cheapest RE), by cost (a child costing at least
// the bound ends the scan) and skips a conjunct that does not shrink the
// binding set. It returns the cheapest RE cost in the subtree and whether
// it found one.
func (r *dfsRef) dfsRemi(prefix expr.Expression, prefixCost float64, bindings bindset.Set, from, depth int) (float64, bool) {
	r.st.Visited++
	r.st.RETests++
	r.m.trace(EventVisit, prefix, prefixCost)
	if bindings.Card() <= len(r.targets)+r.m.cfg.MaxExceptions {
		r.m.trace(EventRE, prefix, prefixCost)
		if r.bnd.Offer(prefix, prefixCost) {
			r.m.trace(EventNewBest, prefix, prefixCost)
		}
		r.st.PrunedDepth++
		return prefixCost, true
	}
	if len(r.levels) == depth {
		r.levels = append(r.levels, bindset.Set{})
	}
	subtreeMin, found := math.Inf(1), false
	for idx := from; idx < len(r.queue); idx++ {
		childCost := prefixCost + r.queue[idx].cost
		if childCost >= r.bnd.Cost() {
			r.st.PrunedCost += uint64(len(r.queue) - idx)
			break
		}
		r.levels[depth].IntersectInto(bindings, r.mm.bindings(int32(idx), r.st))
		child := r.levels[depth]
		if child.Card() == bindings.Card() || child.Card() < len(r.targets) {
			continue
		}
		c, f := r.dfsRemi(append(prefix, r.queue[idx].g), childCost, child, idx+1, depth+1)
		if f {
			found = true
			subtreeMin = min(subtreeMin, c)
			if c <= childCost && r.m.topK() == 1 {
				break
			}
		}
	}
	return subtreeMin, found
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

// sameCosts reports how got's solutions differ in cost from want's: their
// number, or the bits of one of them. Equal-cost REs may differ.
func sameCosts(got, want *Result) error {
	if len(got.Solutions) != len(want.Solutions) {
		return fmt.Errorf("%d solutions, want %d", len(got.Solutions), len(want.Solutions))
	}
	for i := range got.Solutions {
		if g, w := got.Solutions[i], want.Solutions[i]; math.Float64bits(g.Bits) != math.Float64bits(w.Bits) {
			return fmt.Errorf("solution %d: %v (%v bits), want %v (%v bits)", i, g.Expression, g.Bits, w.Expression, w.Bits)
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

// TestFrontierBudgetStopsLikeATimeout: a run whose heaps and node arenas
// would outgrow frontierBudget stops as a timed-out one does, under REMI and
// under P-REMI with 4 workers. It never holds more than the budget in total.
// A finished run returns the DFS's answer (under P-REMI its solution costs:
// equal-cost REs may differ). A stopped REMI run returns a prefix of the
// DFS's solutions, none at all under TopK = 1; a stopped P-REMI run returns
// REs from the roots its workers searched, none cheaper than the DFS's.
func TestFrontierBudgetStopsLikeATimeout(t *testing.T) {
	defer func(b int) { frontierBudget = b }(frontierBudget)
	k, est := tinySetup(t)
	targets := []kb.EntID{mustID(t, k, "Guyana"), mustID(t, k, "Suriname")}
	frontierBudget = 0
	for _, workers := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.Workers = workers
		res, err := NewMiner(k, est, cfg).Mine(targets)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stats.TimedOut || res.Found() || res.Stats.FrontierBytes != 0 {
			t.Fatalf("no budget, %d workers: timed out %v, found %v, %d frontier bytes", workers, res.Stats.TimedOut, res.Found(), res.Stats.FrontierBytes)
		}
	}

	rng := rand.New(rand.NewSource(14))
	for _, workers := range []int{1, 4} {
		// A worker's share is a 1/workers part of the budget.
		for _, budget := range []int{256 * workers, 384 * workers} {
			frontierBudget = budget
			stopped, finished := 0, 0
			for round := 0; round < 40; round++ {
				k := kbOf(randomTriples(rng))
				est := complexity.New(k, prominence.Build(k, prominence.Fr), complexity.Exact)
				for _, cfg := range refConfigs() {
					cfg.Workers = workers
					for _, set := range [][]kb.EntID{randomTargets(rng, k), randomTargets(rng, k)} {
						got, err := NewMiner(k, est, cfg).Mine(set)
						if err != nil {
							t.Fatal(err)
						}
						if got.Stats.FrontierBytes > uint64(budget) {
							t.Fatalf("%d workers, budget %d, targets %v: the frontier held %d bytes", workers, budget, set, got.Stats.FrontierBytes)
						}
						want := mineDFS(NewMiner(k, est, cfg), set)
						if !got.Stats.TimedOut {
							finished++
							err := sameAnswer(got, want)
							if workers > 1 {
								err = sameCosts(got, want)
							}
							if err != nil {
								t.Fatalf("%d workers, budget %d, targets %v: %v", workers, budget, set, err)
							}
							continue
						}
						stopped++
						if err := stoppedShort(got, want, workers == 1); err != nil {
							t.Fatalf("%d workers, budget %d, targets %v: %v", workers, budget, set, err)
						}
					}
				}
			}
			if stopped == 0 || finished == 0 {
				t.Fatalf("%d workers, budget %d: %d runs stopped and %d finished; the budget should split them", workers, budget, stopped, finished)
			}
		}
	}
}

// stoppedShort reports how a stopped run's solutions differ from what a
// stop leaves. A sequential run's are a strict prefix of the DFS's, so it has
// none under TopK = 1. A P-REMI run's are no more than the DFS's, each no
// cheaper than the DFS's at its rank.
func stoppedShort(got, want *Result, sequential bool) error {
	n := len(want.Solutions)
	if sequential {
		n = max(n-1, 0)
	}
	if len(got.Solutions) > n {
		return fmt.Errorf("stopped with %d of the DFS's %d solutions", len(got.Solutions), len(want.Solutions))
	}
	for i, g := range got.Solutions {
		w := want.Solutions[i]
		if sequential && (!slices.Equal(g.Expression, w.Expression) || math.Float64bits(g.Bits) != math.Float64bits(w.Bits)) {
			return fmt.Errorf("solution %d %v, DFS %v", i, g.Expression, w.Expression)
		}
		if g.Bits < w.Bits {
			return fmt.Errorf("solution %d costs %v, cheaper than the DFS's %v", i, g.Bits, w.Bits)
		}
	}
	return nil
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
