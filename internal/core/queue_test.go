package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"github.com/remi-kb/remi/internal/bindset"
	"github.com/remi-kb/remi/internal/complexity"
	"github.com/remi-kb/remi/internal/expr"
	"github.com/remi-kb/remi/internal/kb"
	"github.com/remi-kb/remi/internal/prominence"
	"github.com/remi-kb/remi/internal/rdf"
)

// queueTestMiner builds a miner over a random Zipf-ish KB that is large
// enough to cross the parallel queue-build threshold.
func queueTestMiner(t *testing.T, seed int64) (*Miner, []kb.EntID) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := kb.NewBuilder()
	e := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://q/e%d", i)) }
	p := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://q/p%d", i)) }
	const nEnt, nPred, nFacts = 400, 12, 6000
	for i := 0; i < nFacts; i++ {
		// Square the draw so low ids act as hubs, giving the targets a rich
		// shared neighborhood (many common candidates).
		s := rng.Intn(nEnt)
		o := rng.Intn(nEnt) * rng.Intn(nEnt) / nEnt
		if err := b.Add(rdf.Triple{S: e(s), P: p(rng.Intn(nPred)), O: e(o)}); err != nil {
			t.Fatal(err)
		}
	}
	k := b.Build(kb.Options{InverseTopFraction: 0.05})
	prom := prominence.Build(k, prominence.Fr)
	est := complexity.New(k, prom, complexity.Exact)
	m := NewMiner(k, est, DefaultConfig())
	targets := []kb.EntID{k.MustEntityID("http://q/e1"), k.MustEntityID("http://q/e2")}
	return m, targets
}

// TestParallelQueueBuildDeterministic asserts the contract the parallel
// queue build must keep for the golden mining tests to stay byte-identical:
// the same queue, in the same order, for every worker-pool width. Run with
// `go test -cpu 1,4,8` to cover the GOMAXPROCS values the pool keys on;
// the test additionally forces the extremes itself.
func TestParallelQueueBuildDeterministic(t *testing.T) {
	m, targets := queueTestMiner(t, 7)

	build := func() []scored {
		// Each build gets its own buffers: the three queues are compared
		// against each other after all builds complete.
		q, timedOut := m.buildQueue(context.Background(), targets, &queueBufs{})
		if timedOut {
			t.Fatal("queue build timed out without a deadline")
		}
		return q
	}

	prev := runtime.GOMAXPROCS(1)
	seq := build()
	runtime.GOMAXPROCS(8)
	par := build()
	runtime.GOMAXPROCS(prev)
	cur := build()

	if len(seq) == 0 {
		t.Fatal("empty queue: the fixture lost its common candidates")
	}
	for name, q := range map[string][]scored{"gomaxprocs=8": par, "ambient": cur} {
		if len(q) != len(seq) {
			t.Fatalf("%s: queue len %d, want %d", name, len(q), len(seq))
		}
		for i := range q {
			if q[i].g != seq[i].g || q[i].cost != seq[i].cost {
				t.Fatalf("%s: queue[%d] = (%v, %f), want (%v, %f)",
					name, i, q[i].g, q[i].cost, seq[i].g, seq[i].cost)
			}
		}
	}
}

// CommonSubgraphs enumerates the subgraph expressions common to all target
// entities (line 1 of Algorithm 1): the subgraphs of the first target
// filtered by a match test on every other target. It is the sequential
// reference for the miner's fanned-out queue build (see buildQueue).
func CommonSubgraphs(k *kb.KB, targets []kb.EntID, opts EnumerateOptions) []expr.Subgraph {
	if len(targets) == 0 {
		return nil
	}
	cands := SubgraphsOf(k, targets[0], opts)
	if len(targets) == 1 {
		return cands
	}
	out := cands[:0]
	for _, g := range cands {
		if holdsForAll(k, g, targets[1:]) {
			out = append(out, g)
		}
	}
	return out
}

// TestParallelQueueBuildMatchesSequentialFilter cross-checks the fan-out
// against the plain CommonSubgraphs + score loop it replaced.
func TestParallelQueueBuildMatchesSequentialFilter(t *testing.T) {
	m, targets := queueTestMiner(t, 11)
	opts := EnumerateOptions{Language: m.cfg.Language, Prominent: m.prominent, SkipPredID: m.K.LabelPredicate()}
	want := CommonSubgraphs(m.K, targets, opts)
	got, _ := m.buildQueue(context.Background(), targets, &queueBufs{})
	// buildQueue sorts; compare as sets with exact costs.
	wantCost := make(map[expr.Subgraph]float64, len(want))
	for _, g := range want {
		wantCost[g] = m.Est.Subgraph(g)
	}
	if len(got) != len(want) {
		t.Fatalf("queue has %d candidates, sequential filter %d", len(got), len(want))
	}
	for _, s := range got {
		c, ok := wantCost[s.g]
		if !ok {
			t.Fatalf("queue holds %v, absent from the sequential filter", s.g)
		}
		if c != s.cost {
			t.Fatalf("cost mismatch for %v: %f vs %f", s.g, s.cost, c)
		}
	}
}

// TestSolvableRootsMatchesNaiveChain pins line 8 of Algorithm 1 as one
// index. The naive can vector (the right-to-left chain of suffix floors,
// every one computed) is a true prefix, which is what lets solvableRoots
// return its length n in its place. The chain is the first to read the
// run's memo and stops at root n−1, so it reads no hit and computes the
// binding sets of queue[max(n−1, 0):] only. The cases cover strict and
// relaxed (MaxExceptions 1) runs, sets with some but not all roots
// solvable, and a set whose queue holds no RE.
func TestSolvableRootsMatchesNaiveChain(t *testing.T) {
	type chainCase struct {
		name    string
		m       *Miner
		targets []kb.EntID
	}
	var cases []chainCase
	for seed := int64(0); seed < 6; seed++ {
		m, targets := queueTestMiner(t, 20+seed)
		cases = append(cases, chainCase{fmt.Sprintf("seed %d", seed), m, targets})
		relaxed := *m
		relaxed.cfg.MaxExceptions = 1
		cases = append(cases, chainCase{fmt.Sprintf("seed %d, 1 exception", seed), &relaxed, targets})
	}
	// The DBpedia-like sets of TestMemoPerRun: most have solvable roots
	// short of the queue's end.
	dk, dest, d := dbpediaEnv(t)
	dbpedia := NewMiner(dk, dest, DefaultConfig())
	for _, c := range memoSets {
		var set []kb.EntID
		for _, i := range c.members {
			set = append(set, dk.MustEntityID(d.Members[c.class][i]))
		}
		cases = append(cases, chainCase{fmt.Sprintf("%s %v", c.class, c.members), dbpedia, normalizeTargets(set)})
	}
	// a, b and c share every fact, so no expression tells a and b apart.
	k := buildSmall(t, [][3]string{
		{"a", "p", "v"}, {"b", "p", "v"}, {"c", "p", "v"},
		{"a", "q", "w"}, {"b", "q", "w"}, {"c", "q", "w"},
	})
	noRE := NewMiner(k, complexity.New(k, prominence.Build(k, prominence.Fr), complexity.Exact), DefaultConfig())
	cases = append(cases, chainCase{"no RE", noRE, []kb.EntID{k.MustEntityID("http://e/a"), k.MustEntityID("http://e/b")}})

	var none, some int
	for _, c := range cases {
		qb := &queueBufs{}
		queue, _ := c.m.buildQueue(context.Background(), c.targets, qb)
		if len(queue) == 0 {
			t.Fatalf("%s: empty queue", c.name)
		}
		var st Stats
		n, timedOut := c.m.solvableRoots(context.Background(), qb.newMemo(c.m.K, queue), c.targets, &st, new(costScratch))
		if timedOut {
			t.Fatalf("%s: unexpected timeout", c.name)
		}
		limit := len(c.targets) + c.m.cfg.MaxExceptions
		var floor bindset.Set
		can := make([]bool, len(queue))
		for i := len(queue) - 1; i >= 0; i-- {
			b := expr.BindingSet(c.m.K, queue[i].g)
			if i == len(queue)-1 {
				floor = b
			} else {
				floor = bindset.Intersect(floor, b)
			}
			can[i] = floor.Card() <= limit
		}
		prefix := 0
		for prefix < len(can) && can[prefix] {
			prefix++
		}
		for i := prefix; i < len(can); i++ {
			if can[i] {
				t.Fatalf("%s: can[%d] is true after can[%d] is false", c.name, i, prefix)
			}
		}
		if int(n) != prefix {
			t.Fatalf("%s: n = %d, the naive can vector is true on [0, %d)", c.name, n, prefix)
		}
		if want := uint64(len(queue) - max(prefix-1, 0)); st.CacheHits != 0 || st.CacheMisses != want {
			t.Fatalf("%s: %d hits and %d misses over %d candidates with n = %d; want 0 and %d",
				c.name, st.CacheHits, st.CacheMisses, len(queue), n, want)
		}
		switch {
		case n == 0:
			none++
		case int(n) < len(queue):
			some++
		}
	}
	if none == 0 || some == 0 {
		t.Fatalf("the cases cover %d sets with no solvable root and %d with some, want both", none, some)
	}
}
