package core

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/remi-kb/remi/internal/complexity"
	"github.com/remi-kb/remi/internal/datagen"
	"github.com/remi-kb/remi/internal/expr"
	"github.com/remi-kb/remi/internal/kb"
	"github.com/remi-kb/remi/internal/prominence"
	"github.com/remi-kb/remi/internal/rdf"
)

func rdfIRI(iri string) rdf.Term { return rdf.NewIRI(iri) }

// dbpediaEnv builds a small DBpedia-like environment for stress tests.
func dbpediaEnv(t testing.TB) (*kb.KB, *complexity.Estimator, *datagen.Dataset) {
	t.Helper()
	d := datagen.DBpediaLike(datagen.Config{Seed: 21, Scale: 0.05})
	k, err := d.BuildKB(kb.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	prom := prominence.Build(k, prominence.Fr)
	return k, complexity.New(k, prom, complexity.Compressed), d
}

// TestPREMIMatchesREMIOnSynthetic compares solution costs over many random
// target sets on a realistic KB, across worker counts.
func TestPREMIMatchesREMIOnSynthetic(t *testing.T) {
	k, est, d := dbpediaEnv(t)
	rng := rand.New(rand.NewSource(31))
	classes := []string{"Person", "Settlement", "Film", "Organization"}

	for round := 0; round < 12; round++ {
		class := classes[rng.Intn(len(classes))]
		members := d.Members[class]
		size := 1 + rng.Intn(2)
		var targets []kb.EntID
		for len(targets) < size {
			iri := members[rng.Intn(len(members))]
			id, ok := k.EntityID(rdfIRI(iri))
			if !ok {
				continue
			}
			dup := false
			for _, x := range targets {
				if x == id {
					dup = true
				}
			}
			if !dup {
				targets = append(targets, id)
			}
		}

		seqCfg := DefaultConfig()
		seqCfg.Timeout = 20 * time.Second
		seq := NewMiner(k, est, seqCfg)
		rs, err := seq.Mine(targets)
		if err != nil {
			t.Fatal(err)
		}

		for _, workers := range []int{2, runtime.NumCPU()} {
			parCfg := seqCfg
			parCfg.Workers = workers
			par := NewMiner(k, est, parCfg)
			rp, err := par.Mine(targets)
			if err != nil {
				t.Fatal(err)
			}
			if rs.Found() != rp.Found() {
				t.Fatalf("round %d (%d workers): found %v vs %v for %v",
					round, workers, rs.Found(), rp.Found(), targets)
			}
			if rs.Found() && math.Abs(rs.Bits-rp.Bits) > 1e-9 {
				t.Fatalf("round %d (%d workers): %f bits (%s) vs %f bits (%s)",
					round, workers, rs.Bits, rs.Expression.Format(k), rp.Bits, rp.Expression.Format(k))
			}
		}
	}
}

// TestPREMINoSolutionSignal: when no RE exists, P-REMI must also conclude ⊤
// (exercising solvableRoots, which leaves its workers no root to claim).
func TestPREMINoSolutionSignal(t *testing.T) {
	k := buildSmall(t, [][3]string{
		{"a", "p", "v"}, {"b", "p", "v"}, {"c", "p", "v"},
		{"a", "q", "w"}, {"b", "q", "w"}, {"c", "q", "w"},
	})
	prom := prominence.Build(k, prominence.Fr)
	est := complexity.New(k, prom, complexity.Exact)
	cfg := DefaultConfig()
	cfg.Workers = 4
	m := NewMiner(k, est, cfg)
	a := k.MustEntityID("http://e/a")
	b := k.MustEntityID("http://e/b")
	res, err := m.Mine([]kb.EntID{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found() {
		t.Fatalf("impossible RE found: %v", res.Expression.Format(k))
	}
}

// TestPREMIStartsAWorkerPerSolvableRoot: P-REMI starts no more workers than
// there are roots that can hold an RE, so a set with one such root is
// searched by one worker holding the whole frontier budget, not a quarter of
// it. The budget here is the first growth of a fresh scratch, 64 heap
// entries and 64 nodes; a quarter of it cannot hold one of each, so a lone
// worker with a 1/4 share would stop as timed out.
func TestPREMIStartsAWorkerPerSolvableRoot(t *testing.T) {
	// Every RE for {a, b} holds p1(x, v), the cheapest candidate: each other
	// candidate also matches c.
	k := buildSmall(t, [][3]string{
		{"a", "p1", "v"}, {"b", "p1", "v"}, {"d", "p1", "v"}, {"e", "p1", "v"}, {"f", "p1", "w"},
		{"a", "p2", "v2"}, {"b", "p2", "v2"}, {"c", "p2", "v2"},
		{"a", "p3", "v3"}, {"b", "p3", "v3"}, {"c", "p3", "v3"},
		{"a", "p4", "v4"}, {"b", "p4", "v4"}, {"c", "p4", "v4"},
	})
	est := complexity.New(k, prominence.Build(k, prominence.Fr), complexity.Exact)
	targets := []kb.EntID{k.MustEntityID("http://e/a"), k.MustEntityID("http://e/b")}
	seq := NewMiner(k, est, DefaultConfig())
	qb := &queueBufs{}
	queue, _ := seq.buildQueue(context.Background(), targets, qb)
	if n, _ := seq.solvableRoots(context.Background(), qb.newMemo(k, queue), targets, &Stats{}, new(costScratch)); n != 1 || len(queue) < 4 {
		t.Fatalf("the fixture has %d solvable roots of %d, want 1 of at least 4", n, len(queue))
	}

	defer func(b int) { frontierBudget = b }(frontierBudget)
	frontierBudget = 64 * (entryBytes + nodeBytes)
	want, err := seq.Mine(targets)
	if err != nil {
		t.Fatal(err)
	}
	if want.Stats.TimedOut || !want.Found() {
		t.Fatalf("REMI: timed out %v, found %v", want.Stats.TimedOut, want.Found())
	}
	cfg := DefaultConfig()
	cfg.Workers = 4
	got, err := NewMiner(k, est, cfg).Mine(targets)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.TimedOut {
		t.Fatal("4 workers: timed out under the budget one REMI search fits in")
	}
	if err := sameAnswer(got, want); err != nil {
		t.Fatalf("4 workers: %v", err)
	}

	// A share below the heap's first 64-entry step still pops: the heap
	// leaves room for a node.
	frontierBudget = 1000
	small, err := seq.Mine(targets)
	if err != nil {
		t.Fatal(err)
	}
	if small.Stats.TimedOut {
		t.Fatalf("a %d-byte share timed out after %d visits", frontierBudget, small.Stats.Visited)
	}
	if err := sameAnswer(small, want); err != nil {
		t.Fatalf("a %d-byte share: %v", frontierBudget, err)
	}
}

// TestPREMITopK: parallel top-k returns distinct solutions sorted by cost.
func TestPREMITopK(t *testing.T) {
	k, est, d := dbpediaEnv(t)
	id, ok := k.EntityID(rdfIRI(d.Members["Person"][0]))
	if !ok {
		t.Fatal("Person_1 missing")
	}
	cfg := DefaultConfig()
	cfg.Workers = 4
	cfg.TopK = 4
	cfg.Timeout = 20 * time.Second
	m := NewMiner(k, est, cfg)
	res, err := m.Mine([]kb.EntID{id})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found() {
		t.Skip("no RE for this entity at this scale")
	}
	seen := map[string]bool{}
	last := -1.0
	for _, sol := range res.Solutions {
		key := sol.Expression.Key()
		if seen[key] {
			t.Fatal("duplicate solution in top-k")
		}
		seen[key] = true
		if sol.Bits < last {
			t.Fatal("solutions not sorted by cost")
		}
		last = sol.Bits
	}
}

// TestTimeoutHonored: a microscopic timeout must terminate quickly and be
// reported.
func TestTimeoutHonored(t *testing.T) {
	k, est, d := dbpediaEnv(t)
	id, _ := k.EntityID(rdfIRI(d.Members["Person"][0]))
	for _, workers := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.Workers = workers
		cfg.Timeout = time.Microsecond
		m := NewMiner(k, est, cfg)
		start := time.Now()
		res, err := m.Mine([]kb.EntID{id})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stats.TimedOut {
			t.Fatalf("workers=%d: timeout not reported", workers)
		}
		if time.Since(start) > 10*time.Second {
			t.Fatalf("workers=%d: timeout not honored", workers)
		}
	}
}

// TestExceptionsAtCoreLevel: MaxExceptions accepts supersets within budget
// and never misses targets.
func TestExceptionsAtCoreLevel(t *testing.T) {
	k := buildSmall(t, [][3]string{
		{"a", "p", "v"}, {"b", "p", "v"}, {"c", "p", "v"},
	})
	prom := prominence.Build(k, prominence.Fr)
	est := complexity.New(k, prom, complexity.Exact)
	cfg := DefaultConfig()
	cfg.MaxExceptions = 1
	m := NewMiner(k, est, cfg)
	a := k.MustEntityID("http://e/a")
	b := k.MustEntityID("http://e/b")
	res, err := m.Mine([]kb.EntID{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found() {
		t.Fatal("relaxed mining found nothing")
	}
	// The expression must still cover both targets.
	bindings := expr.ExpressionBindings(k, res.Expression).Slice()
	cover := map[kb.EntID]bool{}
	for _, x := range bindings {
		cover[x] = true
	}
	if !cover[a] || !cover[b] {
		t.Fatal("relaxed RE lost a target")
	}
	if len(bindings) > 3 {
		t.Fatalf("too many exceptions: %d bindings", len(bindings))
	}
}

// TestDuplicateTargetsCollapse: Mine must treat duplicated targets as a set.
func TestDuplicateTargetsCollapse(t *testing.T) {
	k, est := tinySetup(t)
	paris := mustID(t, k, "Paris")
	m := NewMiner(k, est, DefaultConfig())
	r1, err := m.Mine([]kb.EntID{paris, paris, paris})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m.Mine([]kb.EntID{paris})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Found() != r2.Found() || math.Abs(r1.Bits-r2.Bits) > 1e-12 {
		t.Fatal("duplicate targets changed the result")
	}
}
