package core

import (
	"context"
	"testing"

	"github.com/remi-kb/remi/internal/kb"
	"github.com/remi-kb/remi/internal/rdf"
)

// TestFrontierBytesIsTheRunsOwn: a set reports the same FrontierBytes on a
// fresh scratch as on one a larger or a smaller set's search ran on before
// it, and never more than the budget: the figure is the run's own peak, not
// the capacity a pooled scratch brought along.
func TestFrontierBytesIsTheRunsOwn(t *testing.T) {
	k, est, d := dbpediaEnv(t)
	member := func(class string, i int) kb.EntID {
		id, ok := k.EntityID(rdf.NewIRI(d.Members[class][i]))
		if !ok {
			t.Fatalf("%s %d missing from the KB", class, i)
		}
		return id
	}
	m := NewMiner(k, est, DefaultConfig())
	frontier := func(sc *costScratch, targets ...kb.EntID) uint64 {
		tgt := normalizeTargets(targets)
		qb := &queueBufs{}
		queue, _ := m.buildQueue(context.Background(), tgt, qb)
		mm := qb.newMemo(m.K, queue)
		var st Stats
		sc.claim(1)
		n, _ := m.solvableRoots(context.Background(), mm, tgt, &st, sc)
		if n == 0 {
			t.Fatalf("targets %v have no RE", tgt)
		}
		m.searchCostOrder(context.Background(), mm, 0, n, tgt, newBound(1), &st, sc)
		if st.FrontierBytes == 0 || st.FrontierBytes > uint64(frontierBudget) {
			t.Fatalf("targets %v: %d frontier bytes, budget %d", tgt, st.FrontierBytes, frontierBudget)
		}
		return st.FrontierBytes
	}
	large := []kb.EntID{member("Person", 3), member("Person", 7)}
	small := []kb.EntID{member("Region", 0), member("Region", 1)}
	probe := member("Album", 0)

	want := frontier(new(costScratch), probe)
	for _, before := range [][]kb.EntID{large, small} {
		sc := new(costScratch)
		first := frontier(sc, before...)
		if got := frontier(sc, probe); got != want {
			t.Fatalf("after a set with %d frontier bytes: %d, on a fresh scratch %d", first, got, want)
		}
	}
}
