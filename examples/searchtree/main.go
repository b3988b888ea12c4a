// Searchtree: a walk-through of Figure 1 of the paper — the search over
// conjunctions of subgraph expressions for {Rennes, Nantes}. It prints the
// miner's walk, which pops the tree's nodes in nondecreasing Ĉ: every visit
// costs at least as much as the one before, and the first RE visited is the
// answer. It visits a subset of the nodes Figure 1's depth-first order
// visits and returns the same RE. P-REMI's workers (§3.4) run the same
// search on the subtrees of the roots they claim.
//
//	go run ./examples/searchtree
package main

import (
	"fmt"
	"log"

	"github.com/remi-kb/remi/internal/complexity"
	"github.com/remi-kb/remi/internal/core"
	"github.com/remi-kb/remi/internal/datagen"
	"github.com/remi-kb/remi/internal/kb"
	"github.com/remi-kb/remi/internal/prominence"
	"github.com/remi-kb/remi/internal/rdf"
)

func main() {
	d := datagen.TinyGeo()
	k, err := d.BuildKB(kb.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	prom := prominence.Build(k, prominence.Fr)
	est := complexity.New(k, prom, complexity.Exact)

	id := func(name string) kb.EntID {
		e, ok := k.EntityID(rdf.NewIRI("http://tiny.demo/resource/" + name))
		if !ok {
			log.Fatalf("missing %s", name)
		}
		return e
	}
	targets := []kb.EntID{id("Rennes"), id("Nantes")}

	cfg := core.DefaultConfig()
	cfg.Trace = func(ev core.Event) {
		switch ev.Kind {
		case core.EventVisit:
			fmt.Printf("visit       %-70s Ĉ=%.2f\n", ev.Expression.Format(k), ev.Cost)
		case core.EventRE:
			fmt.Printf("RE!         %-70s Ĉ=%.2f\n", ev.Expression.Format(k), ev.Cost)
		case core.EventNewBest:
			fmt.Printf("new best    %-70s Ĉ=%.2f\n", ev.Expression.Format(k), ev.Cost)
		}
	}
	m := core.NewMiner(k, est, cfg)

	// Print the priority queue first (line 2 of Algorithm 1), like the
	// ordered ρ1, ρ2, ρ3 of Figure 1.
	cands, costs := m.RankedCandidates(targets)
	fmt.Println("Priority queue of common subgraph expressions (ascending Ĉ):")
	for i, g := range cands {
		fmt.Printf("  ρ%-3d Ĉ=%-7.2f %s\n", i+1, costs[i], g.Format(k))
	}
	fmt.Println("\nCost-ordered exploration (nondecreasing Ĉ):")

	res, err := m.Mine(targets)
	if err != nil {
		log.Fatal(err)
	}
	if res.Found() {
		fmt.Printf("\nMost intuitive RE for {Rennes, Nantes}: %s  (Ĉ=%.2f bits)\n",
			res.Expression.Format(k), res.Bits)
		fmt.Printf("visited %d nodes, %d RE tests; %d subtrees left unvisited on the heap, all costlier than the answer\n",
			res.Stats.Visited, res.Stats.RETests, res.Stats.PrunedCost)
	} else {
		fmt.Println("no RE found")
	}
}
