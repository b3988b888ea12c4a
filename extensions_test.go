package remi

import (
	"strings"
	"testing"
)

func TestMineWithExceptions(t *testing.T) {
	// a, b, c share p→v; only a and b share q→w. {a,b,c} group: exact RE is
	// p(x,v)... wait, p(x,v) matches all three. For targets {a,b} the exact
	// RE needs q; with 1 exception allowed, the cheaper p(x,v) qualifies.
	sys, err := FromNTriples(`
<http://e/a> <http://e/p> <http://e/v> .
<http://e/b> <http://e/p> <http://e/v> .
<http://e/c> <http://e/p> <http://e/v> .
<http://e/a> <http://e/q> <http://e/w> .
<http://e/b> <http://e/q> <http://e/w> .
<http://e/a> <http://e/q2> <http://e/w2> .
<http://e/b> <http://e/q2> <http://e/w2> .
`)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := sys.Mine([]string{"http://e/a", "http://e/b"})
	if err != nil {
		t.Fatal(err)
	}
	if !exact.Found || len(exact.Exceptions) != 0 {
		t.Fatalf("exact mining: %+v", exact)
	}
	if !strings.Contains(exact.Expression, "q") {
		t.Fatalf("exact RE should use q: %s", exact.Expression)
	}

	relaxed, err := sys.Mine([]string{"http://e/a", "http://e/b"}, WithExceptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if !relaxed.Found {
		t.Fatal("relaxed mining found nothing")
	}
	if relaxed.Bits > exact.Bits {
		t.Fatalf("relaxing cannot cost more: %f > %f", relaxed.Bits, exact.Bits)
	}
	// The cheapest relaxed description is p(x, v) with exception c.
	if len(relaxed.Exceptions) == 1 && relaxed.Exceptions[0] != "http://e/c" {
		t.Fatalf("unexpected exception set %v", relaxed.Exceptions)
	}
}

func TestMineWithExceptionsMakesImpossiblePossible(t *testing.T) {
	// Indistinguishable targets: no strict RE for {a,b} exists, but with one
	// exception the shared description works.
	sys, err := FromNTriples(`
<http://e/a> <http://e/p> <http://e/v> .
<http://e/b> <http://e/p> <http://e/v> .
<http://e/c> <http://e/p> <http://e/v> .
`)
	if err != nil {
		t.Fatal(err)
	}
	strict, err := sys.Mine([]string{"http://e/a", "http://e/b"})
	if err != nil {
		t.Fatal(err)
	}
	if strict.Found {
		t.Fatal("strict RE should not exist")
	}
	relaxed, err := sys.Mine([]string{"http://e/a", "http://e/b"}, WithExceptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if !relaxed.Found {
		t.Fatal("relaxed RE should exist")
	}
	if len(relaxed.Exceptions) != 1 || relaxed.Exceptions[0] != "http://e/c" {
		t.Fatalf("exceptions = %v", relaxed.Exceptions)
	}
}

func TestMineDisjunctive(t *testing.T) {
	// Paris and Georgetown share no conjunctive RE in TinyGeo (different
	// countries, languages, continents); the disjunctive miner must split
	// them into two singleton branches.
	sys := tinySystem(t)
	res, err := sys.MineDisjunctive([]string{tinyNS + "Paris", tinyNS + "Georgetown"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("no disjunctive RE found")
	}
	covered := map[string]bool{}
	for _, b := range res.Branches {
		for _, iri := range b.Targets {
			if covered[iri] {
				t.Fatalf("target %s covered twice", iri)
			}
			covered[iri] = true
		}
	}
	if len(covered) != 2 {
		t.Fatalf("partition covers %d targets", len(covered))
	}
	if s := res.Format(); !strings.Contains(s, "∨") && len(res.Branches) > 1 {
		t.Fatalf("format missing disjunction: %s", s)
	}
}

func TestMineDisjunctiveDegeneratesToConjunctive(t *testing.T) {
	// When a cheap conjunctive RE exists, the single-block partition must
	// win (total bits never exceed the conjunctive result).
	sys := tinySystem(t)
	conj, err := sys.Mine([]string{tinyNS + "Guyana", tinyNS + "Suriname"})
	if err != nil {
		t.Fatal(err)
	}
	disj, err := sys.MineDisjunctive([]string{tinyNS + "Guyana", tinyNS + "Suriname"})
	if err != nil {
		t.Fatal(err)
	}
	if !disj.Found {
		t.Fatal("disjunctive mining failed")
	}
	if disj.Bits > conj.Bits+1e-9 {
		t.Fatalf("disjunctive result (%f bits) worse than conjunctive (%f)", disj.Bits, conj.Bits)
	}
}

func TestMineDisjunctiveLimits(t *testing.T) {
	sys := tinySystem(t)
	if _, err := sys.MineDisjunctive(nil); err == nil {
		t.Fatal("empty targets accepted")
	}
	many := make([]string, 7)
	for i := range many {
		many[i] = tinyNS + "Paris"
	}
	if _, err := sys.MineDisjunctive(many); err == nil {
		t.Fatal("7 targets accepted")
	}
}

func TestSetProminenceChangesResult(t *testing.T) {
	// Boost Epitech massively: describing Rennes+Nantes should now prefer
	// placeOf(x, Epitech)... except Paris also hosts Epitech in TinyGeo, so
	// the boosted metric at least changes the ranking; assert the call works
	// and mining under MetricCustom succeeds.
	sys := tinySystem(t)
	err := sys.SetProminence(map[string]float64{
		tinyNS + "Epitech":  1000,
		tinyNS + "Brittany": 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Mine([]string{tinyNS + "Rennes", tinyNS + "Nantes"}, WithMetric(MetricCustom))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("custom-metric mining found nothing")
	}
}

func TestSetProminenceValidation(t *testing.T) {
	sys := tinySystem(t)
	if err := sys.SetProminence(nil); err == nil {
		t.Fatal("empty map accepted")
	}
	if err := sys.SetProminence(map[string]float64{"http://nowhere/x": 1}); err == nil {
		t.Fatal("unmatched scores accepted")
	}
}

// TestSetProminenceDuringMines: System is safe for concurrent use, so
// replacing the custom scores while MetricCustom mines run must be free of
// data races (run under -race) and every mine must still succeed.
func TestSetProminenceDuringMines(t *testing.T) {
	sys := tinySystem(t)
	scores := func(i int) map[string]float64 {
		return map[string]float64{tinyNS + "Epitech": float64(1 + i%7), tinyNS + "Brittany": 3}
	}
	if err := sys.SetProminence(scores(0)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		for i := 1; i <= 50; i++ {
			if err := sys.SetProminence(scores(i)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 50; i++ {
		res, err := sys.Mine([]string{tinyNS + "Rennes", tinyNS + "Nantes"}, WithMetric(MetricCustom))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found {
			t.Fatal("custom-metric mining found nothing")
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestSPARQLRendering(t *testing.T) {
	sys := tinySystem(t)
	res, err := sys.Mine([]string{tinyNS + "Guyana", tinyNS + "Suriname"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("no RE")
	}
	q := res.SPARQL
	if !strings.HasPrefix(q, "SELECT DISTINCT ?x WHERE {") || !strings.HasSuffix(q, "}") {
		t.Fatalf("malformed query:\n%s", q)
	}
	if !strings.Contains(q, "?x <http://tiny.demo/ontology/in> <http://tiny.demo/resource/SouthAmerica>") {
		t.Fatalf("missing atom pattern:\n%s", q)
	}
	if !strings.Contains(q, "?y") {
		t.Fatalf("missing existential variable:\n%s", q)
	}
}

func TestSPARQLInverseFolding(t *testing.T) {
	sys := tinySystem(t)
	res, err := sys.Mine([]string{tinyNS + "Paris"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || !strings.Contains(res.Expression, "⁻¹") {
		t.Skipf("Paris RE does not use an inverse predicate: %s", res.Expression)
	}
	// The query must use the BASE predicate with swapped positions, never
	// the synthetic inverse IRI.
	if strings.Contains(res.SPARQL, "⁻¹") {
		t.Fatalf("inverse predicate leaked into SPARQL:\n%s", res.SPARQL)
	}
	if !strings.Contains(res.SPARQL, "<http://tiny.demo/resource/France> <http://tiny.demo/ontology/capital> ?x") {
		t.Fatalf("expected folded inverse pattern:\n%s", res.SPARQL)
	}
}
