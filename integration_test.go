package remi

// Integration tests spanning the full pipeline: dataset generation →
// indexing → prominence/complexity → mining → verbalization → SPARQL, plus
// cross-algorithm agreement between REMI and the AMIE+ baseline.

import (
	"strings"
	"testing"
	"time"

	"github.com/remi-kb/remi/internal/amie"
	"github.com/remi-kb/remi/internal/complexity"
	"github.com/remi-kb/remi/internal/core"
	"github.com/remi-kb/remi/internal/datagen"
	"github.com/remi-kb/remi/internal/expr"
	"github.com/remi-kb/remi/internal/kb"
	"github.com/remi-kb/remi/internal/prominence"
	"github.com/remi-kb/remi/internal/rdf"
)

// TestREMIAgreesWithAMIE: on a small KB, whenever REMI (standard bias)
// finds an RE, AMIE+ must also find one, and REMI's solution must be among
// AMIE's answer set semantically (bindings equal to the targets).
func TestREMIAgreesWithAMIE(t *testing.T) {
	d := datagen.TinyGeo()
	opts := kb.DefaultOptions()
	opts.InverseTopFraction = 0
	k, err := d.BuildKB(opts)
	if err != nil {
		t.Fatal(err)
	}
	prom := prominence.Build(k, prominence.Fr)
	est := complexity.New(k, prom, complexity.Exact)

	id := func(n string) kb.EntID {
		e, ok := k.EntityID(rdf.NewIRI("http://tiny.demo/resource/" + n))
		if !ok {
			t.Fatalf("missing %s", n)
		}
		return e
	}

	for _, names := range [][]string{{"Georgetown"}, {"Guyana", "Suriname"}, {"Rennes", "Nantes"}} {
		var targets []kb.EntID
		for _, n := range names {
			targets = append(targets, id(n))
		}
		cfg := core.DefaultConfig()
		cfg.Language = core.StandardLanguage
		remiMiner := core.NewMiner(k, est, cfg)
		rr, err := remiMiner.Mine(targets)
		if err != nil {
			t.Fatal(err)
		}

		am := amie.NewMiner(k, prom, amie.Config{MaxLen: 3, AllowConstants: true, Workers: 2, Timeout: time.Minute})
		ar := am.Mine(targets)

		if rr.Found() && len(ar.Rules) == 0 {
			t.Errorf("%v: REMI found %s but AMIE found nothing", names, rr.Expression.Format(k))
		}
		if !rr.Found() && len(ar.Rules) > 0 {
			// AMIE's language (2 bound atoms at MaxLen 3) is a subset of
			// REMI's standard bias here, so this direction must also hold.
			t.Errorf("%v: AMIE found %s but REMI found nothing", names, ar.Rules[0].Format(k))
		}
	}
}

// TestEndToEndWikidata mines the top entities of every Wikidata-like class
// through the public facade and sanity-checks each solution.
func TestEndToEndWikidata(t *testing.T) {
	d := datagen.WikidataLike(datagen.Config{Seed: 9, Scale: 0.08})
	sys, err := FromTriples(d.Triples)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, class := range []string{"Human", "City", "Film", "Company"} {
		iri := d.Members[class][0]
		res, err := sys.Mine([]string{iri}, WithWorkers(4), WithTimeout(30*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found {
			continue
		}
		found++
		if res.NL == "" || res.SPARQL == "" || res.Bits <= 0 {
			t.Fatalf("%s: incomplete solution %+v", iri, res.Solution)
		}
		if !strings.Contains(res.SPARQL, "SELECT DISTINCT ?x") {
			t.Fatalf("%s: bad SPARQL %s", iri, res.SPARQL)
		}
	}
	if found == 0 {
		t.Fatal("no top entity of any class could be described")
	}
}

// TestLanguageBiasSolutionCounts: the extended language can only increase
// the number of solvable sets (the Table 4 "#solutions" observation).
func TestLanguageBiasSolutionCounts(t *testing.T) {
	d := datagen.DBpediaLike(datagen.Config{Seed: 13, Scale: 0.05})
	k, err := d.BuildKB(kb.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	prom := prominence.Build(k, prominence.Fr)
	est := complexity.New(k, prom, complexity.Compressed)

	var stdFound, extFound int
	for i := 0; i < 12; i++ {
		iri := d.Members["Settlement"][i*3%len(d.Members["Settlement"])]
		id, ok := k.EntityID(rdf.NewIRI(iri))
		if !ok {
			continue
		}
		stdCfg := core.DefaultConfig()
		stdCfg.Language = core.StandardLanguage
		stdCfg.Timeout = 10 * time.Second
		if r, err := core.NewMiner(k, est, stdCfg).Mine([]kb.EntID{id}); err == nil && r.Found() {
			stdFound++
		}
		extCfg := core.DefaultConfig()
		extCfg.Timeout = 10 * time.Second
		if r, err := core.NewMiner(k, est, extCfg).Mine([]kb.EntID{id}); err == nil && r.Found() {
			extFound++
		}
	}
	if extFound < stdFound {
		t.Fatalf("extended language solved fewer sets (%d) than standard (%d)", extFound, stdFound)
	}
}

// TestExpressionKeyInvariance: expression keys are stable under conjunct
// reordering (used for dedup in top-k and disjunctive mining).
func TestExpressionKeyInvariance(t *testing.T) {
	g1 := expr.NewAtom1(1, 10)
	g2 := expr.NewPath(2, 3, 20)
	a := expr.Expression{g1, g2}
	b := expr.Expression{g2, g1}
	if a.Key() != b.Key() {
		t.Fatal("expression key depends on conjunct order")
	}
	c := expr.Expression{g1}
	if a.Key() == c.Key() {
		t.Fatal("different expressions share a key")
	}
}
