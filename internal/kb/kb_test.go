package kb

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/remi-kb/remi/internal/rdf"
)

func iri(s string) rdf.Term { return rdf.NewIRI("http://e/" + s) }

func buildTest(t *testing.T, opts Options, triples ...[3]string) *KB {
	t.Helper()
	b := NewBuilder()
	for _, tr := range triples {
		if err := b.Add(rdf.Triple{S: iri(tr[0]), P: iri(tr[1]), O: iri(tr[2])}); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build(opts)
}

func TestBasicIndexes(t *testing.T) {
	k := buildTest(t, Options{},
		[3]string{"paris", "capitalOf", "france"},
		[3]string{"paris", "cityIn", "france"},
		[3]string{"lyon", "cityIn", "france"},
		[3]string{"berlin", "capitalOf", "germany"},
	)
	capOf := k.MustPredicateID("http://e/capitalOf")
	cityIn := k.MustPredicateID("http://e/cityIn")
	paris := k.MustEntityID("http://e/paris")
	france := k.MustEntityID("http://e/france")
	lyon := k.MustEntityID("http://e/lyon")

	if got := k.Objects(capOf, paris); len(got) != 1 || got[0] != france {
		t.Fatalf("Objects(capitalOf, paris) = %v", got)
	}
	subj := k.Subjects(cityIn, france)
	if len(subj) != 2 {
		t.Fatalf("Subjects(cityIn, france) = %v", subj)
	}
	if !k.HasFact(cityIn, lyon, france) {
		t.Fatal("HasFact missed an existing fact")
	}
	if k.HasFact(capOf, lyon, france) {
		t.Fatal("HasFact invented a fact")
	}
	if k.PredFreq(cityIn) != 2 || k.PredFreq(capOf) != 2 {
		t.Fatal("PredFreq wrong")
	}
	if k.ObjFreq(cityIn, france) != 2 {
		t.Fatalf("ObjFreq = %d", k.ObjFreq(cityIn, france))
	}
	// france occurs in 3 base facts.
	if k.EntityFreq(france) != 3 {
		t.Fatalf("EntityFreq(france) = %d", k.EntityFreq(france))
	}
}

func TestDuplicateFactsCollapse(t *testing.T) {
	k := buildTest(t, Options{},
		[3]string{"a", "p", "b"},
		[3]string{"a", "p", "b"},
		[3]string{"a", "p", "b"},
	)
	if k.NumBaseFacts() != 1 {
		t.Fatalf("NumBaseFacts = %d", k.NumBaseFacts())
	}
}

func TestAdjacencySorted(t *testing.T) {
	k := buildTest(t, Options{},
		[3]string{"x", "q", "b"},
		[3]string{"x", "p", "c"},
		[3]string{"x", "p", "a"},
	)
	x := k.MustEntityID("http://e/x")
	adj := k.AdjacencyOf(x)
	if len(adj) != 3 {
		t.Fatalf("adjacency size %d", len(adj))
	}
	for i := 1; i < len(adj); i++ {
		if adj[i-1].P > adj[i].P || (adj[i-1].P == adj[i].P && adj[i-1].O > adj[i].O) {
			t.Fatal("adjacency not sorted by (P,O)")
		}
	}
}

func TestInverseMaterialization(t *testing.T) {
	// "hub" is the most frequent entity; with a 34% fraction only it gets
	// inverse facts.
	k := buildTest(t, Options{InverseTopFraction: 0.34},
		[3]string{"a", "links", "hub"},
		[3]string{"b", "links", "hub"},
		[3]string{"c", "links", "hub"},
		[3]string{"a", "links", "b"},
	)
	inv, ok := k.PredicateID("http://e/links" + InverseMarker)
	if !ok {
		t.Fatal("inverse predicate missing")
	}
	if !k.IsInverse(inv) || k.BaseOf(inv) != k.MustPredicateID("http://e/links") {
		t.Fatal("inverse bookkeeping wrong")
	}
	hub := k.MustEntityID("http://e/hub")
	a := k.MustEntityID("http://e/a")
	if !k.HasFact(inv, hub, a) {
		t.Fatal("inverse fact for prominent object missing")
	}
	b := k.MustEntityID("http://e/b")
	if k.HasFact(inv, b, a) {
		t.Fatal("inverse fact materialized for non-prominent object")
	}
	// Base frequencies must not count inverse facts.
	if k.EntityFreq(hub) != 3 {
		t.Fatalf("EntityFreq(hub) = %d want 3", k.EntityFreq(hub))
	}
}

func TestInverseSkipsLiterals(t *testing.T) {
	b := NewBuilder()
	if err := b.Add(rdf.Triple{S: iri("a"), P: iri("name"), O: rdf.NewLiteral("X")}); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(rdf.Triple{S: iri("b"), P: iri("name"), O: rdf.NewLiteral("X")}); err != nil {
		t.Fatal(err)
	}
	k := b.Build(Options{InverseTopFraction: 1.0})
	if _, ok := k.PredicateID("http://e/name" + InverseMarker); ok {
		t.Fatal("inverse predicate created for literal-only objects")
	}
}

func TestTypeAndLabel(t *testing.T) {
	b := NewBuilder()
	typeIRI := "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
	labelIRI := "http://www.w3.org/2000/01/rdf-schema#label"
	b.Add(rdf.Triple{S: iri("paris"), P: rdf.NewIRI(typeIRI), O: iri("City")})
	b.Add(rdf.Triple{S: iri("paris"), P: rdf.NewIRI(labelIRI), O: rdf.NewLiteral("Paris")})
	k := b.Build(DefaultOptions())
	paris := k.MustEntityID("http://e/paris")
	if k.Label(paris) != "Paris" {
		t.Fatalf("Label = %q", k.Label(paris))
	}
	types := k.Types(paris)
	if len(types) != 1 || types[0] != k.MustEntityID("http://e/City") {
		t.Fatalf("Types = %v", types)
	}
	city := k.MustEntityID("http://e/City")
	inst := k.InstancesOf(city)
	if len(inst) != 1 || inst[0] != paris {
		t.Fatalf("InstancesOf = %v", inst)
	}
}

func TestProminentEntities(t *testing.T) {
	k := buildTest(t, Options{},
		[3]string{"a", "p", "hub"},
		[3]string{"b", "p", "hub"},
		[3]string{"c", "p", "hub"},
		[3]string{"d", "p", "e"},
	)
	top := k.ProminentSet(0.01) // at least one survives
	hub := k.MustEntityID("http://e/hub")
	if !top.Contains(hub) || top.Card() != 1 {
		t.Fatalf("ProminentSet(0.01) has %d members, hub in it: %v", top.Card(), top.Contains(hub))
	}
	if k.ProminentSet(0).Card() != 0 {
		t.Fatal("zero fraction should be empty")
	}
	all := k.ProminentSet(1.0)
	if all.Card() != k.NumEntities() {
		t.Fatalf("full fraction: %d of %d", all.Card(), k.NumEntities())
	}
}

// prominentIDsBySort is the ranking prominentIDs replaced, kept as its
// reference: sort every entity by descending frequency, ties by ascending
// id, and take the first max(1, ⌊n·frac⌋), at most n.
func prominentIDsBySort(entFreq []uint32, frac float64) []EntID {
	n := len(entFreq)
	all := make([]EntID, n)
	for i := range all {
		all[i] = EntID(i + 1)
	}
	slices.SortFunc(all, func(a, b EntID) int {
		if entFreq[a-1] != entFreq[b-1] {
			return int(entFreq[b-1]) - int(entFreq[a-1])
		}
		return int(a) - int(b)
	})
	top := int(float64(n) * frac)
	if top < 1 {
		top = 1
	}
	if top > n {
		top = n
	}
	return all[:top]
}

// TestProminentIDsMatchesSort: the counting selection picks the set the
// sort picks, on frequency tables from tie-heavy to spread out, with zeros,
// at fractions from 0.01 to 1.5.
func TestProminentIDsMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		freq := make([]uint32, rng.Intn(300))
		spread := []int{1, 2, 5, 50, 100000}[rng.Intn(5)]
		for i := range freq {
			freq[i] = uint32(rng.Intn(spread))
		}
		frac := 0.01 + rng.Float64()*1.49
		got, want := prominentIDs(freq, frac), prominentIDsBySort(freq, frac)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (n %d, spread %d, frac %g): got %v, want %v", trial, len(freq), spread, frac, got, want)
		}
	}
}

func TestBuilderRejections(t *testing.T) {
	b := NewBuilder()
	if err := b.Add(rdf.Triple{S: rdf.NewLiteral("x"), P: iri("p"), O: iri("o")}); err == nil {
		t.Fatal("literal subject accepted")
	}
	if err := b.Add(rdf.Triple{S: iri("s"), P: rdf.NewBlank("b"), O: iri("o")}); err == nil {
		t.Fatal("blank predicate accepted")
	}
}

func TestKindCaching(t *testing.T) {
	b := NewBuilder()
	b.Add(rdf.Triple{S: iri("s"), P: iri("p"), O: rdf.NewLiteral("lit")})
	b.Add(rdf.Triple{S: iri("s"), P: iri("p"), O: rdf.NewBlank("bn")})
	k := b.Build(Options{})
	lit, _ := k.EntityID(rdf.NewLiteral("lit"))
	bn, _ := k.EntityID(rdf.NewBlank("bn"))
	if !k.IsLiteral(lit) || k.IsBlank(lit) {
		t.Fatal("literal kind wrong")
	}
	if !k.IsBlank(bn) || k.IsLiteral(bn) {
		t.Fatal("blank kind wrong")
	}
}

func TestFromTriples(t *testing.T) {
	k, err := FromTriples([]rdf.Triple{
		{S: iri("a"), P: iri("p"), O: iri("b")},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if k.NumBaseFacts() != 1 || k.NumPredicates() != 1 {
		t.Fatal("FromTriples built wrong KB")
	}
}
