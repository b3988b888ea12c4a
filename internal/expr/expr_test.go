package expr

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"github.com/remi-kb/remi/internal/bindset"
	"github.com/remi-kb/remi/internal/kb"
	"github.com/remi-kb/remi/internal/rdf"
)

// buildKB constructs a small KB from (s, p, o) string triples.
func buildKB(t testing.TB, triples [][3]string) *kb.KB {
	t.Helper()
	b := kb.NewBuilder()
	for _, tr := range triples {
		err := b.Add(rdf.Triple{
			S: rdf.NewIRI("http://e/" + tr[0]),
			P: rdf.NewIRI("http://e/" + tr[1]),
			O: rdf.NewIRI("http://e/" + tr[2]),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return b.Build(kb.Options{})
}

func geoKB(t testing.TB) *kb.KB {
	return buildKB(t, [][3]string{
		{"paris", "cityIn", "france"},
		{"lyon", "cityIn", "france"},
		{"berlin", "cityIn", "germany"},
		{"france", "capital", "paris"},
		{"germany", "capital", "berlin"},
		{"france", "officialLanguage", "french"},
		{"germany", "officialLanguage", "german"},
		{"french", "langFamily", "romance"},
		{"german", "langFamily", "germanic"},
		{"paris", "placeOf", "eiffel"},
		{"paris", "largestCityOf", "france"},
		{"berlin", "largestCityOf", "germany"},
		{"paris", "mayor", "hidalgo"},
		{"hidalgo", "party", "socialist"},
		{"lyon", "mayor", "doucet"},
		{"doucet", "party", "green"},
	})
}

func TestShapesMetadata(t *testing.T) {
	cases := []struct {
		shape Shape
		atoms int
		vars  int
	}{
		{Atom1, 1, 0}, {Path, 2, 1}, {PathStar, 3, 1}, {Closed2, 2, 1}, {Closed3, 3, 1},
	}
	for _, c := range cases {
		if c.shape.Atoms() != c.atoms {
			t.Errorf("%v atoms = %d want %d", c.shape, c.shape.Atoms(), c.atoms)
		}
		if c.shape.ExtraVariables() != c.vars {
			t.Errorf("%v vars = %d want %d", c.shape, c.shape.ExtraVariables(), c.vars)
		}
	}
}

func TestCanonicalization(t *testing.T) {
	a := NewPathStar(1, 3, 10, 2, 20)
	b := NewPathStar(1, 2, 20, 3, 10)
	if a != b {
		t.Fatal("path+star canonicalization failed")
	}
	if NewClosed2(5, 2) != NewClosed2(2, 5) {
		t.Fatal("closed2 canonicalization failed")
	}
	if NewClosed3(3, 1, 2) != NewClosed3(1, 2, 3) || NewClosed3(2, 3, 1) != NewClosed3(1, 2, 3) {
		t.Fatal("closed3 canonicalization failed")
	}
}

func TestCanonicalizationProperty(t *testing.T) {
	f := func(p0, p1, p2 uint16) bool {
		a, b, c := kb.PredID(p0)+1, kb.PredID(p1)+1, kb.PredID(p2)+1
		g := NewClosed3(a, b, c)
		return g == NewClosed3(c, b, a) && g == NewClosed3(b, a, c) &&
			g.P0 <= g.P1 && g.P1 <= g.P2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAtom1Eval(t *testing.T) {
	k := geoKB(t)
	cityIn := k.MustPredicateID("http://e/cityIn")
	france := k.MustEntityID("http://e/france")
	g := NewAtom1(cityIn, france)

	got := Bindings(k, g)
	if len(got) != 2 {
		t.Fatalf("bindings = %v", got)
	}
	paris := k.MustEntityID("http://e/paris")
	berlin := k.MustEntityID("http://e/berlin")
	if !HoldsFor(k, g, paris) {
		t.Fatal("paris should match cityIn(x, france)")
	}
	if HoldsFor(k, g, berlin) {
		t.Fatal("berlin should not match cityIn(x, france)")
	}
}

func TestPathEval(t *testing.T) {
	k := geoKB(t)
	mayor := k.MustPredicateID("http://e/mayor")
	party := k.MustPredicateID("http://e/party")
	socialist := k.MustEntityID("http://e/socialist")
	g := NewPath(mayor, party, socialist)

	got := Bindings(k, g)
	paris := k.MustEntityID("http://e/paris")
	if len(got) != 1 || got[0] != paris {
		t.Fatalf("bindings = %v want [paris]", got)
	}
	if !HoldsFor(k, g, paris) {
		t.Fatal("HoldsFor disagrees with Bindings")
	}
	lyon := k.MustEntityID("http://e/lyon")
	if HoldsFor(k, g, lyon) {
		t.Fatal("lyon's mayor is green, not socialist")
	}
}

func TestPathStarEval(t *testing.T) {
	k := geoKB(t)
	cityIn := k.MustPredicateID("http://e/cityIn")
	capital := k.MustPredicateID("http://e/capital")
	offLang := k.MustPredicateID("http://e/officialLanguage")
	paris := k.MustEntityID("http://e/paris")
	french := k.MustEntityID("http://e/french")
	// cityIn(x,y) ∧ capital(y, paris) ∧ officialLanguage(y, french):
	// y must be france; x ∈ {paris, lyon}.
	g := NewPathStar(cityIn, capital, paris, offLang, french)
	got := Bindings(k, g)
	if len(got) != 2 {
		t.Fatalf("bindings = %v", got)
	}
	lyon := k.MustEntityID("http://e/lyon")
	if !HoldsFor(k, g, lyon) || !HoldsFor(k, g, paris) {
		t.Fatal("HoldsFor disagrees")
	}
}

func TestClosed2Eval(t *testing.T) {
	k := geoKB(t)
	cityIn := k.MustPredicateID("http://e/cityIn")
	largest := k.MustPredicateID("http://e/largestCityOf")
	g := NewClosed2(cityIn, largest)
	// paris: cityIn france & largestCityOf france → match.
	// berlin: cityIn germany & largestCityOf germany → match.
	// lyon: cityIn france but not largest → no.
	got := Bindings(k, g)
	if len(got) != 2 {
		t.Fatalf("bindings = %v", got)
	}
	lyon := k.MustEntityID("http://e/lyon")
	if HoldsFor(k, g, lyon) {
		t.Fatal("lyon should not match")
	}
}

func TestClosed3Eval(t *testing.T) {
	k := buildKB(t, [][3]string{
		{"a", "p", "v"}, {"a", "q", "v"}, {"a", "r", "v"},
		{"b", "p", "v"}, {"b", "q", "v"},
		{"c", "p", "w"}, {"c", "q", "w"}, {"c", "r", "u"},
	})
	p := k.MustPredicateID("http://e/p")
	q := k.MustPredicateID("http://e/q")
	r := k.MustPredicateID("http://e/r")
	g := NewClosed3(p, q, r)
	got := Bindings(k, g)
	a := k.MustEntityID("http://e/a")
	if len(got) != 1 || got[0] != a {
		t.Fatalf("bindings = %v want [a]", got)
	}
}

// TestHoldsForMatchesBindings is the agreement property between the two
// evaluation paths on randomized KBs, for all five shapes.
func TestHoldsForMatchesBindings(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	preds := []string{"p", "q", "r"}
	for round := 0; round < 30; round++ {
		var triples [][3]string
		for i := 0; i < 40; i++ {
			triples = append(triples, [3]string{
				names[rng.Intn(len(names))], preds[rng.Intn(len(preds))], names[rng.Intn(len(names))],
			})
		}
		k := buildKB(t, triples)
		var subgraphs []Subgraph
		for pi := 1; pi <= k.NumPredicates(); pi++ {
			for ei := 1; ei <= k.NumEntities(); ei++ {
				subgraphs = append(subgraphs, NewAtom1(kb.PredID(pi), kb.EntID(ei)))
				for pj := 1; pj <= k.NumPredicates(); pj++ {
					subgraphs = append(subgraphs, NewPath(kb.PredID(pi), kb.PredID(pj), kb.EntID(ei)))
					for pk := 1; pk <= k.NumPredicates(); pk++ {
						ek := 1 + rng.Intn(k.NumEntities())
						subgraphs = append(subgraphs, NewPathStar(kb.PredID(pi), kb.PredID(pj), kb.EntID(ei), kb.PredID(pk), kb.EntID(ek)))
					}
				}
			}
			for pj := pi + 1; pj <= k.NumPredicates(); pj++ {
				subgraphs = append(subgraphs, NewClosed2(kb.PredID(pi), kb.PredID(pj)))
				for pk := pj + 1; pk <= k.NumPredicates(); pk++ {
					subgraphs = append(subgraphs, NewClosed3(kb.PredID(pi), kb.PredID(pj), kb.PredID(pk)))
				}
			}
		}
		for _, g := range subgraphs {
			set := Bindings(k, g)
			inSet := make(map[kb.EntID]bool, len(set))
			for _, x := range set {
				inSet[x] = true
			}
			for e := 1; e <= k.NumEntities(); e++ {
				id := kb.EntID(e)
				if HoldsFor(k, g, id) != inSet[id] {
					t.Fatalf("round %d: HoldsFor(%v, %d) = %v disagrees with Bindings %v",
						round, g, id, !inSet[id], set)
				}
			}
			// Bindings must be sorted and unique.
			for i := 1; i < len(set); i++ {
				if set[i-1] >= set[i] {
					t.Fatalf("bindings not sorted/unique: %v", set)
				}
			}
		}
	}
}

func TestEvaluatorCaching(t *testing.T) {
	k := geoKB(t)
	ev := NewEvaluator(k, 128)
	cityIn := k.MustPredicateID("http://e/cityIn")
	france := k.MustEntityID("http://e/france")
	g := NewAtom1(cityIn, france)
	a := ev.Bindings(g)
	b := ev.Bindings(g)
	if !bindset.Equal(a, b) {
		t.Fatal("second call returned a different binding set")
	}
	evals, hits, misses := ev.Stats()
	if evals != 2 || hits != 1 || misses != 1 {
		t.Fatalf("stats = %d %d %d", evals, hits, misses)
	}
	if ev.Computes() != 1 {
		t.Fatalf("computes = %d, want 1 (second call must reuse the cache)", ev.Computes())
	}
}

// TestBindingsCoalescing: concurrent misses on one subgraph expression must
// share a single evaluation — the P-REMI workers all hammer the evaluator
// with the same queue-head subgraphs on a cold cache, and the fix for the
// duplicated work is per-key coalescing (plus a stat-free double check), so
// exactly one computation may run no matter the interleaving.
func TestBindingsCoalescing(t *testing.T) {
	k := geoKB(t)
	ev := NewEvaluator(k, 128)
	ev.EnableCoalescing()
	cityIn := k.MustPredicateID("http://e/cityIn")
	france := k.MustEntityID("http://e/france")
	g := NewAtom1(cityIn, france)
	want := BindingSet(k, g)

	const workers = 32
	var wg sync.WaitGroup
	results := make([]bindset.Set, workers)
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			results[w] = ev.Bindings(g)
		}(w)
	}
	close(start)
	wg.Wait()
	for w, got := range results {
		if !bindset.Equal(got, want) {
			t.Fatalf("worker %d got a wrong binding set", w)
		}
	}
	if got := ev.Computes(); got != 1 {
		t.Fatalf("computes = %d, want exactly 1 for %d concurrent requests", got, workers)
	}
	evals, hits, misses := ev.Stats()
	if evals != workers {
		t.Fatalf("evals = %d, want %d", evals, workers)
	}
	if hits+misses != workers {
		t.Fatalf("hits(%d)+misses(%d) != %d requests: cache stats drifted", hits, misses, workers)
	}
}

func TestExpressionBindingsAndIsRE(t *testing.T) {
	k := geoKB(t)
	ev := NewEvaluator(k, 128)
	cityIn := k.MustPredicateID("http://e/cityIn")
	mayor := k.MustPredicateID("http://e/mayor")
	party := k.MustPredicateID("http://e/party")
	france := k.MustEntityID("http://e/france")
	socialist := k.MustEntityID("http://e/socialist")
	paris := k.MustEntityID("http://e/paris")

	e := Expression{NewAtom1(cityIn, france), NewPath(mayor, party, socialist)}
	got := ev.ExpressionBindings(e).Slice()
	if len(got) != 1 || got[0] != paris {
		t.Fatalf("expression bindings = %v", got)
	}
	if !ev.IsRE(e, []kb.EntID{paris}) {
		t.Fatal("expression should be an RE for paris")
	}
	lyon := k.MustEntityID("http://e/lyon")
	if ev.IsRE(e, []kb.EntID{paris, lyon}) {
		t.Fatal("expression is not an RE for {paris, lyon}")
	}
	if ev.IsRE(nil, []kb.EntID{paris}) {
		t.Fatal("empty expression cannot be an RE")
	}
}

func TestFormat(t *testing.T) {
	k := geoKB(t)
	cityIn := k.MustPredicateID("http://e/cityIn")
	france := k.MustEntityID("http://e/france")
	g := NewAtom1(cityIn, france)
	if got := g.Format(k); got != "cityIn(x, france)" {
		t.Fatalf("Format = %q", got)
	}
	if got := Expression(nil).Format(k); got != "⊤" {
		t.Fatalf("empty Format = %q", got)
	}
	mayor := k.MustPredicateID("http://e/mayor")
	party := k.MustPredicateID("http://e/party")
	soc := k.MustEntityID("http://e/socialist")
	e := Expression{g, NewPath(mayor, party, soc)}
	want := "cityIn(x, france) ∧ mayor(x, y) ∧ party(y, socialist)"
	if got := e.Format(k); got != want {
		t.Fatalf("Format = %q want %q", got, want)
	}
}

func TestSetOps(t *testing.T) {
	a := []kb.EntID{1, 3, 5, 7}
	b := []kb.EntID{2, 3, 4, 7, 9}
	got := IntersectSorted(a, b)
	if len(got) != 2 || got[0] != 3 || got[1] != 7 {
		t.Fatalf("IntersectSorted = %v", got)
	}
	if !HasIntersection(a, b) || HasIntersection([]kb.EntID{1}, []kb.EntID{2}) {
		t.Fatal("HasIntersection wrong")
	}
	if !ContainsSorted(a, 5) || ContainsSorted(a, 6) {
		t.Fatal("ContainsSorted wrong")
	}
	if !EqualSorted(a, []kb.EntID{1, 3, 5, 7}) || EqualSorted(a, b) {
		t.Fatal("EqualSorted wrong")
	}
}

// dedupSorted removes duplicates from an ascending slice in place.
func dedupSorted(ids []kb.EntID) []kb.EntID {
	w := 0
	for i, x := range ids {
		if i == 0 || x != ids[w-1] {
			ids[w] = x
			w++
		}
	}
	return ids[:w]
}

func TestIntersectionProperty(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		a := make([]kb.EntID, 0, len(xs))
		for _, x := range xs {
			a = append(a, kb.EntID(x))
		}
		b := make([]kb.EntID, 0, len(ys))
		for _, y := range ys {
			b = append(b, kb.EntID(y))
		}
		a = dedupSorted(SortIDs(a))
		b = dedupSorted(SortIDs(b))
		inter := IntersectSorted(a, b)
		m := make(map[kb.EntID]bool)
		for _, x := range a {
			m[x] = true
		}
		want := 0
		for _, y := range b {
			if m[y] {
				want++
			}
		}
		return len(inter) == want && HasIntersection(a, b) == (want > 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
