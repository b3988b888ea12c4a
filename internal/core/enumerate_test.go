package core

import (
	"math"
	"strings"
	"testing"

	"github.com/remi-kb/remi/internal/expr"
	"github.com/remi-kb/remi/internal/kb"
	"github.com/remi-kb/remi/internal/rdf"
)

// buildSmall constructs a KB from triples given as [s p o] triplets; objects
// starting with "_" become blank nodes, with `"` literals.
func buildSmall(t testing.TB, triples [][3]string) *kb.KB {
	t.Helper()
	b := kb.NewBuilder()
	term := func(v string) rdf.Term {
		switch {
		case strings.HasPrefix(v, "_"):
			return rdf.NewBlank(v[1:])
		case strings.HasPrefix(v, `"`):
			return rdf.NewLiteral(v[1:])
		default:
			return rdf.NewIRI("http://e/" + v)
		}
	}
	for _, tr := range triples {
		if err := b.Add(rdf.Triple{S: term(tr[0]), P: rdf.NewIRI("http://e/" + tr[1]), O: term(tr[2])}); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build(kb.Options{})
}

// SubgraphCounts tallies the enumeration output by shape.
func SubgraphCounts(k *kb.KB, t kb.EntID, opts EnumerateOptions) map[expr.Shape]int {
	out := make(map[expr.Shape]int)
	for _, g := range SubgraphsOf(k, t, opts) {
		out[g.Shape]++
	}
	return out
}

// TestShapesTable1 verifies the enumerator produces exactly the shapes of
// Table 1 on a KB crafted to exhibit each.
func TestShapesTable1(t *testing.T) {
	k := buildSmall(t, [][3]string{
		{"t", "p", "y"},
		{"y", "q", "i1"},
		{"y", "r", "i2"},
		{"t", "p2", "y"},
		{"t", "p3", "y"},
	})
	tID := k.MustEntityID("http://e/t")
	counts := SubgraphCounts(k, tID, EnumerateOptions{Language: ExtendedLanguage})

	// Atom1: p(t,y), p2(t,y), p3(t,y) → 3.
	if counts[expr.Atom1] != 3 {
		t.Errorf("Atom1 = %d want 3", counts[expr.Atom1])
	}
	// Paths: {p,p2,p3}(x,·) × {q(y,i1), r(y,i2)} → 6.
	if counts[expr.Path] != 6 {
		t.Errorf("Path = %d want 6", counts[expr.Path])
	}
	// Path+star: {p,p2,p3} × {q-i1 with r-i2} → 3.
	if counts[expr.PathStar] != 3 {
		t.Errorf("PathStar = %d want 3", counts[expr.PathStar])
	}
	// Closed2: pairs of {p,p2,p3} → 3; Closed3: 1.
	if counts[expr.Closed2] != 3 {
		t.Errorf("Closed2 = %d want 3", counts[expr.Closed2])
	}
	if counts[expr.Closed3] != 1 {
		t.Errorf("Closed3 = %d want 1", counts[expr.Closed3])
	}
}

func TestStandardLanguageOnlyAtoms(t *testing.T) {
	k := buildSmall(t, [][3]string{
		{"t", "p", "y"}, {"y", "q", "i1"},
	})
	tID := k.MustEntityID("http://e/t")
	subs := SubgraphsOf(k, tID, EnumerateOptions{Language: StandardLanguage})
	for _, g := range subs {
		if g.Shape != expr.Atom1 {
			t.Fatalf("standard language produced %v", g.Shape)
		}
	}
	if len(subs) != 1 {
		t.Fatalf("got %d atoms, want 1", len(subs))
	}
}

// TestBlankNodeHandling: atoms with blank objects are skipped, but paths
// through blank nodes ("hiding" them) are derived (Section 3.5.2).
func TestBlankNodeHandling(t *testing.T) {
	k := buildSmall(t, [][3]string{
		{"t", "career", "_b1"},
		{"_b1", "team", "acme"},
		{"_b1", "other", "_b2"}, // blank tail must not appear
	})
	tID := k.MustEntityID("http://e/t")
	subs := SubgraphsOf(k, tID, EnumerateOptions{Language: ExtendedLanguage})
	var atoms, paths int
	for _, g := range subs {
		switch g.Shape {
		case expr.Atom1:
			atoms++
		case expr.Path:
			paths++
			if k.IsBlank(g.I1) {
				t.Fatal("blank node leaked into a path tail")
			}
		}
	}
	if atoms != 0 {
		t.Fatalf("blank-object atom derived (%d)", atoms)
	}
	if paths != 1 {
		t.Fatalf("hidden-blank path count = %d want 1 (career→team→acme)", paths)
	}
}

// TestProminentCutoffBlocksExpansion: atoms whose object is in the
// prominent set are not expanded into multi-atom shapes.
func TestProminentCutoffBlocksExpansion(t *testing.T) {
	k := buildSmall(t, [][3]string{
		{"t", "p", "hub"},
		{"hub", "q", "i1"},
	})
	tID := k.MustEntityID("http://e/t")
	hub := k.MustEntityID("http://e/hub")

	withCutoff := SubgraphsOf(k, tID, EnumerateOptions{
		Language:  ExtendedLanguage,
		Prominent: kb.NewEntSet([]kb.EntID{hub}, k.NumEntities()),
	})
	for _, g := range withCutoff {
		if g.Shape == expr.Path {
			t.Fatalf("path derived through a prominent object: %+v", g)
		}
	}
	without := SubgraphsOf(k, tID, EnumerateOptions{Language: ExtendedLanguage})
	foundPath := false
	for _, g := range without {
		if g.Shape == expr.Path {
			foundPath = true
		}
	}
	if !foundPath {
		t.Fatal("path missing without the cutoff")
	}
}

// TestLiteralTailsExcluded: literals may be Atom1 objects but never path or
// star tails.
func TestLiteralTailsExcluded(t *testing.T) {
	k := buildSmall(t, [][3]string{
		{"t", "p", "y"},
		{"y", "label", `"some name`},
		{"t", "pop", `"12345`},
	})
	tID := k.MustEntityID("http://e/t")
	subs := SubgraphsOf(k, tID, EnumerateOptions{Language: ExtendedLanguage})
	var atomLits, pathCount int
	for _, g := range subs {
		switch g.Shape {
		case expr.Atom1:
			if k.IsLiteral(g.I0) {
				atomLits++
			}
		case expr.Path, expr.PathStar:
			pathCount++
		}
	}
	if atomLits != 1 {
		t.Fatalf("literal Atom1 count = %d want 1", atomLits)
	}
	if pathCount != 0 {
		t.Fatalf("literal-tailed paths derived: %d", pathCount)
	}
}

func TestSkipPredicate(t *testing.T) {
	k := buildSmall(t, [][3]string{
		{"t", "keep", "a"},
		{"t", "drop", "b"},
	})
	tID := k.MustEntityID("http://e/t")
	drop := k.MustPredicateID("http://e/drop")
	subs := SubgraphsOf(k, tID, EnumerateOptions{
		Language:      ExtendedLanguage,
		SkipPredicate: func(p kb.PredID) bool { return p == drop },
	})
	for _, g := range subs {
		if g.P0 == drop || g.P1 == drop || g.P2 == drop {
			t.Fatalf("skipped predicate appeared: %+v", g)
		}
	}
	if len(subs) != 1 {
		t.Fatalf("got %d subgraphs want 1", len(subs))
	}
}

// TestCommonSubgraphsIntersection: only subgraphs holding for every target
// survive.
func TestCommonSubgraphsIntersection(t *testing.T) {
	k := buildSmall(t, [][3]string{
		{"a", "p", "v"}, {"a", "q", "w"},
		{"b", "p", "v"}, {"b", "r", "u"},
	})
	a := k.MustEntityID("http://e/a")
	bID := k.MustEntityID("http://e/b")
	common := CommonSubgraphs(k, []kb.EntID{a, bID}, EnumerateOptions{Language: ExtendedLanguage})
	if len(common) != 1 {
		t.Fatalf("common = %d want 1 (p(x,v))", len(common))
	}
	if common[0].Shape != expr.Atom1 || common[0].P0 != k.MustPredicateID("http://e/p") {
		t.Fatalf("wrong common subgraph %+v", common[0])
	}
}

// TestSelfLoopSkipped: p(t, t) must not be expanded into paths through t
// itself.
func TestSelfLoopSkipped(t *testing.T) {
	k := buildSmall(t, [][3]string{
		{"t", "p", "t"},
		{"t", "q", "other"},
	})
	tID := k.MustEntityID("http://e/t")
	subs := SubgraphsOf(k, tID, EnumerateOptions{Language: ExtendedLanguage})
	for _, g := range subs {
		if g.Shape == expr.Path && g.P0 == k.MustPredicateID("http://e/p") && g.P1 == g.P0 {
			t.Fatalf("self-loop expanded: %+v", g)
		}
	}
}

// TestFigure1TraceSequence replays the Figure 1 exploration and checks the
// structural properties of the event stream: the sequential miner visits
// conjunctions in nondecreasing cost, an RE event always follows a visit of
// the same expression, and the final best equals the cheapest RE seen.
func TestFigure1TraceSequence(t *testing.T) {
	k, est := tinySetup(t)
	cfg := DefaultConfig()
	var events []Event
	cfg.Trace = func(e Event) { events = append(events, e) }
	m := NewMiner(k, est, cfg)

	rennes, _ := k.EntityID(rdf.NewIRI("http://tiny.demo/resource/Rennes"))
	nantes, _ := k.EntityID(rdf.NewIRI("http://tiny.demo/resource/Nantes"))
	res, err := m.Mine([]kb.EntID{rennes, nantes})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found() {
		t.Fatal("no RE")
	}

	bestSeen := -1.0
	minRE := -1.0
	lastVisitCost := math.Inf(-1)
	var lastVisitKey string
	for _, ev := range events {
		switch ev.Kind {
		case EventVisit:
			if ev.Cost < lastVisitCost {
				t.Fatalf("visit %s at %v bits after one at %v: costs decreased", ev.Expression.Format(k), ev.Cost, lastVisitCost)
			}
			lastVisitCost = ev.Cost
			lastVisitKey = ev.Expression.Key()
		case EventRE:
			if ev.Expression.Key() != lastVisitKey {
				t.Fatal("RE event without a matching visit")
			}
			if minRE < 0 || ev.Cost < minRE {
				minRE = ev.Cost
			}
		case EventNewBest:
			if bestSeen >= 0 && ev.Cost >= bestSeen {
				t.Fatal("best did not improve monotonically")
			}
			bestSeen = ev.Cost
		}
	}
	if bestSeen < 0 {
		t.Fatal("no best event")
	}
	if res.Bits != bestSeen || res.Bits != minRE {
		t.Fatalf("final %f, best event %f, min RE %f", res.Bits, bestSeen, minRE)
	}
}
