package complexity

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/remi-kb/remi/internal/expr"
	"github.com/remi-kb/remi/internal/kb"
	"github.com/remi-kb/remi/internal/prominence"
	"github.com/remi-kb/remi/internal/rdf"
)

// skewedKB builds a KB where predicate p is far more frequent than q, and
// object "popular" is far more frequent than "obscure".
func skewedKB(t testing.TB) *kb.KB {
	t.Helper()
	b := kb.NewBuilder()
	add := func(s, p, o string) {
		t.Helper()
		err := b.Add(rdf.Triple{
			S: rdf.NewIRI("http://e/" + s), P: rdf.NewIRI("http://e/" + p), O: rdf.NewIRI("http://e/" + o),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		add(name("s", i), "p", "popular")
	}
	add("s0", "p", "obscure")
	add("s1", "q", "rare")
	// join structure: p's objects are subjects of r.
	add("popular", "r", "hub")
	add("obscure", "r", "hub")
	return b.Build(kb.Options{})
}

func name(prefix string, i int) string {
	return prefix + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
}

func setup(t testing.TB, mode Mode) (*kb.KB, *Estimator) {
	k := skewedKB(t)
	prom := prominence.Build(k, prominence.Fr)
	return k, New(k, prom, mode)
}

func TestPredicateRankOrdering(t *testing.T) {
	k, est := setup(t, Exact)
	p := k.MustPredicateID("http://e/p")
	q := k.MustPredicateID("http://e/q")
	popular := k.MustEntityID("http://e/popular")
	rare := k.MustEntityID("http://e/rare")
	// p is rank 1 → 0 bits; q is costlier.
	cp := est.Subgraph(expr.NewAtom1(p, popular))
	cq := est.Subgraph(expr.NewAtom1(q, rare))
	if cp >= cq {
		t.Fatalf("frequent predicate+object should cost less: %f vs %f", cp, cq)
	}
}

func TestConditionalObjectRank(t *testing.T) {
	k, est := setup(t, Exact)
	p := k.MustPredicateID("http://e/p")
	popular := k.MustEntityID("http://e/popular")
	obscure := k.MustEntityID("http://e/obscure")
	if est.Subgraph(expr.NewAtom1(p, popular)) >= est.Subgraph(expr.NewAtom1(p, obscure)) {
		t.Fatal("popular object should cost fewer bits under the same predicate")
	}
}

func TestNonNegativeCosts(t *testing.T) {
	k, est := setup(t, Exact)
	_, estC := setup(t, Compressed)
	var gs []expr.Subgraph
	for pi := 1; pi <= k.NumPredicates(); pi++ {
		for ei := 1; ei <= k.NumEntities(); ei++ {
			gs = append(gs, expr.NewAtom1(kb.PredID(pi), kb.EntID(ei)))
			for pj := 1; pj <= k.NumPredicates(); pj++ {
				gs = append(gs, expr.NewPath(kb.PredID(pi), kb.PredID(pj), kb.EntID(ei)))
			}
		}
		for pj := pi + 1; pj <= k.NumPredicates(); pj++ {
			gs = append(gs, expr.NewClosed2(kb.PredID(pi), kb.PredID(pj)))
		}
	}
	for _, g := range gs {
		for _, e := range []*Estimator{est, estC} {
			if c := e.Subgraph(g); c < 0 || math.IsNaN(c) {
				t.Fatalf("negative/NaN cost %f for %+v (mode %v)", c, g, e.Mode)
			}
		}
	}
}

// TestExpressionAdditive is the pruning soundness condition: adding a
// conjunct never decreases Ĉ.
func TestExpressionAdditive(t *testing.T) {
	k, est := setup(t, Exact)
	p := k.MustPredicateID("http://e/p")
	q := k.MustPredicateID("http://e/q")
	popular := k.MustEntityID("http://e/popular")
	rare := k.MustEntityID("http://e/rare")

	e1 := expr.Expression{expr.NewAtom1(p, popular)}
	e2 := expr.Expression{expr.NewAtom1(p, popular), expr.NewAtom1(q, rare)}
	if est.Expression(e2) < est.Expression(e1) {
		t.Fatal("adding a conjunct decreased Ĉ")
	}
	if got := est.Expression(e1) + est.Subgraph(expr.NewAtom1(q, rare)); math.Abs(got-est.Expression(e2)) > 1e-12 {
		t.Fatal("Ĉ(e) must be the sum of its subgraph costs")
	}
}

func TestEmptyExpressionInfinite(t *testing.T) {
	_, est := setup(t, Exact)
	if !math.IsInf(est.Expression(nil), 1) {
		t.Fatal("Ĉ(⊤) must be infinite")
	}
}

func TestChainRuleUsesJoinRanking(t *testing.T) {
	k, est := setup(t, Exact)
	p := k.MustPredicateID("http://e/p")
	r := k.MustPredicateID("http://e/r")
	hub := k.MustEntityID("http://e/hub")
	// path p(x,y) ∧ r(y, hub): r joins p's objects, so the path must be
	// priced finitely and above the bare predicate cost of p.
	c := est.Subgraph(expr.NewPath(p, r, hub))
	if math.IsInf(c, 1) || math.IsNaN(c) {
		t.Fatalf("path cost = %f", c)
	}
	base := est.Subgraph(expr.NewAtom1(p, hub))
	_ = base // the relative order depends on conditional ranks; only sanity here
}

func TestCompressedCloseToExact(t *testing.T) {
	// On a strongly Zipfian predicate the Eq. 1 estimate should order
	// objects the same way as the exact ranking.
	b := kb.NewBuilder()
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 400; i++ {
		obj := 1
		for rng.Float64() < 0.65 && obj < 30 {
			obj++
		}
		b.Add(rdf.Triple{
			S: rdf.NewIRI("http://e/s" + name("x", i)),
			P: rdf.NewIRI("http://e/p"),
			O: rdf.NewIRI("http://e/o" + name("o", obj)),
		})
	}
	k := b.Build(kb.Options{})
	prom := prominence.Build(k, prominence.Fr)
	exact := New(k, prom, Exact)
	comp := New(k, prom, Compressed)
	p := k.MustPredicateID("http://e/p")

	type oc struct {
		e      kb.EntID
		ex, cp float64
	}
	var all []oc
	for ei := 1; ei <= k.NumEntities(); ei++ {
		e := kb.EntID(ei)
		if k.ObjFreq(p, e) == 0 {
			continue
		}
		all = append(all, oc{e, exact.Subgraph(expr.NewAtom1(p, e)), comp.Subgraph(expr.NewAtom1(p, e))})
	}
	// Kendall-style agreement: most pairs ordered identically.
	agree, total := 0, 0
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			if all[i].ex == all[j].ex {
				continue
			}
			total++
			if (all[i].ex < all[j].ex) == (all[i].cp < all[j].cp) {
				agree++
			}
		}
	}
	if total == 0 {
		t.Skip("degenerate sample")
	}
	if frac := float64(agree) / float64(total); frac < 0.8 {
		t.Fatalf("compressed ordering agrees on only %.0f%% of pairs", frac*100)
	}
}

func TestCostDeterminismProperty(t *testing.T) {
	k, est := setup(t, Compressed)
	nP, nE := k.NumPredicates(), k.NumEntities()
	f := func(p0, p1 uint8, i0 uint16) bool {
		g := expr.NewPath(kb.PredID(int(p0)%nP+1), kb.PredID(int(p1)%nP+1), kb.EntID(int(i0)%nE+1))
		return est.Subgraph(g) == est.Subgraph(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
