package expr

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/remi-kb/remi/internal/kb"
)

// skewedTriples draws a random KB over n entities and four predicates whose
// objects, and half of whose subjects, follow a Zipf law: a few hub objects
// carry long subject runs and a few hub subjects long object runs, so runs
// meeting each other are skewed past bindset.GallopRatio and walks over the
// key arrays run off their ends. A quarter of the facts are repeated under
// a second predicate, so the closed shapes have bindings.
func skewedTriples(rng *rand.Rand, n, facts int) [][3]string {
	preds := []string{"p", "q", "r", "s"}
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(n-1))
	ent := func(i uint64) string { return fmt.Sprintf("e%d", i) }
	var out [][3]string
	for len(out) < facts {
		s := ent(uint64(rng.Intn(n)))
		if rng.Intn(2) == 0 {
			s = ent(zipf.Uint64())
		}
		o := ent(zipf.Uint64())
		p := rng.Intn(len(preds))
		out = append(out, [3]string{s, preds[p], o})
		if rng.Intn(4) == 0 {
			out = append(out, [3]string{s, preds[(p+1+rng.Intn(len(preds)-1))%len(preds)], o})
		}
	}
	return out
}

// naiveBindings evaluates g over a plain set of string triples straight from
// the shape's definition (Table 1): every fact of g's first predicate is a
// candidate (x, y), kept when the shape's other atoms hold with the same y.
// It shares nothing with the CSR indexes, bindset or the evaluator.
func naiveBindings(k *kb.KB, facts map[[3]string]bool, byPred map[string][][2]string, g Subgraph) []string {
	pred := func(p kb.PredID) string { return k.PredicateName(p) }
	ent := func(e kb.EntID) string { return k.Term(e).Value }
	holds := func(x, y string) bool {
		switch g.Shape {
		case Atom1:
			return y == ent(g.I0)
		case Path:
			return facts[[3]string{y, pred(g.P1), ent(g.I1)}]
		case PathStar:
			return facts[[3]string{y, pred(g.P1), ent(g.I1)}] && facts[[3]string{y, pred(g.P2), ent(g.I2)}]
		case Closed2:
			return facts[[3]string{x, pred(g.P1), y}]
		case Closed3:
			return facts[[3]string{x, pred(g.P1), y}] && facts[[3]string{x, pred(g.P2), y}]
		}
		return false
	}
	seen := make(map[string]bool)
	var out []string
	for _, xy := range byPred[pred(g.P0)] {
		if !seen[xy[0]] && holds(xy[0], xy[1]) {
			seen[xy[0]] = true
			out = append(out, xy[0])
		}
	}
	slices.Sort(out)
	return out
}

// TestBindingSetMatchesNaiveOracle compares BindingSet for all five shapes
// with the naive evaluation on random skewed KBs of a few hundred entities:
// every atom, every path and every closed shape, and a sample of paths with
// a star drawn from objects that exist.
func TestBindingSetMatchesNaiveOracle(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		triples := skewedTriples(rng, 240, 1500)
		k := buildKB(t, triples)
		facts := make(map[[3]string]bool, len(triples))
		byPred := make(map[string][][2]string)
		for _, tr := range triples {
			full := [3]string{"http://e/" + tr[0], "http://e/" + tr[1], "http://e/" + tr[2]}
			if !facts[full] {
				facts[full] = true
				byPred[full[1]] = append(byPred[full[1]], [2]string{full[0], full[2]})
			}
		}
		nP, nE := kb.PredID(k.NumPredicates()), kb.EntID(k.NumEntities())
		if nE < 200 {
			t.Fatalf("seed %d: %d entities, want ≥ 200", seed, nE)
		}
		var gs []Subgraph
		for p0 := kb.PredID(1); p0 <= nP; p0++ {
			for p1 := kb.PredID(1); p1 <= nP; p1++ {
				for e := kb.EntID(1); e <= nE; e++ {
					if p1 == 1 {
						gs = append(gs, NewAtom1(p0, e))
					}
					gs = append(gs, NewPath(p0, p1, e))
				}
				if p0 < p1 {
					gs = append(gs, NewClosed2(p0, p1))
				}
				for p2 := p1 + 1; p0 < p1 && p2 <= nP; p2++ {
					gs = append(gs, NewClosed3(p0, p1, p2))
				}
			}
		}
		object := func(p kb.PredID) kb.EntID {
			keys, _ := k.ObjectRuns(p)
			return keys[rng.Intn(len(keys))]
		}
		for i := 0; i < 3000; i++ {
			p0, p1, p2 := kb.PredID(1+rng.Intn(int(nP))), kb.PredID(1+rng.Intn(int(nP))), kb.PredID(1+rng.Intn(int(nP)))
			gs = append(gs, NewPathStar(p0, p1, object(p1), p2, object(p2)))
		}
		nonEmpty := make(map[Shape]int)
		for _, g := range gs {
			var got []string
			for _, e := range BindingSet(k, g).Slice() {
				got = append(got, k.Term(e).Value)
			}
			slices.Sort(got)
			want := naiveBindings(k, facts, byPred, g)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d: %s %v: BindingSet %v, naive %v", seed, g.Shape, g, got, want)
			}
			if len(want) > 0 {
				nonEmpty[g.Shape]++
			}
		}
		for _, sh := range []Shape{Atom1, Path, PathStar, Closed2, Closed3} {
			if nonEmpty[sh] == 0 {
				t.Fatalf("seed %d: no %s subgraph has bindings; the KB does not exercise it", seed, sh)
			}
		}
	}
}
