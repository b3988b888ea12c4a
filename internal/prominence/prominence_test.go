package prominence

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"testing"

	"github.com/remi-kb/remi/internal/datagen"
	"github.com/remi-kb/remi/internal/kb"
	"github.com/remi-kb/remi/internal/rdf"
	"github.com/remi-kb/remi/internal/stats"
)

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

func TestPredicateRanking(t *testing.T) {
	k := buildKB(t, [][3]string{
		{"a", "p", "x"}, {"b", "p", "x"}, {"c", "p", "y"},
		{"a", "q", "x"},
	})
	s := Build(k, Fr)
	p := k.MustPredicateID("http://e/p")
	q := k.MustPredicateID("http://e/q")
	if s.PredicateRank(p) != 1 || s.PredicateRank(q) != 2 {
		t.Fatalf("ranks: p=%d q=%d", s.PredicateRank(p), s.PredicateRank(q))
	}
}

func TestConditionalRanking(t *testing.T) {
	k := buildKB(t, [][3]string{
		{"a", "p", "x"}, {"b", "p", "x"}, {"c", "p", "x"},
		{"d", "p", "y"},
	})
	s := Build(k, Fr)
	p := k.MustPredicateID("http://e/p")
	x := k.MustEntityID("http://e/x")
	y := k.MustEntityID("http://e/y")
	rx, ok := s.CondRank(p, x)
	if !ok || rx != 1 {
		t.Fatalf("rank(x|p) = %d ok=%v", rx, ok)
	}
	ry, _ := s.CondRank(p, y)
	if ry != 2 {
		t.Fatalf("rank(y|p) = %d", ry)
	}
	if s.CondDomainSize(p) != 2 {
		t.Fatalf("domain = %d", s.CondDomainSize(p))
	}
	if _, ok := s.CondRank(p, k.MustEntityID("http://e/a")); ok {
		t.Fatal("subject ranked as object")
	}
}

func TestJoinRankSO(t *testing.T) {
	// p's objects {x} feed q (x is q's subject twice) and r (once):
	// q ranks above r among p's SO-join partners.
	k := buildKB(t, [][3]string{
		{"a", "p", "x"},
		{"x", "q", "m"}, {"x", "q", "n"},
		{"x", "r", "m"},
	})
	s := Build(k, Fr)
	p := k.MustPredicateID("http://e/p")
	q := k.MustPredicateID("http://e/q")
	r := k.MustPredicateID("http://e/r")
	rq, dom, ok := s.JoinRank(JoinSO, p, q)
	if !ok || rq != 1 || dom != 2 {
		t.Fatalf("JoinRank(p,q) = %d dom=%d ok=%v", rq, dom, ok)
	}
	rr, _, _ := s.JoinRank(JoinSO, p, r)
	if rr != 2 {
		t.Fatalf("JoinRank(p,r) = %d", rr)
	}
	if _, _, ok := s.JoinRank(JoinSO, q, p); ok {
		t.Fatal("no join between q's objects and p's subjects expected")
	}
}

func TestJoinRankSS(t *testing.T) {
	k := buildKB(t, [][3]string{
		{"a", "p", "x"}, {"a", "q", "y"}, {"a", "q", "z"},
		{"b", "p", "x"}, {"b", "r", "y"},
	})
	s := Build(k, Fr)
	p := k.MustPredicateID("http://e/p")
	q := k.MustPredicateID("http://e/q")
	rq, _, ok := s.JoinRank(JoinSS, p, q)
	if !ok || rq < 1 {
		t.Fatalf("JoinRank SS = %d ok=%v", rq, ok)
	}
}

func TestEstimatedLogRankMonotone(t *testing.T) {
	// More frequent objects should get lower estimated log-ranks.
	var triples [][3]string
	for i := 0; i < 30; i++ {
		triples = append(triples, [3]string{sname(i), "p", "top"})
	}
	for i := 0; i < 10; i++ {
		triples = append(triples, [3]string{sname(i), "p", "mid"})
	}
	triples = append(triples, [3]string{"z", "p", "tail"})
	k := buildKB(t, triples)
	s := Build(k, Fr)
	p := k.MustPredicateID("http://e/p")
	top := k.MustEntityID("http://e/top")
	mid := k.MustEntityID("http://e/mid")
	tail := k.MustEntityID("http://e/tail")
	lt, lm, ll := s.EstimatedLogRank(p, top), s.EstimatedLogRank(p, mid), s.EstimatedLogRank(p, tail)
	if !(lt <= lm && lm <= ll) {
		t.Fatalf("estimated log ranks not monotone: %f %f %f", lt, lm, ll)
	}
}

func sname(i int) string { return "s" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) }

func TestPageRankBasics(t *testing.T) {
	// star: many pages link to hub → hub has the top PageRank.
	k := buildKB(t, [][3]string{
		{"a", "l", "hub"}, {"b", "l", "hub"}, {"c", "l", "hub"}, {"hub", "l", "a"},
	})
	pr := PageRank(k, 0.85, 50, 1e-12)
	sum := 0.0
	for _, v := range pr {
		sum += v
	}
	if math.Abs(sum-1.0) > 1e-6 {
		t.Fatalf("PageRank mass = %f, want 1", sum)
	}
	hub := k.MustEntityID("http://e/hub")
	for e := 1; e <= k.NumEntities(); e++ {
		if kb.EntID(e) != hub && pr[e-1] >= pr[hub-1] {
			t.Fatalf("hub should dominate: pr[%d]=%f >= pr[hub]=%f", e, pr[e-1], pr[hub-1])
		}
	}
}

func TestPageRankSkipsLiterals(t *testing.T) {
	b := kb.NewBuilder()
	b.Add(rdf.Triple{S: rdf.NewIRI("http://e/a"), P: rdf.NewIRI("http://e/p"), O: rdf.NewLiteral("lit")})
	b.Add(rdf.Triple{S: rdf.NewIRI("http://e/a"), P: rdf.NewIRI("http://e/p"), O: rdf.NewIRI("http://e/b")})
	k := b.Build(kb.Options{})
	pr := PageRank(k, 0.85, 30, 1e-9)
	lit, _ := k.EntityID(rdf.NewLiteral("lit"))
	if pr[lit-1] != 0 {
		t.Fatal("literal received PageRank mass")
	}
}

func TestAverageFitR2OnZipfianData(t *testing.T) {
	d := datagen.DBpediaLike(datagen.Config{Seed: 9, Scale: 0.05})
	k, err := d.BuildKB(kb.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := Build(k, Fr)
	avg, n := s.AverageFitR2(15)
	if n == 0 {
		t.Fatal("no predicates fitted")
	}
	if avg < 0.6 || avg > 1 {
		t.Fatalf("avg R² = %f outside the expected power-law regime", avg)
	}
}

func TestGlobalEntityRank(t *testing.T) {
	k := buildKB(t, [][3]string{
		{"a", "p", "hub"}, {"b", "p", "hub"}, {"c", "p", "hub"}, {"a", "p", "x"},
	})
	s := Build(k, Fr)
	hub := k.MustEntityID("http://e/hub")
	if s.GlobalEntityRank(hub) != 1 {
		t.Fatalf("hub rank = %d", s.GlobalEntityRank(hub))
	}
}

func TestTopEntitiesExcludesLiterals(t *testing.T) {
	b := kb.NewBuilder()
	for i := 0; i < 5; i++ {
		b.Add(rdf.Triple{S: rdf.NewIRI("http://e/s"), P: rdf.NewIRI("http://e/p"), O: rdf.NewLiteral("L")})
		b.Add(rdf.Triple{S: rdf.NewIRI("http://e/s"), P: rdf.NewIRI("http://e/p"), O: rdf.NewIRI("http://e/o")})
	}
	k := b.Build(kb.Options{})
	s := Build(k, Fr)
	for _, e := range s.TopEntities(10, nil) {
		if k.IsLiteral(e) {
			t.Fatal("literal in TopEntities")
		}
	}
}

func TestPrMetricFallsBackForLiterals(t *testing.T) {
	b := kb.NewBuilder()
	b.Add(rdf.Triple{S: rdf.NewIRI("http://e/a"), P: rdf.NewIRI("http://e/p"), O: rdf.NewLiteral("x")})
	b.Add(rdf.Triple{S: rdf.NewIRI("http://e/a"), P: rdf.NewIRI("http://e/q"), O: rdf.NewIRI("http://e/b")})
	k := b.Build(kb.Options{})
	s := Build(k, Pr)
	lit, _ := k.EntityID(rdf.NewLiteral("x"))
	bEnt := k.MustEntityID("http://e/b")
	if s.EntityScore(lit) <= 0 {
		t.Fatal("literal got no fallback score")
	}
	if s.EntityScore(lit) >= s.EntityScore(bEnt) {
		t.Fatal("literal fallback should rank below entities with PageRank")
	}
}

// ---------------------------------------------------------------------------
// Reference implementation. What follows is the map-based builder this
// package used before Build was rewritten over the CSR runs, kept verbatim
// (receiver and PageRank names aside) as the oracle the linear-time builder
// is compared against: same ranks, same fit coefficients to the last bit.

type refStore struct {
	K      *kb.KB
	Metric Metric

	predRank []int
	entScore []float64
	condRank []map[kb.EntID]int
	fits     []stats.Linear
	fitOK    []bool
	joinSO   map[uint64]int
	joinSS   map[uint64]int

	joinRankSO map[kb.PredID]map[kb.PredID]int
	joinRankSS map[kb.PredID]map[kb.PredID]int
	joinSizeSO map[kb.PredID]int
	joinSizeSS map[kb.PredID]int

	custom func(kb.EntID) float64
}

func refBuild(k *kb.KB, m Metric, score func(kb.EntID) float64) *refStore {
	s := &refStore{
		K:          k,
		Metric:     m,
		custom:     score,
		joinRankSO: make(map[kb.PredID]map[kb.PredID]int),
		joinRankSS: make(map[kb.PredID]map[kb.PredID]int),
		joinSizeSO: make(map[kb.PredID]int),
		joinSizeSS: make(map[kb.PredID]int),
	}
	s.buildPredicateRanking()
	s.buildEntityScores()
	s.buildConditionalRankings()
	s.buildJoinCounts()
	return s
}

func (s *refStore) buildPredicateRanking() {
	n := s.K.NumPredicates()
	weights := make([]float64, n)
	for i := 0; i < n; i++ {
		weights[i] = float64(s.K.PredFreq(kb.PredID(i + 1)))
	}
	s.predRank = stats.RankDescending(weights)
}

func (s *refStore) buildEntityScores() {
	n := s.K.NumEntities()
	s.entScore = make([]float64, n)
	if s.Metric == Custom {
		minPos := math.Inf(1)
		for i := 0; i < n; i++ {
			if v := s.custom(kb.EntID(i + 1)); v > 0 {
				s.entScore[i] = v
				if v < minPos {
					minPos = v
				}
			}
		}
		if math.IsInf(minPos, 1) {
			minPos = 1
		}
		for i := 0; i < n; i++ {
			if s.entScore[i] == 0 {
				f := float64(s.K.EntityFreq(kb.EntID(i + 1)))
				s.entScore[i] = minPos * f / (1e6 + f)
			}
		}
		return
	}
	if s.Metric == Pr {
		pr := refPageRank(s.K, 0.85, 30, 1e-9)
		copy(s.entScore, pr)
		minPR := math.Inf(1)
		for _, v := range pr {
			if v > 0 && v < minPR {
				minPR = v
			}
		}
		if math.IsInf(minPR, 1) {
			minPR = 1
		}
		for i := 0; i < n; i++ {
			if s.entScore[i] == 0 {
				f := float64(s.K.EntityFreq(kb.EntID(i + 1)))
				s.entScore[i] = minPR * f / (1e6 + f)
			}
		}
	} else {
		for i := 0; i < n; i++ {
			s.entScore[i] = float64(s.K.EntityFreq(kb.EntID(i + 1)))
		}
	}
}

func (s *refStore) EntityScore(e kb.EntID) float64 { return s.entScore[e-1] }

func (s *refStore) PredicateRank(p kb.PredID) int { return s.predRank[p-1] }

func (s *refStore) buildConditionalRankings() {
	nP := s.K.NumPredicates()
	s.condRank = make([]map[kb.EntID]int, nP)
	s.fits = make([]stats.Linear, nP)
	s.fitOK = make([]bool, nP)

	for pi := 0; pi < nP; pi++ {
		p := kb.PredID(pi + 1)
		facts := s.K.Facts(p)
		// Distinct objects with conditional frequency.
		freq := make(map[kb.EntID]int)
		for _, pr := range facts {
			freq[pr.O]++
		}
		objs := make([]kb.EntID, 0, len(freq))
		for o := range freq {
			objs = append(objs, o)
		}
		score := func(o kb.EntID) float64 {
			if s.Metric != Fr {
				return s.entScore[o-1]
			}
			return float64(freq[o])
		}
		sort.Slice(objs, func(i, j int) bool {
			si, sj := score(objs[i]), score(objs[j])
			if si != sj {
				return si > sj
			}
			return objs[i] < objs[j]
		})
		rank := make(map[kb.EntID]int, len(objs))
		for i, o := range objs {
			rank[o] = i + 1
		}
		s.condRank[pi] = rank

		var xs, ys []float64
		for i, o := range objs {
			sc := score(o)
			if sc <= 0 {
				continue
			}
			xs = append(xs, math.Log2(sc))
			ys = append(ys, math.Log2(float64(i+1)))
		}
		if fit, err := stats.FitLinear(xs, ys); err == nil {
			s.fits[pi] = fit
			s.fitOK[pi] = true
		}
	}
}

func (s *refStore) CondRank(p kb.PredID, o kb.EntID) (int, bool) {
	r, ok := s.condRank[p-1][o]
	return r, ok
}

func (s *refStore) CondDomainSize(p kb.PredID) int { return len(s.condRank[p-1]) }

func (s *refStore) Fit(p kb.PredID) (stats.Linear, bool) {
	return s.fits[p-1], s.fitOK[p-1]
}

func (s *refStore) EstimatedLogRank(p kb.PredID, o kb.EntID) float64 {
	var sc float64
	if s.Metric != Fr {
		sc = s.entScore[o-1]
	} else {
		sc = float64(s.K.ObjFreq(p, o))
	}
	if s.fitOK[p-1] && sc > 0 {
		est := s.fits[p-1].Eval(math.Log2(sc))
		if est < 0 {
			est = 0
		}
		return est
	}
	if r, ok := s.CondRank(p, o); ok {
		return math.Log2(float64(r))
	}
	return math.Log2(float64(s.CondDomainSize(p) + 1))
}

func (s *refStore) buildJoinCounts() {
	k := s.K
	nEnt := k.NumEntities()
	// objPreds[e]: predicates having e as object; subjPreds[e]: as subject.
	objPreds := make([][]kb.PredID, nEnt+1)
	subjPreds := make([][]kb.PredID, nEnt+1)
	for _, p := range k.Predicates() {
		var lastS, lastO kb.EntID
		for _, pr := range k.Facts(p) {
			if pr.S != lastS || len(subjPreds[pr.S]) == 0 || subjPreds[pr.S][len(subjPreds[pr.S])-1] != p {
				subjPreds[pr.S] = append(subjPreds[pr.S], p)
				lastS = pr.S
			}
			if pr.O != lastO || len(objPreds[pr.O]) == 0 || objPreds[pr.O][len(objPreds[pr.O])-1] != p {
				objPreds[pr.O] = append(objPreds[pr.O], p)
				lastO = pr.O
			}
		}
	}
	s.joinSO = make(map[uint64]int)
	s.joinSS = make(map[uint64]int)
	for _, p1 := range k.Predicates() {
		for _, pr := range k.Facts(p1) {
			for _, p0 := range objPreds[pr.S] {
				s.joinSO[joinKey(p0, p1)]++
			}
			for _, p0 := range subjPreds[pr.S] {
				if p0 != p1 {
					s.joinSS[joinKey(p0, p1)]++
				}
			}
		}
	}
}

func joinKey(p0, p1 kb.PredID) uint64 { return uint64(p0)<<32 | uint64(p1) }

func (s *refStore) JoinRank(kind JoinKind, p0, p1 kb.PredID) (rank, domain int, ok bool) {
	var cache map[kb.PredID]map[kb.PredID]int
	var sizes map[kb.PredID]int
	var counts map[uint64]int
	if kind == JoinSO {
		cache, sizes, counts = s.joinRankSO, s.joinSizeSO, s.joinSO
	} else {
		cache, sizes, counts = s.joinRankSS, s.joinSizeSS, s.joinSS
	}
	rm, have := cache[p0]
	if !have {
		type pc struct {
			p kb.PredID
			c int
		}
		var partners []pc
		for _, p := range s.K.Predicates() {
			if c := counts[joinKey(p0, p)]; c > 0 {
				partners = append(partners, pc{p, c})
			}
		}
		sort.Slice(partners, func(i, j int) bool {
			if partners[i].c != partners[j].c {
				return partners[i].c > partners[j].c
			}
			return partners[i].p < partners[j].p
		})
		rm = make(map[kb.PredID]int, len(partners))
		for i, x := range partners {
			rm[x.p] = i + 1
		}
		cache[p0] = rm
		sizes[p0] = len(partners)
	}
	r, ok := rm[p1]
	return r, sizes[p0], ok
}

func refPageRank(k *kb.KB, damping float64, maxIter int, eps float64) []float64 {
	n := k.NumEntities()
	rank := make([]float64, n)
	if n == 0 {
		return rank
	}

	// Adjacency: out-edges per entity (entity objects of base facts only).
	outDeg := make([]int, n+1)
	type edge struct{ from, to kb.EntID }
	var edges []edge
	nodes := make([]bool, n+1)
	for _, p := range k.Predicates() {
		if k.IsInverse(p) {
			continue
		}
		for _, pr := range k.Facts(p) {
			if k.Kind(pr.O) == rdf.Literal {
				continue
			}
			edges = append(edges, edge{pr.S, pr.O})
			outDeg[pr.S]++
			nodes[pr.S] = true
			nodes[pr.O] = true
		}
	}
	nNodes := 0
	for i := 1; i <= n; i++ {
		if k.Kind(kb.EntID(i)) != rdf.Literal {
			nodes[i] = true
		}
		if nodes[i] {
			nNodes++
		}
	}
	if nNodes == 0 {
		return rank
	}

	cur := make([]float64, n+1)
	next := make([]float64, n+1)
	init := 1.0 / float64(nNodes)
	for i := 1; i <= n; i++ {
		if nodes[i] {
			cur[i] = init
		}
	}
	base := (1 - damping) / float64(nNodes)
	for iter := 0; iter < maxIter; iter++ {
		dangling := 0.0
		for i := 1; i <= n; i++ {
			if nodes[i] && outDeg[i] == 0 {
				dangling += cur[i]
			}
		}
		spread := damping * dangling / float64(nNodes)
		for i := 1; i <= n; i++ {
			if nodes[i] {
				next[i] = base + spread
			} else {
				next[i] = 0
			}
		}
		for _, e := range edges {
			next[e.to] += damping * cur[e.from] / float64(outDeg[e.from])
		}
		delta := 0.0
		for i := 1; i <= n; i++ {
			delta += math.Abs(next[i] - cur[i])
		}
		cur, next = next, cur
		if delta < eps {
			break
		}
	}
	copy(rank, cur[1:])
	return rank
}

// End of the reference implementation.
// ---------------------------------------------------------------------------

// rankings is what diffStores reads of a store: the methods *Store and
// *refStore share.
type rankings interface {
	EntityScore(kb.EntID) float64
	PredicateRank(kb.PredID) int
	CondDomainSize(kb.PredID) int
	Fit(kb.PredID) (stats.Linear, bool)
	CondRank(kb.PredID, kb.EntID) (int, bool)
	EstimatedLogRank(kb.PredID, kb.EntID) float64
	JoinRank(JoinKind, kb.PredID, kb.PredID) (int, int, bool)
}

// diffStores compares every observable of a built Store with the reference
// builder's (or another Store's) on the same KB. Floats are compared with ==:
// the new builder must accumulate in the same order, not merely land close.
func diffStores(t *testing.T, got *Store, want rankings) {
	t.Helper()
	k := got.K
	for e := kb.EntID(1); int(e) <= k.NumEntities(); e++ {
		if g, w := got.EntityScore(e), want.EntityScore(e); g != w {
			t.Fatalf("EntityScore(%d) = %v, reference %v", e, g, w)
		}
	}
	for _, p := range k.Predicates() {
		if g, w := got.PredicateRank(p), want.PredicateRank(p); g != w {
			t.Fatalf("PredicateRank(%d) = %d, reference %d", p, g, w)
		}
		if g, w := got.CondDomainSize(p), want.CondDomainSize(p); g != w {
			t.Fatalf("CondDomainSize(%d) = %d, reference %d", p, g, w)
		}
		gf, gok := got.Fit(p)
		wf, wok := want.Fit(p)
		if gok != wok || gf.Slope != wf.Slope || gf.Intercept != wf.Intercept || gf.R2 != wf.R2 || gf.N != wf.N {
			t.Fatalf("Fit(%d) = %+v %v, reference %+v %v", p, gf, gok, wf, wok)
		}
		// Every object of p, plus one entity on either side of each so
		// that non-objects (ok == false, the beyond-the-domain price) are
		// covered too.
		objs, _ := k.ObjectRuns(p)
		probe := func(o kb.EntID) {
			if o == 0 || int(o) > k.NumEntities() {
				return
			}
			gr, gok := got.CondRank(p, o)
			wr, wok := want.CondRank(p, o)
			if gr != wr || gok != wok {
				t.Fatalf("CondRank(%d,%d) = %d %v, reference %d %v", p, o, gr, gok, wr, wok)
			}
			if g, w := got.EstimatedLogRank(p, o), want.EstimatedLogRank(p, o); g != w {
				t.Fatalf("EstimatedLogRank(%d,%d) = %v, reference %v", p, o, g, w)
			}
		}
		for _, o := range objs {
			probe(o - 1)
			probe(o)
			probe(o + 1)
		}
		for _, kind := range []JoinKind{JoinSO, JoinSS} {
			for _, p1 := range k.Predicates() {
				gr, gd, gok := got.JoinRank(kind, p, p1)
				wr, wd, wok := want.JoinRank(kind, p, p1)
				if gr != wr || gd != wd || gok != wok {
					t.Fatalf("JoinRank(%d,%d,%d) = %d %d %v, reference %d %d %v", kind, p, p1, gr, gd, gok, wr, wd, wok)
				}
			}
		}
	}
}

// diffAllMetrics runs diffStores for fr, pr and a custom score source that
// leaves some entities unscored (the fr-fallback path).
func diffAllMetrics(t *testing.T, k *kb.KB) {
	t.Helper()
	diffStores(t, Build(k, Fr), refBuild(k, Fr, nil))
	diffStores(t, Build(k, Pr), refBuild(k, Pr, nil))
	custom := func(e kb.EntID) float64 {
		if e%3 == 0 {
			return 0
		}
		return float64((uint32(e)*2654435761)%1000) / 7
	}
	diffStores(t, BuildWithScores(k, custom), refBuild(k, Custom, custom))
}

// reopened writes k as a v2 snapshot and opens it again: the pair lists are
// absent from such a KB until something asks for Facts.
func reopened(t *testing.T, k *kb.KB) *kb.KB {
	t.Helper()
	path := filepath.Join(t.TempDir(), "kb.snap")
	if err := k.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	k2, err := kb.OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { k2.Close() })
	return k2
}

// patched adds a predicate nobody has seen, between terms nobody has seen
// and existing ones, and retracts every fact of the largest base predicate
// (mirrored facts of its inverse included).
func patched(t *testing.T, k *kb.KB) *kb.KB {
	t.Helper()
	var victim kb.PredID
	for _, p := range k.Predicates() {
		if !k.IsInverse(p) && (victim == 0 || k.PredFreq(p) > k.PredFreq(victim)) {
			victim = p
		}
	}
	nEnt, nP := kb.EntID(k.NumEntities()), kb.PredID(k.NumPredicates())
	patch := kb.Patch{
		ExtraTerms: []rdf.Term{rdf.NewIRI("http://new/a"), rdf.NewIRI("http://new/b"), rdf.NewLiteral("new c")},
		ExtraPreds: []string{"http://new/pred"},
		Adds: map[kb.PredID][]kb.Pair{
			nP + 1: {{S: 1, O: nEnt + 1}, {S: 1, O: nEnt + 3}, {S: 2, O: nEnt + 1}, {S: nEnt + 1, O: 1}, {S: nEnt + 1, O: nEnt + 2}, {S: nEnt + 2, O: nEnt + 2}},
		},
		Dels: map[kb.PredID][]kb.Pair{victim: slices.Clone(k.Facts(victim))},
	}
	for _, p := range k.Predicates() {
		if k.BaseOf(p) == victim {
			patch.Dels[p] = slices.Clone(k.Facts(p))
		}
	}
	k2, err := k.ApplyPatch(patch)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { k2.Close() })
	if k2.PredFreq(victim) != 0 || k2.PredFreq(nP+1) != 6 {
		t.Fatalf("patch did not take: victim has %d facts, new predicate %d", k2.PredFreq(victim), k2.PredFreq(nP+1))
	}
	return k2
}

// TestBuildMatchesReference is the equivalence the rewrite rests on: the
// linear-time builder over the CSR runs and the map-based builder over Facts
// agree on every observable — for every metric, on every KB shape the system
// produces (built, reopened from a v2 snapshot, patched).
func TestBuildMatchesReference(t *testing.T) {
	type input struct {
		name string
		data *datagen.Dataset
		opts kb.Options
	}
	tinyOpts := kb.DefaultOptions()
	tinyOpts.InverseTopFraction = 0.10
	inputs := []input{{"tiny", datagen.TinyGeo(), tinyOpts}}
	for seed := int64(1); seed <= 5; seed++ {
		cfg := datagen.Config{Seed: seed, Scale: 0.04}
		inputs = append(inputs,
			input{fmt.Sprintf("dbpedia/seed%d", seed), datagen.DBpediaLike(cfg), kb.DefaultOptions()},
			input{fmt.Sprintf("wikidata/seed%d", seed), datagen.WikidataLike(cfg), kb.DefaultOptions()})
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			built, err := in.data.BuildKB(in.opts)
			if err != nil {
				t.Fatal(err)
			}
			// The patched form gets a reopened KB of its own: building the
			// patch reads Facts, and the snapshot form should meet Build with
			// its pair lists still underived.
			snap := reopened(t, built)
			for _, form := range []struct {
				name string
				k    *kb.KB
			}{{"built", built}, {"snapshot", snap}, {"patched", patched(t, reopened(t, built))}} {
				t.Run(form.name, func(t *testing.T) { diffAllMetrics(t, form.k) })
			}
		})
	}
}

// TestBuildEmptyKB: no predicates, no entities, no panic.
func TestBuildEmptyKB(t *testing.T) {
	k := kb.NewBuilder().Build(kb.Options{})
	diffAllMetrics(t, k)
	if s := Build(k, Fr); len(s.TopEntities(3, nil)) != 0 {
		t.Fatal("entities in an empty KB")
	}
}

// TestBuildAllocsIndependentOfSize states the linear property as a count: the
// builder allocates per ranking and per predicate, never per entity, fact or
// joining pair, so two KBs with the same schema cost the same allocations
// however many facts they hold. (The map-based builder took 6,706 at scale
// 0.1: a slice per entity and the buckets of a map per predicate.)
func TestBuildAllocsIndependentOfSize(t *testing.T) {
	allocs := func(scale float64) (float64, int) {
		k, err := datagen.DBpediaLike(datagen.Config{Seed: 1, Scale: scale}).BuildKB(kb.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() { Build(k, Fr) }), k.NumPredicates()
	}
	small, nPSmall := allocs(0.25)
	large, nPLarge := allocs(1)
	t.Logf("allocs per Build: %.0f at scale 0.25 (%d predicates), %.0f at scale 1 (%d predicates)", small, nPSmall, large, nPLarge)
	// The join rows grow by append, so a larger KB may double them once or
	// twice more; anything beyond that is a per-element allocation.
	if large > small+8 {
		t.Fatalf("allocations grew with KB size: %.0f at scale 0.25, %.0f at scale 1", small, large)
	}
	if limit := float64(8*nPLarge + 64); large > limit {
		t.Fatalf("%.0f allocations for %d predicates, want O(nP) (≤ %.0f)", large, nPLarge, limit)
	}
}

// nextGeneration patches k the way a write batch does, rotating through
// three kinds of edit on one random predicate: new subjects pointing at one
// of its objects, a retraction of every third fact (inverse predicates
// included), and a predicate nobody has seen. It returns the new KB and the
// predicates the patch touched.
func nextGeneration(t *testing.T, rng *rand.Rand, k *kb.KB, gen int) (*kb.KB, map[kb.PredID]bool) {
	t.Helper()
	nEnt, nP := kb.EntID(k.NumEntities()), kb.PredID(k.NumPredicates())
	p := kb.PredID(1 + rng.Intn(int(nP)))
	for k.PredFreq(p) == 0 {
		p = kb.PredID(1 + rng.Intn(int(nP)))
	}
	facts := k.Facts(p)
	patch := kb.Patch{Adds: map[kb.PredID][]kb.Pair{}, Dels: map[kb.PredID][]kb.Pair{}}
	switch gen % 3 {
	case 0:
		o := facts[rng.Intn(len(facts))].O
		for i := kb.EntID(1); i <= 3; i++ {
			patch.ExtraTerms = append(patch.ExtraTerms, rdf.NewIRI(fmt.Sprintf("http://new/g%d/%d", gen, i)))
			patch.Adds[p] = append(patch.Adds[p], kb.Pair{S: nEnt + i, O: o})
		}
	case 1:
		for i := 0; i < len(facts); i += 3 {
			patch.Dels[p] = append(patch.Dels[p], facts[i])
		}
	default:
		patch.ExtraPreds = []string{fmt.Sprintf("http://new/pred%d", gen)}
		patch.Adds[nP+1] = []kb.Pair{{S: 1, O: 2}, {S: 3, O: 2}, {S: 3, O: 4}}
	}
	k2, err := k.ApplyPatch(patch)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { k2.Close() })
	touched := make(map[kb.PredID]bool)
	for pid := range patch.Adds {
		touched[pid] = true
	}
	for pid := range patch.Dels {
		touched[pid] = true
	}
	return k2, touched
}

// TestRebuildMatchesBuild: across a chain of ApplyPatch generations over a
// snapshot-opened base, the store Rebuild makes from the previous
// generation's equals a fresh Build(k, Fr) on every observable, bit for bit.
// It also shares exactly the right rankings: every predicate the patch left
// alone keeps the previous store's, a touched one is ranked again, and a
// store of another KB lends nothing.
func TestRebuildMatchesBuild(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		built, err := datagen.DBpediaLike(datagen.Config{Seed: seed, Scale: 0.04}).BuildKB(kb.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		k, prev := reopened(t, built), Build(built, Fr)
		// A pr store ranked the same runs, but pr ranks are not fr ranks.
		diffStores(t, Rebuild(k, Build(k, Pr)), Build(k, Fr))
		var touched map[kb.PredID]bool // nil: prev belongs to another KB
		for gen := 0; gen < 7; gen++ {
			s := Rebuild(k, prev)
			diffStores(t, s, Build(k, Fr))
			for pi, rank := range s.condRank {
				if len(rank) == 0 {
					continue
				}
				shared := pi < len(prev.condRank) && sameArray(rank, prev.condRank[pi])
				if want := touched != nil && pi < len(prev.condRank) && !touched[kb.PredID(pi+1)]; shared != want {
					t.Fatalf("seed %d generation %d predicate %d: ranking shared with the previous store %v, want %v", seed, gen, pi+1, shared, want)
				}
			}
			prev = s
			k, touched = nextGeneration(t, rng, k, gen)
		}
	}
}

// TestBuildPanicWaitsForJoinHalf: a panic in the half of build that runs on
// the caller's goroutine (here a caller-supplied score) reaches the caller
// only after the join half has stopped reading the KB, so a caller that
// recovers and then closes an mmap'd snapshot cannot pull the pages from
// under a running goroutine. The goroutine count is back at its baseline as
// soon as recover returns, bar the join goroutine's last instructions after
// it signals (a few Gosched calls), far less than the join half's running
// time on this KB.
func TestBuildPanicWaitsForJoinHalf(t *testing.T) {
	k, err := datagen.DBpediaLike(datagen.Config{Seed: 1, Scale: 2}).BuildKB(kb.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	for round := 0; round < 5; round++ {
		func() {
			defer func() {
				if r := recover(); r != "score failed" {
					t.Fatalf("round %d: recovered %v, want the score's panic", round, r)
				}
				for i := 0; i < 100 && runtime.NumGoroutine() > base; i++ {
					runtime.Gosched()
				}
				if n := runtime.NumGoroutine(); n > base {
					t.Fatalf("round %d: %d goroutines after recover, baseline %d: the join half outlived build", round, n, base)
				}
			}()
			BuildWithScores(k, func(kb.EntID) float64 { panic("score failed") })
		}()
	}
}
