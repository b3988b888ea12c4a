// Package summarize implements the entity-summarization evaluation of
// Section 4.1.4: FACES-style and LinkSUM-style baseline summarizers, a
// simulated expert gold standard (substituting for the 7-expert FACES/
// LinkSUM benchmark), the published quality metric (average overlap with
// the reference summaries at the object and predicate–object levels), and
// the merged-gold precision measures.
package summarize

import (
	"math/rand"
	"sort"

	"github.com/remi-kb/remi/internal/complexity"
	"github.com/remi-kb/remi/internal/core"
	"github.com/remi-kb/remi/internal/kb"
	"github.com/remi-kb/remi/internal/prominence"
)

// Pair is one predicate–object feature of an entity summary.
type Pair struct {
	P kb.PredID
	O kb.EntID
}

// Summary is an ordered list of predicate–object pairs describing an entity.
type Summary []Pair

// candidates returns the summarizable facts of e: direct facts excluding
// rdf:type, labels, inverse predicates and blank objects (matching the
// paper's compliance filtering).
func candidates(k *kb.KB, e kb.EntID) []Pair {
	var out []Pair
	for _, po := range k.AdjacencyOf(e) {
		if po.P == k.TypePredicate() || po.P == k.LabelPredicate() || k.IsInverse(po.P) {
			continue
		}
		if k.IsBlank(po.O) {
			continue
		}
		out = append(out, Pair{po.P, po.O})
	}
	return out
}

// FACESLike summarizes e with diversity-aware selection: facts are grouped
// by predicate (a proxy for FACES' incremental hierarchical conceptual
// clustering of semantically close features) and the summary round-robins
// across groups picking the most prominent object from each.
func FACESLike(k *kb.KB, prom *prominence.Store, e kb.EntID, size int) Summary {
	cands := candidates(k, e)
	groups := make(map[kb.PredID][]Pair)
	var order []kb.PredID
	for _, c := range cands {
		if _, ok := groups[c.P]; !ok {
			order = append(order, c.P)
		}
		groups[c.P] = append(groups[c.P], c)
	}
	// Within each group, most prominent object first.
	for _, p := range order {
		g := groups[p]
		sort.SliceStable(g, func(i, j int) bool {
			return prom.EntityScore(g[i].O) > prom.EntityScore(g[j].O)
		})
	}
	// Groups with more prominent best members come first in the round-robin.
	sort.SliceStable(order, func(i, j int) bool {
		return prom.EntityScore(groups[order[i]][0].O) > prom.EntityScore(groups[order[j]][0].O)
	})
	var out Summary
	for round := 0; len(out) < size; round++ {
		advanced := false
		for _, p := range order {
			if round < len(groups[p]) {
				out = append(out, groups[p][round])
				advanced = true
				if len(out) == size {
					break
				}
			}
		}
		if !advanced {
			break
		}
	}
	return out
}

// LinkSUMLike summarizes e by link analysis: objects are scored with
// PageRank (uniqueness enforced by keeping a single fact per object), and
// the top-scoring pairs are reported without a diversity constraint.
func LinkSUMLike(k *kb.KB, pagerank []float64, e kb.EntID, size int) Summary {
	cands := candidates(k, e)
	seen := make(map[kb.EntID]bool)
	var uniq []Pair
	for _, c := range cands {
		if seen[c.O] {
			continue
		}
		seen[c.O] = true
		uniq = append(uniq, c)
	}
	sort.SliceStable(uniq, func(i, j int) bool {
		return pagerank[uniq[i].O-1] > pagerank[uniq[j].O-1]
	})
	if len(uniq) > size {
		uniq = uniq[:size]
	}
	return Summary(uniq)
}

// REMITop summarizes e with REMI's machinery as in Section 4.1.4: the top
// `size` subgraph expressions in the standard language bias (single bound
// atoms), ranked by Ĉ, excluding rdf:type and inverse predicates.
func REMITop(k *kb.KB, est *complexity.Estimator, e kb.EntID, size int) Summary {
	opts := core.EnumerateOptions{
		Language: core.StandardLanguage,
		SkipPredicate: func(p kb.PredID) bool {
			return p == k.TypePredicate() || p == k.LabelPredicate() || k.IsInverse(p)
		},
	}
	subs := core.SubgraphsOf(k, e, opts)
	type scored struct {
		pair Pair
		cost float64
	}
	var sc []scored
	for _, g := range subs {
		sc = append(sc, scored{Pair{g.P0, g.I0}, est.Subgraph(g)})
	}
	sort.SliceStable(sc, func(i, j int) bool { return sc[i].cost < sc[j].cost })
	var out Summary
	for i := 0; i < len(sc) && i < size; i++ {
		out = append(out, sc[i].pair)
	}
	return out
}

// Gold is a set of reference summaries, one per simulated expert.
type Gold struct {
	PerExpert []Summary
}

// SimulateExperts builds a gold standard for e: each expert greedily picks
// `size` pairs maximizing a noisy mix of prominence (the latent ground
// truth), uniqueness (rarity of the object under its predicate) and
// diversity (predicate variety), the selection criteria reported for the
// FACES/LinkSUM benchmark.
func SimulateExperts(k *kb.KB, truePop map[string]float64, e kb.EntID, size, nExperts int, seed int64) Gold {
	cands := candidates(k, e)
	rng := rand.New(rand.NewSource(seed))
	var gold Gold
	maxPop := 0.0
	for _, v := range truePop {
		if v > maxPop {
			maxPop = v
		}
	}
	if maxPop == 0 {
		maxPop = 1
	}
	for x := 0; x < nExperts; x++ {
		wProm := 0.8 + 0.4*rng.Float64()
		wUniq := 0.4 + 0.4*rng.Float64()
		wDiv := 0.6 + 0.6*rng.Float64()
		noise := make([]float64, len(cands))
		for i := range noise {
			noise[i] = rng.NormFloat64() * 0.15
		}
		used := make([]bool, len(cands))
		predCount := make(map[kb.PredID]int)
		var sum Summary
		for len(sum) < size {
			best, bestScore := -1, -1e18
			for i, c := range cands {
				if used[i] {
					continue
				}
				pop := truePop[k.Term(c.O).Value] / maxPop
				uniq := 1.0 / float64(1+k.ObjFreq(c.P, c.O))
				div := 1.0 / float64(1+predCount[c.P])
				score := wProm*pop + wUniq*uniq + wDiv*div + noise[i]
				if score > bestScore {
					best, bestScore = i, score
				}
			}
			if best < 0 {
				break
			}
			used[best] = true
			predCount[cands[best].P]++
			sum = append(sum, cands[best])
		}
		gold.PerExpert = append(gold.PerExpert, sum)
	}
	return gold
}

// QualityPO is the benchmark's quality metric at the predicate–object
// level: the average overlap between s and each reference summary.
func QualityPO(s Summary, gold Gold) float64 {
	if len(gold.PerExpert) == 0 {
		return 0
	}
	in := make(map[Pair]bool, len(s))
	for _, p := range s {
		in[p] = true
	}
	total := 0.0
	for _, ref := range gold.PerExpert {
		n := 0
		for _, p := range ref {
			if in[p] {
				n++
			}
		}
		total += float64(n)
	}
	return total / float64(len(gold.PerExpert))
}

// QualityO is the quality metric at the object level.
func QualityO(s Summary, gold Gold) float64 {
	if len(gold.PerExpert) == 0 {
		return 0
	}
	in := make(map[kb.EntID]bool, len(s))
	for _, p := range s {
		in[p.O] = true
	}
	total := 0.0
	for _, ref := range gold.PerExpert {
		seen := make(map[kb.EntID]bool)
		n := 0
		for _, p := range ref {
			if in[p.O] && !seen[p.O] {
				seen[p.O] = true
				n++
			}
		}
		total += float64(n)
	}
	return total / float64(len(gold.PerExpert))
}

// MergedPrecision merges the per-expert references into one pool and
// returns the precision of s at the predicate (P), object (O) and
// predicate–object (PO) levels — the Section 4.1.4 in-text measure (the
// paper reports 0.53 / 0.62 / 0.31 for Ĉfr).
func MergedPrecision(s Summary, gold Gold) (p, o, po float64) {
	if len(s) == 0 {
		return 0, 0, 0
	}
	preds := make(map[kb.PredID]bool)
	objs := make(map[kb.EntID]bool)
	pairs := make(map[Pair]bool)
	for _, ref := range gold.PerExpert {
		for _, pr := range ref {
			preds[pr.P] = true
			objs[pr.O] = true
			pairs[pr] = true
		}
	}
	var np, no, npo int
	for _, pr := range s {
		if preds[pr.P] {
			np++
		}
		if objs[pr.O] {
			no++
		}
		if pairs[pr] {
			npo++
		}
	}
	n := float64(len(s))
	return float64(np) / n, float64(no) / n, float64(npo) / n
}
