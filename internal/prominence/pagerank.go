package prominence

import (
	"math"

	"github.com/remi-kb/remi/internal/kb"
	"github.com/remi-kb/remi/internal/rdf"
)

// PageRank computes the PageRank vector over the KB's entity link graph:
// one node per non-literal entity, one directed edge s→o per base
// (non-inverse) fact whose object is an entity. This substitutes for the
// Wikipedia page rank the paper uses for Ĉpr; it plays the same role of a
// prominence signal decoupled from raw frequency.
//
// damping is the usual teleportation factor (0.85 in the paper's tradition),
// maxIter bounds the power iteration and eps is the L1 convergence
// threshold. The returned slice is indexed by EntID-1; literals keep 0.
func PageRank(k *kb.KB, damping float64, maxIter int, eps float64) []float64 {
	n := k.NumEntities()
	rank := make([]float64, n)
	if n == 0 {
		return rank
	}

	// Out-degrees over the edges (entity objects of base facts only). The
	// edges themselves are never copied out: every iteration below walks
	// them in place in the CSR, in (p, s, o) order.
	outDeg := make([]int, n+1)
	nodes := make([]bool, n+1)
	eachSubject := func(visit func(s kb.EntID, objs []kb.EntID)) {
		for _, p := range k.Predicates() {
			if k.IsInverse(p) {
				continue
			}
			subjs, off := k.SubjectRuns(p)
			col := k.ObjectColumn(p)
			for i, s := range subjs {
				visit(s, col[off[i]:off[i+1]])
			}
		}
	}
	eachSubject(func(s kb.EntID, objs []kb.EntID) {
		for _, o := range objs {
			if k.Kind(o) == rdf.Literal {
				continue
			}
			outDeg[s]++
			nodes[s] = true
			nodes[o] = true
		}
	})
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
		// Mass from dangling nodes is spread uniformly.
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
		eachSubject(func(s kb.EntID, objs []kb.EntID) {
			if outDeg[s] == 0 {
				return
			}
			share := damping * cur[s] / float64(outDeg[s])
			for _, o := range objs {
				if k.Kind(o) != rdf.Literal {
					next[o] += share
				}
			}
		})
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
