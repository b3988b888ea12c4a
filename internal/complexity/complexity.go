// Package complexity implements Ĉ, REMI's estimate of the Kolmogorov
// complexity of referring expressions in bits (Section 3.1 of the paper).
// The code length of a concept is the log2 of its position in a prominence
// ranking; the chain rule conditions each component on the context already
// conveyed: predicates after the first are ranked among the join partners of
// the preceding predicate, and tail entities are ranked among the objects
// observed under their predicate.
//
// Two evaluation modes are provided: Exact uses the precomputed conditional
// rankings; Compressed replaces entity ranks with the Eq. 1 power-law
// estimate (Section 3.5.3), which is what the paper's implementation does to
// avoid storing every conditional ranking.
package complexity

import (
	"math"

	"github.com/remi-kb/remi/internal/expr"
	"github.com/remi-kb/remi/internal/kb"
	"github.com/remi-kb/remi/internal/prominence"
)

// Mode selects how entity ranks are obtained.
type Mode int

const (
	// Compressed estimates log-ranks with the per-predicate Eq. 1 fits.
	Compressed Mode = iota
	// Exact uses the precomputed conditional rankings.
	Exact
)

// Infinite is the complexity of the empty expression ⊤ (the paper defines
// Ĉ(⊤) = ∞ so that any RE improves on "no solution yet").
var Infinite = math.Inf(1)

// Estimator computes Ĉ for subgraph expressions and expressions. Ĉ is a
// pure function of the prominence store (each term is a few array reads and
// at most a binary search), so an Estimator holds no state beyond its three
// fields and is safe for concurrent use.
type Estimator struct {
	K    *kb.KB
	Prom *prominence.Store
	Mode Mode
}

// New returns an estimator over the given prominence store.
func New(k *kb.KB, prom *prominence.Store, mode Mode) *Estimator {
	return &Estimator{K: k, Prom: prom, Mode: mode}
}

// Metric returns the prominence metric (fr or pr) behind this estimator.
func (c *Estimator) Metric() prominence.Metric { return c.Prom.Metric }

// Expression returns Ĉ(e) = Σᵢ Ĉ(ρᵢ) (the simplification discussed in
// Section 3.1: common sub-paths are charged once per occurrence, which is
// acceptable because Ĉ is used for comparisons only). The empty expression
// costs Infinite.
func (c *Estimator) Expression(e expr.Expression) float64 {
	if len(e) == 0 {
		return Infinite
	}
	sum := 0.0
	for _, g := range e {
		sum += c.Subgraph(g)
	}
	return sum
}

// Subgraph returns Ĉ(g) in bits.
func (c *Estimator) Subgraph(g expr.Subgraph) float64 {
	switch g.Shape {
	case expr.Atom1:
		// Ĉ(p0(x,I0)) = l(p0) + l(I0|p0).
		return c.predBits(g.P0) + c.entityBits(g.P0, g.I0)
	case expr.Path:
		// l(p0) + l(p1|p0 join) + l(I1|p1 context).
		return c.predBits(g.P0) +
			c.joinBits(prominence.JoinSO, g.P0, g.P1) +
			c.entityBits(g.P1, g.I1)
	case expr.PathStar:
		return c.predBits(g.P0) +
			c.joinBits(prominence.JoinSO, g.P0, g.P1) +
			c.entityBits(g.P1, g.I1) +
			c.joinBits(prominence.JoinSO, g.P0, g.P2) +
			c.entityBits(g.P2, g.I2)
	case expr.Closed2:
		return c.predBits(g.P0) + c.joinBits(prominence.JoinSS, g.P0, g.P1)
	case expr.Closed3:
		return c.predBits(g.P0) +
			c.joinBits(prominence.JoinSS, g.P0, g.P1) +
			c.joinBits(prominence.JoinSS, g.P0, g.P2)
	default:
		return Infinite
	}
}

// predBits is l(p) = log2 k(p) over the global predicate ranking.
func (c *Estimator) predBits(p kb.PredID) float64 {
	return math.Log2(float64(c.Prom.PredicateRank(p)))
}

// joinBits is l(p1 | p0) = log2 of p1's rank among the join partners of p0.
// Predicates that never join p0 (possible only for expressions constructed
// by hand) are priced one past the join domain.
func (c *Estimator) joinBits(kind prominence.JoinKind, p0, p1 kb.PredID) float64 {
	r, domain, ok := c.Prom.JoinRank(kind, p0, p1)
	if !ok {
		r = domain + 1
	}
	if r < 1 {
		r = 1
	}
	return math.Log2(float64(r))
}

// entityBits is l(I | p) = log2 k(I|p), exact or Eq. 1-compressed.
func (c *Estimator) entityBits(p kb.PredID, i kb.EntID) float64 {
	if c.Mode == Compressed {
		return c.Prom.EstimatedLogRank(p, i)
	}
	if r, ok := c.Prom.CondRank(p, i); ok {
		return math.Log2(float64(r))
	}
	return math.Log2(float64(c.Prom.CondDomainSize(p) + 1))
}
