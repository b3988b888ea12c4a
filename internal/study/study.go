// Package study simulates the user cohorts of the paper's qualitative
// evaluation (Sections 4.1.1–4.1.3). The original studies asked computer
// science students, researchers and university staff to rank descriptions by
// simplicity, grade their interestingness, and choose between variants; this
// reproduction replaces the humans with seeded simulated users.
//
// Each simulated user perceives a latent "true" intuitiveness of a
// description — derived from the generator's hidden popularity ground truth
// rather than from REMI's own rankings — distorted by per-user lognormal
// noise, plus the type-predicate affinity the paper observed ("people
// usually deem the predicate type the simplest whereas REMI often ranks it
// second or third").
package study

import (
	"math"
	"math/rand"
	"sort"

	"github.com/remi-kb/remi/internal/expr"
	"github.com/remi-kb/remi/internal/kb"
)

// Perception is the shared ground-truth model users perceive through noise.
type Perception struct {
	K *kb.KB
	// TruePop maps entity IRIs to latent popularity weights (the
	// generator's hidden ground truth).
	TruePop map[string]float64
	// PredFamiliarity maps predicate ids to a familiarity weight; built by
	// NewPerception from KB frequencies (users know common relations).
	PredFamiliarity []float64

	maxPop  float64
	maxPred float64
}

// NewPerception precomputes the perception model over k.
func NewPerception(k *kb.KB, truePop map[string]float64) *Perception {
	p := &Perception{K: k, TruePop: truePop}
	for _, v := range truePop {
		if v > p.maxPop {
			p.maxPop = v
		}
	}
	if p.maxPop == 0 {
		p.maxPop = 1
	}
	p.PredFamiliarity = make([]float64, k.NumPredicates())
	for i := range p.PredFamiliarity {
		f := float64(k.PredFreq(kb.PredID(i + 1)))
		p.PredFamiliarity[i] = f
		if f > p.maxPred {
			p.maxPred = f
		}
	}
	if p.maxPred == 0 {
		p.maxPred = 1
	}
	return p
}

// entityBits is the ground-truth effort of recalling an entity: popular
// concepts cost few bits; entities without ground truth (literals, blanks)
// cost a flat 10 bits.
func (p *Perception) entityBits(e kb.EntID) float64 {
	t := p.K.Term(e)
	if pop, ok := p.TruePop[t.Value]; ok && pop > 0 {
		return math.Log2(p.maxPop/pop) + 1
	}
	return 10
}

// predBits is the ground-truth effort of recalling a predicate.
func (p *Perception) predBits(pr kb.PredID) float64 {
	base := pr
	if b := p.K.BaseOf(pr); b != 0 {
		base = b
	}
	f := p.PredFamiliarity[base-1]
	if f <= 0 {
		return 8
	}
	return math.Log2(p.maxPred/f) + 1
}

// TrueBits scores a subgraph expression's ground-truth cognitive effort:
// predicate and entity recall effort plus structural penalties for extra
// atoms and existential variables (Section 3.2: longer expressions and
// additional variables make comprehension more effortful).
func (p *Perception) TrueBits(g expr.Subgraph) float64 {
	const atomPenalty = 1.5
	const varPenalty = 2.0
	bits := p.predBits(g.P0)
	switch g.Shape {
	case expr.Atom1:
		bits += p.entityBits(g.I0)
	case expr.Path:
		bits += p.predBits(g.P1) + p.entityBits(g.I1)
	case expr.PathStar:
		bits += p.predBits(g.P1) + p.entityBits(g.I1) + p.predBits(g.P2) + p.entityBits(g.I2)
	case expr.Closed2:
		bits += p.predBits(g.P1)
	case expr.Closed3:
		bits += p.predBits(g.P1) + p.predBits(g.P2)
	}
	bits += atomPenalty * float64(g.Atoms()-1)
	bits += varPenalty * float64(g.Shape.ExtraVariables())
	return bits
}

// TrueExpressionBits scores a full expression.
func (p *Perception) TrueExpressionBits(e expr.Expression) float64 {
	s := 0.0
	for _, g := range e {
		s += p.TrueBits(g)
	}
	return s
}

// User is one simulated participant.
type User struct {
	rng *rand.Rand
	// Sigma is the lognormal noise on perceived bits.
	Sigma float64
	// TypeAffinity scales down the perceived complexity of plain
	// type(x, Class) atoms (users deem the type predicate the simplest).
	TypeAffinity float64
	p            *Perception
}

// Cohort produces users with independent seeded randomness.
type Cohort struct {
	P     *Perception
	Sigma float64
	// TypeAffinity < 1 makes type atoms look simpler to users than their
	// frequency suggests; the paper's first study motivates ~0.45.
	TypeAffinity float64
	rng          *rand.Rand
}

// NewCohort builds a cohort with the default behavioral parameters.
func NewCohort(p *Perception, seed int64) *Cohort {
	return &Cohort{P: p, Sigma: 0.35, TypeAffinity: 0.45, rng: rand.New(rand.NewSource(seed))}
}

// NewUser draws a fresh participant.
func (c *Cohort) NewUser() *User {
	return &User{
		rng:          rand.New(rand.NewSource(c.rng.Int63())),
		Sigma:        c.Sigma,
		TypeAffinity: c.TypeAffinity,
		p:            c.P,
	}
}

// PerceivedSubgraph is the user's noisy simplicity judgment of g (lower =
// simpler).
func (u *User) PerceivedSubgraph(g expr.Subgraph) float64 {
	bits := u.p.TrueBits(g)
	if g.Shape == expr.Atom1 && u.p.K.TypePredicate() != 0 && g.P0 == u.p.K.TypePredicate() {
		bits *= u.TypeAffinity
	}
	return bits * math.Exp(u.rng.NormFloat64()*u.Sigma)
}

// PerceivedExpression is the noisy judgment of a full expression.
func (u *User) PerceivedExpression(e expr.Expression) float64 {
	s := 0.0
	for _, g := range e {
		s += u.PerceivedSubgraph(g)
	}
	return s * math.Exp(u.rng.NormFloat64()*u.Sigma*0.5)
}

// RankSubgraphs returns the indices of candidates ordered from simplest to
// most complex according to the user.
func (u *User) RankSubgraphs(cands []expr.Subgraph) []int {
	scores := make([]float64, len(cands))
	for i, g := range cands {
		scores[i] = u.PerceivedSubgraph(g)
	}
	return rankAsc(scores)
}

// RankExpressions orders full candidate REs from simplest to most complex.
func (u *User) RankExpressions(cands []expr.Expression) []int {
	scores := make([]float64, len(cands))
	for i, e := range cands {
		scores[i] = u.PerceivedExpression(e)
	}
	return rankAsc(scores)
}

func rankAsc(scores []float64) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })
	return idx
}

// Grade maps an RE to the 1–5 interestingness scale of Section 4.1.3.
// Users reward compact descriptions built from familiar concepts and
// penalize convoluted or obscure ones; the thresholds are calibrated so a
// two-concept description of prominent entities scores ~4 and a three-atom
// chain through unknown entities scores ~1.
func (u *User) Grade(e expr.Expression) int {
	bits := u.PerceivedExpression(e)
	grade := 5.5 - bits/4.5
	grade += u.rng.NormFloat64() * 0.6
	g := int(math.Round(grade))
	if g < 1 {
		g = 1
	}
	if g > 5 {
		g = 5
	}
	return g
}

// Prefer reports whether the user finds a simpler than b.
func (u *User) Prefer(a, b expr.Expression) bool {
	return u.PerceivedExpression(a) < u.PerceivedExpression(b)
}
