package core

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"github.com/remi-kb/remi/internal/complexity"
	"github.com/remi-kb/remi/internal/expr"
	"github.com/remi-kb/remi/internal/kb"
	"github.com/remi-kb/remi/internal/prominence"
)

// The naive mining oracle. It holds the KB as a set of (s, p, o) name
// triples, enumerates the paper's language bias from its own reading of the
// grammar (§2.2, Table 1), tests "identifies exactly T" by evaluating each
// subgraph expression over the triples, and finds the least Ĉ over every
// subset of the common subgraph expressions by a shortest-path sweep over
// match sets. Ĉ is summed from prominence's public ranks (§3.1). It shares
// no code with the miner: no bindset, CSR, memo, cache or prune.
// The KB is consulted only to name ids for the ranks and to order targets
// and predicates the way the miner's canonical forms do.

// Oracle shapes (Table 1).
const (
	oAtom    = iota // p0(x, I0)
	oPath           // p0(x, y) ∧ p1(y, I1)
	oStar           // p0(x, y) ∧ p1(y, I1) ∧ p2(y, I2)
	oClosed2        // p0(x, y) ∧ p1(x, y)
	oClosed3        // p0(x, y) ∧ p1(x, y) ∧ p2(x, y)
)

type oSubgraph struct {
	shape      int
	p0, p1, p2 string
	i0, i1, i2 string
}

type oracleKB struct {
	facts map[[3]string]bool
	out   map[string][][2]string // subject → its (p, o) pairs
	ents  []string               // every subject and object, sorted
	bit   map[string]uint64
}

func newOracleKB(triples [][3]string) *oracleKB {
	o := &oracleKB{facts: map[[3]string]bool{}, out: map[string][][2]string{}, bit: map[string]uint64{}}
	seen := map[string]bool{}
	for _, t := range triples {
		if o.facts[t] {
			continue
		}
		o.facts[t] = true
		o.out[t[0]] = append(o.out[t[0]], [2]string{t[1], t[2]})
		for _, e := range []string{t[0], t[2]} {
			if !seen[e] {
				seen[e] = true
				o.ents = append(o.ents, e)
			}
		}
	}
	slices.Sort(o.ents)
	for i, e := range o.ents {
		o.bit[e] = 1 << i
	}
	return o
}

// holds evaluates g on entity x by its definition.
func (o *oracleKB) holds(g oSubgraph, x string) bool {
	if g.shape == oAtom {
		return o.facts[[3]string{x, g.p0, g.i0}]
	}
	for _, po := range o.out[x] {
		y := po[1]
		if po[0] != g.p0 {
			continue
		}
		var ok bool
		switch g.shape {
		case oPath:
			ok = o.facts[[3]string{y, g.p1, g.i1}]
		case oStar:
			ok = o.facts[[3]string{y, g.p1, g.i1}] && o.facts[[3]string{y, g.p2, g.i2}]
		case oClosed2:
			ok = o.facts[[3]string{x, g.p1, y}]
		case oClosed3:
			ok = o.facts[[3]string{x, g.p1, y}] && o.facts[[3]string{x, g.p2, y}]
		}
		if ok {
			return true
		}
	}
	return false
}

// match is the set of entities g holds for, as a bit mask over o.ents.
func (o *oracleKB) match(g oSubgraph) uint64 {
	var m uint64
	for _, e := range o.ents {
		if o.holds(g, e) {
			m |= o.bit[e]
		}
	}
	return m
}

// enumerate lists t's subgraph expressions in the language: bound atoms in
// the standard bias; in REMI's bias also the paths and path-stars through an
// object y of t other than t itself, and the closed shapes over predicates
// of t sharing an object. predOrder orders a closed shape's predicates as
// its canonical form does.
func (o *oracleKB) enumerate(t string, extended bool, predOrder func(a, b string) int) []oSubgraph {
	set := map[oSubgraph]bool{}
	for _, po := range o.out[t] {
		set[oSubgraph{shape: oAtom, p0: po[0], i0: po[1]}] = true
	}
	if extended {
		byObj := map[string][]string{}
		for _, po := range o.out[t] {
			byObj[po[1]] = append(byObj[po[1]], po[0])
			if po[1] == t {
				continue
			}
			tails := o.out[po[1]]
			for i, a := range tails {
				set[oSubgraph{shape: oPath, p0: po[0], p1: a[0], i1: a[1]}] = true
				for _, b := range tails[i+1:] {
					set[starOf(po[0], a, b)] = true
				}
			}
		}
		for _, ps := range byObj {
			slices.SortFunc(ps, predOrder)
			for i := range ps {
				for j := i + 1; j < len(ps); j++ {
					set[oSubgraph{shape: oClosed2, p0: ps[i], p1: ps[j]}] = true
					for l := j + 1; l < len(ps); l++ {
						set[oSubgraph{shape: oClosed3, p0: ps[i], p1: ps[j], p2: ps[l]}] = true
					}
				}
			}
		}
	}
	out := make([]oSubgraph, 0, len(set))
	for g := range set {
		out = append(out, g)
	}
	return out
}

// starOf is the path-star p0(x, y) ∧ a ∧ b with its two tails in name
// order: the same conjunction, whichever tail comes first.
func starOf(p0 string, a, b [2]string) oSubgraph {
	if b[0] < a[0] || (b[0] == a[0] && b[1] < a[1]) {
		a, b = b, a
	}
	return oSubgraph{shape: oStar, p0: p0, p1: a[0], i1: a[1], p2: b[0], i2: b[1]}
}

// oracleCost is Ĉ of §3.1 with exact conditional ranks: l(p) is the log2
// of p's predicate rank, l(I|p) of I's rank among p's objects (one past
// them when unranked), and a further predicate's code is the log2 of its
// rank among the join partners of p0 (subject-object for paths,
// subject-subject for closed shapes).
type oracleCost struct {
	k    *kb.KB
	prom *prominence.Store
}

func (c oracleCost) pred(p string) float64 {
	return math.Log2(float64(c.prom.PredicateRank(c.k.MustPredicateID(p))))
}

func (c oracleCost) ent(p, i string) float64 {
	pid := c.k.MustPredicateID(p)
	if r, ok := c.prom.CondRank(pid, c.k.MustEntityID(i)); ok {
		return math.Log2(float64(r))
	}
	return math.Log2(float64(c.prom.CondDomainSize(pid) + 1))
}

func (c oracleCost) join(kind prominence.JoinKind, p0, p1 string) float64 {
	r, domain, ok := c.prom.JoinRank(kind, c.k.MustPredicateID(p0), c.k.MustPredicateID(p1))
	if !ok {
		r = domain + 1
	}
	return math.Log2(float64(max(r, 1)))
}

func (c oracleCost) of(g oSubgraph) float64 {
	switch g.shape {
	case oAtom:
		return c.pred(g.p0) + c.ent(g.p0, g.i0)
	case oPath:
		return c.pred(g.p0) + c.join(prominence.JoinSO, g.p0, g.p1) + c.ent(g.p1, g.i1)
	case oStar:
		return c.pred(g.p0) + c.join(prominence.JoinSO, g.p0, g.p1) + c.ent(g.p1, g.i1) +
			c.join(prominence.JoinSO, g.p0, g.p2) + c.ent(g.p2, g.i2)
	case oClosed2:
		return c.pred(g.p0) + c.join(prominence.JoinSS, g.p0, g.p1)
	default:
		return c.pred(g.p0) + c.join(prominence.JoinSS, g.p0, g.p1) + c.join(prominence.JoinSS, g.p0, g.p2)
	}
}

// oracleMine returns the least Ĉ of a conjunction of common subgraph
// expressions that matches T plus at most exceptions other entities, and
// whether one exists. The candidates are enumerated from the first target in
// id order (the miner's convention) and kept when they hold for every
// target. best[M] is the least cost of a non-empty conjunction matching
// exactly M; conjoining a candidate only shrinks M, so masks are settled in
// decreasing size.
func oracleMine(o *oracleKB, cost oracleCost, targets []string, extended bool, exceptions int) (float64, bool) {
	cands := o.enumerate(targets[0], extended, func(a, b string) int {
		return int(cost.k.MustPredicateID(a)) - int(cost.k.MustPredicateID(b))
	})
	var tmask uint64
	for _, t := range targets {
		tmask |= o.bit[t]
	}
	type cand struct {
		m    uint64
		cost float64
	}
	var cs []cand
	for _, g := range cands {
		if m := o.match(g); m&tmask == tmask {
			cs = append(cs, cand{m, cost.of(g)})
		}
	}
	best := map[uint64]float64{}
	bySize := make([][]uint64, len(o.ents)+1)
	relax := func(m uint64, c float64) {
		if old, ok := best[m]; !ok || c < old {
			if !ok {
				n := bits.OnesCount64(m)
				bySize[n] = append(bySize[n], m)
			}
			best[m] = c
		}
	}
	for _, c := range cs {
		relax(c.m, c.cost)
	}
	answer, found := math.Inf(1), false
	for n := len(o.ents); n >= 0; n-- {
		for _, m := range bySize[n] {
			if n <= len(targets)+exceptions {
				answer, found = min(answer, best[m]), true
			}
			for _, c := range cs {
				if m2 := m & c.m; m2 != m {
					relax(m2, best[m]+c.cost)
				}
			}
		}
	}
	return answer, found
}

// fromMiner names a miner subgraph expression in the oracle's terms.
func fromMiner(k *kb.KB, g expr.Subgraph) oSubgraph {
	p := func(id kb.PredID) string {
		if id == 0 {
			return ""
		}
		return k.PredicateName(id)
	}
	e := func(id kb.EntID) string {
		if id == 0 {
			return ""
		}
		return k.Term(id).Value
	}
	if g.Shape == expr.PathStar {
		return starOf(p(g.P0), [2]string{p(g.P1), e(g.I1)}, [2]string{p(g.P2), e(g.I2)})
	}
	shape := map[expr.Shape]int{expr.Atom1: oAtom, expr.Path: oPath, expr.Closed2: oClosed2, expr.Closed3: oClosed3}[g.Shape]
	return oSubgraph{shape: shape, p0: p(g.P0), p1: p(g.P1), p2: p(g.P2), i0: e(g.I0), i1: e(g.I1), i2: e(g.I2)}
}

// checkOracle mines targets on k with cfg and holds the answer to the
// oracle: an answer exists exactly when the oracle finds one; every solution
// matches T plus at most cfg.MaxExceptions others, is in the language, and
// costs what the oracle prices it at; solutions come cheapest first; and the
// first ties the oracle's least cost.
func checkOracle(t *testing.T, o *oracleKB, k *kb.KB, cost oracleCost, est *complexity.Estimator, cfg Config, targets []string) {
	t.Helper()
	ids := make([]kb.EntID, len(targets))
	for i, name := range targets {
		ids[i] = k.MustEntityID(name)
	}
	sorted := slices.Clone(targets)
	slices.SortFunc(sorted, func(a, b string) int { return int(k.MustEntityID(a)) - int(k.MustEntityID(b)) })
	res, err := NewMiner(k, est, cfg).Mine(ids)
	if err != nil {
		t.Fatal(err)
	}
	want, exists := oracleMine(o, cost, sorted, cfg.Language == ExtendedLanguage, cfg.MaxExceptions)
	if exists != res.Found() {
		t.Fatalf("targets %v (%v, top %d, exceptions %d, %d workers): miner found=%v, oracle found=%v (%v bits)",
			targets, cfg.Language, cfg.TopK, cfg.MaxExceptions, cfg.Workers, res.Found(), exists, want)
	}
	if !exists {
		return
	}
	var tmask uint64
	for _, name := range targets {
		tmask |= o.bit[name]
	}
	lang := map[oSubgraph]bool{}
	for _, g := range o.enumerate(sorted[0], cfg.Language == ExtendedLanguage, func(a, b string) int {
		return int(k.MustPredicateID(a)) - int(k.MustPredicateID(b))
	}) {
		lang[g] = true
	}
	prev := math.Inf(-1)
	for i, sol := range res.Solutions {
		m, c := ^uint64(0), 0.0
		for _, g := range sol.Expression {
			og := fromMiner(k, g)
			if !lang[og] {
				t.Fatalf("targets %v: solution %d uses %+v, outside the language", targets, i, og)
			}
			m &= o.match(og)
			c += cost.of(og)
		}
		if m&tmask != tmask || bits.OnesCount64(m) > len(targets)+cfg.MaxExceptions {
			t.Fatalf("targets %v: solution %d %s matches %b, not T (%b) within %d exceptions",
				targets, i, sol.Expression.Format(k), m, tmask, cfg.MaxExceptions)
		}
		if math.Abs(c-sol.Bits) > 1e-9 || sol.Bits < prev {
			t.Fatalf("targets %v: solution %d costs %v, oracle prices it %v (previous %v)", targets, i, sol.Bits, c, prev)
		}
		prev = sol.Bits
	}
	if math.Abs(res.Bits-want) > 1e-9 {
		t.Fatalf("targets %v (%v, top %d, exceptions %d, %d workers): miner %v bits (%s), oracle %v",
			targets, cfg.Language, cfg.TopK, cfg.MaxExceptions, cfg.Workers, res.Bits, res.Expression.Format(k), want)
	}
}

// oracleFixtures are KBs on which the miner once disagreed with the oracle,
// shrunk to a minimum. None has been found so far.
var oracleFixtures []struct {
	triples [][3]string
	targets []string
}

// TestOptimalityAgainstBruteForce holds the miner to the naive oracle on
// random KBs of 35 facts over ten entities and four predicates, for both
// language biases, both prominence metrics, top-1 and top-3, strict and
// with one exception, under REMI and under P-REMI with 4 workers. The prominence pruning of §3.5.2 is a heuristic
// narrowing of the language the oracle does not model, so it is off here.
func TestOptimalityAgainstBruteForce(t *testing.T) {
	rounds := 1000
	if testing.Short() {
		rounds = 100
	}
	rng := rand.New(rand.NewSource(7))
	cases := oracleFixtures
	for round := 0; round < rounds; round++ {
		triples := randomTriples(rng)
		targets := []string{triples[rng.Intn(len(triples))][rng.Intn(2)*2]}
		if rng.Intn(2) == 1 {
			if u := triples[rng.Intn(len(triples))][rng.Intn(2)*2]; u != targets[0] {
				targets = append(targets, u)
			}
		}
		cases = append(cases, struct {
			triples [][3]string
			targets []string
		}{triples, targets})
	}
	for _, c := range cases {
		k := kbOf(c.triples)
		o := newOracleKB(c.triples)
		for _, metric := range []prominence.Metric{prominence.Fr, prominence.Pr} {
			prom := prominence.Build(k, metric)
			est := complexity.New(k, prom, complexity.Exact)
			for _, cfg := range refConfigs() {
				cfg.ProminentCutoff = 0
				for _, workers := range []int{1, 4} {
					cfg.Workers = workers
					checkOracle(t, o, k, oracleCost{k, prom}, est, cfg, c.targets)
				}
			}
		}
	}
}
