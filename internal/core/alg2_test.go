package core

import (
	"math"
	"testing"

	"github.com/remi-kb/remi/internal/complexity"
	"github.com/remi-kb/remi/internal/expr"
	"github.com/remi-kb/remi/internal/kb"
	"github.com/remi-kb/remi/internal/prominence"
)

// TestLiteralAlg2CanBeSuboptimal documents the single-consumption behavior
// of the verbatim Algorithm 2: when ρ1∧ρ2 is not an RE but both ρ1∧ρ2∧ρ3
// and ρ1∧ρ3 are, the linear scan finds the former and cannot go back for
// the cheaper latter. The tree-complete DFS finds the
// optimum. The test constructs exactly that configuration and asserts the
// tree DFS is never worse — and that when the pathology triggers, the two
// variants disagree in the expected direction.
func TestLiteralAlg2CanBeSuboptimal(t *testing.T) {
	// Targets T = {a}. Candidate subexpressions (by increasing cost):
	//   ρ1 = p(x, v)  matches {a, b, c}
	//   ρ2 = q(x, w)  matches {a, b}
	//   ρ3 = r(x, u)  matches {a, d}
	// ρ1∧ρ2 = {a,b} (not RE); ρ1∧ρ2∧ρ3 = {a} (RE); ρ1∧ρ3 = {a} (RE, cheaper).
	// Costs must order Ĉ(ρ1) ≤ Ĉ(ρ2) ≤ Ĉ(ρ3): give p more facts than q, and
	// q more than r.
	k := buildSmall(t, [][3]string{
		{"a", "p", "v"}, {"b", "p", "v"}, {"c", "p", "v"},
		{"x1", "p", "z1"}, {"x2", "p", "z2"}, // pad p's frequency
		{"a", "q", "w"}, {"b", "q", "w"},
		{"x1", "q", "z3"}, // pad q
		{"a", "r", "u"}, {"d", "r", "u"},
	})
	prom := prominence.Build(k, prominence.Fr)
	est := complexity.New(k, prom, complexity.Exact)
	a := k.MustEntityID("http://e/a")

	mine := func(literal bool) *Result {
		cfg := DefaultConfig()
		cfg.ProminentCutoff = 0 // keep every candidate
		cfg.LiteralAlg2 = literal
		m := NewMiner(k, est, cfg)
		res, err := m.Mine([]kb.EntID{a})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	tree := mine(false)
	lit := mine(true)
	if !tree.Found() || !lit.Found() {
		t.Fatalf("both variants must find an RE (tree %v, literal %v)", tree.Found(), lit.Found())
	}
	if tree.Bits > lit.Bits+1e-9 {
		t.Fatalf("tree DFS (%f bits, %s) worse than literal Alg2 (%f bits, %s)",
			tree.Bits, tree.Expression.Format(k), lit.Bits, lit.Expression.Format(k))
	}
	// The optimum here uses 2 subgraph expressions at most (ρ_x alone could
	// be an RE via q/r single atoms; verify the tree result is a strict RE).
	ev := expr.NewEvaluator(k, 64)
	if !ev.IsRE(tree.Expression, []kb.EntID{a}) {
		t.Fatalf("tree result not an RE: %s", tree.Expression.Format(k))
	}
	if math.IsInf(tree.Bits, 1) {
		t.Fatal("tree result has infinite cost")
	}
}

// TestQueueOrderAblation: with an unsorted queue the result must still be
// Ĉ-minimal (the cost bound guarantees it), only slower — this pins the
// correctness half of the queue-order ablation.
func TestQueueOrderAblation(t *testing.T) {
	k, est := tinySetup(t)
	targets := []kb.EntID{mustID(t, k, "Guyana"), mustID(t, k, "Suriname")}

	sorted := DefaultConfig()
	unsorted := DefaultConfig()
	unsorted.UnsortedQueue = true

	rs, err := NewMiner(k, est, sorted).Mine(targets)
	if err != nil {
		t.Fatal(err)
	}
	ru, err := NewMiner(k, est, unsorted).Mine(targets)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Found() != ru.Found() {
		t.Fatal("queue order changed feasibility")
	}
	if rs.Found() && math.Abs(rs.Bits-ru.Bits) > 1e-9 {
		t.Fatalf("queue order changed the optimum: %f vs %f", rs.Bits, ru.Bits)
	}
}

// TestCacheDisabledStillCorrect pins the cache ablation's correctness half.
func TestCacheDisabledStillCorrect(t *testing.T) {
	k, est := tinySetup(t)
	targets := []kb.EntID{mustID(t, k, "Rennes"), mustID(t, k, "Nantes")}

	withCache := DefaultConfig()
	noCache := DefaultConfig()
	noCache.CacheSize = -1

	rc, err := NewMiner(k, est, withCache).Mine(targets)
	if err != nil {
		t.Fatal(err)
	}
	rn, err := NewMiner(k, est, noCache).Mine(targets)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Found() != rn.Found() || math.Abs(rc.Bits-rn.Bits) > 1e-9 {
		t.Fatal("cache changed the result")
	}
	if rn.Stats.CacheHits != 0 {
		t.Fatalf("disabled cache reported %d hits", rn.Stats.CacheHits)
	}
}
