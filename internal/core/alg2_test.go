package core

import (
	"context"
	"math"
	"testing"

	"github.com/remi-kb/remi/internal/bindset"
	"github.com/remi-kb/remi/internal/complexity"
	"github.com/remi-kb/remi/internal/expr"
	"github.com/remi-kb/remi/internal/kb"
	"github.com/remi-kb/remi/internal/prominence"
)

// literalScan is the verbatim Algorithm 2 of the paper: a single linear
// scan over the queue from rho with a stack, double-popping when an RE is
// found. Unlike the miner's tree-complete dfsRemi it consumes each
// candidate once, so it can return a suboptimal RE
// (TestLiteralAlg2CanBeSuboptimal constructs one). The stack carries its
// binding sets incrementally: a push is one intersection with the new
// conjunct.
func literalScan(m *Miner, queue []scored, rho int, targets []kb.EntID, bnd *bound) {
	var stack []scored
	var cur expr.Expression
	curCost := 0.0
	var binds []bindset.Set // binds[d] = bindings of cur[:d+1]
	pop := func() {
		curCost -= stack[len(stack)-1].cost
		stack = stack[:len(stack)-1]
		cur = cur[:len(cur)-1]
		binds = binds[:len(binds)-1]
	}
	for _, s := range queue[rho:] {
		b := expr.BindingSet(m.K, s.g)
		if len(binds) > 0 {
			b = bindset.Intersect(binds[len(binds)-1], b)
		}
		stack = append(stack, s)
		cur = append(cur, s.g)
		curCost += s.cost
		binds = append(binds, b)
		if b.Card() <= len(targets)+m.cfg.MaxExceptions {
			bnd.Offer(cur, curCost)
			pop() // pruning by depth
			if len(stack) == 0 {
				return // the second pop of Algorithm 2 removes ⊤: done
			}
			pop() // side pruning
		}
	}
}

// mineLiteralAlg2 is Algorithm 1's root loop over the miner's cost-sorted
// queue with literalScan in place of the tree-complete DFS.
func mineLiteralAlg2(m *Miner, targets []kb.EntID) *Result {
	tgt := normalizeTargets(targets)
	queue, _ := m.buildQueue(context.Background(), tgt, &queueBufs{})
	bnd := newBound(1)
	for i := range queue {
		if queue[i].cost >= bnd.Cost() {
			break
		}
		literalScan(m, queue, i, tgt, bnd)
	}
	res := &Result{Bits: complexity.Infinite}
	if res.Expression, _ = bnd.Get(); res.Found() {
		res.Bits = m.Est.Expression(res.Expression)
	}
	return res
}

// TestLiteralAlg2CanBeSuboptimal documents the single-consumption behavior
// of the verbatim Algorithm 2: when ρ1∧ρ2 is not an RE but both ρ1∧ρ2∧ρ3
// and ρ1∧ρ3 are, the linear scan finds the former and cannot go back for
// the cheaper latter, while the tree-complete DFS finds the optimum. The
// test constructs exactly that configuration and asserts both answers.
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
	cfg := DefaultConfig()
	cfg.ProminentCutoff = 0 // keep every candidate
	m := NewMiner(k, est, cfg)

	tree, err := m.Mine([]kb.EntID{a})
	if err != nil {
		t.Fatal(err)
	}
	lit := mineLiteralAlg2(m, []kb.EntID{a})
	for _, c := range []struct {
		name string
		res  *Result
		want string
		bits float64
	}{
		{"literal Alg2", lit, "p(x, v) ∧ q(x, w) ∧ r(x, u)", 2.5850},
		{"tree DFS", tree, "p(x, v) ∧ r(x, u)", 1.5850},
	} {
		if got := c.res.Expression.Format(k); got != c.want || math.Abs(c.res.Bits-c.bits) > 1e-4 {
			t.Errorf("%s: %s at %.4f bits, want %s at %.4f bits", c.name, got, c.res.Bits, c.want, c.bits)
		}
		if !expr.ExpressionBindings(k, c.res.Expression).EqualSorted([]kb.EntID{a}) {
			t.Errorf("%s: %s is not an RE", c.name, c.res.Expression.Format(k))
		}
	}
}
