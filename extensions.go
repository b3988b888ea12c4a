package remi

// Extensions beyond the paper's core algorithm, implementing its Section 6
// future-work directions: referring expressions with exceptions (relaxed
// unambiguity), disjunctive referring expressions, externally sourced
// prominence, and SPARQL query generation (the query-generation application
// the paper names).

import (
	"fmt"
	"sort"
	"strings"

	"github.com/remi-kb/remi/internal/complexity"
	"github.com/remi-kb/remi/internal/expr"
	"github.com/remi-kb/remi/internal/kb"
	"github.com/remi-kb/remi/internal/prominence"
	"github.com/remi-kb/remi/internal/rdf"
	"github.com/remi-kb/remi/internal/sparql"
)

// MetricCustom selects the prominence scores installed with SetProminence.
const MetricCustom Metric = 2

// WithExceptions relaxes the unambiguity constraint: the mined expression
// must still match every target but may match up to n extra entities
// (Section 6: "relax the unambiguity constraint to mine REs with
// exceptions"). The result reports the actual exceptions.
func WithExceptions(n int) MineOption { return func(c *mineConfig) { c.exceptions = n } }

// SetProminence installs caller-supplied prominence scores (IRI → score,
// higher = more prominent), enabling WithMetric(MetricCustom). This is the
// hook for the paper's envisioned external sources — search-engine ranks,
// localized corpora — without retraining anything: mines that start after
// the call rank over the new scores; mines already running keep the old.
func (s *System) SetProminence(scores map[string]float64) error {
	if len(scores) == 0 {
		return fmt.Errorf("remi: empty prominence map")
	}
	byID := make(map[kb.EntID]float64, len(scores))
	for iri, v := range scores {
		if id, ok := s.kb.EntityID(rdf.NewIRI(iri)); ok {
			byID[id] = v
		}
	}
	if len(byID) == 0 {
		return fmt.Errorf("remi: no prominence score matches a KB entity")
	}
	s.promCustom.Store(prominence.BuildWithScores(s.kb, func(e kb.EntID) float64 { return byID[e] }))
	return nil
}

// sparqlOf renders a mined expression as a SPARQL SELECT query; Mine fills
// Solution.SPARQL with it so every result ships with a runnable query.
func (s *System) sparqlOf(e expr.Expression) string { return sparql.Query(s.kb, e) }

// DisjunctiveResult is the outcome of MineDisjunctive: a union of branch
// REs that together identify exactly the target set.
type DisjunctiveResult struct {
	Found bool
	// Branches are the disjuncts; their target subsets partition the input.
	Branches []DisjunctiveBranch
	// Bits is the total Ĉ across branches (the disjunction is priced as the
	// sum of its parts plus nothing for the ∨ itself, a lower bound that
	// suffices for comparisons).
	Bits float64
}

// DisjunctiveBranch is one disjunct with the targets it covers.
type DisjunctiveBranch struct {
	Targets []string
	Solution
}

// MineDisjunctive mines a disjunctive referring expression e₁ ∨ … ∨ eₘ for
// the targets: it searches over partitions of the target set (at most 6
// targets), mining each block with the conjunctive miner, and returns the
// partition minimizing total Ĉ. A single-block partition degenerates to
// ordinary mining, so the result is never worse than Mine's. This
// implements the disjunction direction the related work discusses ([9])
// with REMI's intuitiveness objective.
func (s *System) MineDisjunctive(targetIRIs []string, opts ...MineOption) (*DisjunctiveResult, error) {
	if len(targetIRIs) == 0 {
		return nil, fmt.Errorf("remi: no targets")
	}
	if len(targetIRIs) > 6 {
		return nil, fmt.Errorf("remi: disjunctive mining supports at most 6 targets (got %d)", len(targetIRIs))
	}
	// Deduplicate, keep deterministic order.
	uniq := append([]string(nil), targetIRIs...)
	sort.Strings(uniq)
	w := 1
	for i := 1; i < len(uniq); i++ {
		if uniq[i] != uniq[i-1] {
			uniq[w] = uniq[i]
			w++
		}
	}
	uniq = uniq[:w]

	// Memoized block mining keyed by the member bitmask.
	type blockRes struct {
		res *Result
		err error
	}
	memo := make(map[uint]blockRes)
	mineBlock := func(mask uint) blockRes {
		if r, ok := memo[mask]; ok {
			return r
		}
		var block []string
		for i := 0; i < len(uniq); i++ {
			if mask&(1<<i) != 0 {
				block = append(block, uniq[i])
			}
		}
		res, err := s.Mine(block, opts...)
		br := blockRes{res, err}
		memo[mask] = br
		return br
	}

	best := &DisjunctiveResult{Bits: inf()}
	var assign func(rest []int, blocks []uint)
	assign = func(rest []int, blocks []uint) {
		if len(rest) == 0 {
			total := 0.0
			var branches []DisjunctiveBranch
			for _, mask := range blocks {
				br := mineBlock(mask)
				if br.err != nil || !br.res.Found {
					return // partition infeasible
				}
				total += br.res.Bits
				var members []string
				for i := 0; i < len(uniq); i++ {
					if mask&(1<<i) != 0 {
						members = append(members, uniq[i])
					}
				}
				branches = append(branches, DisjunctiveBranch{Targets: members, Solution: br.res.Solution})
			}
			if total < best.Bits {
				best.Found = true
				best.Bits = total
				best.Branches = branches
			}
			return
		}
		t, tail := rest[0], rest[1:]
		// Put t into an existing block or start a new one. Restricted
		// growth enumeration yields each set partition exactly once.
		for i := range blocks {
			blocks[i] |= 1 << t
			assign(tail, blocks)
			blocks[i] &^= 1 << t
		}
		assign(tail, append(blocks, 1<<t))
	}
	all := make([]int, len(uniq))
	for i := range all {
		all[i] = i
	}
	assign(all, nil)

	if !best.Found {
		return &DisjunctiveResult{}, nil
	}
	return best, nil
}

// Format renders the disjunction.
func (d *DisjunctiveResult) Format() string {
	if !d.Found {
		return "⊤"
	}
	parts := make([]string, len(d.Branches))
	for i, b := range d.Branches {
		parts[i] = "(" + b.Expression + ")"
	}
	return strings.Join(parts, " ∨ ")
}

func inf() float64 { return complexity.Infinite }
