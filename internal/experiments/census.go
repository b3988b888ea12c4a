package experiments

import (
	"github.com/remi-kb/remi/internal/core"
	"github.com/remi-kb/remi/internal/kb"
	"github.com/remi-kb/remi/internal/rdf"
)

// CensusBias describes a language-bias configuration for the search-space
// census behind the Section 3.2 observations ("a second additional variable
// increases by more than 270% the number of subgraph expressions... while
// increasing the number of atoms from 2 to 3 with one additional variable
// leads to an increase of 40%").
type CensusBias struct {
	MaxAtoms     int // 2 or 3
	MaxExtraVars int // 1 or 2
}

// Census counts the distinct subgraph expressions of entity t under the
// given bias. One-extra-variable shapes reuse the Table 1 enumerator;
// two-variable shapes add length-3 chains p0(x,y) ∧ p1(y,z) ∧ p2(z,I2),
// the canonical 2-variable subgraph expression rooted at x.
func Census(k *kb.KB, t kb.EntID, bias CensusBias, prominent *kb.EntSet) int {
	opts := core.EnumerateOptions{Language: core.ExtendedLanguage, Prominent: prominent}
	subs := core.SubgraphsOf(k, t, opts)
	count := 0
	for _, g := range subs {
		if g.Atoms() <= bias.MaxAtoms {
			count++
		}
	}
	if bias.MaxExtraVars >= 2 && bias.MaxAtoms >= 3 {
		count += countChains(k, t, prominent)
	}
	return count
}

// countChains counts distinct two-hop chains p0(x,y) ∧ p1(y,z) ∧ p2(z,I2)
// reachable from t. The first hop applies the same blank-node and
// prominence pruning as the one-variable enumerator; the second hop is
// unpruned — the Section 3.2 census measures the cost of the hypothetical
// two-variable language, for which no pruning heuristic is established
// (this is exactly why REMI's bias stops at one additional variable).
func countChains(k *kb.KB, t kb.EntID, prominent *kb.EntSet) int {
	type chain struct {
		p0, p1, p2 kb.PredID
		i2         kb.EntID
	}
	seen := make(map[chain]struct{})
	for _, po := range k.AdjacencyOf(t) {
		y := po.O
		if k.IsLiteral(y) || y == t {
			continue
		}
		if !k.IsBlank(y) && prominent.Contains(y) {
			continue
		}
		for _, p1o := range k.AdjacencyOf(y) {
			z := p1o.O
			if k.IsLiteral(z) || z == t || z == y {
				continue
			}
			for _, p2o := range k.AdjacencyOf(z) {
				if k.Kind(p2o.O) != rdf.IRI {
					continue
				}
				seen[chain{po.P, p1o.P, p2o.P, p2o.O}] = struct{}{}
			}
		}
	}
	return len(seen)
}

// CensusReport is the outcome of a search-space census over a set of
// entities.
type CensusReport struct {
	Bias  CensusBias
	Total int
}

// RunCensus sums Census over the entities for each bias, reproducing the
// growth percentages of Section 3.2.
func RunCensus(k *kb.KB, entities []kb.EntID, biases []CensusBias, prominentCutoff float64) []CensusReport {
	var prominent *kb.EntSet
	if prominentCutoff > 0 {
		prominent = k.ProminentSet(prominentCutoff)
	}
	out := make([]CensusReport, len(biases))
	for i, b := range biases {
		total := 0
		for _, t := range entities {
			total += Census(k, t, b, prominent)
		}
		out[i] = CensusReport{Bias: b, Total: total}
	}
	return out
}
