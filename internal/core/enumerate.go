// Package core implements the paper's primary contribution: the REMI and
// P-REMI algorithms (Section 3.3 and 3.4) that mine the most intuitive
// referring expression for a set of target entities, together with the
// subgraph-expression enumeration and its pruning heuristics (Section
// 3.5.2). The Section 3.2 search-space census built on the enumeration lives
// in internal/experiments.
package core

import (
	"slices"

	"github.com/remi-kb/remi/internal/expr"
	"github.com/remi-kb/remi/internal/kb"
	"github.com/remi-kb/remi/internal/rdf"
)

// Language selects the RE language bias.
type Language int

const (
	// StandardLanguage is the state-of-the-art bias: conjunctions of bound
	// atoms p(x, I) only.
	StandardLanguage Language = iota
	// ExtendedLanguage is REMI's bias (Table 1): subgraph expressions with
	// at most one additional existential variable and three atoms.
	ExtendedLanguage
)

// String names the language bias as in Table 4.
func (l Language) String() string {
	if l == StandardLanguage {
		return "standard"
	}
	return "remi"
}

// EnumerateOptions tunes the subgraphs-expressions routine.
type EnumerateOptions struct {
	Language Language
	// Prominent is the set of entities in the top fraction of the frequency
	// ranking (Section 3.5.2 uses 5%): atoms with such objects are not
	// expanded into multi-atom subgraph expressions. The dense bitmap set
	// makes the per-edge probe a shift and an AND (build one with
	// kb.ProminentSet or kb.NewEntSet). Nil keeps all.
	Prominent *kb.EntSet
	// SkipPredicate drops subgraph expressions using the predicate (used by
	// the entity-summarization evaluation to exclude rdf:type and inverse
	// predicates, Section 4.1.4). Nil keeps all.
	SkipPredicate func(kb.PredID) bool
	// SkipPredID drops one predicate by id with an inline compare instead
	// of an indirect call — the miner uses it for the label predicate,
	// which is checked once per adjacency edge on the queue-build hot path.
	// Zero skips none; it composes with SkipPredicate.
	SkipPredID kb.PredID
}

// SubgraphsOf enumerates every subgraph expression of entity t in the
// configured language (the subgraphs-expressions routine of Section 3.3,
// with the blank-node and prominence pruning of Section 3.5.2). Results are
// deduplicated but not ordered. Dedup runs on a pooled open-addressing
// table (see sgset.go), so a steady-state call allocates only the returned
// slice.
func SubgraphsOf(k *kb.KB, t kb.EntID, opts EnumerateOptions) []expr.Subgraph {
	adj := k.AdjacencyOf(t)
	return appendSubgraphsOf(make([]expr.Subgraph, 0, 2*len(adj)), k, t, opts)
}

// appendSubgraphsOf is SubgraphsOf appending into a caller-provided buffer,
// so the miner's queue build can reuse a pooled candidate slice across Mine
// calls instead of allocating one per search.
func appendSubgraphsOf(out []expr.Subgraph, k *kb.KB, t kb.EntID, opts EnumerateOptions) []expr.Subgraph {
	adj := k.AdjacencyOf(t)
	skip := opts.SkipPredicate
	skipID := opts.SkipPredID
	drop := func(p kb.PredID) bool { return p == skipID || (skip != nil && skip(p)) }

	// Single atoms p0(x, I0). Blank-node objects are skipped by conception
	// (they are anonymous, hence irrelevant in a description). The adjacency
	// is duplicate-free and no multi-atom shape can collide with an Atom1,
	// so single atoms bypass the dedup table entirely.
	for _, po := range adj {
		if drop(po.P) {
			continue
		}
		if k.IsBlank(po.O) {
			continue
		}
		out = append(out, expr.NewAtom1(po.P, po.O))
	}
	if opts.Language == StandardLanguage {
		return out
	}

	sc := getEnumScratch()
	defer putEnumScratch(sc)
	seen := &sc.table
	dedupOff := false
	add := func(g expr.Subgraph) {
		if dedupOff {
			out = append(out, g)
			return
		}
		if seen.add(g) {
			out = append(out, g)
		}
	}

	// Path and path+star shapes: expand p0(x,y) through intermediate y.
	// Paths "hiding" blank nodes are always derived; objects among the most
	// prominent entities are not expanded (their single atom is already
	// cheap). Literals cannot be expanded.
	//
	// Two path (or path+star) expressions can only collide when they share
	// p0 and come from different intermediates; the adjacency is sorted by
	// (P,O), so edges sharing a predicate form contiguous runs, and a run
	// with a single expandable intermediate — the common case in Zipf-shaped
	// KBs — emits its expressions straight to the output, bypassing the
	// dedup table (the enumeration order, hence the output, is unchanged).
	ys := sc.ys[:0]
	for ri := 0; ri < len(adj); {
		rj := ri + 1
		for rj < len(adj) && adj[rj].P == adj[ri].P {
			rj++
		}
		p0 := adj[ri].P
		if drop(p0) {
			ri = rj
			continue
		}
		ys = ys[:0]
		for e := ri; e < rj; e++ {
			y := adj[e].O
			if k.IsLiteral(y) || y == t {
				continue
			}
			if !k.IsBlank(y) && opts.Prominent.Contains(y) {
				continue
			}
			ys = append(ys, y)
		}
		dedupOff = len(ys) == 1
		for _, y := range ys {
			yAdj := k.AdjacencyOf(y)
			// Collect the expandable (p1, I1) atoms of y once. Tail constants
			// of multi-atom subgraph expressions are entities (blank nodes
			// are irrelevant by conception and literal tails — labels, counts
			// — do not name concepts a user would recognize through a join).
			tails := sc.tails[:0]
			for _, t1 := range yAdj {
				if drop(t1.P) {
					continue
				}
				if k.Kind(t1.O) != rdf.IRI {
					continue
				}
				tails = append(tails, t1)
			}
			sc.tails = tails
			for _, t1 := range tails {
				add(expr.NewPath(p0, t1.P, t1.O))
			}
			for i := 0; i < len(tails); i++ {
				for j := i + 1; j < len(tails); j++ {
					add(expr.NewPathStar(p0, tails[i].P, tails[i].O, tails[j].P, tails[j].O))
				}
			}
		}
		dedupOff = false
		ri = rj
	}
	sc.ys = ys

	// Closed shapes: predicates of t sharing an object y. The adjacency is
	// re-sorted by (O,P) into pooled scratch so object groups are contiguous
	// runs — no per-call map.
	byObj := append(sc.byObj[:0], adj...)
	if skip != nil || skipID != 0 {
		w := 0
		for _, po := range byObj {
			if !drop(po.P) {
				byObj[w] = po
				w++
			}
		}
		byObj = byObj[:w]
	}
	slices.SortFunc(byObj, func(a, b kb.PO) int {
		if a.O != b.O {
			return int(a.O) - int(b.O)
		}
		return int(a.P) - int(b.P)
	})
	sc.byObj = byObj
	for lo := 0; lo < len(byObj); {
		hi := lo + 1
		for hi < len(byObj) && byObj[hi].O == byObj[lo].O {
			hi++
		}
		// The run is sorted by P already (adjacency order is (P,O), re-sorted
		// (O,P) above), matching the sorted predicate lists of the old map
		// grouping.
		if hi-lo >= 2 {
			preds := byObj[lo:hi]
			for i := 0; i < len(preds); i++ {
				for j := i + 1; j < len(preds); j++ {
					add(expr.NewClosed2(preds[i].P, preds[j].P))
					for l := j + 1; l < len(preds); l++ {
						add(expr.NewClosed3(preds[i].P, preds[j].P, preds[l].P))
					}
				}
			}
		}
		lo = hi
	}
	return out
}

// holdsForAll reports whether g matches every entity of rest.
func holdsForAll(k *kb.KB, g expr.Subgraph, rest []kb.EntID) bool {
	for _, t := range rest {
		if !expr.HoldsFor(k, g, t) {
			return false
		}
	}
	return true
}
