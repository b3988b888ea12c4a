// Package sparql renders referring expressions as SPARQL SELECT queries,
// the "query generation in KBs" application the paper names for REMI's
// output (Sections 1 and 6). The generated query returns exactly the
// binding set of the expression; materialized inverse predicates are
// rewritten back to their base predicate with swapped argument positions,
// so queries run against the original (non-materialized) RDF data.
package sparql

import (
	"fmt"
	"strings"

	"github.com/remi-kb/remi/internal/expr"
	"github.com/remi-kb/remi/internal/kb"
	"github.com/remi-kb/remi/internal/rdf"
)

// Query renders e as a SPARQL SELECT query over k's vocabulary. The root
// variable is ?x; each subgraph expression contributes its own existential
// variable ?yN when needed.
func Query(k *kb.KB, e expr.Expression) string {
	var b strings.Builder
	b.WriteString("SELECT DISTINCT ?x WHERE {\n")
	for i, g := range e {
		writeSubgraph(k, &b, g, i)
	}
	b.WriteString("}")
	return b.String()
}

// triplePattern writes one pattern, unfolding inverse predicates: for a
// materialized p⁻¹ the subject and object swap and the base predicate is
// used, keeping the query valid on the original data.
func triplePattern(k *kb.KB, b *strings.Builder, s string, p kb.PredID, o string) {
	if base := k.BaseOf(p); base != 0 {
		fmt.Fprintf(b, "  %s <%s> %s .\n", o, k.PredicateName(base), s)
		return
	}
	fmt.Fprintf(b, "  %s <%s> %s .\n", s, k.PredicateName(p), o)
}

// term renders an entity as a SPARQL term.
func term(k *kb.KB, e kb.EntID) string {
	t := k.Term(e)
	switch t.Kind {
	case rdf.IRI:
		return "<" + t.Value + ">"
	case rdf.Blank:
		return "_:" + t.Value
	default:
		return t.String() // quoted literal with datatype/lang kept verbatim
	}
}

func writeSubgraph(k *kb.KB, b *strings.Builder, g expr.Subgraph, idx int) {
	y := fmt.Sprintf("?y%d", idx)
	switch g.Shape {
	case expr.Atom1:
		triplePattern(k, b, "?x", g.P0, term(k, g.I0))
	case expr.Path:
		triplePattern(k, b, "?x", g.P0, y)
		triplePattern(k, b, y, g.P1, term(k, g.I1))
	case expr.PathStar:
		triplePattern(k, b, "?x", g.P0, y)
		triplePattern(k, b, y, g.P1, term(k, g.I1))
		triplePattern(k, b, y, g.P2, term(k, g.I2))
	case expr.Closed2:
		triplePattern(k, b, "?x", g.P0, y)
		triplePattern(k, b, "?x", g.P1, y)
	case expr.Closed3:
		triplePattern(k, b, "?x", g.P0, y)
		triplePattern(k, b, "?x", g.P1, y)
		triplePattern(k, b, "?x", g.P2, y)
	}
}

// Execute runs the generated query semantics directly against the KB (a
// convenience for tests and offline validation: full SPARQL engines are out
// of scope, but expr.ExpressionBindings computes the same answer set).
func Execute(k *kb.KB, e expr.Expression) []kb.EntID {
	return expr.ExpressionBindings(k, e).Slice()
}
