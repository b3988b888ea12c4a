// Package rdf implements the RDF data model used throughout REMI: terms
// (IRIs, literals, blank nodes), triples, a streaming N-Triples reader and
// writer, and a dictionary that maps terms to dense integer identifiers.
//
// The package follows the formulation of Section 2.1 of the paper: a KB K is
// a set of triples p(s,o) with p ∈ P, s ∈ I∪B and o ∈ I∪L∪B, where I are
// entities, P predicates, L literals and B blank nodes.
package rdf

import (
	"fmt"
	"strings"
)

// Kind discriminates the three syntactic categories of RDF terms.
type Kind uint8

const (
	// IRI identifies a named resource, e.g. <http://dbpedia.org/resource/Paris>.
	IRI Kind = iota
	// Literal is a (possibly typed or language-tagged) literal value.
	Literal
	// Blank is an anonymous node, e.g. _:b42.
	Blank
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case IRI:
		return "iri"
	case Literal:
		return "literal"
	case Blank:
		return "blank"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Term is a single RDF term. Value holds the IRI string (without angle
// brackets), the literal lexical form (with datatype/language suffix kept
// verbatim, e.g. `42"^^<http://www.w3.org/2001/XMLSchema#integer>`), or the
// blank node label (without the _: prefix).
type Term struct {
	Kind  Kind
	Value string
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: IRI, Value: iri} }

// NewLiteral returns a plain literal term.
func NewLiteral(lex string) Term { return Term{Kind: Literal, Value: lex} }

// NewBlank returns a blank-node term with the given label.
func NewBlank(label string) Term { return Term{Kind: Blank, Value: label} }

// String renders the term in N-Triples syntax.
func (t Term) String() string {
	switch t.Kind {
	case IRI:
		return "<" + escapeIRI(t.Value) + ">"
	case Blank:
		return "_:" + t.Value
	default:
		return quoteLiteral(t.Value)
	}
}

// LocalName returns a human-oriented short name: the fragment or last path
// segment of an IRI, the label of a blank node, or the lexical form of a
// literal with any datatype suffix removed.
func (t Term) LocalName() string {
	switch t.Kind {
	case IRI:
		v := t.Value
		if i := strings.LastIndexAny(v, "#/"); i >= 0 && i+1 < len(v) {
			v = v[i+1:]
		}
		return v
	case Blank:
		return "_:" + t.Value
	default:
		v := t.Value
		if i := strings.Index(v, `"^^`); i >= 0 {
			return v[:i]
		}
		if i := strings.Index(v, `"@`); i >= 0 {
			return v[:i]
		}
		return v
	}
}

// quoteLiteral renders a literal lexical form in N-Triples syntax. The stored
// value may already carry a datatype (`lex"^^<iri>`) or language (`lex"@en`)
// suffix; in that case only the opening quote is added.
func quoteLiteral(v string) string {
	if i := strings.Index(v, `"^^`); i >= 0 {
		return `"` + escapeLiteral(v[:i]) + v[i:]
	}
	if i := strings.Index(v, `"@`); i >= 0 {
		return `"` + escapeLiteral(v[:i]) + v[i:]
	}
	return `"` + escapeLiteral(v) + `"`
}

func escapeLiteral(s string) string {
	if !strings.ContainsAny(s, "\"\\\n\r\t\b\f") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	// Iterate bytes, not runes: every ECHAR is ASCII, and a lexical form
	// that is not valid UTF-8 must still round-trip byte-for-byte rather
	// than have stray bytes rewritten to U+FFFD.
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		case '\b':
			b.WriteString(`\b`)
		case '\f':
			b.WriteString(`\f`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// escapeIRI renders an IRI value for <...> syntax. The IRIREF grammar
// forbids raw control characters, space and <>"{}|^`\ inside the brackets;
// they are written as \uXXXX numeric escapes (the only escapes IRIREF
// allows), so an IRI that was parsed from an escaped form round-trips.
func escapeIRI(s string) string {
	clean := true
	for i := 0; i < len(s); i++ {
		if iriNeedsEscape(s[i]) {
			clean = false
			break
		}
	}
	if clean {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	// Byte-wise for the same reason as escapeLiteral: everything the
	// grammar escapes is ASCII, and other bytes must pass through intact.
	for i := 0; i < len(s); i++ {
		if c := s[i]; iriNeedsEscape(c) {
			fmt.Fprintf(&b, `\u%04X`, c)
		} else {
			b.WriteByte(c)
		}
	}
	return b.String()
}

func iriNeedsEscape(c byte) bool {
	switch c {
	case '<', '>', '"', '{', '}', '|', '^', '`', '\\':
		return true
	}
	return c <= 0x20
}

// Compare orders terms first by kind (IRI < Literal < Blank) and then by
// value, providing a total deterministic order.
func (t Term) Compare(u Term) int {
	if t.Kind != u.Kind {
		if t.Kind < u.Kind {
			return -1
		}
		return 1
	}
	return strings.Compare(t.Value, u.Value)
}

// Triple is a single RDF assertion p(s,o), stored in (subject, predicate,
// object) order.
type Triple struct {
	S, P, O Term
}

// NewTriple builds a triple from its three terms.
func NewTriple(s, p, o Term) Triple { return Triple{S: s, P: p, O: o} }

// String renders the triple as one N-Triples line (without newline).
func (tr Triple) String() string {
	return tr.S.String() + " " + tr.P.String() + " " + tr.O.String() + " ."
}

// Compare orders triples lexicographically by (S, P, O).
func (tr Triple) Compare(u Triple) int {
	if c := tr.S.Compare(u.S); c != 0 {
		return c
	}
	if c := tr.P.Compare(u.P); c != 0 {
		return c
	}
	return tr.O.Compare(u.O)
}
