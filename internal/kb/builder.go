package kb

import (
	"math"

	"github.com/remi-kb/remi/internal/rdf"
)

// InverseMarker is appended to a predicate name to form the display name of
// its materialized inverse.
const InverseMarker = "⁻¹"

// Options configures KB construction.
type Options struct {
	// InverseTopFraction materializes inverse facts p⁻¹(o,s) for every fact
	// p(s,o) whose object o ranks in this top fraction of the entity
	// frequency ranking, following Section 4 of the paper ("we materialized
	// the inverse facts for all objects o among the top 1% most frequent
	// entities"). Zero disables inverse materialization.
	InverseTopFraction float64
	// TypePredicate and LabelPredicate name the rdf:type / rdfs:label
	// equivalents of the dataset (full IRI strings).
	TypePredicate  string
	LabelPredicate string
}

// DefaultOptions mirrors the experimental setup of the paper.
func DefaultOptions() Options {
	return Options{
		InverseTopFraction: 0.01,
		TypePredicate:      "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
		LabelPredicate:     "http://www.w3.org/2000/01/rdf-schema#label",
	}
}

// Builder accumulates triples and produces an indexed KB. It is the
// never-spilling front end of the one builder in stream.go: Add is that
// builder's ingest with an unreachable spill threshold, Build its finish.
type Builder struct {
	in *ingest
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{in: newIngest(math.MaxInt, "")}
}

// Add inserts one triple. Predicates must be IRIs; literal subjects are
// rejected.
func (b *Builder) Add(tr rdf.Triple) error { return b.in.add(tr) }

// AddAll inserts a batch of triples, stopping at the first error.
func (b *Builder) AddAll(trs []rdf.Triple) error {
	for _, tr := range trs {
		if err := b.Add(tr); err != nil {
			return err
		}
	}
	return nil
}

// Build indexes the accumulated triples. The Builder must not be reused
// afterwards.
func (b *Builder) Build(opts Options) *KB {
	k, err := b.in.finish(opts)
	if err != nil {
		// finish fails only on run-file I/O, and this ingest never spills.
		panic("kb: in-memory build failed: " + err.Error())
	}
	return k
}

// FromTriples builds a KB directly from parsed triples.
func FromTriples(trs []rdf.Triple, opts Options) (*KB, error) {
	b := NewBuilder()
	if err := b.AddAll(trs); err != nil {
		return nil, err
	}
	return b.Build(opts), nil
}
