// Package remi is a Go implementation of REMI (Galárraga, Delaunay,
// Dessalles: "REMI: Mining Intuitive Referring Expressions on Knowledge
// Bases", EDBT 2020): given a set of target entities in an RDF knowledge
// base, it mines the most intuitive referring expression — the conjunction
// of subgraph expressions that matches exactly the targets and minimizes an
// estimated Kolmogorov complexity built from prominence rankings.
//
// The package is a facade over the full system (storage, statistics,
// complexity model, sequential and parallel miners); a minimal session looks
// like:
//
//	sys, err := remi.Load("dbpedia.nt")                       // or a snapshot
//	res, err := sys.Mine([]string{"http://dbpedia.org/resource/Paris"})
//	fmt.Println(res.Expression, res.NL, res.Bits)
package remi

import (
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/remi-kb/remi/internal/datagen"
	"github.com/remi-kb/remi/internal/kb"
	"github.com/remi-kb/remi/internal/nlg"
	"github.com/remi-kb/remi/internal/prominence"
	"github.com/remi-kb/remi/internal/rdf"
)

// Metric selects the prominence signal behind the complexity estimate Ĉ.
type Metric int

const (
	// MetricFr ranks concepts by their number of occurrences in the KB
	// (Ĉfr in the paper; the default, and the variant users preferred).
	MetricFr Metric = iota
	// MetricPr ranks entities by PageRank over the KB's link graph (Ĉpr).
	MetricPr
)

// Language selects the RE language bias.
type Language int

const (
	// LanguageExtended is REMI's language (Table 1): subgraph expressions
	// with up to 3 atoms and one additional existential variable.
	LanguageExtended Language = iota
	// LanguageStandard is the state-of-the-art bias: bound atoms only.
	LanguageStandard
)

// System is a loaded, indexed knowledge base ready for mining. Create one
// with Load, FromNTriples or GenerateDemo. A System is safe for concurrent
// use.
type System struct {
	kb         *kb.KB
	promFr     *prominence.Store
	prOnce     sync.Once // builds promPr on the first MetricPr request
	promPr     *prominence.Store
	promCustom atomic.Pointer[prominence.Store] // set by SetProminence
	verb       *nlg.Verbalizer
}

// Load reads a knowledge base from an N-Triples or KB snapshot file and
// indexes it with the paper's defaults (inverse facts materialized for the
// top 1% most frequent objects).
// Snapshots are detected by their magic bytes regardless of extension and
// open zero-copy (mmap where available) with the indexes — inverse
// materialization included — exactly as they were packed; see
// System.SaveSnapshot for producing them.
func Load(path string) (*System, error) {
	if kb.IsSnapshotFile(path) {
		k, err := kb.OpenSnapshot(path)
		if err != nil {
			return nil, fmt.Errorf("remi: loading %s: %w", path, err)
		}
		return fromKB(k, nil), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// N-Triples stream through the builder: the raw triple slice of a
	// web-scale dump is never held in memory (bounded run spills plus a
	// k-way merge), and the result is element-identical to FromTriples
	// over the same triples.
	k, err := kb.BuildStreaming(rdf.NewReader(f), kb.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("remi: parsing %s: %w", path, err)
	}
	return fromKB(k, nil), nil
}

// FromTriples indexes an in-memory triple set.
func FromTriples(triples []rdf.Triple) (*System, error) {
	k, err := kb.FromTriples(triples, kb.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return fromKB(k, nil), nil
}

// FromNTriples parses N-Triples text (one statement per line).
func FromNTriples(text string) (*System, error) {
	triples, err := rdf.ReadAll(strings.NewReader(text))
	if err != nil {
		return nil, err
	}
	return FromTriples(triples)
}

// GenerateDemo builds one of the bundled synthetic datasets: "tiny" (the
// paper's running examples), "dbpedia" or "wikidata" (Zipf-shaped KBs used
// by the experiment harness). Scale <= 0 picks a small default.
func GenerateDemo(dataset string, seed int64, scale float64) (*System, error) {
	if scale <= 0 {
		scale = 0.2
	}
	d, opts, err := datagen.Named(dataset, datagen.Config{Seed: seed, Scale: scale})
	if err != nil {
		return nil, fmt.Errorf("remi: %w", err)
	}
	k, err := d.BuildKB(opts)
	if err != nil {
		return nil, err
	}
	return fromKB(k, nil), nil
}

// fromKB builds the System serving k, reusing the fr rankings of prev, the
// System of the KB k was patched from, where it can (prominence.Rebuild).
func fromKB(k *kb.KB, prev *System) *System {
	var prevFr *prominence.Store
	if prev != nil {
		prevFr = prev.promFr
	}
	return &System{kb: k, promFr: prominence.Rebuild(k, prevFr), verb: nlg.New(k)}
}

// pr structures are built lazily (PageRank costs thirty passes over the
// graph), once, by whichever request asks first; concurrent first requests
// wait for that build.
func (s *System) prStore() *prominence.Store {
	s.prOnce.Do(func() { s.promPr = prominence.Build(s.kb, prominence.Pr) })
	return s.promPr
}

// NumFacts returns the number of stored facts (inverse materializations
// included); NumEntities and NumPredicates size the dictionary.
func (s *System) NumFacts() int      { return s.kb.NumFacts() }
func (s *System) NumEntities() int   { return s.kb.NumEntities() }
func (s *System) NumPredicates() int { return s.kb.NumPredicates() }

// WriteSnapshot serializes the fully built KB — dictionary, CSR indexes,
// adjacency arena, inverse materializations and frequency statistics — into
// the zero-copy snapshot format that Load and kb.OpenSnapshot reopen in
// O(page-in) time. Pack once, open many: snapshot opening skips N-Triples
// parsing, deduplication and index sorting entirely.
func (s *System) WriteSnapshot(w io.Writer) error { return s.kb.WriteSnapshot(w) }

// SaveSnapshot writes the KB snapshot to path (see WriteSnapshot).
func (s *System) SaveSnapshot(path string) error { return s.kb.WriteSnapshotFile(path) }
