// Package kb implements the in-memory knowledge-base layer REMI queries:
// dictionary-encoded facts with subject/object indexes per predicate,
// materialized inverse predicates for prominent objects (Section 4 of the
// paper), per-entity adjacency lists for the subgraph-expression enumerator,
// and the frequency statistics that feed the prominence rankings.
package kb

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/remi-kb/remi/internal/kb/snapshot"
	"github.com/remi-kb/remi/internal/rdf"
)

// EntID identifies an entity or literal; PredID identifies a predicate.
// Both are 1-based; zero means "none".
type EntID uint32

// PredID identifies a predicate (1-based; zero means "none").
type PredID uint32

// PO is a (predicate, object) pair in an entity's adjacency list.
type PO struct {
	P PredID
	O EntID
}

// Pair is a (subject, object) fact of some predicate.
type Pair struct {
	S, O EntID
}

// KB is an immutable, fully indexed knowledge base. Build one with a Builder.
// All methods are safe for concurrent use once built. The fact indexes are
// flat CSR layouts (see csr.go): every read-path accessor is a binary search
// over contiguous arrays returning slice views, with no map lookups.
type KB struct {
	dict *rdf.Dictionary // entities and literals
	kind []rdf.Kind      // kind[e-1] caches dict.Decode(e).Kind

	predNames []string // predNames[p-1]
	predIdx   map[string]PredID
	predIDs   []PredID // 1..NumPredicates, built once (see Predicates)
	baseOf    []PredID // baseOf[p-1] != 0 when p is an inverse predicate

	preds    []predIndex // preds[p-1]: CSR pso/pos indexes + fact list
	adjOff   []uint32    // adjacency run boundaries, indexed by EntID
	adjArena []PO        // flat (p,o) runs, each sorted by (P,O)
	nFacts   int         // total facts including inverse materializations
	nBase    int         // number of non-inverse facts
	entFreq  []uint32    // occurrences of entity in base facts (s or o)
	typePred PredID
	lblPred  PredID

	// pairsReady/adjReady report whether the per-predicate pair lists and
	// the adjacency arena are populated. Neither the builder nor a snapshot
	// carries them (they are exactly reconstructible from the CSR arenas):
	// a KB derives each on first use under deriveMu (derived.go). Readers
	// load the flag before touching the fields, so the one-time fill
	// publishes safely.
	pairsReady atomic.Bool
	adjReady   atomic.Bool
	deriveMu   sync.Mutex

	// promMu guards the per-fraction memo of ProminentSet: every miner
	// construction asks for the same top slice of the frequency ranking,
	// and re-sorting all entities per request is pure waste.
	promMu   sync.Mutex
	promMemo map[float64]*EntSet

	// src is the snapshot image this KB's index slices alias, when the KB
	// was opened from one (nil for built KBs). The KB holds one reference;
	// Close releases it. A derived KB sharing any of this KB's arrays
	// (ApplyPatch) takes its own reference.
	src *snapshot.Reader
}

// Close releases the KB's reference on its backing snapshot image, if any.
// After the last reference drops, every slice an accessor ever returned
// becomes invalid — callers close a KB only once nothing can still be
// reading it (the server retires swapped-out generations after a grace
// period for exactly this reason). Closing a built (non-snapshot) KB or
// closing twice is a no-op.
func (k *KB) Close() error {
	if k == nil || k.src == nil {
		return nil
	}
	src := k.src
	k.src = nil
	return src.Close()
}

// MappingRefs reports the reference count on the KB's backing snapshot
// image (0 for built KBs) — introspection for tests and stats.
func (k *KB) MappingRefs() int {
	if k.src == nil {
		return 0
	}
	return k.src.Refs()
}

// NumEntities returns the number of distinct entities and literals.
func (k *KB) NumEntities() int { return k.dict.Len() }

// NumPredicates returns the number of predicates, including materialized
// inverse predicates.
func (k *KB) NumPredicates() int { return len(k.predNames) }

// NumFacts returns the number of stored facts including inverse
// materializations; NumBaseFacts counts only the original assertions.
func (k *KB) NumFacts() int { return k.nFacts }

// NumBaseFacts returns the number of original (non-inverse) assertions.
func (k *KB) NumBaseFacts() int { return k.nBase }

// Term returns the RDF term for an entity id.
func (k *KB) Term(e EntID) rdf.Term { return k.dict.Decode(rdf.ID(e)) }

// EntityID resolves a term to its id.
func (k *KB) EntityID(t rdf.Term) (EntID, bool) {
	id, ok := k.dict.Lookup(t)
	return EntID(id), ok
}

// MustEntityID resolves an IRI string to an entity id, panicking if absent
// (intended for tests and examples).
func (k *KB) MustEntityID(iri string) EntID {
	id, ok := k.EntityID(rdf.NewIRI(iri))
	if !ok {
		panic(fmt.Sprintf("kb: unknown entity %q", iri))
	}
	return id
}

// Kind returns the RDF kind of entity e.
func (k *KB) Kind(e EntID) rdf.Kind { return k.kind[e-1] }

// IsBlank reports whether e is a blank node.
func (k *KB) IsBlank(e EntID) bool { return k.kind[e-1] == rdf.Blank }

// IsLiteral reports whether e is a literal.
func (k *KB) IsLiteral(e EntID) bool { return k.kind[e-1] == rdf.Literal }

// PredicateName returns the display name for p; inverse predicates carry a
// trailing ⁻¹ marker on their base name.
func (k *KB) PredicateName(p PredID) string { return k.predNames[p-1] }

// PredicateID resolves a predicate IRI string.
func (k *KB) PredicateID(name string) (PredID, bool) {
	p, ok := k.predIdx[name]
	return p, ok
}

// MustPredicateID resolves a predicate IRI string, panicking if absent.
func (k *KB) MustPredicateID(name string) PredID {
	p, ok := k.predIdx[name]
	if !ok {
		panic(fmt.Sprintf("kb: unknown predicate %q", name))
	}
	return p
}

// BaseOf returns the base predicate if p is an inverse predicate, and 0
// otherwise.
func (k *KB) BaseOf(p PredID) PredID { return k.baseOf[p-1] }

// IsInverse reports whether p is a materialized inverse predicate.
func (k *KB) IsInverse(p PredID) bool { return k.baseOf[p-1] != 0 }

// Predicates returns all predicate ids (1..NumPredicates). The slice is
// built once at load time and shared across calls: callers must treat it as
// read-only (every current caller only ranges over it).
func (k *KB) Predicates() []PredID { return k.predIDs }

// Objects returns the sorted objects o with p(s,o) ∈ K. The returned slice
// is a view into the CSR value arena; callers must not modify it.
func (k *KB) Objects(p PredID, s EntID) []EntID {
	ix := &k.preds[p-1]
	return run(ix.psoKey, ix.psoOff, ix.psoVal, s)
}

// Subjects returns the sorted subjects s with p(s,o) ∈ K. The returned slice
// is a view into the CSR value arena; callers must not modify it.
func (k *KB) Subjects(p PredID, o EntID) []EntID {
	ix := &k.preds[p-1]
	return run(ix.posKey, ix.posOff, ix.posVal, o)
}

// HasFact reports whether p(s,o) ∈ K: a binary search for s's run in the
// pso index, then a binary search for o within the run.
func (k *KB) HasFact(p PredID, s, o EntID) bool {
	objs := k.Objects(p, s)
	i := searchIDs(objs, o)
	return i < len(objs) && objs[i] == o
}

// Facts returns the sorted (subject, object) pairs of predicate p. The
// returned slice is shared; callers must not modify it. The pair lists are
// derived from the CSR indexes on first call (one linear pass over all
// predicates).
func (k *KB) Facts(p PredID) []Pair {
	k.ensurePairs()
	return k.preds[p-1].pairs
}

// SubjectRuns returns the distinct subjects of p, ascending, with the run
// boundaries of their facts: keys[i] is the subject of the facts at
// positions off[i]:off[i+1] of p's (S,O)-sorted fact list, so its out-degree
// under p is off[i+1]-off[i]. Both slices are views into the CSR index —
// read-only, and present without deriving the pair lists. off is empty when
// p has no facts.
func (k *KB) SubjectRuns(p PredID) (keys []EntID, off []uint32) {
	ix := &k.preds[p-1]
	return ix.psoKey, ix.psoOff
}

// ObjectRuns is SubjectRuns over the (O,S)-sorted list: the distinct objects
// of p, ascending, where off[i+1]-off[i] is the conditional frequency
// fr(keys[i]|p).
func (k *KB) ObjectRuns(p PredID) (keys []EntID, off []uint32) {
	ix := &k.preds[p-1]
	return ix.posKey, ix.posOff
}

// ObjectColumn returns the O column of p's (S,O)-sorted fact list — what
// ranging over Facts(p) and reading .O yields — as a read-only view into the
// CSR value arena. The offsets of SubjectRuns index it.
func (k *KB) ObjectColumn(p PredID) []EntID { return k.preds[p-1].psoVal }

// SubjectColumn is ObjectColumn over the (O,S)-sorted list: the S column,
// grouped into the ascending subject runs that the offsets of ObjectRuns
// index, so Subjects(p, keys[i]) is col[off[i]:off[i+1]].
func (k *KB) SubjectColumn(p PredID) []EntID { return k.preds[p-1].posVal }

// PredFreq returns the number of facts of predicate p.
func (k *KB) PredFreq(p PredID) int { return len(k.preds[p-1].psoVal) }

// ObjFreq returns the conditional frequency fr(o|p) = |{s : p(s,o) ∈ K}|,
// the quantity Eq. 1 of the paper maps to a rank. It reads a run length
// from two adjacent CSR offsets without touching the value arena.
func (k *KB) ObjFreq(p PredID, o EntID) int {
	ix := &k.preds[p-1]
	return runLen(ix.posKey, ix.posOff, o)
}

// EntityFreq returns the number of base facts in which e occurs (as subject
// or object), the fr prominence measure of Section 3.1.
func (k *KB) EntityFreq(e EntID) int { return int(k.entFreq[e-1]) }

// AdjacencyOf returns the (predicate, object) pairs with e as subject,
// including materialized inverse predicates, sorted by (P,O). The returned
// slice is a constant-time view into the adjacency arena; callers must not
// modify it. The arena is built from the CSR indexes on the first call (one
// counting pass plus one placement pass).
func (k *KB) AdjacencyOf(e EntID) []PO {
	k.ensureAdjacency()
	if e == 0 || int(e) >= len(k.adjOff) {
		return nil
	}
	return k.adjArena[k.adjOff[e-1]:k.adjOff[e]]
}

// TypePredicate returns the id of the rdf:type-like predicate (0 if none).
func (k *KB) TypePredicate() PredID { return k.typePred }

// LabelPredicate returns the id of the rdfs:label-like predicate (0 if none).
func (k *KB) LabelPredicate() PredID { return k.lblPred }

// Types returns the classes of e via the type predicate (one CSR run
// lookup; the old map layout recomputed a packed hash key per call).
func (k *KB) Types(e EntID) []EntID {
	if k.typePred == 0 {
		return nil
	}
	return k.Objects(k.typePred, e)
}

// Label returns a human-readable name for e: its label-predicate value when
// available, otherwise the local name of its term.
func (k *KB) Label(e EntID) string {
	if k.lblPred != 0 {
		if os := k.Objects(k.lblPred, e); len(os) > 0 {
			return k.Term(os[0]).LocalName()
		}
	}
	return k.Term(e).LocalName()
}

// ProminentSet returns the set of entities in the top `frac` fraction of
// the entity-frequency ranking (e.g. 0.05 for the pruning heuristic of
// Section 3.5.2, 0.01 for inverse materialization) as a dense bitmap set.
// At least one entity is returned for positive fractions when the KB is
// non-empty. Results are memoized per fraction (the KB is immutable); the
// returned set is shared and immutable.
func (k *KB) ProminentSet(frac float64) *EntSet {
	n := k.dict.Len()
	if n == 0 || frac <= 0 {
		return nil
	}
	k.promMu.Lock()
	defer k.promMu.Unlock()
	if s, ok := k.promMemo[frac]; ok {
		return s
	}
	s := NewEntSet(prominentIDs(k.entFreq, frac), n)
	if k.promMemo == nil {
		k.promMemo = make(map[float64]*EntSet)
	}
	k.promMemo[frac] = s
	return s
}

// prominentIDs selects the top frac fraction of the entity-frequency
// ranking (ties broken by ascending id, at least one entity for positive
// fractions) for ProminentSet and the builder's inverse set, which want a
// set, not a ranking: a histogram of the frequencies gives the cut-off t,
// and one pass keeps every entity above t and the lowest ids at t. Time is
// O(entities + the largest frequency), which is at most 2·base facts.
func prominentIDs(entFreq []uint32, frac float64) []EntID {
	n := len(entFreq)
	top := min(max(int(float64(n)*frac), 1), n)
	var maxF uint32
	for _, f := range entFreq {
		maxF = max(maxF, f)
	}
	count := make([]uint32, maxF+1)
	for _, f := range entFreq {
		count[f]++
	}
	t, above := maxF, 0
	for above+int(count[t]) < top {
		above += int(count[t])
		t--
	}
	atT := top - above // how many of the entities at frequency t make the cut
	ids := make([]EntID, 0, top)
	for i, f := range entFreq {
		if f > t || (f == t && atT > 0) {
			if f == t {
				atT--
			}
			ids = append(ids, EntID(i+1))
		}
	}
	return ids
}

// Entities returns all entity ids (ascending) whose term satisfies keep
// (nil keeps all). Terms are visited with the dictionary's streaming
// iterator, so a lazy snapshot-backed dictionary never materializes its
// term table.
func (k *KB) Entities(keep func(rdf.Term) bool) []EntID {
	out := make([]EntID, 0, k.dict.Len())
	k.dict.EachTerm(func(id rdf.ID, t rdf.Term) bool {
		if keep == nil || keep(t) {
			out = append(out, EntID(id))
		}
		return true
	})
	slices.Sort(out)
	return out
}

// InstancesOf returns the entities whose type includes class c.
func (k *KB) InstancesOf(c EntID) []EntID {
	if k.typePred == 0 {
		return nil
	}
	return k.Subjects(k.typePred, c)
}
