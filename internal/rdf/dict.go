package rdf

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
)

// ID is a dense dictionary identifier for a term. The zero value is reserved
// as "no term".
type ID uint32

// NoID is the reserved null identifier.
const NoID ID = 0

// Dictionary maps terms to dense IDs starting at 1, in insertion order.
// A Dictionary is append-only: once an ID is handed out it never changes.
// It is safe for concurrent reads after the build phase is complete.
//
// A Dictionary comes in several physical forms with one behavior: the
// mutable builder form keeps a hash index for Encode/Lookup; the lazy form
// (NewLazyDictionary, used by KB snapshots) carries neither a map nor a term
// slice — terms are decoded on demand from a LazyTerms source (e.g.
// front-coded blocks in an mmap'd snapshot) and Lookup searches that source,
// so opening is O(page-in) in the term table and never pays a per-term
// hashing pass. Finally, ExtendDictionary layers a small set of appended
// terms over either of the other forms without copying their lookup
// structures: the live-KB delta layer uses it to add entities without
// rebuilding a multi-million-term index.
type Dictionary struct {
	terms []Term      // terms[i] has ID i+1; nil in the lazy and extended forms
	index map[Term]ID // term -> ID; only the builder form carries it
	// sorted holds the IDs permuted into ascending Term.Compare order; the
	// lazy form carries it (Lookup maps a rank in the source back to an ID).
	sorted []ID
	// lazy/rank form the lazy view: terms are decoded on demand from the
	// source, and rank[i] is the term-order rank of ID i+1 (the inverse of
	// sorted), so Decode is one block decode instead of a table load.
	lazy LazyTerms
	rank []uint32
	// base/extra/extraTerms form the extended view: extraTerms is the
	// appended tail (ids base.Len()+1, ...), extra indexes only the tail,
	// and everything else falls back to base, which is never itself an
	// extended view.
	base       *Dictionary
	extra      map[Term]ID
	extraTerms []Term
}

// LazyTerms is a random-access source of terms in ascending Term.Compare
// order, used by the lazy dictionary form. Implementations decode terms on
// demand (e.g. from front-coded blocks) instead of holding a materialized
// []Term.
type LazyTerms interface {
	// Len returns the number of terms.
	Len() int
	// TermAtRank returns the term at position rank (0-based) of the
	// ascending term order.
	TermAtRank(rank int) Term
	// RankOf returns the rank at which t is stored, if present.
	RankOf(t Term) (int, bool)
	// EachTerm calls f for every rank in ascending order until f returns
	// false. Sequential decoding is expected to be much cheaper than n
	// independent TermAtRank calls.
	EachTerm(f func(rank int, t Term) bool)
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{index: make(map[Term]ID)}
}

// Len returns the number of terms in the dictionary.
func (d *Dictionary) Len() int {
	switch {
	case d.lazy != nil:
		return d.lazy.Len()
	case d.base != nil:
		return d.base.Len() + len(d.extraTerms)
	}
	return len(d.terms)
}

// Encode returns the ID for t, inserting it if absent. Only the builder form
// is mutable; encoding against a lazy or extended dictionary is a
// programming error and panics.
func (d *Dictionary) Encode(t Term) ID {
	if d.index == nil {
		panic("rdf: Encode on a read-only dictionary")
	}
	if id, ok := d.index[t]; ok {
		return id
	}
	// Stored terms are usually substrings of a parsed input line; cloning
	// on insert keeps the dictionary from pinning every source line a
	// unique term appeared on (a line is ~10x the term that outlives it).
	t.Value = strings.Clone(t.Value)
	d.terms = append(d.terms, t)
	id := ID(len(d.terms))
	d.index[t] = id
	return id
}

// Lookup returns the ID for t without inserting; ok is false if absent.
func (d *Dictionary) Lookup(t Term) (ID, bool) {
	if d.extra != nil {
		if id, ok := d.extra[t]; ok {
			return id, true
		}
		return d.base.Lookup(t)
	}
	if d.index != nil {
		id, ok := d.index[t]
		return id, ok
	}
	r, ok := d.lazy.RankOf(t)
	if !ok {
		return NoID, false
	}
	return d.sorted[r], true
}

// NewLazyDictionary builds the on-demand lookup form from a LazyTerms source
// (terms in ascending Term.Compare order), the permutation of IDs in that
// order, and its inverse (rank[i] is the rank of ID i+1). No term slice is
// materialized — Decode delegates to the source — so opening a snapshot-backed
// dictionary allocates nothing proportional to the term count beyond what the
// caller already mapped. The permutation pair is validated to be mutually
// inverse (which forces both to be valid permutations): a mismatch would not
// crash but would silently decode or look up the wrong terms, so it is
// rejected here at open time. The slices are retained, not copied.
func NewLazyDictionary(lazy LazyTerms, sorted []ID, rank []uint32) (*Dictionary, error) {
	n := lazy.Len()
	if len(sorted) != n || len(rank) != n {
		return nil, fmt.Errorf("rdf: lazy dictionary has %d terms but %d sorted ids and %d ranks", n, len(sorted), len(rank))
	}
	for r, id := range sorted {
		if id == NoID || int(id) > n {
			return nil, fmt.Errorf("rdf: lazy dictionary sorted id %d out of range at %d", id, r)
		}
		if int(rank[id-1]) != r {
			return nil, fmt.Errorf("rdf: lazy dictionary rank[%d] = %d, want %d (not the inverse permutation)", id-1, rank[id-1], r)
		}
	}
	return &Dictionary{lazy: lazy, sorted: sorted, rank: rank}, nil
}

// ExtendDictionary returns a read-only dictionary holding every term of
// base plus extra terms appended in order (ids base.Len()+1, ...). The
// base's lookup structure — hash map or lazy term source — is reused,
// not copied; only the appended tail gets its own small index,
// so extending a multi-million-term dictionary by a handful of terms is
// O(len(extra)). Encode on the result panics (it is a view, not a
// builder), and base must not grow afterwards: the view's id space starts
// where base's ended. Extra terms already present in base (or repeated)
// are rejected.
//
// Extending an extended dictionary re-extends its root with both tails,
// copying the earlier tail's index, so a chain of extensions (one per
// live-KB generation) stays one level deep: Lookup and Decode never
// recurse more than once.
func ExtendDictionary(base *Dictionary, extra []Term) (*Dictionary, error) {
	root, tail, idx := base, make([]Term, 0, len(extra)), make(map[Term]ID, len(extra))
	if base.base != nil {
		root, tail, idx = base.base, slices.Clip(base.extraTerms), maps.Clone(base.extra)
	}
	for _, t := range extra {
		if _, ok := base.Lookup(t); ok {
			return nil, fmt.Errorf("rdf: extend: term %s already in base dictionary", t)
		}
		if _, ok := idx[t]; ok {
			return nil, fmt.Errorf("rdf: extend: duplicate term %s", t)
		}
		tail = append(tail, t)
		idx[t] = ID(root.Len() + len(tail))
	}
	return &Dictionary{base: root, extra: idx, extraTerms: tail}, nil
}

// SortedByTerm returns the IDs permuted into ascending Term.Compare order —
// the binary-search index a snapshot writer persists so that reopening needs
// no hashing pass at all. A lazy dictionary already carries the
// permutation, so re-packing a snapshot-loaded KB skips the sort.
func (d *Dictionary) SortedByTerm() []ID {
	if d.sorted != nil && d.base == nil {
		return slices.Clone(d.sorted)
	}
	if d.base != nil {
		// Extended form: merge the base's term order with the sorted tail.
		// The tail is tiny relative to the base, so a linear merge beats
		// re-sorting the whole id space — and the base side needs at most
		// one Decode per merge step (which matters when the base is lazy).
		bs := d.base.SortedByTerm()
		tail := make([]ID, len(d.extraTerms))
		for i := range tail {
			tail[i] = ID(d.base.Len() + i + 1)
		}
		sort.Slice(tail, func(i, j int) bool {
			return d.extraTerms[tail[i]-ID(d.base.Len())-1].Compare(d.extraTerms[tail[j]-ID(d.base.Len())-1]) < 0
		})
		out := make([]ID, 0, len(bs)+len(tail))
		bi, ti := 0, 0
		var bTerm Term
		bValid := false
		for bi < len(bs) && ti < len(tail) {
			if !bValid {
				bTerm = d.base.Decode(bs[bi])
				bValid = true
			}
			if bTerm.Compare(d.extraTerms[tail[ti]-ID(d.base.Len())-1]) <= 0 {
				out = append(out, bs[bi])
				bi++
				bValid = false
			} else {
				out = append(out, tail[ti])
				ti++
			}
		}
		out = append(out, bs[bi:]...)
		out = append(out, tail[ti:]...)
		return out
	}
	out := make([]ID, len(d.terms))
	for i := range out {
		out[i] = ID(i + 1)
	}
	sort.Slice(out, func(i, j int) bool {
		return d.terms[out[i]-1].Compare(d.terms[out[j]-1]) < 0
	})
	return out
}

// Decode returns the term for id. It panics on out-of-range IDs, which
// indicate a programming error rather than bad data.
func (d *Dictionary) Decode(id ID) Term {
	if id == NoID || int(id) > d.Len() {
		panic(fmt.Sprintf("rdf: dictionary decode of invalid id %d (size %d)", id, d.Len()))
	}
	switch {
	case d.lazy != nil:
		return d.lazy.TermAtRank(int(d.rank[id-1]))
	case d.base != nil:
		if n := d.base.Len(); int(id) > n {
			return d.extraTerms[int(id)-n-1]
		}
		return d.base.Decode(id)
	}
	return d.terms[id-1]
}

// Terms returns the terms ordered by ID. For the builder form this is
// the backing slice and callers must not modify it; the lazy and
// extended forms materialize a fresh O(n) slice per call, so iterate with
// EachTerm instead when the order does not matter.
func (d *Dictionary) Terms() []Term {
	switch {
	case d.lazy != nil:
		out := make([]Term, d.lazy.Len())
		d.lazy.EachTerm(func(r int, t Term) bool {
			out[d.sorted[r]-1] = t
			return true
		})
		return out
	case d.base != nil:
		out := make([]Term, 0, d.Len())
		out = append(out, d.base.Terms()...)
		return append(out, d.extraTerms...)
	}
	return d.terms
}

// EachTerm calls f with every (id, term) pair in unspecified order until f
// returns false. Unlike Terms it allocates nothing proportional to the
// dictionary size, decoding lazy forms one block at a time.
func (d *Dictionary) EachTerm(f func(id ID, t Term) bool) {
	switch {
	case d.lazy != nil:
		d.lazy.EachTerm(func(r int, t Term) bool {
			return f(d.sorted[r], t)
		})
	case d.base != nil:
		stopped := false
		d.base.EachTerm(func(id ID, t Term) bool {
			if !f(id, t) {
				stopped = true
				return false
			}
			return true
		})
		if stopped {
			return
		}
		for i, t := range d.extraTerms {
			if !f(ID(d.base.Len()+i+1), t) {
				return
			}
		}
	default:
		for i, t := range d.terms {
			if !f(ID(i+1), t) {
				return
			}
		}
	}
}
