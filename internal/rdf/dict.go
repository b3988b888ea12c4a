package rdf

import (
	"fmt"
	"slices"
	"strings"

	"github.com/remi-kb/remi/internal/parsort"
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
// hashing pass. Finally, ExtendDictionary layers appended terms over
// either of the other forms without copying their lookup structures: the
// live-KB delta layer uses it to add entities without rebuilding a
// multi-million-term index.
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
	// base/extraTerms/extraSorted form the extended view: extraTerms is
	// the appended tail (ids base.Len()+1, ...), extraSorted holds the
	// tail's ids in ascending term order (Lookup binary-searches it), and
	// everything else falls back to base, which is never itself an
	// extended view.
	base        *Dictionary
	extraTerms  []Term
	extraSorted []ID
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
	// independent TermAtRank calls. The term's Value may alias the
	// source's decode buffer: it is valid only until f returns.
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
	if d.base != nil {
		if r, ok := slices.BinarySearchFunc(d.extraSorted, t, func(id ID, t Term) int { return d.tailTerm(id).Compare(t) }); ok {
			return d.extraSorted[r], true
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
// not copied; only the appended tail gets its own index, its ids in term
// order, so extending a multi-million-term dictionary costs nothing
// proportional to the base. Encode on the result panics (it is a view,
// not a builder), and base must not grow afterwards: the view's id space
// starts where base's ended. Extra terms already present in base (or
// repeated) are rejected.
//
// Extending an extended dictionary re-extends its root with both tails,
// merging the new terms into the earlier tail's order, so a chain of
// extensions (one per live-KB generation) stays one level deep: Lookup
// and Decode never recurse more than once, and a link inserts only its
// own terms.
func ExtendDictionary(base *Dictionary, extra []Term) (*Dictionary, error) {
	root := base
	if base.base != nil {
		root = base.base
	}
	d := &Dictionary{base: root, extraTerms: slices.Concat(base.extraTerms, extra)}
	fresh := make([]ID, len(extra))
	for i, t := range extra {
		if _, ok := base.Lookup(t); ok {
			return nil, fmt.Errorf("rdf: extend: term %s already in base dictionary", t)
		}
		fresh[i] = ID(base.Len() + i + 1)
	}
	slices.SortFunc(fresh, func(a, b ID) int { return d.tailTerm(a).Compare(d.tailTerm(b)) })
	for i := 1; i < len(fresh); i++ {
		if t := d.tailTerm(fresh[i]); t == d.tailTerm(fresh[i-1]) {
			return nil, fmt.Errorf("rdf: extend: duplicate term %s", t)
		}
	}
	d.extraSorted = d.mergeByTerm(base.extraSorted, fresh)
	return d, nil
}

// tailTerm decodes an id of an extended dictionary's tail.
func (d *Dictionary) tailTerm(id ID) Term { return d.extraTerms[int(id)-d.base.Len()-1] }

// mergeByTerm merges two lists of tail ids, each ascending in term order,
// into one.
func (d *Dictionary) mergeByTerm(a, b []ID) []ID {
	out := make([]ID, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		at := d.tailTerm(a[0])
		for len(b) > 0 && d.tailTerm(b[0]).Compare(at) < 0 {
			out, b = append(out, b[0]), b[1:]
		}
		out, a = append(out, a[0]), a[1:]
	}
	out = append(out, a...)
	return append(out, b...)
}

// EachByTerm calls f with every (id, term) pair in ascending Term.Compare
// order until f returns false — the order a snapshot writer persists, so
// that reopening needs no hashing pass at all. Each form walks its terms
// once: the lazy form is one pass over its source (already in term order),
// an extended one merges its root's walk with its term-ordered tail, and
// the builder form sorts its ids first. The term's Value is valid only
// until f returns (a lazy source lends its decode buffer); clone it to
// keep it.
func (d *Dictionary) EachByTerm(f func(id ID, t Term) bool) {
	switch {
	case d.lazy != nil:
		d.lazy.EachTerm(func(r int, t Term) bool { return f(d.sorted[r], t) })
	case d.base != nil:
		tail, more := d.extraSorted, true
		d.base.EachByTerm(func(id ID, t Term) bool {
			for more && len(tail) > 0 && d.tailTerm(tail[0]).Compare(t) < 0 {
				more, tail = f(tail[0], d.tailTerm(tail[0])), tail[1:]
			}
			more = more && f(id, t)
			return more
		})
		for more && len(tail) > 0 {
			more, tail = f(tail[0], d.tailTerm(tail[0])), tail[1:]
		}
	default:
		for _, id := range sortIDsByTerm(d.terms) {
			if !f(id, d.terms[id-1]) {
				return
			}
		}
	}
}

// sortIDsByTerm returns the ids of terms (terms[i] has id i+1) in ascending
// term order: the two halves of the id range sort on two goroutines and
// merge. Terms are distinct, so the order has no ties.
func sortIDsByTerm(terms []Term) []ID {
	ids := make([]ID, len(terms))
	for i := range ids {
		ids[i] = ID(i + 1)
	}
	cmp := func(a, b ID) int { return terms[a-1].Compare(terms[b-1]) }
	lo, hi := parsort.Halves(ids, cmp)
	out := make([]ID, 0, len(ids))
	for len(lo) > 0 && len(hi) > 0 {
		if cmp(lo[0], hi[0]) < 0 {
			out, lo = append(out, lo[0]), lo[1:]
		} else {
			out, hi = append(out, hi[0]), hi[1:]
		}
	}
	out = append(out, lo...)
	return append(out, hi...)
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
			out[d.sorted[r]-1] = Term{Kind: t.Kind, Value: strings.Clone(t.Value)}
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
			return f(d.sorted[r], Term{Kind: t.Kind, Value: strings.Clone(t.Value)})
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
