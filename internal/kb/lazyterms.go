package kb

// fcTerms adapts a front-coded term set (internal/frontcoding) to the
// rdf.LazyTerms interface backing a lazy dictionary. The set's entries are
// serialized terms in ascending term order, typically aliasing an mmap'd
// snapshot section, so no per-entity structure exists in the heap: Decode
// walks one 16-entry block and Lookup binary-searches block heads.
//
// Decode errors surface as panics rather than error returns: the bytes sit
// behind the snapshot container's CRC-64, so a malformed entry means a writer
// bug (or memory corruption), not bad user input — the same contract as
// frontcoding.CompareSerializedTerm.

import (
	"fmt"

	"github.com/remi-kb/remi/internal/frontcoding"
	"github.com/remi-kb/remi/internal/rdf"
)

type fcTerms struct {
	set *frontcoding.FCSet
}

func (f *fcTerms) Len() int { return f.set.Len() }

func (f *fcTerms) TermAtRank(rank int) rdf.Term {
	t, err := f.set.TermAt(rank)
	if err != nil {
		panic(fmt.Sprintf("kb: corrupt front-coded term block: %v", err))
	}
	return t
}

func (f *fcTerms) RankOf(t rdf.Term) (int, bool) {
	i, found, err := f.set.Search(func(serialized []byte) int {
		return frontcoding.CompareSerializedTerm(serialized, t)
	})
	if err != nil {
		panic(fmt.Sprintf("kb: corrupt front-coded term block: %v", err))
	}
	return i, found
}

func (f *fcTerms) EachTerm(fn func(rank int, t rdf.Term) bool) {
	err := f.set.Each(func(i int, serialized []byte) bool {
		t, derr := frontcoding.BorrowTerm(serialized)
		if derr != nil {
			panic(fmt.Sprintf("kb: corrupt front-coded term block: %v", derr))
		}
		return fn(i, t)
	})
	if err != nil {
		panic(fmt.Sprintf("kb: corrupt front-coded term block: %v", err))
	}
}
