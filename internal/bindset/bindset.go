// Package bindset is the adaptive binding-set engine behind REMI's set
// algebra. Every node of the Algorithm 1 search intersects the prefix's
// binding set with a candidate's, so the physical representation of these
// sets dominates the mining hot path. A Set keeps one of two representations,
// chosen automatically by density against the KB's entity universe:
//
//   - sparse: an ascending []kb.EntID slice (cheap for small sets, which is
//     the common case deep in the search tree);
//   - dense: a bitseq-backed bitmap with a cached popcount (cheap for the
//     large binding sets of frequent atoms near the queue head, where a
//     slice merge would touch hundreds of thousands of elements and a
//     word-wise AND touches one 64th of that).
//
// All binary operations work across representation pairs. The *Into variants
// write into caller-owned scratch sets, letting the miner's search run
// allocation-free in steady state (see internal/core).
package bindset

import (
	"slices"
	"sort"

	"github.com/remi-kb/remi/internal/bitseq"
	"github.com/remi-kb/remi/internal/kb"
)

// denseFraction sets the representation threshold: a set switches to the
// bitmap once it holds more than universe/denseFraction elements, i.e. at a
// density of 1/16. At that point the bitmap (universe/8 bytes) costs at most
// twice the slice's 4·card bytes while intersections drop from O(card) merge
// steps to O(universe/64) word ANDs — a win for every denser set.
const denseFraction = 16

// GallopRatio is the slice/slice skew beyond which set operations gallop
// (exponential search in the larger side) instead of merging linearly. It
// is exported so every sorted-slice probe in the engine (here and in
// internal/expr's HoldsFor paths) shares one tuning constant.
const GallopRatio = 16

// Set is a set of entity ids drawn from a universe of kb.NumEntities()
// entities (ids are 1-based). Sets built by From* or the allocating
// operations are immutable by convention and may share storage (with the KB
// or a run's memo of binding sets): callers must not mutate what Slice
// returns. Only the *Into operations mutate their receiver, which must
// therefore own its buffers and must not alias an operand.
type Set struct {
	universe int
	card     int
	dense    bool
	sorted   []kb.EntID // live representation when !dense
	words    []uint64   // live representation when dense
}

// wordsLen returns the bitmap length for a universe of n 1-based ids.
func wordsLen(n int) int { return (n + 63) / 64 }

// isDenseCard reports whether a set of the given cardinality should use the
// bitmap representation.
func isDenseCard(card, universe int) bool {
	return universe > 0 && card*denseFraction >= universe
}

// FromSorted wraps an ascending, duplicate-free id slice as a Set, choosing
// the representation by density. The slice is retained when the sparse
// representation is kept, so it must stay unmodified for the life of the Set
// (KB-owned and memoised slices qualify).
func FromSorted(ids []kb.EntID, universe int) Set {
	if !isDenseCard(len(ids), universe) {
		return Set{universe: universe, card: len(ids), sorted: ids}
	}
	s := Set{universe: universe, card: len(ids), dense: true, words: make([]uint64, wordsLen(universe))}
	for _, e := range ids {
		s.words[(e-1)/64] |= 1 << (uint(e-1) % 64)
	}
	return s
}

// Card returns the number of elements (O(1) for both representations).
func (s Set) Card() int { return s.card }

// IsEmpty reports whether the set has no elements.
func (s Set) IsEmpty() bool { return s.card == 0 }

// Dense reports whether the set currently uses the bitmap representation.
func (s Set) Dense() bool { return s.dense }

// Footprint returns the bytes of the buffers s holds, of both
// representations: what keeping s alive costs.
func (s Set) Footprint() int { return 4*cap(s.sorted) + 8*cap(s.words) }

// DropSpare releases the buffer of the representation s is not using (an
// *Into result keeps both for reuse), so that s holds only its elements'
// storage. The receiver must own its buffers.
func (s *Set) DropSpare() {
	if s.dense {
		s.sorted = nil
	} else {
		s.words = nil
	}
}

// Contains reports whether e is in the set.
func (s Set) Contains(e kb.EntID) bool {
	if s.dense {
		i := int(e) - 1
		if i < 0 || i >= s.universe {
			return false
		}
		return s.words[i/64]&(1<<(uint(i)%64)) != 0
	}
	i := sort.Search(len(s.sorted), func(i int) bool { return s.sorted[i] >= e })
	return i < len(s.sorted) && s.sorted[i] == e
}

// Iterate calls fn with every element in ascending order, stopping early
// when fn returns false.
func (s Set) Iterate(fn func(kb.EntID) bool) {
	if s.dense {
		bitseq.IterateOnes(s.words, func(i int) bool { return fn(kb.EntID(i + 1)) })
		return
	}
	for _, e := range s.sorted {
		if !fn(e) {
			return
		}
	}
}

// Slice returns the elements as an ascending slice. For sparse sets this is
// the internal (possibly shared) slice — callers must not modify it; dense
// sets are materialized into a fresh slice.
func (s Set) Slice() []kb.EntID {
	if !s.dense {
		return s.sorted
	}
	return s.AppendTo(make([]kb.EntID, 0, s.card))
}

// AppendTo appends the elements in ascending order to dst and returns it.
func (s Set) AppendTo(dst []kb.EntID) []kb.EntID {
	s.Iterate(func(e kb.EntID) bool { dst = append(dst, e); return true })
	return dst
}

// EqualSorted reports whether the set holds exactly the ids of the ascending,
// duplicate-free slice.
func (s Set) EqualSorted(ids []kb.EntID) bool {
	if s.card != len(ids) {
		return false
	}
	if !s.dense {
		for i, e := range s.sorted {
			if ids[i] != e {
				return false
			}
		}
		return true
	}
	for _, e := range ids {
		if !s.Contains(e) {
			return false
		}
	}
	return true
}

// Equal reports whether two sets hold the same elements, whatever their
// representations.
func Equal(a, b Set) bool {
	if a.card != b.card {
		return false
	}
	if a.dense && b.dense {
		for i := range a.words {
			if a.words[i] != b.words[i] {
				return false
			}
		}
		return true
	}
	if !a.dense {
		return b.EqualSorted(a.sorted)
	}
	return a.EqualSorted(b.sorted)
}

// Intersect returns a ∩ b in a freshly allocated set.
func Intersect(a, b Set) Set {
	var dst Set
	dst.IntersectInto(a, b)
	return dst
}

// IntersectInto computes a ∩ b into dst, reusing dst's buffers. dst must own
// its storage (zero value or the result of a previous *Into call) and must
// not alias a or b. The result is sparse whenever either operand is sparse
// (the intersection can only shrink below the operand's density) and demotes
// a dense ∩ dense result that falls under the density threshold, so the
// adaptive invariant holds after every operation.
func (dst *Set) IntersectInto(a, b Set) {
	dst.universe = a.universe
	switch {
	case a.dense && b.dense:
		n := len(a.words)
		if cap(dst.words) < n {
			dst.words = make([]uint64, n)
		}
		dst.words = dst.words[:n]
		dst.card = bitseq.AndWords(dst.words, a.words, b.words)
		dst.dense = true
		if !isDenseCard(dst.card, dst.universe) {
			dst.demote()
		}
	case a.dense: // b sparse: filter b through a's bitmap
		dst.filterInto(b.sorted, a)
	case b.dense:
		dst.filterInto(a.sorted, b)
	default:
		// Bound the result by the smaller operand so a cold buffer is sized
		// in one allocation instead of append-growth; a warm scratch buffer
		// is simply reused.
		bound := len(a.sorted)
		if len(b.sorted) < bound {
			bound = len(b.sorted)
		}
		if cap(dst.sorted) < bound {
			dst.sorted = make([]kb.EntID, 0, bound)
		}
		dst.sorted = AppendIntersection(dst.sorted[:0], a.sorted, b.sorted)
		dst.card = len(dst.sorted)
		dst.dense = false
	}
}

// filterInto keeps the ids of sorted that are set in the dense set d.
func (dst *Set) filterInto(sorted []kb.EntID, d Set) {
	if cap(dst.sorted) < len(sorted) {
		n := len(sorted)
		if d.card < n {
			n = d.card
		}
		if cap(dst.sorted) < n {
			dst.sorted = make([]kb.EntID, 0, n)
		}
	}
	out := dst.sorted[:0]
	for _, e := range sorted {
		if d.words[(e-1)/64]&(1<<(uint(e-1)%64)) != 0 {
			out = append(out, e)
		}
	}
	dst.sorted = out
	dst.card = len(out)
	dst.dense = false
}

// demote converts a dense dst to the sparse representation in place, reusing
// the sorted buffer when it is large enough (the cardinality is known, so at
// most one exact-size allocation happens).
func (dst *Set) demote() {
	if cap(dst.sorted) < dst.card {
		dst.sorted = make([]kb.EntID, 0, dst.card)
	}
	out := dst.sorted[:0]
	bitseq.IterateOnes(dst.words, func(i int) bool {
		out = append(out, kb.EntID(i+1))
		return true
	})
	dst.sorted = out
	dst.dense = false
}

// UnionSlices returns the union of several ascending, duplicate-free id
// slices as a Set: a bitmap accumulation when the combined input is within a
// factor of the universe's word count (one bit-set per element beats any
// comparison-based merge there), and a k-way heap merge otherwise —
// replacing the previous concat-and-sort, which cost O(n log n) comparisons
// on inputs that are already sorted.
func UnionSlices(sets [][]kb.EntID, universe int) Set {
	total := 0
	nonEmpty := 0
	for _, s := range sets {
		total += len(s)
		if len(s) > 0 {
			nonEmpty++
		}
	}
	switch nonEmpty {
	case 0:
		return Set{universe: universe}
	case 1:
		for _, s := range sets {
			if len(s) > 0 {
				return FromSorted(s, universe)
			}
		}
	}
	if total >= wordsLen(universe) {
		out := Set{universe: universe, dense: true, words: make([]uint64, wordsLen(universe))}
		for _, s := range sets {
			for _, e := range s {
				out.words[(e-1)/64] |= 1 << (uint(e-1) % 64)
			}
		}
		out.card = bitseq.PopCount(out.words)
		if !isDenseCard(out.card, universe) {
			out.demote()
		}
		return out
	}
	if nonEmpty == 2 {
		var ab [2][]kb.EntID
		i := 0
		for _, s := range sets {
			if len(s) > 0 {
				ab[i] = s
				i++
			}
		}
		return FromSorted(mergeUnion(make([]kb.EntID, 0, total), ab[0], ab[1]), universe)
	}
	return FromSorted(kwayUnion(make([]kb.EntID, 0, total), sets), universe)
}

// AppendIntersection appends a ∩ b of two ascending, duplicate-free slices
// to dst. When the inputs are heavily skewed it gallops: each element of the
// small side is located in the large side by exponential search from a
// moving cursor, for O(small · log(large/small)) instead of O(small +
// large). Otherwise it merges without data-dependent branches: the
// candidate is stored unconditionally and kept by advancing the output
// length, and both cursors advance by comparison results, so the loop gives
// the branch predictor nothing to miss on interleaved inputs.
func AppendIntersection(dst []kb.EntID, a, b []kb.EntID) []kb.EntID {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return dst
	}
	if len(b) >= GallopRatio*len(a) {
		j := 0
		for _, x := range a {
			j += Gallop(b[j:], x)
			if j >= len(b) {
				break
			}
			if b[j] == x {
				dst = append(dst, x)
				j++
			}
		}
		return dst
	}
	n := len(dst)
	out := slices.Grow(dst, len(a))[:n+len(a)]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		out[n] = x
		n += b2i(x == y)
		i += b2i(x <= y)
		j += b2i(y <= x)
	}
	return out[:n]
}

// b2i is 1 for true and 0 for false; the compiler lowers it to a flag set,
// not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Gallop returns the first index i of the ascending slice b with b[i] >= x,
// probing exponentially before binary-searching the final window. It is the
// shared building block of every skewed sorted-slice operation in the
// engine.
func Gallop(b []kb.EntID, x kb.EntID) int {
	if len(b) == 0 || b[0] >= x {
		return 0
	}
	lo, hi := 0, 1
	for hi < len(b) && b[hi] < x {
		lo = hi
		hi *= 2
	}
	if hi > len(b) {
		hi = len(b)
	}
	return lo + 1 + sort.Search(hi-lo-1, func(i int) bool { return b[lo+1+i] >= x })
}

// mergeUnion appends the two-way sorted union (deduplicated) to dst.
func mergeUnion(dst []kb.EntID, a, b []kb.EntID) []kb.EntID {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	dst = append(dst, b[j:]...)
	return dst
}

// kwayUnion appends the deduplicated union of many ascending slices to dst
// using a binary min-heap of per-slice cursors.
func kwayUnion(dst []kb.EntID, sets [][]kb.EntID) []kb.EntID {
	type cursor struct {
		val kb.EntID
		si  int // index into sets
		idx int // next position within sets[si]
	}
	h := make([]cursor, 0, len(sets))
	for si, s := range sets {
		if len(s) > 0 {
			h = append(h, cursor{val: s[0], si: si, idx: 1})
		}
	}
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			min := i
			if l < len(h) && h[l].val < h[min].val {
				min = l
			}
			if r < len(h) && h[r].val < h[min].val {
				min = r
			}
			if min == i {
				return
			}
			h[i], h[min] = h[min], h[i]
			i = min
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	for len(h) > 0 {
		top := h[0]
		if len(dst) == 0 || dst[len(dst)-1] != top.val {
			dst = append(dst, top.val)
		}
		if s := sets[top.si]; top.idx < len(s) {
			h[0].val = s[top.idx]
			h[0].idx++
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(0)
	}
	return dst
}
