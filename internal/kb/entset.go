package kb

// EntSet is an immutable dense set of entity ids backed by a flat bitmap
// (one bit per entity of the KB's universe, the same word layout as
// internal/bitseq). It replaces map[EntID]bool on membership-heavy paths —
// the prominence probe inside the subgraph enumerator fires once per
// adjacency edge, and a bitmap test is one shift and one AND against a word
// array that fits in cache, versus a hash and bucket walk per probe.
//
// A nil *EntSet behaves as the empty set, so callers can probe an optional
// set without a nil check.
type EntSet struct {
	words []uint64
	card  int
}

// NewEntSet builds a set over a 1-based universe of n entities from a list
// of member ids (duplicates are allowed and collapse).
func NewEntSet(ids []EntID, universe int) *EntSet {
	s := &EntSet{words: make([]uint64, (universe+63)/64)}
	for _, e := range ids {
		i := int(e) - 1
		if i < 0 || i >= universe {
			continue
		}
		w := &s.words[i/64]
		bit := uint64(1) << (uint(i) % 64)
		if *w&bit == 0 {
			*w |= bit
			s.card++
		}
	}
	return s
}

// Contains reports whether e is in the set. Safe on a nil receiver.
func (s *EntSet) Contains(e EntID) bool {
	if s == nil {
		return false
	}
	i := int(e) - 1
	if i < 0 || i >= len(s.words)*64 {
		return false
	}
	return s.words[i/64]&(1<<(uint(i)%64)) != 0
}

// Card returns the number of members. Safe on a nil receiver.
func (s *EntSet) Card() int {
	if s == nil {
		return 0
	}
	return s.card
}
