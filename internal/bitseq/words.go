// Package bitseq provides word-level bulk operations over raw little-endian
// bit vectors ([]uint64, bit i of the vector = word i/64, bit i%64). They
// back the dense representation of internal/bindset.
package bitseq

import "math/bits"

const wordBits = 64

// AndWords stores a AND b into dst and returns the number of set bits of the
// result. The three slices must have the same length; dst may alias a or b.
func AndWords(dst, a, b []uint64) int {
	n := 0
	for i := range dst {
		w := a[i] & b[i]
		dst[i] = w
		n += bits.OnesCount64(w)
	}
	return n
}

// OrWords stores a OR b into dst and returns the number of set bits of the
// result. The three slices must have the same length; dst may alias a or b.
func OrWords(dst, a, b []uint64) int {
	n := 0
	for i := range dst {
		w := a[i] | b[i]
		dst[i] = w
		n += bits.OnesCount64(w)
	}
	return n
}

// AndWordsMany stores a AND bs[j] into dsts[j] for every j and adds the
// result popcounts into cards[j] (callers zero cards first). All word slices
// must share a's length; dsts[j] may alias bs[j] but not a. The loop runs
// word-at-a-time across the batch: each word of a is loaded once and ANDed
// against the corresponding word of every candidate, so intersecting one
// prefix set against many candidates touches a only once instead of once
// per candidate.
func AndWordsMany(dsts [][]uint64, a []uint64, bs [][]uint64, cards []int) {
	for i, aw := range a {
		if aw == 0 {
			for j := range dsts {
				dsts[j][i] = 0
			}
			continue
		}
		for j := range dsts {
			w := aw & bs[j][i]
			dsts[j][i] = w
			cards[j] += bits.OnesCount64(w)
		}
	}
}

// PopCount returns the number of set bits in words.
func PopCount(words []uint64) int {
	n := 0
	for _, w := range words {
		n += bits.OnesCount64(w)
	}
	return n
}

// IterateOnes calls fn with the index of every set bit in ascending order,
// stopping early when fn returns false.
func IterateOnes(words []uint64, fn func(i int) bool) {
	for wi, w := range words {
		base := wi * wordBits
		for w != 0 {
			if !fn(base + bits.TrailingZeros64(w)) {
				return
			}
			w &= w - 1
		}
	}
}
