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
