package expr

import (
	"slices"

	"github.com/remi-kb/remi/internal/bindset"
	"github.com/remi-kb/remi/internal/kb"
)

// The set probes below switch from a linear merge to bindset.Gallop
// (exponential search in the larger side) past the shared
// bindset.GallopRatio skew. The KB's posting lists are Zipf-shaped, so a
// tiny Objects run meeting the Subjects run of a popular tail entity is the
// common case on the queue-build hot path — galloping turns those from
// O(small+large) into O(small·log(large/small)).

// IntersectSorted returns the intersection of two ascending EntID slices.
func IntersectSorted(a, b []kb.EntID) []kb.EntID {
	return bindset.AppendIntersection(make([]kb.EntID, 0, min(len(a), len(b))), a, b)
}

// HasIntersection reports whether two ascending slices share an element,
// galloping through the larger side when the lengths are heavily skewed.
func HasIntersection(a, b []kb.EntID) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return false
	}
	if len(b) >= bindset.GallopRatio*len(a) {
		j := 0
		for _, x := range a {
			j += bindset.Gallop(b[j:], x)
			if j >= len(b) {
				return false
			}
			if b[j] == x {
				return true
			}
		}
		return false
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// HasIntersection3 reports whether three ascending slices share a common
// element, without materializing any pairwise intersection: the classic
// max-pivot merge, galloping each cursor forward when its slice lags far
// behind the pivot. HoldsFor uses it for the path+star and 3-closed-atom
// membership tests, which the queue build fires once per candidate per
// extra target.
func HasIntersection3(a, b, c []kb.EntID) bool {
	if len(a) == 0 || len(b) == 0 || len(c) == 0 {
		return false
	}
	i, j, l := 0, 0, 0
	for {
		x := a[i]
		if b[j] > x {
			x = b[j]
		}
		if c[l] > x {
			x = c[l]
		}
		var ok bool
		if i, ok = advanceTo(a, i, x); !ok {
			return false
		}
		if j, ok = advanceTo(b, j, x); !ok {
			return false
		}
		if l, ok = advanceTo(c, l, x); !ok {
			return false
		}
		if a[i] == x && b[j] == x && c[l] == x {
			return true
		}
	}
}

// advanceTo moves cursor i of the ascending slice s to the first position
// with s[i] >= x, galloping through large gaps; ok is false when the slice
// is exhausted.
func advanceTo(s []kb.EntID, i int, x kb.EntID) (pos int, ok bool) {
	if s[i] >= x {
		return i, true
	}
	i += bindset.Gallop(s[i:], x)
	return i, i < len(s)
}

// EqualSorted reports whether two ascending slices hold the same elements.
func EqualSorted(a, b []kb.EntID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// SortIDs sorts a slice of entity ids ascending in place and returns it.
func SortIDs(ids []kb.EntID) []kb.EntID {
	slices.Sort(ids)
	return ids
}
