// Package parsort sorts a slice as two halves on two goroutines. The caller
// merges the halves itself, which lets it fold work into the merge (the KB
// ingest deduplicates there) or merge into a buffer of its own.
package parsort

import "slices"

// Halves sorts the two halves of s by cmp, the upper one on a second
// goroutine, and returns them. It returns once both are sorted.
func Halves[T any](s []T, cmp func(a, b T) int) (lo, hi []T) {
	lo, hi = s[:len(s)/2], s[len(s)/2:]
	done := make(chan struct{})
	go func() {
		defer close(done)
		slices.SortFunc(hi, cmp)
	}()
	slices.SortFunc(lo, cmp)
	<-done
	return lo, hi
}
