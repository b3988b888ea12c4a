package main

import (
	"math"
	"slices"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by the
// nearest-rank rule: the smallest sample with at least q·n samples at or
// below it. Nearest rank never interpolates, so a reported latency is always
// one that an op really had. No samples give 0 (the quick run has no cache
// misses to take a median of), since JSON has no NaN.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median is the conventional median (mean of the two middle samples when n is
// even); it summarises the few per-pass values, where nearest rank would
// pick one side.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// tailSamples is how many samples must lie beyond the reported tail
// percentile for it to be an estimate and not an outlier.
const tailSamples = 10

// tailQuantile is the tail percentile reported for a pass of n ops: p99, or
// with fewer than 1,000 ops the highest percentile that still has tailSamples
// samples beyond it (p75 from 40 ops, p83.3 from 60). It stops at p99 because
// beyond it the figure is the cost of the few heaviest sets of one seed, which
// no other seed shares. Below 2·tailSamples ops the rule would report less than the
// median, so the median is the tail.
func tailQuantile(n int) float64 {
	return max(0.5, min(0.99, 1-float64(tailSamples)/float64(n)))
}

// relSpread is the distance between the first and third quartile of xs as a
// share of their median, with the quartiles of Python's
// statistics.quantiles(xs, n=4) (exclusive method), which is what the driver
// computes over ten runs.
func relSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	quartile := func(i int) float64 { // as CPython: position i·(n+1)/4, 1-based
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / median(s)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// msSorted converts op latencies to sorted milliseconds.
func msSorted(lat []time.Duration) []float64 {
	out := make([]float64, len(lat))
	for i, d := range lat {
		out[i] = ms(d)
	}
	slices.Sort(out)
	return out
}
