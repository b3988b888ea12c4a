// Package stats provides the small statistical toolkit used by the
// reproduction: descriptive statistics, simple linear regression with R²
// (Equation 1 of the paper fits log-rank against log-frequency), and ranking
// helpers shared by the prominence and evaluation modules.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// MeanStd returns both the mean and the standard deviation.
func MeanStd(xs []float64) (mean, std float64) {
	return Mean(xs), StdDev(xs)
}

// Linear is a fitted line y ≈ Slope*x + Intercept with its coefficient of
// determination R2.
type Linear struct {
	Slope, Intercept, R2 float64
	N                    int
}

// FitLinear performs ordinary least squares on the point set (xs, ys).
// It returns an error when fewer than two distinct x values are provided.
func FitLinear(xs, ys []float64) (Linear, error) {
	if len(xs) != len(ys) {
		return Linear{}, fmt.Errorf("stats: mismatched lengths %d vs %d", len(xs), len(ys))
	}
	n := float64(len(xs))
	if len(xs) < 2 {
		return Linear{}, fmt.Errorf("stats: need at least 2 points, got %d", len(xs))
	}
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
		syy += ys[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return Linear{}, fmt.Errorf("stats: degenerate x values")
	}
	slope := (n*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / n

	// R² = 1 - SSres/SStot.
	meanY := sy / n
	ssTot, ssRes := 0.0, 0.0
	for i := range xs {
		fit := slope*xs[i] + intercept
		ssRes += (ys[i] - fit) * (ys[i] - fit)
		ssTot += (ys[i] - meanY) * (ys[i] - meanY)
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return Linear{Slope: slope, Intercept: intercept, R2: r2, N: len(xs)}, nil
}

// Eval returns the fitted value at x.
func (l Linear) Eval(x float64) float64 { return l.Slope*x + l.Intercept }

// RankDescending returns, for each index i of weights, its 1-based rank when
// sorting by descending weight. Ties are broken by index for determinism
// (lower index ranks first), matching a stable sort of the input.
func RankDescending(weights []float64) []int {
	idx := make([]int, len(weights))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return weights[idx[a]] > weights[idx[b]] })
	ranks := make([]int, len(weights))
	for pos, i := range idx {
		ranks[i] = pos + 1
	}
	return ranks
}

// PrecisionAtK computes |topK(a) ∩ topK(b)| / k where a and b are rankings
// given as ordered slices of item identifiers (best first).
func PrecisionAtK[T comparable](a, b []T, k int) float64 {
	if k <= 0 {
		return 0
	}
	ka, kb := k, k
	if ka > len(a) {
		ka = len(a)
	}
	if kb > len(b) {
		kb = len(b)
	}
	set := make(map[T]struct{}, ka)
	for _, x := range a[:ka] {
		set[x] = struct{}{}
	}
	inter := 0
	for _, x := range b[:kb] {
		if _, ok := set[x]; ok {
			inter++
		}
	}
	return float64(inter) / float64(k)
}

// AveragePrecisionSingle returns the average precision of a ranking when a
// single item is relevant: 1/position of the relevant item (0 if absent).
func AveragePrecisionSingle[T comparable](ranking []T, relevant T) float64 {
	for i, x := range ranking {
		if x == relevant {
			return 1.0 / float64(i+1)
		}
	}
	return 0
}
