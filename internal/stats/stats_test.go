package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	m, s := MeanStd(xs)
	if m != 5 {
		t.Fatalf("mean = %f", m)
	}
	if math.Abs(s-2) > 1e-12 {
		t.Fatalf("std = %f", s)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Fatal("empty/singleton cases wrong")
	}
}

func TestFitLinearExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 2x + 1
	fit, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-2) > 1e-12 || math.Abs(fit.Intercept-1) > 1e-12 {
		t.Fatalf("fit = %+v", fit)
	}
	if math.Abs(fit.R2-1) > 1e-12 {
		t.Fatalf("R² = %f", fit.R2)
	}
	if got := fit.Eval(10); math.Abs(got-21) > 1e-12 {
		t.Fatalf("Eval(10) = %f", got)
	}
}

func TestFitLinearNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var xs, ys []float64
	for i := 0; i < 200; i++ {
		x := float64(i) / 10
		xs = append(xs, x)
		ys = append(ys, 3*x-2+rng.NormFloat64()*0.1)
	}
	fit, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-3) > 0.05 || fit.R2 < 0.99 {
		t.Fatalf("fit = %+v", fit)
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, err := FitLinear([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single point accepted")
	}
	if _, err := FitLinear([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Fatal("degenerate x accepted")
	}
	if _, err := FitLinear([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
}

func TestRankDescending(t *testing.T) {
	ranks := RankDescending([]float64{0.5, 2.0, 1.0})
	want := []int{3, 1, 2}
	for i := range want {
		if ranks[i] != want[i] {
			t.Fatalf("ranks = %v", ranks)
		}
	}
	// Ties break by index.
	ranks = RankDescending([]float64{1, 1, 1})
	for i, r := range ranks {
		if r != i+1 {
			t.Fatalf("tie ranks = %v", ranks)
		}
	}
}

func TestRankDescendingIsPermutation(t *testing.T) {
	f := func(ws []float64) bool {
		ranks := RankDescending(ws)
		seen := make(map[int]bool)
		for _, r := range ranks {
			if r < 1 || r > len(ws) || seen[r] {
				return false
			}
			seen[r] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPrecisionAtK(t *testing.T) {
	a := []int{1, 2, 3, 4, 5}
	b := []int{3, 2, 9, 8, 7}
	if got := PrecisionAtK(a, b, 1); got != 0 {
		t.Fatalf("p@1 = %f", got)
	}
	if got := PrecisionAtK(a, b, 2); got != 0.5 {
		t.Fatalf("p@2 = %f", got)
	}
	if got := PrecisionAtK(a, b, 3); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Fatalf("p@3 = %f", got)
	}
	if PrecisionAtK(a, b, 0) != 0 {
		t.Fatal("p@0 should be 0")
	}
}

func TestAveragePrecisionSingle(t *testing.T) {
	r := []string{"b", "a", "c"}
	if got := AveragePrecisionSingle(r, "a"); got != 0.5 {
		t.Fatalf("AP = %f", got)
	}
	if got := AveragePrecisionSingle(r, "z"); got != 0 {
		t.Fatalf("AP(absent) = %f", got)
	}
	if got := AveragePrecisionSingle(r, "b"); got != 1 {
		t.Fatalf("AP(first) = %f", got)
	}
}
