package remi

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// TestMineBatchFacade: a batch mined through System.MineContext from two
// goroutines gives per-set results identical to mining each set alone,
// repeats included, and failures stay per-set.
func TestMineBatchFacade(t *testing.T) {
	sys := tinySystem(t)
	sets := [][]string{
		{tinyNS + "Rennes", tinyNS + "Nantes"},
		{tinyNS + "Paris"},
		{tinyNS + "Nantes", tinyNS + "Rennes"}, // repeat of set 0, reordered
		{tinyNS + "Nowhere"},                   // unknown entity: per-set error
		{},                                     // empty: per-set error
		{tinyNS + "Lyon", tinyNS + "Marseille"},
	}
	results := make([]*Result, len(sets))
	errs := make([]error, len(sets))
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(sets); i += 2 {
				results[i], errs[i] = sys.MineContext(context.Background(), sets[i])
			}
		}(w)
	}
	wg.Wait()
	for i, set := range sets {
		switch i {
		case 3:
			if !errors.Is(errs[i], ErrUnknownEntity) {
				t.Fatalf("set %d: err = %v, want ErrUnknownEntity", i, errs[i])
			}
			continue
		case 4:
			if errs[i] == nil {
				t.Fatalf("set %d: empty set mined without error", i)
			}
			continue
		}
		if errs[i] != nil {
			t.Fatalf("set %d: unexpected error %v", i, errs[i])
		}
		want, err := sys.MineContext(context.Background(), set)
		if err != nil {
			t.Fatalf("sequential set %d: %v", i, err)
		}
		got := results[i]
		if got.Found != want.Found {
			t.Fatalf("set %d: found %v, want %v", i, got.Found, want.Found)
		}
		if got.Expression != want.Expression || got.Bits != want.Bits ||
			got.NL != want.NL || got.SPARQL != want.SPARQL {
			t.Fatalf("set %d: batch solution %+v differs from sequential %+v",
				i, got.Solution, want.Solution)
		}
	}
	if results[2].Expression != results[0].Expression || results[2].Bits != results[0].Bits {
		t.Fatalf("reordered repeat %q (%v bits) differs from set 0 %q (%v bits)",
			results[2].Expression, results[2].Bits, results[0].Expression, results[0].Bits)
	}
}

// TestWithProgress: a progress subscriber of a sequential top-1 mine receives
// one event, the returned solution (the search pops conjunctions in cost
// order, so its first RE is its answer), without altering the result.
func TestWithProgress(t *testing.T) {
	sys := tinySystem(t)
	targets := []string{tinyNS + "Rennes", tinyNS + "Nantes"}
	want, err := sys.Mine(targets)
	if err != nil {
		t.Fatal(err)
	}
	var progress []Progress
	res, err := sys.Mine(targets, WithProgress(func(p Progress) { progress = append(progress, p) }))
	if err != nil {
		t.Fatal(err)
	}
	if res.Expression != want.Expression || res.Bits != want.Bits {
		t.Fatalf("WithProgress changed the result: %q (%v bits), want %q (%v bits)",
			res.Expression, res.Bits, want.Expression, want.Bits)
	}
	if len(progress) != 1 {
		t.Fatalf("%d progress events delivered, want 1: %+v", len(progress), progress)
	}
	if p := progress[0]; p.Kind != "new_best" || p.Expression != res.Expression || p.Bits != res.Bits {
		t.Fatalf("progress event %+v does not match the solution %q (%v bits)",
			p, res.Expression, res.Bits)
	}
}

// TestMineBatchFacadeBadOptions: MetricCustom before any SetProminence call
// fails every mine, whichever set it names.
func TestMineBatchFacadeBadOptions(t *testing.T) {
	sys := tinySystem(t)
	if _, err := sys.Mine([]string{tinyNS + "Paris"}, WithMetric(MetricCustom)); err == nil {
		t.Fatal("MetricCustom without SetProminence accepted")
	}
}
