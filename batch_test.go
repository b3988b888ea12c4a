package remi

import (
	"context"
	"errors"
	"testing"
)

// TestMineBatchFacade: MineBatch entries are identical to per-set
// MineContext calls, repeats included, and failures stay per-set.
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
	br, err := sys.MineBatch(context.Background(), sets, nil, WithBatchConcurrency(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(br.Entries) != len(sets) {
		t.Fatalf("%d entries for %d sets", len(br.Entries), len(sets))
	}
	for i, set := range sets {
		e := br.Entries[i]
		switch i {
		case 3:
			if !errors.Is(e.Err, ErrUnknownEntity) {
				t.Fatalf("set %d: err = %v, want ErrUnknownEntity", i, e.Err)
			}
			continue
		case 4:
			if !errors.Is(e.Err, ErrEmptyTargetSet) {
				t.Fatalf("set %d: err = %v, want ErrEmptyTargetSet", i, e.Err)
			}
			continue
		}
		if e.Err != nil {
			t.Fatalf("set %d: unexpected error %v", i, e.Err)
		}
		want, err := sys.MineContext(context.Background(), set)
		if err != nil {
			t.Fatalf("sequential set %d: %v", i, err)
		}
		if e.Result.Found != want.Found {
			t.Fatalf("set %d: found %v, want %v", i, e.Result.Found, want.Found)
		}
		if e.Result.Expression != want.Expression || e.Result.Bits != want.Bits ||
			e.Result.NL != want.NL || e.Result.SPARQL != want.SPARQL {
			t.Fatalf("set %d: batch solution %+v differs from sequential %+v",
				i, e.Result.Solution, want.Solution)
		}
	}
	if br.CacheMisses == 0 {
		t.Fatal("batch evaluator totals not recorded")
	}
}

// TestMineBatchEachFacade: a non-nil each receives every entry exactly
// once, invalid sets included, and the streamed entries are the same values
// the returned BatchResult holds.
func TestMineBatchEachFacade(t *testing.T) {
	sys := tinySystem(t)
	sets := [][]string{
		{tinyNS + "Rennes", tinyNS + "Nantes"},
		{tinyNS + "Nowhere"}, // unknown entity: delivered before mining
		{tinyNS + "Paris"},
		{tinyNS + "Nantes", tinyNS + "Rennes"}, // repeat of set 0
	}
	got := make(map[int]BatchEntry)
	br, err := sys.MineBatch(context.Background(), sets, func(i int, e BatchEntry) {
		if _, dup := got[i]; dup {
			t.Errorf("set %d delivered twice", i)
		}
		got[i] = e
	}, WithBatchConcurrency(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(sets) {
		t.Fatalf("callback fired for %d sets, want %d", len(got), len(sets))
	}
	if !errors.Is(got[1].Err, ErrUnknownEntity) {
		t.Fatalf("set 1: err = %v, want ErrUnknownEntity", got[1].Err)
	}
	for i, e := range br.Entries {
		g := got[i]
		if (g.Err == nil) != (e.Err == nil) || g.Result != e.Result {
			t.Fatalf("set %d: streamed entry %+v differs from returned %+v", i, g, e)
		}
	}
	if br.Entries[3].Result.Expression != br.Entries[0].Result.Expression {
		t.Fatalf("repeat mined %q, first occurrence %q", br.Entries[3].Result.Expression, br.Entries[0].Result.Expression)
	}
}

// TestWithProgress: a progress subscriber receives each incumbent
// improvement, ending on the returned solution, without altering the result.
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
	if len(progress) == 0 {
		t.Fatal("no progress events delivered")
	}
	last := progress[len(progress)-1]
	if last.Kind != "new_best" || last.Expression != res.Expression || last.Bits != res.Bits {
		t.Fatalf("final progress event %+v does not match the solution %q (%v bits)",
			last, res.Expression, res.Bits)
	}
	for i := 1; i < len(progress); i++ {
		if progress[i].Bits >= progress[i-1].Bits {
			t.Fatalf("incumbent did not improve monotonically: %v then %v bits",
				progress[i-1].Bits, progress[i].Bits)
		}
	}
}

// TestMineBatchFacadeBadOptions: invalid options fail the whole batch, not
// per set (there is nothing per-set about them).
func TestMineBatchFacadeBadOptions(t *testing.T) {
	sys := tinySystem(t)
	_, err := sys.MineBatch(context.Background(), [][]string{{tinyNS + "Paris"}}, nil, WithMetric(MetricCustom))
	if err == nil {
		t.Fatal("MetricCustom without SetProminence accepted")
	}
}
