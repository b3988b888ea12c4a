package core

import (
	"context"
	"math"
	"testing"
	"time"

	"github.com/remi-kb/remi/internal/kb"
)

// TestMineContextCancelledObserved: an already-cancelled context must stop
// both the sequential and the parallel miner promptly, reported as a
// timeout (cancellation and deadline are unified).
func TestMineContextCancelledObserved(t *testing.T) {
	k, est, d := dbpediaEnv(t)
	id, _ := k.EntityID(rdfIRI(d.Members["Person"][0]))
	for _, workers := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.Workers = workers
		m := NewMiner(k, est, cfg)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		start := time.Now()
		res, err := m.MineContext(ctx, []kb.EntID{id})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stats.TimedOut {
			t.Fatalf("workers=%d: cancellation not observed", workers)
		}
		if time.Since(start) > 10*time.Second {
			t.Fatalf("workers=%d: cancelled mine did not return promptly", workers)
		}
	}
}

// TestMineContextDeadlineMidSearch: a context deadline firing mid-run must
// stop the search like Config.Timeout does, on both paths, even when a much
// larger Config.Timeout is also set (whichever limit fires first wins).
func TestMineContextDeadlineMidSearch(t *testing.T) {
	k, est, d := dbpediaEnv(t)
	id, _ := k.EntityID(rdfIRI(d.Members["Person"][0]))
	for _, workers := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.Workers = workers
		cfg.Timeout = time.Hour
		m := NewMiner(k, est, cfg)
		ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
		start := time.Now()
		res, err := m.MineContext(ctx, []kb.EntID{id})
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stats.TimedOut {
			t.Fatalf("workers=%d: context deadline not honored", workers)
		}
		if time.Since(start) > 10*time.Second {
			t.Fatalf("workers=%d: context deadline not prompt", workers)
		}
	}
}

// TestMineContextCancelMidDFS cancels from inside the search itself (via
// the trace hook, honored by the sequential miner) so the cancellation is
// guaranteed to arrive while the DFS is running.
func TestMineContextCancelMidDFS(t *testing.T) {
	k, est, d := dbpediaEnv(t)
	id, _ := k.EntityID(rdfIRI(d.Members["Person"][0]))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	visits := 0
	cfg := DefaultConfig()
	cfg.Trace = func(e Event) {
		if e.Kind == EventVisit {
			if visits++; visits == 3 {
				cancel()
			}
		}
	}
	m := NewMiner(k, est, cfg)
	res, err := m.MineContext(ctx, []kb.EntID{id})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.TimedOut {
		t.Fatal("mid-DFS cancellation not observed")
	}
	if visits < 3 {
		t.Fatalf("search never reached the cancellation point (%d visits)", visits)
	}
}

// TestTimedOutSequentialRunHasNoIncumbent pins what a timeout returns now
// that the sequential search pops conjunctions in cost order: its first RE
// is its answer, so a run stopped before the optimum returns no expression
// at all. The DFS it replaced had found a costlier RE by then and returned
// that loose incumbent. The run is cancelled at its first visit; the miner
// notices at its next root, long before the two-conjunct answer for
// {Guyana, Suriname}.
func TestTimedOutSequentialRunHasNoIncumbent(t *testing.T) {
	k, est := tinySetup(t)
	targets := []kb.EntID{mustID(t, k, "Guyana"), mustID(t, k, "Suriname")}
	full, err := NewMiner(k, est, DefaultConfig()).Mine(targets)
	if err != nil || !full.Found() || len(full.Expression) < 2 {
		t.Fatalf("the uncancelled run should find a multi-conjunct RE: %v, %v", full, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := DefaultConfig()
	cfg.Trace = func(e Event) {
		if e.Kind == EventVisit {
			cancel()
		}
	}
	res, err := NewMiner(k, est, cfg).MineContext(ctx, targets)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.TimedOut {
		t.Fatal("cancellation not observed")
	}
	if res.Found() || len(res.Solutions) != 0 || !math.IsInf(res.Bits, 1) {
		t.Fatalf("a run stopped before its optimum returned %s (%v bits, %d solutions)",
			res.Expression.Format(k), res.Bits, len(res.Solutions))
	}

	// The DFS's first RE on this set is costlier than the answer: that is
	// the incumbent a timed-out depth-first run would have returned.
	var first float64
	dfsCfg := DefaultConfig()
	dfsCfg.Trace = func(e Event) {
		if e.Kind == EventNewBest && first == 0 {
			first = e.Cost
		}
	}
	if mineDFS(NewMiner(k, est, dfsCfg), targets); first <= full.Bits {
		t.Fatalf("the DFS's first RE costs %v bits, the answer %v: no loose incumbent to pin", first, full.Bits)
	}
}

// TestMineContextBackgroundUnlimited: a background context with no
// Config.Timeout must not report a timeout.
func TestMineContextBackgroundUnlimited(t *testing.T) {
	k, est, d := dbpediaEnv(t)
	id, _ := k.EntityID(rdfIRI(d.Members["Settlement"][0]))
	m := NewMiner(k, est, DefaultConfig())
	res, err := m.MineContext(context.Background(), []kb.EntID{id})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TimedOut {
		t.Fatal("unbounded run reported a timeout")
	}
}
