package delta

// A live write must cost its edit, not its KB: folding a one-fact patch into
// a snapshot-opened KB, and starting an overlay over one, allocate nothing
// that grows with the facts they leave alone. This pins the property with a
// two-point scaling measurement, like the snapshot open's.

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/remi-kb/remi/internal/kb"
	"github.com/remi-kb/remi/internal/rdf"
)

func TestLivePathAllocIndependentOfUntouchedFacts(t *testing.T) {
	const nEnt = 1_000
	ent := func(i int) rdf.Term { return iri(fmt.Sprintf("e%d", i)) }
	measure := func(untouched int) (facts int, patchAlloc, newAlloc int64) {
		// The touched predicate is a fixed ring over every entity, so the
		// entity count and the touched runs are the same at both sizes; the
		// untouched facts (and the inverse facts they feed) are random.
		rng := rand.New(rand.NewSource(5))
		trs := make([]rdf.Triple, 0, nEnt+untouched)
		for i := range nEnt {
			trs = append(trs, rdf.Triple{S: ent(i), P: iri("touched"), O: ent((i + 1) % nEnt)})
		}
		for range untouched {
			p := iri(fmt.Sprintf("u%d", rng.Intn(8)))
			trs = append(trs, rdf.Triple{S: ent(rng.Intn(nEnt)), P: p, O: ent(rng.Intn(nEnt))})
		}
		path := filepath.Join(t.TempDir(), "kb.snap")
		if err := build(t, 0.05, trs).WriteSnapshotFile(path); err != nil {
			t.Fatal(err)
		}
		// Each measurement gets a freshly opened base with nothing derived.
		open := func() *kb.KB {
			k, err := kb.OpenSnapshot(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { k.Close() })
			return k
		}
		base := open()
		if base.NumEntities() != nEnt {
			t.Fatalf("test setup: %d entities, want %d", base.NumEntities(), nEnt)
		}
		touched := base.MustPredicateID("http://e/touched")
		s, o := base.MustEntityID("http://e/e0"), base.MustEntityID("http://e/e5")
		patch := kb.Patch{Adds: map[kb.PredID][]kb.Pair{touched: {{S: s, O: o}}}}

		alloc := func(f func()) int64 {
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			f()
			runtime.ReadMemStats(&m1)
			return int64(m1.TotalAlloc - m0.TotalAlloc)
		}
		patchAlloc = alloc(func() {
			k2, err := base.ApplyPatch(patch)
			if err != nil {
				t.Fatal(err)
			}
			k2.Close()
		})
		fresh := open()
		var ov *Overlay
		newAlloc = alloc(func() { ov = New(fresh) })
		ov.Close()
		return base.NumFacts(), patchAlloc, newAlloc
	}

	smallFacts, smallPatch, smallNew := measure(4_000)
	bigFacts, bigPatch, bigNew := measure(80_000)
	if bigFacts < 10*smallFacts {
		t.Fatalf("test setup: fact counts too close to measure scaling (%d vs %d)", smallFacts, bigFacts)
	}
	// A pair list over the KB costs 8 bytes per fact; a patch or an overlay
	// that only reads the runs it needs pays nothing that grows with them.
	for _, c := range []struct {
		name       string
		small, big int64
	}{{"ApplyPatch", smallPatch, bigPatch}, {"delta.New", smallNew, bigNew}} {
		if perFact := float64(c.big-c.small) / float64(bigFacts-smallFacts); perFact > 1 {
			t.Errorf("%s allocates %.2f bytes per untouched fact (%d facts → %dB, %d facts → %dB)",
				c.name, perFact, smallFacts, c.small, bigFacts, c.big)
		}
	}
}
