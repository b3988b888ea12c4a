package bindset

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/remi-kb/remi/internal/kb"
)

// asSparse and asDense force a representation regardless of density, so every
// test can exercise all four representation pairs of each operation.
func asSparse(ids []kb.EntID, universe int) Set {
	return Set{universe: universe, card: len(ids), sorted: ids}
}

func asDense(ids []kb.EntID, universe int) Set {
	s := Set{universe: universe, card: len(ids), dense: true, words: make([]uint64, wordsLen(universe))}
	for _, e := range ids {
		s.words[(e-1)/64] |= 1 << (uint(e-1) % 64)
	}
	return s
}

func randomIDs(rng *rand.Rand, universe, n int) []kb.EntID {
	seen := make(map[kb.EntID]bool, n)
	for len(seen) < n {
		seen[kb.EntID(rng.Intn(universe)+1)] = true
	}
	out := make([]kb.EntID, 0, n)
	for e := range seen {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func refIntersect(a, b []kb.EntID) []kb.EntID {
	in := make(map[kb.EntID]bool, len(a))
	for _, e := range a {
		in[e] = true
	}
	var out []kb.EntID
	for _, e := range b {
		if in[e] {
			out = append(out, e)
		}
	}
	return out
}

func refUnion(sets ...[]kb.EntID) []kb.EntID {
	in := make(map[kb.EntID]bool)
	for _, s := range sets {
		for _, e := range s {
			in[e] = true
		}
	}
	out := make([]kb.EntID, 0, len(in))
	for e := range in {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sliceEq(a, b []kb.EntID) bool {
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

// reps returns both representations of the same logical set.
func reps(ids []kb.EntID, universe int) []Set {
	return []Set{asSparse(ids, universe), asDense(ids, universe)}
}

func TestAdaptiveRepresentation(t *testing.T) {
	universe := 1 << 12
	sparse := FromSorted(randomIDs(rand.New(rand.NewSource(1)), universe, universe/denseFraction/4), universe)
	if sparse.Dense() {
		t.Fatal("low-density set picked the bitmap representation")
	}
	dense := FromSorted(randomIDs(rand.New(rand.NewSource(2)), universe, universe/2), universe)
	if !dense.Dense() {
		t.Fatal("high-density set kept the slice representation")
	}
	if dense.Card() != universe/2 {
		t.Fatalf("dense Card = %d, want %d", dense.Card(), universe/2)
	}
}

// TestRepresentationEquivalence is the core property test of the package:
// Intersect, Card, Equal, Contains and iteration agree between the
// slice and bitmap representations on random sets of varied density.
func TestRepresentationEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 200; round++ {
		universe := 64 + rng.Intn(2048)
		na := rng.Intn(universe/2 + 1)
		nb := rng.Intn(universe/2 + 1)
		if round%5 == 0 {
			nb = rng.Intn(universe/64 + 1) // heavily skewed: exercises galloping
		}
		a := randomIDs(rng, universe, na)
		b := randomIDs(rng, universe, nb)
		wantI := refIntersect(a, b)

		for _, sa := range reps(a, universe) {
			for _, sb := range reps(b, universe) {
				got := Intersect(sa, sb)
				if !sliceEq(got.Slice(), wantI) {
					t.Fatalf("round %d: Intersect(dense=%v,%v) = %v, want %v", round, sa.Dense(), sb.Dense(), got.Slice(), wantI)
				}
				if got.Card() != len(wantI) {
					t.Fatalf("round %d: Card = %d, want %d", round, got.Card(), len(wantI))
				}
				if !got.EqualSorted(wantI) {
					t.Fatalf("round %d: EqualSorted disagrees with Slice", round)
				}
				if !Equal(sa, reps(a, universe)[1]) || !Equal(sa, reps(a, universe)[0]) {
					t.Fatalf("round %d: Equal across representations failed", round)
				}
				if Equal(sa, sb) != sliceEq(a, b) {
					t.Fatalf("round %d: Equal(%v, %v) wrong", round, a, b)
				}
			}
		}

		// Contains and iteration order.
		for _, s := range reps(a, universe) {
			var collected []kb.EntID
			s.Iterate(func(e kb.EntID) bool { collected = append(collected, e); return true })
			if !sliceEq(collected, a) {
				t.Fatalf("round %d: Iterate = %v, want %v", round, collected, a)
			}
			for _, e := range b {
				inA := false
				for _, x := range a {
					if x == e {
						inA = true
						break
					}
				}
				if s.Contains(e) != inA {
					t.Fatalf("round %d: Contains(%d) = %v, want %v", round, e, s.Contains(e), inA)
				}
			}
		}
	}
}

func TestUnionSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 100; round++ {
		universe := 64 + rng.Intn(4096)
		k := rng.Intn(8)
		sets := make([][]kb.EntID, k)
		for i := range sets {
			sets[i] = randomIDs(rng, universe, rng.Intn(universe/4+1))
		}
		want := refUnion(sets...)
		got := UnionSlices(sets, universe)
		if !sliceEq(got.Slice(), want) {
			t.Fatalf("round %d: UnionSlices = %v, want %v", round, got.Slice(), want)
		}
		if got.Card() != len(want) {
			t.Fatalf("round %d: Card = %d, want %d", round, got.Card(), len(want))
		}
	}
	// Degenerate inputs.
	if s := UnionSlices(nil, 100); s.Card() != 0 || s.Dense() {
		t.Fatal("empty UnionSlices not the empty sparse set")
	}
	one := []kb.EntID{3, 9}
	if s := UnionSlices([][]kb.EntID{nil, one, nil}, 1000); !sliceEq(s.Slice(), one) {
		t.Fatal("single-input UnionSlices wrong")
	}
}

// TestIntersectIntoScratchReuse checks the allocation-free discipline: after
// warm-up, repeated IntersectInto calls into the same scratch set do not
// allocate, across every representation pair.
func TestIntersectIntoScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	universe := 4096
	a := randomIDs(rng, universe, 2000)
	b := randomIDs(rng, universe, 1800)
	want := refIntersect(a, b)
	for _, sa := range reps(a, universe) {
		for _, sb := range reps(b, universe) {
			var dst Set
			dst.IntersectInto(sa, sb) // warm-up sizes the buffers
			allocs := testing.AllocsPerRun(50, func() {
				dst.IntersectInto(sa, sb)
			})
			if allocs != 0 {
				t.Errorf("IntersectInto(dense=%v,%v) allocates %.1f/op after warm-up", sa.Dense(), sb.Dense(), allocs)
			}
			if !dst.EqualSorted(want) {
				t.Errorf("IntersectInto(dense=%v,%v) wrong result", sa.Dense(), sb.Dense())
			}
		}
	}
}

// TestDenseIntersectDemotes checks the adaptive invariant: a dense ∩ dense
// result below the density threshold converts back to the slice form.
func TestDenseIntersectDemotes(t *testing.T) {
	universe := 1 << 14
	rng := rand.New(rand.NewSource(3))
	a := randomIDs(rng, universe, universe/4)
	b := randomIDs(rng, universe, universe/4)
	// Make the overlap tiny: shift b into a mostly disjoint range.
	for i := range b {
		b[i] = kb.EntID((int(b[i])+universe/2-1)%universe + 1)
	}
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	w := 0
	for i, e := range b {
		if i == 0 || e != b[w-1] {
			b[w] = e
			w++
		}
	}
	b = b[:w]
	got := Intersect(asDense(a, universe), asDense(b, universe))
	if !got.EqualSorted(refIntersect(a, b)) {
		t.Fatal("dense∩dense wrong")
	}
	if isDense := got.Dense(); isDense != isDenseCard(got.Card(), universe) {
		t.Fatalf("result density %v inconsistent with threshold for card %d", isDense, got.Card())
	}
}

func TestGallop(t *testing.T) {
	b := []kb.EntID{2, 4, 6, 8, 10, 12, 14, 16}
	for _, tc := range []struct {
		x    kb.EntID
		want int
	}{{1, 0}, {2, 0}, {3, 1}, {8, 3}, {15, 7}, {16, 7}, {17, 8}} {
		if got := Gallop(b, tc.x); got != tc.want {
			t.Errorf("Gallop(%d) = %d, want %d", tc.x, got, tc.want)
		}
	}
}

// TestAppendIntersection checks both kernels, the branch-free merge and the
// gallop past GallopRatio, against the map reference, and that what dst
// already holds is kept.
func TestAppendIntersection(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prefix := []kb.EntID{9, 3}
	for round := 0; round < 300; round++ {
		a := randomIDs(rng, 4000, rng.Intn(60))
		b := randomIDs(rng, 4000, rng.Intn(2000))
		want := append(slices.Clone(prefix), refIntersect(a, b)...)
		for _, args := range [][2][]kb.EntID{{a, b}, {b, a}} {
			got := AppendIntersection(slices.Clone(prefix), args[0], args[1])
			if !slices.Equal(got, want) {
				t.Fatalf("round %d (|a|=%d, |b|=%d): got %v, want %v", round, len(a), len(b), got, want)
			}
		}
	}
}

// FuzzSetAlgebra feeds arbitrary byte strings as two id sets and checks the
// slice-vs-bitmap equivalence of Intersect, Card and Equal.
func FuzzSetAlgebra(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{2, 3, 4})
	f.Add([]byte{}, []byte{255, 0, 17})
	f.Add([]byte{9, 9, 9, 1}, []byte{9})
	f.Fuzz(func(t *testing.T, rawA, rawB []byte) {
		const universe = 256
		decode := func(raw []byte) []kb.EntID {
			seen := make(map[kb.EntID]bool)
			for _, c := range raw {
				seen[kb.EntID(int(c)%universe+1)] = true
			}
			out := make([]kb.EntID, 0, len(seen))
			for e := range seen {
				out = append(out, e)
			}
			sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
			return out
		}
		a, b := decode(rawA), decode(rawB)
		wantI := refIntersect(a, b)
		for _, sa := range reps(a, universe) {
			for _, sb := range reps(b, universe) {
				if got := Intersect(sa, sb); !sliceEq(got.Slice(), wantI) {
					t.Fatalf("Intersect(dense=%v,%v) = %v, want %v", sa.Dense(), sb.Dense(), got.Slice(), wantI)
				}
				if Equal(sa, sb) != sliceEq(a, b) {
					t.Fatal("Equal disagrees with reference")
				}
			}
		}
	})
}

// TestFootprint: a set's footprint counts the buffers it holds, including
// a bitmap kept from an earlier dense result after a demotion.
func TestFootprint(t *testing.T) {
	const universe = 1024
	if got := asSparse(make([]kb.EntID, 10, 12), universe).Footprint(); got != 4*12 {
		t.Fatalf("sparse footprint %d, want %d", got, 4*12)
	}
	dense := asDense([]kb.EntID{1, 2, 3}, universe)
	if got := dense.Footprint(); got != 8*wordsLen(universe) {
		t.Fatalf("dense footprint %d, want %d", got, 8*wordsLen(universe))
	}
	var dst Set
	dst.IntersectInto(dense, dense) // dense ∩ dense, demoted: both buffers held
	if dst.Dense() || dst.Footprint() < 8*wordsLen(universe)+4*dst.Card() {
		t.Fatalf("demoted result: dense=%v footprint %d", dst.Dense(), dst.Footprint())
	}
}
