package kb

// Snapshot round-trip property tests: a Builder-built KB and its
// snapshot-reopened twin must be observationally identical on every
// accessor, under both the mmap and the heap-fallback load path; damaged
// images must be rejected.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/remi-kb/remi/internal/kb/snapshot"
	"github.com/remi-kb/remi/internal/rdf"
)

// reopen writes k to a temp snapshot file and opens it with the given load
// path.
func reopen(t testing.TB, k *KB, noMmap bool) *KB {
	t.Helper()
	path := filepath.Join(t.TempDir(), "kb.snap")
	if err := k.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	if !IsSnapshotFile(path) {
		t.Fatal("IsSnapshotFile must recognize a written snapshot")
	}
	return openSnapshot(t, path, noMmap)
}

// openSnapshot opens the image at path as OpenSnapshot does, or through
// the snapshot reader's heap path when noMmap is set.
func openSnapshot(t testing.TB, path string, noMmap bool) *KB {
	t.Helper()
	r, err := snapshot.Open(path, snapshot.Options{NoMmap: noMmap})
	if err != nil {
		t.Fatal(err)
	}
	k, err := fromSnapshotReader(r)
	if err != nil {
		t.Fatal(err)
	}
	k.src = r
	return k
}

// checkSameKB asserts the two KBs agree on every accessor the miner and the
// facade use: dictionary (both directions), kinds, predicates, CSR indexes,
// adjacency, frequencies and the special predicates.
func checkSameKB(t testing.TB, want, got *KB) {
	t.Helper()
	if got.NumEntities() != want.NumEntities() || got.NumPredicates() != want.NumPredicates() ||
		got.NumFacts() != want.NumFacts() || got.NumBaseFacts() != want.NumBaseFacts() {
		t.Fatalf("counts differ: ents %d/%d preds %d/%d facts %d/%d base %d/%d",
			got.NumEntities(), want.NumEntities(), got.NumPredicates(), want.NumPredicates(),
			got.NumFacts(), want.NumFacts(), got.NumBaseFacts(), want.NumBaseFacts())
	}
	if got.TypePredicate() != want.TypePredicate() || got.LabelPredicate() != want.LabelPredicate() {
		t.Fatalf("special predicates differ")
	}
	n := EntID(want.NumEntities())
	for e := EntID(1); e <= n; e++ {
		if got.Term(e) != want.Term(e) {
			t.Fatalf("Term(%d) = %v, want %v", e, got.Term(e), want.Term(e))
		}
		if got.Kind(e) != want.Kind(e) {
			t.Fatalf("Kind(%d) differs", e)
		}
		if got.EntityFreq(e) != want.EntityFreq(e) {
			t.Fatalf("EntityFreq(%d) = %d, want %d", e, got.EntityFreq(e), want.EntityFreq(e))
		}
		// Dictionary reverse direction, including the block-head search.
		id, ok := got.EntityID(want.Term(e))
		if !ok || id != e {
			t.Fatalf("EntityID(%v) = %d,%v, want %d", want.Term(e), id, ok, e)
		}
	}
	if _, ok := got.EntityID(rdf.NewIRI("http://nowhere.example/absent")); ok {
		t.Fatal("EntityID resolved an absent term")
	}
	for _, p := range want.Predicates() {
		if got.PredicateName(p) != want.PredicateName(p) {
			t.Fatalf("PredicateName(%d) differs", p)
		}
		if got.BaseOf(p) != want.BaseOf(p) {
			t.Fatalf("BaseOf(%d) differs", p)
		}
		if id, ok := got.PredicateID(want.PredicateName(p)); !ok || id != p {
			t.Fatalf("PredicateID(%q) = %d,%v", want.PredicateName(p), id, ok)
		}
		if got.PredFreq(p) != want.PredFreq(p) {
			t.Fatalf("PredFreq(%d) differs", p)
		}
		wantFacts, gotFacts := want.Facts(p), got.Facts(p)
		if len(wantFacts) != len(gotFacts) {
			t.Fatalf("Facts(%d) len differs", p)
		}
		for i := range wantFacts {
			if wantFacts[i] != gotFacts[i] {
				t.Fatalf("Facts(%d)[%d] differs", p, i)
			}
		}
		for e := EntID(1); e <= n+2; e++ {
			if !eqIDs(got.Objects(p, e), want.Objects(p, e)) {
				t.Fatalf("Objects(%d,%d) differs", p, e)
			}
			if !eqIDs(got.Subjects(p, e), want.Subjects(p, e)) {
				t.Fatalf("Subjects(%d,%d) differs", p, e)
			}
			if got.ObjFreq(p, e) != want.ObjFreq(p, e) {
				t.Fatalf("ObjFreq(%d,%d) differs", p, e)
			}
			for _, o := range want.Objects(p, e) {
				if !got.HasFact(p, e, o) {
					t.Fatalf("HasFact(%d,%d,%d) lost", p, e, o)
				}
			}
			if got.HasFact(p, e, n+7) {
				t.Fatalf("HasFact(%d,%d,out-of-universe) invented", p, e)
			}
		}
	}
	for e := EntID(0); e <= n+2; e++ {
		wa, ga := want.AdjacencyOf(e), got.AdjacencyOf(e)
		if len(wa) != len(ga) {
			t.Fatalf("AdjacencyOf(%d) len differs", e)
		}
		for i := range wa {
			if wa[i] != ga[i] {
				t.Fatalf("AdjacencyOf(%d)[%d] differs", e, i)
			}
		}
	}
	// Derived statistics must agree too (ProminentSet is recomputed from the
	// persisted frequency array on the reopened KB).
	for _, frac := range []float64{0.01, 0.1, 0.5} {
		ws, gs := want.ProminentSet(frac), got.ProminentSet(frac)
		if ws.Card() != gs.Card() {
			t.Fatalf("ProminentSet(%v) card %d, want %d", frac, gs.Card(), ws.Card())
		}
		for e := EntID(1); e <= n; e++ {
			if ws.Contains(e) != gs.Contains(e) {
				t.Fatalf("ProminentSet(%v) membership differs at %d", frac, e)
			}
		}
	}
}

// TestSnapshotRoundTripRandom is the round-trip property test across many
// random KBs, covering both load paths and inverse materialization.
func TestSnapshotRoundTripRandom(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		invFrac := 0.0
		if seed%2 == 1 {
			invFrac = 0.2
		}
		k := randomKB(t, rng, 60+rng.Intn(400), 4+rng.Intn(40), 1+rng.Intn(8), invFrac)
		checkSameKB(t, k, reopen(t, k, seed%3 == 0))
	}
}

// TestSnapshotRoundTripLiterals exercises literal objects, blank nodes,
// labels/types and non-ASCII term values through the blob encoding.
func TestSnapshotRoundTripLiterals(t *testing.T) {
	b := NewBuilder()
	add := func(s, p rdf.Term, o rdf.Term) {
		t.Helper()
		if err := b.Add(rdf.Triple{S: s, P: rdf.NewIRI("http://x/p/" + p.Value), O: o}); err != nil {
			t.Fatal(err)
		}
	}
	paris := rdf.NewIRI("http://x/r/Paris")
	bn := rdf.NewBlank("b0")
	add(paris, rdf.NewIRI("label"), rdf.NewLiteral(`Paris"@fr`))
	add(paris, rdf.NewIRI("pop"), rdf.NewLiteral(`2140526"^^<http://www.w3.org/2001/XMLSchema#integer>`))
	add(paris, rdf.NewIRI("type"), rdf.NewIRI("http://x/c/Villeé"))
	add(bn, rdf.NewIRI("near"), paris)
	add(paris, rdf.NewIRI("motto"), rdf.NewLiteral("")) // empty term value
	k := b.Build(Options{
		TypePredicate:  "http://x/p/type",
		LabelPredicate: "http://x/p/label",
	})
	for _, noMmap := range []bool{false, true} {
		got := reopen(t, k, noMmap)
		checkSameKB(t, k, got)
		if got.Label(got.MustEntityID("http://x/r/Paris")) != k.Label(k.MustEntityID("http://x/r/Paris")) {
			t.Fatal("Label differs after reopen")
		}
	}
}

// TestSnapshotEmptyKB covers the degenerate image.
func TestSnapshotEmptyKB(t *testing.T) {
	k := NewBuilder().Build(Options{})
	got := reopen(t, k, false)
	checkSameKB(t, k, got)
}

// TestSnapshotRepack writes a snapshot FROM a snapshot-opened KB (the
// pack-a-lazy-dictionary path, which reuses the persisted term-order
// permutation instead of re-sorting) and checks the second generation is
// still identical to the original builder KB.
func TestSnapshotRepack(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	k := randomKB(t, rng, 300, 30, 6, 0.2)
	once := reopen(t, k, false)
	twice := reopen(t, once, true)
	checkSameKB(t, k, twice)
}

// TestSnapshotLazyWalks: the writer walks a snapshot-opened dictionary's
// terms borrowed from the front-coded blocks' decode buffer, so repacking
// must write the very bytes it opened, and the dictionary walks that hand
// terms out to keep (Terms, EachTerm) must still own every one.
func TestSnapshotLazyWalks(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	k := randomKB(t, rng, 400, 30, 6, 0.2)
	var first, again bytes.Buffer
	if err := k.WriteSnapshot(&first); err != nil {
		t.Fatal(err)
	}
	lazy := reopen(t, k, false)
	defer lazy.Close()
	if err := lazy.WriteSnapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), again.Bytes()) {
		t.Fatal("repacking a snapshot-opened KB changed its bytes")
	}
	kept := make([]rdf.Term, lazy.NumEntities())
	lazy.dict.EachTerm(func(id rdf.ID, term rdf.Term) bool {
		kept[id-1] = term
		return true
	})
	for i, term := range lazy.dict.Terms() {
		if want := k.Term(EntID(i + 1)); term != want || kept[i] != want {
			t.Fatalf("entity %d: Terms %v, EachTerm %v, want %v", i+1, term, kept[i], want)
		}
	}
}

// TestSnapshotMmapVsHeapEquivalence opens the same image both ways and
// diffs them against each other (not just against the builder KB).
func TestSnapshotMmapVsHeapEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	k := randomKB(t, rng, 500, 40, 7, 0.15)
	path := filepath.Join(t.TempDir(), "kb.snap")
	if err := k.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	mm, hp := openSnapshot(t, path, false), openSnapshot(t, path, true)
	if hp.src.Mapped() {
		t.Fatal("the heap path returned a mapped image")
	}
	checkSameKB(t, mm, hp)
	checkAgainstRef(t, mm)
	checkAgainstRef(t, hp)
}

// TestSnapshotRejectsDamage corrupts a valid KB snapshot in targeted ways;
// every mutation must fail OpenSnapshot instead of yielding a broken KB.
func TestSnapshotRejectsDamage(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	k := randomKB(t, rng, 200, 20, 4, 0.2)
	var buf bytes.Buffer
	if err := k.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	dir := t.TempDir()
	tryOpen := func(name string, mut []byte) error {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := OpenSnapshot(path)
		return err
	}
	if err := tryOpen("ok.snap", img); err != nil {
		t.Fatalf("pristine image rejected: %v", err)
	}
	for _, cut := range []int{0, 4, 63, 64, len(img) / 3, len(img) - 1} {
		if tryOpen(fmt.Sprintf("trunc%d.snap", cut), img[:cut]) == nil {
			t.Fatalf("truncation to %d accepted", cut)
		}
	}
	for trial := 0; trial < 64; trial++ {
		mut := append([]byte(nil), img...)
		mut[64+rng.Intn(len(mut)-64)] ^= 1 << rng.Intn(8)
		if tryOpen(fmt.Sprintf("flip%d.snap", trial), mut) == nil {
			t.Fatal("bit flip in payload accepted")
		}
	}
	junk := append([]byte("JUNKFILE"), img[8:]...)
	if tryOpen("junk.snap", junk) == nil {
		t.Fatal("wrong magic accepted")
	}
	if IsSnapshotFile(filepath.Join(dir, "junk.snap")) {
		t.Fatal("IsSnapshotFile accepted wrong magic")
	}

	// Damage the CRC does not catch: the checksum is not a MAC, so a hostile
	// image carries a valid one. Each case re-packs the pristine sections with
	// one of them rewritten; open must return an error (both used to panic).
	r, err := snapshot.Open(filepath.Join(dir, "ok.snap"), snapshot.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, tc := range []struct {
		name    string
		sec     snapshot.SectionID
		rewrite func(b []byte)
		want    string
	}{
		// The first term block's head length becomes the uvarint of 2^64-1
		// (open used to panic slicing the block).
		{"headlen", secTermFC, func(b []byte) { binary.PutUvarint(b, ^uint64(0)) }, "head length"},
		// The predicate count becomes 2^63, negative as an int (open used to
		// panic allocating the predicate tables).
		{"npred", secMeta, func(b []byte) { binary.NativeEndian.PutUint64(b[8:], 1<<63) }, "meta section"},
	} {
		sw := snapshot.NewWriter()
		for id := secMeta; id <= secTermFCOff; id++ {
			b, ok := r.Section(id)
			if id == tc.sec {
				b = append([]byte(nil), b...)
				tc.rewrite(b)
			}
			if ok {
				sw.Add(id, b)
			}
		}
		var hostile bytes.Buffer
		if _, err := sw.WriteTo(&hostile); err != nil {
			t.Fatal(err)
		}
		err := tryOpen("hostile-"+tc.name+".snap", hostile.Bytes())
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("re-checksummed %s damage: got %v, want a %q error", tc.name, err, tc.want)
		}
	}
}

// TestOpenSnapshotRejectsOutOfRangeIDs: an image whose CSR arrays stay
// sorted but name an entity id outside 1..NumEntities carries a valid
// checksum, so open itself must refuse it: opened, it would panic on the
// first AdjacencyOf or Term, or disagree silently between orientations.
func TestOpenSnapshotRejectsOutOfRangeIDs(t *testing.T) {
	for _, arr := range []string{"psoKey", "psoVal", "posKey", "posVal"} {
		for _, high := range []bool{false, true} {
			k := randomKB(t, rand.New(rand.NewSource(3)), 200, 20, 4, 0.2)
			ix := &k.preds[0]
			ids := map[string][]EntID{"psoKey": ix.psoKey, "psoVal": ix.psoVal, "posKey": ix.posKey, "posVal": ix.posVal}[arr]
			// The first id becomes 0 or the last NumEntities+1, so the
			// arrays stay sorted.
			at, bad := 0, EntID(0)
			if high {
				at, bad = len(ids)-1, EntID(k.NumEntities()+1)
			}
			ids[at] = bad
			path := filepath.Join(t.TempDir(), "kb.snap")
			if err := k.WriteSnapshotFile(path); err != nil {
				t.Fatal(err)
			}
			got, err := OpenSnapshot(path)
			if err == nil {
				got.Close()
				t.Errorf("%s with id %d: opened", arr, bad)
			} else if !strings.Contains(err.Error(), "out of range") {
				t.Errorf("%s with id %d: got %v, want an out-of-range error", arr, bad, err)
			}
		}
	}
}

// FuzzSnapshotRoundTrip drives the round trip from fuzzed triple streams,
// mirroring FuzzCSRIndexes: every KB the builder accepts must survive the
// snapshot round trip bit-exactly.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 7, 1, 7}, false)
	f.Add([]byte{3, 1, 3, 3, 1, 3, 2, 0, 1, 9, 2, 9, 4, 1, 4}, true)
	f.Fuzz(func(t *testing.T, data []byte, noMmap bool) {
		if len(data) < 3 {
			t.Skip()
		}
		b := NewBuilder()
		for i := 0; i+2 < len(data); i += 3 {
			s := fmt.Sprintf("e%d", data[i]%13)
			p := fmt.Sprintf("p%d", data[i+1]%5)
			o := fmt.Sprintf("e%d", data[i+2]%13)
			if err := b.Add(rdf.Triple{S: iri(s), P: iri(p), O: iri(o)}); err != nil {
				t.Fatal(err)
			}
		}
		k := b.Build(Options{InverseTopFraction: 0.25})
		checkSameKB(t, k, reopen(t, k, noMmap))
	})
}
