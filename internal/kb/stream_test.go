package kb

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"testing"

	"github.com/remi-kb/remi/internal/kb/snapshot"
	"github.com/remi-kb/remi/internal/rdf"
)

// sliceSource adapts a triple slice to TripleSource.
type sliceSource struct {
	trs []rdf.Triple
	i   int
}

func (s *sliceSource) Read() (rdf.Triple, error) {
	if s.i >= len(s.trs) {
		return rdf.Triple{}, io.EOF
	}
	tr := s.trs[s.i]
	s.i++
	return tr, nil
}

// genStreamTriples produces a deterministic mix of entity and literal
// objects across several predicates, with deliberate duplicates.
func genStreamTriples(n int, seed int64) []rdf.Triple {
	rng := rand.New(rand.NewSource(seed))
	ent := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://ex.org/e%d", i)) }
	out := make([]rdf.Triple, 0, n)
	for len(out) < n {
		s := ent(rng.Intn(40))
		p := rdf.NewIRI(fmt.Sprintf("http://ex.org/p%d", rng.Intn(6)))
		var o rdf.Term
		if rng.Intn(5) == 0 {
			o = rdf.NewLiteral(fmt.Sprintf("lit-%d", rng.Intn(20)))
		} else {
			o = ent(rng.Intn(40))
		}
		out = append(out, rdf.Triple{S: s, P: p, O: o})
		if rng.Intn(4) == 0 && len(out) < n {
			out = append(out, out[len(out)-1]) // duplicate
		}
	}
	return out
}

func snapshotBytes(t *testing.T, k *KB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := k.WriteSnapshot(&buf); err != nil {
		t.Fatalf("write snapshot: %v", err)
	}
	return buf.Bytes()
}

func TestBuildStreamingMatchesInMemory(t *testing.T) {
	trs := genStreamTriples(3000, 7)
	mem, err := FromTriples(trs, DefaultOptions())
	if err != nil {
		t.Fatalf("FromTriples: %v", err)
	}

	for _, cfg := range []StreamConfig{
		{}, // single in-memory run
		{MaxBufferedTriples: 64, TmpDir: t.TempDir()}, // many spilled runs
		{MaxBufferedTriples: 7, TmpDir: t.TempDir()},  // tiny runs, heavy merge
	} {
		name := fmt.Sprintf("maxBuf=%d", cfg.MaxBufferedTriples)
		t.Run(name, func(t *testing.T) {
			st, err := BuildStreamingWith(&sliceSource{trs: trs}, DefaultOptions(), cfg)
			if err != nil {
				t.Fatalf("BuildStreamingWith: %v", err)
			}
			if st.NumFacts() != mem.NumFacts() || st.NumBaseFacts() != mem.NumBaseFacts() ||
				st.NumEntities() != mem.NumEntities() || st.NumPredicates() != mem.NumPredicates() {
				t.Fatalf("counts differ: streamed (%d facts, %d base, %d ents, %d preds), in-memory (%d, %d, %d, %d)",
					st.NumFacts(), st.NumBaseFacts(), st.NumEntities(), st.NumPredicates(),
					mem.NumFacts(), mem.NumBaseFacts(), mem.NumEntities(), mem.NumPredicates())
			}
			// The strong equivalence check: pack-once images must be
			// byte-identical.
			if !bytes.Equal(snapshotBytes(t, st), snapshotBytes(t, mem)) {
				t.Errorf("snapshot bytes differ between streamed and in-memory builds")
			}
			// The pair lists and adjacency arena are not in the image:
			// compare them through the accessors.
			for _, p := range mem.Predicates() {
				if mem.PredicateName(p) != st.PredicateName(p) {
					t.Fatalf("predicate %d name mismatch", p)
				}
				mf, sf := mem.Facts(p), st.Facts(p)
				if len(mf) != len(sf) {
					t.Fatalf("predicate %d: %d vs %d facts", p, len(mf), len(sf))
				}
				for i := range mf {
					if mf[i] != sf[i] {
						t.Fatalf("predicate %d: fact %d differs: %v vs %v", p, i, mf[i], sf[i])
					}
				}
			}
			for e := EntID(1); int(e) <= mem.NumEntities(); e++ {
				ma, sa := mem.AdjacencyOf(e), st.AdjacencyOf(e)
				if len(ma) != len(sa) {
					t.Fatalf("entity %d: adjacency %d vs %d", e, len(ma), len(sa))
				}
				for i := range ma {
					if ma[i] != sa[i] {
						t.Fatalf("entity %d: adjacency %d differs", e, i)
					}
				}
			}
		})
	}
}

func TestBuildStreamingRejectsBadTriples(t *testing.T) {
	lit := rdf.NewLiteral("x")
	iri := rdf.NewIRI("http://ex.org/a")
	cases := []rdf.Triple{
		{S: lit, P: rdf.NewIRI("http://ex.org/p"), O: iri}, // literal subject
		{S: iri, P: lit, O: iri},                           // literal predicate
	}
	for _, tr := range cases {
		if _, err := BuildStreaming(&sliceSource{trs: []rdf.Triple{tr}}, DefaultOptions()); err == nil {
			t.Errorf("expected error for %v", tr)
		}
	}
}

func TestSnapshotRoundTripLazyV2(t *testing.T) {
	trs := genStreamTriples(1500, 11)
	mem, err := FromTriples(trs, DefaultOptions())
	if err != nil {
		t.Fatalf("FromTriples: %v", err)
	}
	path := t.TempDir() + "/kb.snap"
	if err := os.WriteFile(path, snapshotBytes(t, mem), 0o644); err != nil {
		t.Fatal(err)
	}
	k, err := OpenSnapshot(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer k.Close()

	if k.NumFacts() != mem.NumFacts() || k.NumEntities() != mem.NumEntities() {
		t.Fatalf("counts differ after round-trip")
	}
	// Dictionary equivalence both directions.
	for e := EntID(1); int(e) <= mem.NumEntities(); e++ {
		want := mem.Term(e)
		if got := k.Term(e); got != want {
			t.Fatalf("entity %d decodes to %v, want %v", e, got, want)
		}
		id, ok := k.EntityID(want)
		if !ok || id != e {
			t.Fatalf("lookup of %v: got (%d,%v), want (%d,true)", want, id, ok, e)
		}
	}
	if _, ok := k.EntityID(rdf.NewIRI("http://ex.org/absent")); ok {
		t.Fatalf("lookup of absent term succeeded")
	}
	// Derived arrays equal the eager ones.
	for _, p := range mem.Predicates() {
		mf, kf := mem.Facts(p), k.Facts(p)
		if len(mf) != len(kf) {
			t.Fatalf("predicate %d: %d vs %d facts", p, len(mf), len(kf))
		}
		for i := range mf {
			if mf[i] != kf[i] {
				t.Fatalf("predicate %d fact %d differs", p, i)
			}
		}
	}
	for e := EntID(1); int(e) <= mem.NumEntities(); e++ {
		ma, ka := mem.AdjacencyOf(e), k.AdjacencyOf(e)
		if len(ma) != len(ka) {
			t.Fatalf("entity %d adjacency length differs", e)
		}
		for i := range ma {
			if ma[i] != ka[i] {
				t.Fatalf("entity %d adjacency %d differs", e, i)
			}
		}
	}
	// Entities must enumerate every id without materializing terms.
	if got := len(k.Entities(nil)); got != mem.NumEntities() {
		t.Fatalf("Entities: %d ids, want %d", got, mem.NumEntities())
	}
}

func TestSnapshotVersionNegotiation(t *testing.T) {
	// The header is judged before any section is interpreted: a file
	// demanding a future reader is rejected, and so is a version-1 file —
	// with the error that tells the operator to re-pack it.
	for _, tc := range []struct {
		version, minReader uint32
		wantErr            string
	}{
		{99, 99, "requires reader version"},
		{1, 1, "re-pack the KB"},
	} {
		var buf bytes.Buffer
		sw := snapshot.NewWriter()
		sw.SetVersion(tc.version, tc.minReader)
		sw.Add(1, []byte{1, 2, 3, 4, 5, 6, 7, 8})
		if _, err := sw.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		path := fmt.Sprintf("%s/v%d.snap", t.TempDir(), tc.version)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenSnapshot(path); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("opening a version=%d minReader=%d snapshot: got %v, want %q", tc.version, tc.minReader, err, tc.wantErr)
		}
	}
}
