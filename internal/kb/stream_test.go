package kb

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"github.com/remi-kb/remi/internal/kb/snapshot"
	"github.com/remi-kb/remi/internal/parsort"
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
			// The facts and the adjacency arena are compared through the
			// accessors too.
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

// naiveKB is what Section 4 of the paper says a KB built from a triple list
// holds, computed from sets of strings with no code of this package: terms
// are named by their N-Triples form, predicates by their IRI.
type naiveKB struct {
	nBase int
	freq  map[string]int     // term -> occurrences in base facts (as s or o)
	facts map[[3]string]bool // (s, predicate name, o): base facts plus inverses
}

// buildNaive applies the documented recipe: deduplicate; count base-fact
// frequencies; rank every term by frequency, ties to the earlier first
// appearance (subject before object within a triple); materialize p⁻¹(o,s)
// for every base fact whose object is among the top max(1, ⌊n·frac⌋) terms
// and is not a literal.
func buildNaive(trs []rdf.Triple, frac float64) naiveKB {
	base := make(map[[3]string]bool)
	firstSeen := make(map[string]int)
	literal := make(map[string]bool)
	for _, tr := range trs {
		for _, t := range []rdf.Term{tr.S, tr.O} {
			if _, ok := firstSeen[t.String()]; !ok {
				firstSeen[t.String()] = len(firstSeen)
				literal[t.String()] = t.Kind == rdf.Literal
			}
		}
		base[[3]string{tr.S.String(), tr.P.Value, tr.O.String()}] = true
	}
	n := naiveKB{nBase: len(base), freq: make(map[string]int), facts: make(map[[3]string]bool)}
	for f := range base {
		n.freq[f[0]]++
		n.freq[f[2]]++
	}
	ranked := make([]string, 0, len(firstSeen))
	for name := range firstSeen {
		ranked = append(ranked, name)
	}
	sort.Slice(ranked, func(i, j int) bool {
		a, b := ranked[i], ranked[j]
		if n.freq[a] != n.freq[b] {
			return n.freq[a] > n.freq[b]
		}
		return firstSeen[a] < firstSeen[b]
	})
	top := make(map[string]bool)
	for _, name := range ranked[:max(1, int(float64(len(ranked))*frac))] {
		top[name] = true
	}
	for f := range base {
		n.facts[f] = true
		if top[f[2]] && !literal[f[2]] {
			n.facts[[3]string{f[2], f[1] + InverseMarker, f[0]}] = true
		}
	}
	return n
}

// checkAgainstNaive compares every accessor of k that the recipe determines
// with the oracle, by name: ids are the builder's business.
func checkAgainstNaive(t *testing.T, k *KB, want naiveKB) {
	t.Helper()
	if k.NumBaseFacts() != want.nBase || k.NumFacts() != len(want.facts) || k.NumEntities() != len(want.freq) {
		t.Fatalf("counts: %d base, %d facts, %d terms; oracle %d, %d, %d",
			k.NumBaseFacts(), k.NumFacts(), k.NumEntities(), want.nBase, len(want.facts), len(want.freq))
	}
	name := func(e EntID) string { return k.Term(e).String() }
	objects := make(map[[2]string][]string)  // (predicate, subject) -> objects
	subjects := make(map[[2]string][]string) // (predicate, object) -> subjects
	adjacency := make(map[string][]string)   // subject -> "predicate object"
	preds := make(map[string]bool)
	for f := range want.facts {
		objects[[2]string{f[1], f[0]}] = append(objects[[2]string{f[1], f[0]}], f[2])
		subjects[[2]string{f[1], f[2]}] = append(subjects[[2]string{f[1], f[2]}], f[0])
		adjacency[f[0]] = append(adjacency[f[0]], f[1]+" "+f[2])
		preds[f[1]] = true
	}
	if k.NumPredicates() != len(preds) {
		t.Fatalf("%d predicates, oracle %d", k.NumPredicates(), len(preds))
	}
	// same reports whether got (in id order) and want hold the same names.
	same := func(got, want []string) bool {
		sort.Strings(got)
		sort.Strings(want)
		return slices.Equal(got, want)
	}
	for e := EntID(1); int(e) <= k.NumEntities(); e++ {
		if k.EntityFreq(e) != want.freq[name(e)] {
			t.Fatalf("EntityFreq(%s) = %d, oracle %d", name(e), k.EntityFreq(e), want.freq[name(e)])
		}
		adj := k.AdjacencyOf(e)
		if !slices.IsSortedFunc(adj, func(a, b PO) int {
			if a.P != b.P {
				return int(a.P) - int(b.P)
			}
			return int(a.O) - int(b.O)
		}) {
			t.Fatalf("AdjacencyOf(%s) not (P,O)-sorted", name(e))
		}
		var got []string
		for _, po := range adj {
			got = append(got, k.PredicateName(po.P)+" "+name(po.O))
		}
		if !same(got, adjacency[name(e)]) {
			t.Fatalf("AdjacencyOf(%s) = %v, oracle %v", name(e), got, adjacency[name(e)])
		}
		for _, p := range k.Predicates() {
			pn := k.PredicateName(p)
			if !preds[pn] {
				t.Fatalf("predicate %q is not in the oracle", pn)
			}
			if bp := k.BaseOf(p); (bp != 0) != strings.HasSuffix(pn, InverseMarker) ||
				(bp != 0 && k.PredicateName(bp)+InverseMarker != pn) {
				t.Fatalf("BaseOf(%q) = %d", pn, bp)
			}
			for _, dir := range []struct {
				what string
				ids  []EntID
				want []string
			}{
				{"Objects", k.Objects(p, e), objects[[2]string{pn, name(e)}]},
				{"Subjects", k.Subjects(p, e), subjects[[2]string{pn, name(e)}]},
			} {
				if !slices.IsSorted(dir.ids) {
					t.Fatalf("%s(%s, %s) not sorted", dir.what, pn, name(e))
				}
				var got []string
				for _, x := range dir.ids {
					got = append(got, name(x))
				}
				if !same(got, dir.want) {
					t.Fatalf("%s(%s, %s) = %v, oracle %v", dir.what, pn, name(e), got, dir.want)
				}
			}
		}
	}
}

// TestBuildMatchesNaiveOracle is the check TestBuildStreamingMatchesInMemory
// cannot make now that both of its sides are one builder: the result is what
// the recipe says, whichever front end fed the builder and whether or not it
// spilled.
func TestBuildMatchesNaiveOracle(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		trs := genStreamTriples(3000, seed)
		for _, frac := range []float64{0.10, 0.5, 0.9} { // at 0.9 literals rank in the top set
			want := buildNaive(trs, frac)
			opts := Options{InverseTopFraction: frac}
			for _, front := range []struct {
				name  string
				build func() (*KB, error)
			}{
				{"FromTriples", func() (*KB, error) { return FromTriples(trs, opts) }},
				{"BuildStreaming", func() (*KB, error) { return BuildStreaming(&sliceSource{trs: trs}, opts) }},
				{"spilled", func() (*KB, error) {
					return BuildStreamingWith(&sliceSource{trs: trs}, opts, StreamConfig{MaxBufferedTriples: 7, TmpDir: t.TempDir()})
				}},
			} {
				t.Run(fmt.Sprintf("seed=%d/f=%g/%s", seed, frac, front.name), func(t *testing.T) {
					k, err := front.build()
					if err != nil {
						t.Fatal(err)
					}
					checkAgainstNaive(t, k, want)
				})
			}
		}
	}
}

// TestBuildStreamingRejectsBadTriples: every front end feeds the one ingest,
// so all of them refuse the same triples with the same words — also when the
// bad triple arrives after runs have been spilled.
func TestBuildStreamingRejectsBadTriples(t *testing.T) {
	lit := rdf.NewLiteral("x")
	good := genStreamTriples(20, 3)
	for _, tc := range []struct {
		name string
		bad  rdf.Triple
		want string
	}{
		{"literal subject", rdf.Triple{S: lit, P: iri("p"), O: iri("a")}, "kb: literal subject: "},
		{"literal predicate", rdf.Triple{S: iri("a"), P: lit, O: iri("a")}, "kb: predicate must be an IRI: "},
		{"blank predicate", rdf.Triple{S: iri("a"), P: rdf.NewBlank("b"), O: iri("a")}, "kb: predicate must be an IRI: "},
	} {
		trs := append(slices.Clone(good), tc.bad)
		want := tc.want + tc.bad.String()
		for _, front := range []struct {
			name  string
			build func() error
		}{
			{"FromTriples", func() error { _, err := FromTriples(trs, DefaultOptions()); return err }},
			{"Builder", func() error { return NewBuilder().AddAll(trs) }},
			{"BuildStreaming", func() error {
				_, err := BuildStreaming(&sliceSource{trs: trs}, DefaultOptions())
				return err
			}},
			{"spilled", func() error {
				_, err := BuildStreamingWith(&sliceSource{trs: trs}, DefaultOptions(), StreamConfig{MaxBufferedTriples: 7, TmpDir: t.TempDir()})
				return err
			}},
		} {
			if err := front.build(); err == nil || err.Error() != want {
				t.Errorf("%s through %s: error %v, want %q", tc.name, front.name, err, want)
			}
		}
	}
}

// readerDoc renders n generated triples as N-Triples text of several of the
// reader's 256 KiB blocks, cycling through the awkward line forms so that
// whichever line a block ends on is one of them: CRLF endings, blank and
// comment lines, escapes, trailing comments. One line is longer than a
// block, and the text has no final newline.
func readerDoc(n int) []string {
	pad := strings.Repeat("padding ", 100)
	var lines []string
	for i, tr := range genStreamTriples(n, 5) {
		ln := tr.String()
		switch i % 6 {
		case 1:
			ln += "\r"
		case 2:
			lines = append(lines, ln, "")
			continue
		case 3:
			lines = append(lines, ln, "# "+pad)
			continue
		case 4:
			ln = fmt.Sprintf(`%s %s "café\t\"%d\"\U0001F600" .`, tr.S, tr.P, i%9)
		case 5:
			ln += " # " + pad
		}
		lines = append(lines, ln)
		if i == n/2 {
			lines = append(lines, fmt.Sprintf(`%s %s "%s" .`, tr.S, tr.P, strings.Repeat("long ", 60_000)))
		}
	}
	return lines
}

// TestBuildStreamingFromReader: text parsed ahead on the reader's goroutine
// and encoded in input order builds the very KB that parsing the text first
// and building from the slice gives, spilled or not.
func TestBuildStreamingFromReader(t *testing.T) {
	text := strings.Join(readerDoc(2500), "\n")
	if len(text) < 3*256<<10 {
		t.Fatalf("the text is %d bytes, fewer than three blocks", len(text))
	}
	trs, err := rdf.ReadAll(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	mem, err := FromTriples(trs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []StreamConfig{{}, {MaxBufferedTriples: 7, TmpDir: t.TempDir()}} {
		k, err := BuildStreamingWith(rdf.NewReader(strings.NewReader(text)), DefaultOptions(), cfg)
		if err != nil {
			t.Fatalf("maxBuf=%d: %v", cfg.MaxBufferedTriples, err)
		}
		if !bytes.Equal(snapshotBytes(t, k), snapshotBytes(t, mem)) {
			t.Errorf("maxBuf=%d: snapshot differs from FromTriples(ReadAll(text))", cfg.MaxBufferedTriples)
		}
	}
}

// endlessBlocks is a block source that never ends; its first block carries
// a literal subject, which the ingest refuses.
type endlessBlocks struct{ n int }

func (e *endlessBlocks) Read() (rdf.Triple, error) { return rdf.Triple{}, io.EOF }

func (e *endlessBlocks) ReadBlock(b *rdf.Block) error {
	e.n++
	b.Triples = append(b.Triples[:0], genStreamTriples(50, int64(e.n))...)
	if e.n == 1 {
		b.Triples[10].S = rdf.NewLiteral("x")
	}
	return nil
}

// TestBuildStreamingFromReaderErrors: the first error in input order is the
// one reported, and the parsing goroutine is gone when the build returns.
func TestBuildStreamingFromReaderErrors(t *testing.T) {
	base := runtime.NumGoroutine()
	lines := readerDoc(2500)
	clean := strings.Join(lines, "\n")
	// Two bad lines: one in the first block, one blocks later.
	lines[9] = "<http://ex.org/a> <http://ex.org/p> ."
	lines[len(lines)-10] = "<http://ex.org/a> <http://ex.org/p> <http://ex.org/b> <http://ex.org/c> ."
	text := strings.Join(lines, "\n")
	boom := errors.New("boom")
	for _, tc := range []struct {
		name string
		src  TripleSource
		want func(error) bool
	}{
		{"bad line", rdf.NewReader(strings.NewReader(text)), func(err error) bool {
			return strings.HasPrefix(err.Error(), "line 10: ")
		}},
		{"bad line, spilled", rdf.NewReader(strings.NewReader(text)), func(err error) bool {
			return strings.HasPrefix(err.Error(), "line 10: ")
		}},
		{"read error", rdf.NewReader(io.MultiReader(strings.NewReader(clean[:len(clean)/2]), iotest.ErrReader(boom))),
			func(err error) bool { return errors.Is(err, boom) }},
		{"ingest error", &endlessBlocks{}, func(err error) bool {
			return strings.HasPrefix(err.Error(), "kb: literal subject: ")
		}},
	} {
		cfg := StreamConfig{}
		if strings.HasSuffix(tc.name, "spilled") {
			cfg = StreamConfig{MaxBufferedTriples: 7, TmpDir: t.TempDir()}
		}
		if _, err := BuildStreamingWith(tc.src, DefaultOptions(), cfg); err == nil || !tc.want(err) {
			t.Errorf("%s: error %v", tc.name, err)
		}
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines after the build, %d before", tc.name, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
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

// TestSortHalvesMatchesSortDedup: the ingest's buffer sort, two halves
// on two goroutines followed by mergeHalves, yields exactly a single sort
// with adjacent duplicates removed, on sizes from 0 up and with an odd and
// an even split.
func TestSortHalvesMatchesSortDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 3, 4096, 10007} {
		buf := make([]triple, n)
		for i := range buf {
			// Few distinct values, so duplicates straddle the halves.
			buf[i] = triple{s: EntID(1 + rng.Intn(30)), p: PredID(1 + rng.Intn(4)), o: EntID(1 + rng.Intn(30))}
		}
		want := slices.Clone(buf)
		slices.SortFunc(want, cmpTriple)
		want = slices.Compact(want)
		var got []triple
		lo, hi := parsort.Halves(buf, cmpTriple)
		mergeHalves(lo, hi, func(tr triple) error {
			got = append(got, tr)
			return nil
		})
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d: %d triples, want %d", n, len(got), len(want))
		}
	}
}

// truncatingSource yields its triples and, at the end of the input, cuts
// the tail off one spilled run file in dir, so the merge walk in finish
// meets a partial record.
type truncatingSource struct {
	sliceSource
	t   *testing.T
	dir string
}

func (s *truncatingSource) Read() (rdf.Triple, error) {
	tr, err := s.sliceSource.Read()
	if err == io.EOF {
		runs, _ := filepath.Glob(filepath.Join(s.dir, "kb-stream-run-*"))
		if len(runs) < 2 {
			s.t.Fatalf("%d run files spilled, want several", len(runs))
		}
		fi, statErr := os.Stat(runs[0])
		if statErr != nil {
			s.t.Fatal(statErr)
		}
		if truncErr := os.Truncate(runs[0], fi.Size()-runRecordSize/2); truncErr != nil {
			s.t.Fatal(truncErr)
		}
	}
	return tr, err
}

// TestBuildStreamingTruncatedRun: a run file cut short under a spilled build
// fails the build with the truncation error, and no packer outlives it.
func TestBuildStreamingTruncatedRun(t *testing.T) {
	base := runtime.NumGoroutine()
	dir := t.TempDir()
	src := &truncatingSource{sliceSource: sliceSource{trs: genStreamTriples(3000, 9)}, t: t, dir: dir}
	_, err := BuildStreamingWith(src, DefaultOptions(), StreamConfig{MaxBufferedTriples: 200, TmpDir: dir})
	if err == nil || !strings.Contains(err.Error(), "truncated run file") {
		t.Fatalf("error %v, want a truncated run file", err)
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the build, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
