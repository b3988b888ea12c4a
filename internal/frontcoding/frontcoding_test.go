package frontcoding

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/remi-kb/remi/internal/rdf"
)

// randomTerms returns n distinct terms in ascending rdf.Term.Compare order:
// all three kinds, values drawn from a few namespaces so that neighbours
// share long prefixes, plus the empty value — except the empty IRI, the least
// term there is, which checkSet searches for as its before-first miss.
func randomTerms(rng *rand.Rand, n int) []rdf.Term {
	prefixes := []string{"", "http://e/", "http://very.long.namespace.example.org/resource/Entity_", "lit"}
	seen := make(map[rdf.Term]bool, n)
	terms := make([]rdf.Term, 0, n)
	for len(terms) < n {
		v := prefixes[rng.Intn(len(prefixes))]
		if rng.Intn(8) > 0 {
			v += fmt.Sprintf("%04d", rng.Intn(4*n+4))
		}
		t := rdf.Term{Kind: rdf.Kind(rng.Intn(3)), Value: v}
		if !seen[t] && t != (rdf.Term{}) {
			seen[t] = true
			terms = append(terms, t)
		}
	}
	sort.Slice(terms, func(i, j int) bool { return terms[i].Compare(terms[j]) < 0 })
	return terms
}

func buildSet(t testing.TB, terms []rdf.Term) *FCSet {
	t.Helper()
	var fb FCBuilder
	for _, term := range terms {
		fb.Append(SerializeTerm(term))
	}
	set, err := NewFCSet(fb.Finish())
	if err != nil {
		t.Fatalf("NewFCSet over FCBuilder output: %v", err)
	}
	return set
}

// checkSet compares every read path of set against the sorted slice it was
// built from.
func checkSet(t *testing.T, set *FCSet, terms []rdf.Term) {
	t.Helper()
	n := len(terms)
	if set.Len() != n {
		t.Fatalf("Len = %d, want %d", set.Len(), n)
	}
	for i, want := range terms {
		if got, err := set.TermAt(i); err != nil || got != want {
			t.Fatalf("TermAt(%d) = %v, %v; want %v", i, got, err, want)
		}
	}
	for _, i := range []int{-1, n} {
		if _, err := set.TermAt(i); err == nil {
			t.Fatalf("TermAt(%d) out of range succeeded", i)
		}
	}

	search := func(target rdf.Term) (int, bool) {
		i, found, err := set.Search(func(b []byte) int { return CompareSerializedTerm(b, target) })
		if err != nil {
			t.Fatalf("Search(%v): %v", target, err)
		}
		return i, found
	}
	for i, term := range terms {
		if got, found := search(term); !found || got != i {
			t.Fatalf("Search(%v) = %d,%v; want %d,true", term, got, found, i)
		}
	}
	// Misses land on the insertion index: values no generated term has,
	// before the first entry, after the last and in between.
	for _, miss := range []rdf.Term{
		{Kind: rdf.IRI, Value: ""},
		{Kind: rdf.IRI, Value: "http://e/0000x"},
		{Kind: rdf.Literal, Value: "http://very.long.namespace.example.org/resource/Entity_x"},
		{Kind: rdf.Blank, Value: "lit0001x"},
		{Kind: rdf.Blank, Value: "\xff\xff"},
	} {
		want := sort.Search(n, func(i int) bool { return terms[i].Compare(miss) >= 0 })
		if got, found := search(miss); found || got != want {
			t.Fatalf("Search(absent %v) = %d,%v; want %d,false", miss, got, found, want)
		}
	}

	visited := 0
	err := set.Each(func(i int, b []byte) bool {
		if i != visited {
			t.Fatalf("Each visited index %d, want %d", i, visited)
		}
		if got, err := DeserializeTerm(b); err != nil || got != terms[i] {
			t.Fatalf("Each entry %d = %v, %v; want %v", i, got, err, terms[i])
		}
		visited++
		return true
	})
	if err != nil || visited != n {
		t.Fatalf("Each visited %d of %d entries, err %v", visited, n, err)
	}
	for _, stopAfter := range []int{1, BlockSize, BlockSize + 1} {
		if stopAfter > n {
			continue
		}
		calls := 0
		if err := set.Each(func(int, []byte) bool { calls++; return calls < stopAfter }); err != nil || calls != stopAfter {
			t.Fatalf("Each stopped after %d calls (err %v), want %d", calls, err, stopAfter)
		}
	}
}

func TestFCSetRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := []int{0, 1, BlockSize - 1, BlockSize, BlockSize + 1, 2 * BlockSize, 2*BlockSize + 1}
	for trial := 0; trial < 20; trial++ {
		sizes = append(sizes, rng.Intn(300))
	}
	for _, n := range sizes {
		terms := randomTerms(rng, n)
		checkSet(t, buildSet(t, terms), terms)
	}
}

func TestCompareSerializedTermMatchesTermCompare(t *testing.T) {
	terms := randomTerms(rand.New(rand.NewSource(2)), 120)
	for _, a := range terms {
		sa := SerializeTerm(a)
		for _, b := range terms {
			if got, want := cmp.Compare(CompareSerializedTerm(sa, b), 0), cmp.Compare(a.Compare(b), 0); got != want {
				t.Fatalf("CompareSerializedTerm(%v, %v) = %d, Term.Compare = %d", a, b, got, want)
			}
		}
	}
}

func TestFrontCodingLongSharedPrefixes(t *testing.T) {
	var terms []rdf.Term
	raw := 0
	for i := 0; i < 200; i++ {
		terms = append(terms, rdf.NewIRI(fmt.Sprintf("http://very.long.namespace.example.org/resource/Entity_%04d", i)))
		raw += len(terms[i].Value)
	}
	set := buildSet(t, terms)
	// The 200 entities share a 55-byte prefix: the blob must come out well
	// under the raw string size even with one full head per block.
	if len(set.blob) >= raw/2 {
		t.Fatalf("front-coded blob is %d bytes for %d bytes of raw strings", len(set.blob), raw)
	}
	checkSet(t, set, terms)
}

// TestBlockLengthOverflow: a head or suffix length near 2^64 must be reported
// as corruption. The bound check used to add it to the cursor position, which
// wraps, and the slice expression behind it panicked.
func TestBlockLengthOverflow(t *testing.T) {
	huge := binary.AppendUvarint(nil, ^uint64(0))
	head := append(binary.AppendUvarint(nil, 2), "Ia"...)
	for name, tc := range map[string]struct {
		blob  []byte
		n, at int
	}{
		"head":   {blob: huge, n: 1, at: 0},
		"suffix": {blob: append(append(head, 0), huge...), n: 2, at: 1},
	} {
		set, err := NewFCSet(tc.blob, []uint64{0, uint64(len(tc.blob))}, tc.n)
		if err != nil {
			t.Fatalf("%s: NewFCSet: %v", name, err)
		}
		if _, err := set.TermAt(tc.at); err == nil {
			t.Errorf("%s: TermAt(%d) accepted a length of 2^64-1", name, tc.at)
		}
		if err := set.Each(func(int, []byte) bool { return true }); err == nil {
			t.Errorf("%s: Each accepted a length of 2^64-1", name)
		}
		if _, _, err := set.Search(func([]byte) int { return -1 }); err == nil {
			t.Errorf("%s: Search accepted a length of 2^64-1", name)
		}
	}
}

// FuzzFCSet feeds NewFCSet arbitrary bytes: whatever it accepts must answer
// every read with a value or an error, never a panic. Search is driven with a
// plain byte comparator; CompareSerializedTerm's panic on an unknown kind
// byte is a documented contract of its own.
func FuzzFCSet(f *testing.F) {
	offsBytes := func(offs []uint64) []byte {
		var b []byte
		for _, o := range offs {
			b = binary.LittleEndian.AppendUint64(b, o)
		}
		return b
	}
	for _, n := range []int{0, 1, BlockSize, 3*BlockSize + 5} {
		set := buildSet(f, randomTerms(rand.New(rand.NewSource(int64(n))), n))
		f.Add(set.blob, offsBytes(set.offs), n, []byte("Ihttp://e/0007"))
	}
	huge := binary.AppendUvarint(nil, ^uint64(0))
	f.Add(huge, offsBytes([]uint64{0, uint64(len(huge))}), 1, []byte("I"))
	f.Add([]byte{}, []byte{}, -40, []byte{})

	f.Fuzz(func(t *testing.T, blob, rawOffs []byte, n int, target []byte) {
		offs := make([]uint64, len(rawOffs)/8)
		for i := range offs {
			offs[i] = binary.LittleEndian.Uint64(rawOffs[8*i:])
		}
		set, err := NewFCSet(blob, offs, n)
		if err != nil {
			return
		}
		for i := -1; i <= set.Len(); i++ {
			set.TermAt(i)
		}
		set.Search(func(b []byte) int { return bytes.Compare(b, target) })
		set.Each(func(i int, _ []byte) bool { return i < set.Len()/2 })
		set.Each(func(int, []byte) bool { return true })
	})
}

// TestSerializedTermForms: SerializeTerm, AppendTerm into a reused buffer,
// DeserializeTerm and BorrowTerm agree on every kind, the borrowed value
// aliases the serialized bytes while the deserialized one owns a copy, and
// both decoders reject an empty entry and an unknown kind byte.
func TestSerializedTermForms(t *testing.T) {
	var buf []byte
	for _, term := range randomTerms(rand.New(rand.NewSource(3)), 200) {
		want := SerializeTerm(term)
		buf = AppendTerm(buf[:0], term)
		if !bytes.Equal(buf, want) {
			t.Fatalf("AppendTerm(%v) = %q, SerializeTerm %q", term, buf, want)
		}
		owned, err := DeserializeTerm(buf)
		if err != nil || owned != term {
			t.Fatalf("DeserializeTerm(%q) = %v, %v", buf, owned, err)
		}
		borrowed, err := BorrowTerm(buf)
		if err != nil || borrowed != term {
			t.Fatalf("BorrowTerm(%q) = %v, %v", buf, borrowed, err)
		}
		if len(term.Value) > 0 {
			buf[1] ^= 0x20
			if owned != term || borrowed == term {
				t.Fatalf("%v: the deserialized term must own its value and the borrowed one alias the buffer", term)
			}
		}
	}
	for _, b := range [][]byte{nil, []byte("Xvalue")} {
		if _, err := DeserializeTerm(b); err == nil {
			t.Errorf("DeserializeTerm(%q) accepted", b)
		}
		if _, err := BorrowTerm(b); err == nil {
			t.Errorf("BorrowTerm(%q) accepted", b)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CompareSerializedTerm(%q) did not panic", b)
				}
			}()
			CompareSerializedTerm(b, rdf.NewIRI("a"))
		}()
	}
}

// TestNewFCSetRejectsBadOffsets: block offsets that do not frame the blob —
// wrong count, a first block past zero, a step backwards, an end short of
// the blob — and a negative entry count are rejected at construction.
func TestNewFCSetRejectsBadOffsets(t *testing.T) {
	set := buildSet(t, randomTerms(rand.New(rand.NewSource(4)), 2*BlockSize+3))
	end := uint64(len(set.blob))
	for name, tc := range map[string]struct {
		offs []uint64
		n    int
	}{
		"negative count": {set.offs, -1},
		"too few":        {set.offs[:2], set.n},
		"first past 0":   {[]uint64{1, set.offs[1], set.offs[2], end}, set.n},
		"backwards":      {[]uint64{0, set.offs[2], set.offs[1], end}, set.n},
		"short end":      {[]uint64{0, set.offs[1], set.offs[2], end - 1}, set.n},
	} {
		if _, err := NewFCSet(set.blob, tc.offs, tc.n); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestCorruptBlocks: a block whose varints are cut short, or whose entry
// claims a longer shared prefix than its predecessor has, is reported as
// corrupt by every read.
func TestCorruptBlocks(t *testing.T) {
	head := append(binary.AppendUvarint(nil, 2), "Ia"...)
	for name, blob := range map[string][]byte{
		"head length":   {0x80},
		"shared prefix": append(slices.Clone(head), 0x80),
		"suffix length": append(slices.Clone(head), 1, 0x80),
		"prefix > prev": append(slices.Clone(head), 3, 1, 'b'),
	} {
		set, err := NewFCSet(blob, []uint64{0, uint64(len(blob))}, 2)
		if err != nil {
			t.Fatalf("%s: NewFCSet: %v", name, err)
		}
		if _, err := set.TermAt(1); err == nil {
			t.Errorf("%s: TermAt accepted", name)
		}
		if err := set.Each(func(int, []byte) bool { return true }); err == nil {
			t.Errorf("%s: Each accepted", name)
		}
	}
}
