package rdf

// Direct unit coverage of the dictionary's three physical forms (builder,
// lazy, extended) and the borrowed-read ingestion path. The KB
// builders exercise all of this indirectly, but the invariants — shared ID
// space, inverse permutations, read-only panics, borrow-until-next-read —
// deserve in-package pinning.

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
)

// sliceLazyTerms adapts a term-ascending slice to the LazyTerms interface.
type sliceLazyTerms []Term

func (s sliceLazyTerms) Len() int                 { return len(s) }
func (s sliceLazyTerms) TermAtRank(rank int) Term { return s[rank] }
func (s sliceLazyTerms) RankOf(t Term) (int, bool) {
	for i, u := range s {
		if u == t {
			return i, true
		}
	}
	return 0, false
}
func (s sliceLazyTerms) EachTerm(f func(rank int, t Term) bool) {
	for i, t := range s {
		if !f(i, t) {
			return
		}
	}
}

// buildDictForms returns the same three-term dictionary in both base forms:
// insertion order C, A, B (IDs 1..3), ascending term order A, B, C.
func buildDictForms(t testing.TB) (builder, lazy *Dictionary) {
	t.Helper()
	builder = NewDictionary()
	for _, v := range []string{"http://e/C", "http://e/A", "http://e/B"} {
		builder.Encode(NewIRI(v))
	}
	return builder, lazyOf(t, builder)
}

// lazyOf returns the lazy form of a builder dictionary: the same ids over a
// term-ascending source.
func lazyOf(t testing.TB, builder *Dictionary) *Dictionary {
	t.Helper()
	terms := builder.Terms()
	sorted := walkByTerm(t, builder)
	asc := make(sliceLazyTerms, len(sorted))
	rank := make([]uint32, len(sorted))
	for r, id := range sorted {
		asc[r] = terms[id-1]
		rank[id-1] = uint32(r)
	}
	lazy, err := NewLazyDictionary(asc, sorted, rank)
	if err != nil {
		t.Fatal(err)
	}
	return lazy
}

// walkByTerm returns the ids EachByTerm yields, after checking the walk
// against a reference sort: every id exactly once, each with its own term,
// in ascending Term.Compare order — and that the walk stops where f
// returns false.
func walkByTerm(t testing.TB, d *Dictionary) []ID {
	t.Helper()
	var ids []ID
	seen := make([]bool, d.Len()+1)
	d.EachByTerm(func(id ID, term Term) bool {
		if id == NoID || int(id) > d.Len() || seen[id] {
			t.Fatalf("EachByTerm yielded id %d twice or out of range 1..%d", id, d.Len())
		}
		seen[id] = true
		if term != d.Decode(id) {
			t.Fatalf("EachByTerm yielded %v with id %d, which decodes to %v", term, id, d.Decode(id))
		}
		ids = append(ids, id)
		return true
	})
	want := make([]ID, d.Len())
	for i := range want {
		want[i] = ID(i + 1)
	}
	slices.SortFunc(want, func(a, b ID) int { return d.Decode(a).Compare(d.Decode(b)) })
	if !slices.Equal(ids, want) {
		t.Fatalf("EachByTerm yielded %d ids in an order other than the reference sort's (%d ids)", len(ids), len(want))
	}
	for stop := 1; stop <= len(ids); stop += max(1, len(ids)/7) {
		calls := 0
		d.EachByTerm(func(ID, Term) bool { calls++; return calls < stop })
		if calls != stop {
			t.Fatalf("EachByTerm told to stop at call %d made %d calls", stop, calls)
		}
	}
	return ids
}

func TestDictionaryFormsAgree(t *testing.T) {
	builder, lazy := buildDictForms(t)
	forms := map[string]*Dictionary{"builder": builder, "lazy": lazy}
	for name, d := range forms {
		if d.Len() != 3 {
			t.Fatalf("%s: Len = %d, want 3", name, d.Len())
		}
		for id, v := range map[ID]string{1: "http://e/C", 2: "http://e/A", 3: "http://e/B"} {
			if got := d.Decode(id); got != NewIRI(v) {
				t.Fatalf("%s: Decode(%d) = %v, want %s", name, id, got, v)
			}
			if gotID, ok := d.Lookup(NewIRI(v)); !ok || gotID != id {
				t.Fatalf("%s: Lookup(%s) = %d,%v, want %d", name, v, gotID, ok, id)
			}
		}
		if _, ok := d.Lookup(NewIRI("http://e/missing")); ok {
			t.Fatalf("%s: Lookup of a missing term succeeded", name)
		}
		if got, want := walkByTerm(t, d), []ID{2, 3, 1}; !slices.Equal(got, want) {
			t.Fatalf("%s: EachByTerm = %v, want %v", name, got, want)
		}
		if got := d.Terms(); len(got) != 3 || got[0] != NewIRI("http://e/C") || got[2] != NewIRI("http://e/B") {
			t.Fatalf("%s: Terms = %v", name, got)
		}
		seen := map[ID]Term{}
		d.EachTerm(func(id ID, term Term) bool {
			seen[id] = term
			return true
		})
		if len(seen) != 3 || seen[2] != NewIRI("http://e/A") {
			t.Fatalf("%s: EachTerm visited %v", name, seen)
		}
		calls := 0
		d.EachTerm(func(ID, Term) bool { calls++; return false })
		if calls != 1 {
			t.Fatalf("%s: EachTerm ignored early stop (%d calls)", name, calls)
		}
	}

	// The read-only form must reject Encode loudly.
	defer func() {
		if recover() == nil {
			t.Fatal("lazy: Encode on a read-only dictionary did not panic")
		}
	}()
	lazy.Encode(NewIRI("http://e/new"))
}

func TestDictionaryValidationRejectsBadPermutations(t *testing.T) {
	asc := sliceLazyTerms{NewIRI("http://e/A"), NewIRI("http://e/B"), NewIRI("http://e/C")}
	if _, err := NewLazyDictionary(asc, []ID{2, 3, 1}, []uint32{1, 0}); err == nil {
		t.Fatal("lazy: length mismatch accepted")
	}
	if _, err := NewLazyDictionary(asc, []ID{2, 3, 0}, []uint32{2, 0, 1}); err == nil {
		t.Fatal("lazy: NoID in permutation accepted")
	}
	if _, err := NewLazyDictionary(asc, []ID{2, 3, 1}, []uint32{0, 1, 2}); err == nil {
		t.Fatal("lazy: non-inverse rank table accepted")
	}
}

func TestExtendDictionaryOverEveryBaseForm(t *testing.T) {
	builder, lazy := buildDictForms(t)
	for name, base := range map[string]*Dictionary{"builder": builder, "lazy": lazy} {
		ext, err := ExtendDictionary(base, []Term{NewIRI("http://e/D"), NewBlank("tail")})
		if err != nil {
			t.Fatalf("%s: extend: %v", name, err)
		}
		if ext.Len() != 5 {
			t.Fatalf("%s: extended Len = %d, want 5", name, ext.Len())
		}
		// Base ids keep resolving; tail ids follow on.
		if id, ok := ext.Lookup(NewIRI("http://e/A")); !ok || id != 2 {
			t.Fatalf("%s: base term lost in extension: %d,%v", name, id, ok)
		}
		if id, ok := ext.Lookup(NewBlank("tail")); !ok || id != 5 {
			t.Fatalf("%s: tail term at %d,%v, want id 5", name, id, ok)
		}
		if got := ext.Decode(4); got != NewIRI("http://e/D") {
			t.Fatalf("%s: Decode(4) = %v", name, got)
		}
		if got := ext.Decode(1); got != NewIRI("http://e/C") {
			t.Fatalf("%s: Decode(1) = %v", name, got)
		}
		if got := ext.Terms(); len(got) != 5 || got[3] != NewIRI("http://e/D") {
			t.Fatalf("%s: extended Terms = %v", name, got)
		}
		// EachByTerm must interleave the tail into the base order:
		// IRIs A,B,C,D then the blank node (IRI < Literal < Blank).
		if got, want := walkByTerm(t, ext), []ID{2, 3, 1, 4, 5}; !slices.Equal(got, want) {
			t.Fatalf("%s: extended EachByTerm = %v, want %v", name, got, want)
		}
		count := 0
		ext.EachTerm(func(ID, Term) bool { count++; return true })
		if count != 5 {
			t.Fatalf("%s: extended EachTerm visited %d terms", name, count)
		}
		stopped := 0
		ext.EachTerm(func(ID, Term) bool { stopped++; return false })
		if stopped != 1 {
			t.Fatalf("%s: extended EachTerm ignored early stop", name)
		}
	}
	if _, err := ExtendDictionary(builder, []Term{NewIRI("http://e/A")}); err == nil {
		t.Fatal("extending with a term already in base must fail")
	}
	if _, err := ExtendDictionary(builder, []Term{NewIRI("http://e/X"), NewIRI("http://e/X")}); err == nil {
		t.Fatal("extending with a duplicate tail term must fail")
	}
}

// TestExtendDictionaryChainStaysFlat: a live KB extends its dictionary once
// per generation. A thousand chained extensions must hang off the root, not
// off each other, and answer every accessor as one extension by all the
// terms does; each link keeps its own id space.
func TestExtendDictionaryChainStaysFlat(t *testing.T) {
	_, root := buildDictForms(t)
	var all []Term
	d := root
	var mid *Dictionary
	for i := range 1000 {
		batch := []Term{
			NewIRI(fmt.Sprintf("http://e/n%d", i)),
			NewLiteral(fmt.Sprintf("v%d", 999-i)),
			NewBlank(fmt.Sprintf("b%d", i%7*1000+i)),
		}
		all = append(all, batch...)
		var err error
		if d, err = ExtendDictionary(d, batch); err != nil {
			t.Fatalf("link %d: %v", i, err)
		}
		if i == 499 {
			mid = d
		}
	}
	if d.base != root {
		t.Fatal("chained extension is not rooted at the base dictionary")
	}
	once, err := ExtendDictionary(root, all)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != once.Len() || d.Len() != 3+len(all) {
		t.Fatalf("Len = %d, single extension %d", d.Len(), once.Len())
	}
	for id := ID(1); int(id) <= once.Len(); id++ {
		term := once.Decode(id)
		if got := d.Decode(id); got != term {
			t.Fatalf("Decode(%d) = %v, want %v", id, got, term)
		}
		if got, ok := d.Lookup(term); !ok || got != id {
			t.Fatalf("Lookup(%v) = %d,%v, want %d", term, got, ok, id)
		}
	}
	if got, want := walkByTerm(t, d), walkByTerm(t, once); !slices.Equal(got, want) {
		t.Fatal("EachByTerm differs from the single extension's")
	}
	// Earlier links are untouched by later ones.
	if mid.Len() != 3+1500 {
		t.Fatalf("link 500 Len = %d after later extensions", mid.Len())
	}
	if _, ok := mid.Lookup(all[1500]); ok {
		t.Fatal("link 500 sees a term appended after it")
	}
	if _, err := ExtendDictionary(d, []Term{all[0]}); err == nil {
		t.Fatal("re-extending with a term from an earlier link must fail")
	}
}

// TestExtendDictionaryRandomChainsAndForks: random extension chains over
// both base forms, with forks taken from earlier links (a live KB patches
// one generation into many), must answer every accessor as a builder
// dictionary holding the same terms in the same order does, and must
// reject a term any earlier link of their own chain holds.
func TestExtendDictionaryRandomChainsAndForks(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 39))
	kinds := []Kind{IRI, Literal, Blank}
	builder, lazy := buildDictForms(t)
	for name, root := range map[string]*Dictionary{"builder": builder, "lazy": lazy} {
		type link struct {
			d     *Dictionary
			terms []Term // every term of d, by id
		}
		links := []link{{root, slices.Clone(root.Terms())}}
		for step := range 300 {
			from := links[len(links)-1]
			if rng.IntN(4) == 0 { // fork an earlier link
				from = links[rng.IntN(len(links))]
			}
			var extra []Term
			for i := range 1 + rng.IntN(5) {
				// A random prefix interleaves the new terms with the
				// root's and every earlier link's in term order.
				extra = append(extra, Term{Kind: kinds[rng.IntN(3)], Value: fmt.Sprintf("http://e/%x-%d-%d", rng.Uint32(), step, i)})
			}
			d, err := ExtendDictionary(from.d, extra)
			if err != nil {
				t.Fatalf("%s step %d: %v", name, step, err)
			}
			if _, err := ExtendDictionary(d, []Term{from.terms[rng.IntN(len(from.terms))]}); err == nil {
				t.Fatalf("%s step %d: re-extending with a term of the chain succeeded", name, step)
			}
			if _, err := ExtendDictionary(d, []Term{NewIRI("http://e/dup"), NewIRI("http://e/dup")}); err == nil {
				t.Fatalf("%s step %d: a duplicate within one extension succeeded", name, step)
			}
			links = append(links, link{d, slices.Concat(from.terms, extra)})
		}
		for i, l := range links {
			want := NewDictionary()
			for _, term := range l.terms {
				want.Encode(term)
			}
			if !slices.Equal(l.d.Terms(), want.Terms()) {
				t.Fatalf("%s link %d: Terms differ", name, i)
			}
			if !slices.Equal(walkByTerm(t, l.d), walkByTerm(t, want)) {
				t.Fatalf("%s link %d: EachByTerm differs", name, i)
			}
			for id, term := range l.terms {
				if got := l.d.Decode(ID(id + 1)); got != term {
					t.Fatalf("%s link %d: Decode(%d) = %v, want %v", name, i, id+1, got, term)
				}
				if got, ok := l.d.Lookup(term); !ok || got != ID(id+1) {
					t.Fatalf("%s link %d: Lookup(%v) = %d,%v, want %d", name, i, term, got, ok, id+1)
				}
			}
			if _, ok := l.d.Lookup(NewIRI("http://e/absent")); ok {
				t.Fatalf("%s link %d: Lookup of an absent term succeeded", name, i)
			}
		}
	}
}

func TestTermKindPredicates(t *testing.T) {
	if IRI.String() != "iri" || Literal.String() != "literal" || Blank.String() != "blank" {
		t.Fatalf("Kind names: %s %s %s", IRI, Literal, Blank)
	}
	if got := Kind(9).String(); !strings.Contains(got, "9") {
		t.Fatalf("unknown kind renders as %q", got)
	}
	if NewIRI("a").Compare(NewLiteral("a")) >= 0 || NewLiteral("a").Compare(NewBlank("a")) >= 0 {
		t.Fatal("kind order must be IRI < Literal < Blank")
	}
	if NewIRI("a").Compare(NewIRI("b")) >= 0 || NewIRI("b").Compare(NewIRI("b")) != 0 {
		t.Fatal("same-kind terms order by value")
	}
	a := NewTriple(NewIRI("a"), NewIRI("p"), NewIRI("o"))
	b := NewTriple(NewIRI("b"), NewIRI("p"), NewIRI("o"))
	if a.Compare(b) >= 0 || a.Compare(a) != 0 {
		t.Fatal("triples order by (S,P,O)")
	}
}

// TestIRIEscapeRoundTrip drives escapeIRI through Term.String: every byte
// the IRIREF grammar forbids raw must serialize as a numeric escape and
// parse back to the identical term.
func TestIRIEscapeRoundTrip(t *testing.T) {
	for _, v := range []string{
		"http://e/with space", "http://e/a<b>c", "http://e/q\"uote",
		"http://e/br{a}ce", "http://e/p|pe", "http://e/car^et",
		"http://e/tick`", "http://e/tab\tchar", "http://e/slash\\x",
	} {
		term := NewIRI(v)
		s := term.String()
		if strings.ContainsAny(s[1:len(s)-1], " <\"{}|^`\t") && !strings.Contains(s, "u00") {
			t.Fatalf("IRI %q serialized without escaping: %q", v, s)
		}
		got, err := ParseTerm(s)
		if err != nil {
			t.Fatalf("reparse of %q (from %q): %v", s, v, err)
		}
		if got != term {
			t.Fatalf("IRI round trip changed %q → %q", v, got.Value)
		}
	}
}

// TestReadBorrowed pins the borrowed-read contract: same triples as Read,
// comments and blank lines skipped, and values valid until the next call
// (so an immediate copy must round-trip).
func TestReadBorrowed(t *testing.T) {
	doc := "# comment\n" +
		"<http://e/s1> <http://e/p> <http://e/o1> .\n" +
		"\n" +
		"<http://e/s2> <http://e/p> \"lit with spaces\" .\n" +
		"<http://e/s3> <http://e/p> \"esc\\taped\" .\n"
	want, err := ReadAll(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(strings.NewReader(doc))
	var got []Triple
	for {
		tr, err := r.ReadBorrowed()
		if err != nil {
			break
		}
		// Copy before the next call, per the borrow contract.
		tr.S.Value = strings.Clone(tr.S.Value)
		tr.P.Value = strings.Clone(tr.P.Value)
		tr.O.Value = strings.Clone(tr.O.Value)
		got = append(got, tr)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("ReadBorrowed = %v, want %v", got, want)
	}

	if _, err := NewReader(strings.NewReader("<http://e/s> <http://e/p> .\n")).ReadBorrowed(); err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("ReadBorrowed error must carry the line number, got %v", err)
	}
}

// TestEachByTermSplitMatchesSingleSort: the builder form's term-order sort,
// two halves on two goroutines and their merge, gives the permutation of a
// single reference sort, on sizes from 0 up and with an odd and an even
// split. Equal values under different kinds are distinct terms that the
// kind orders.
func TestEachByTermSplitMatchesSingleSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	kinds := []Kind{IRI, Literal, Blank}
	for _, n := range []int{0, 1, 2, 3, 4096, 10001} {
		d := NewDictionary()
		for d.Len() < n {
			d.Encode(Term{Kind: kinds[rng.IntN(len(kinds))], Value: fmt.Sprintf("v%d", rng.IntN(n))})
		}
		terms := d.Terms()
		want := make([]ID, n)
		for i := range want {
			want[i] = ID(i + 1)
		}
		slices.SortFunc(want, func(a, b ID) int { return terms[a-1].Compare(terms[b-1]) })
		var got []ID
		d.EachByTerm(func(id ID, _ Term) bool { got = append(got, id); return true })
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d: EachByTerm differs from the single sort", n)
		}
		kindsOf := map[string]int{}
		for _, tm := range terms {
			kindsOf[tm.Value]++
		}
		if n >= 4096 && len(kindsOf) == n {
			t.Fatalf("n=%d: no value is held under two kinds", n)
		}
	}
}

// FuzzEachByTerm splits a random term set into a base, builder or lazy,
// and a tail appended over up to a few chained extensions. The extended
// dictionary's walk must be the reference sort, and the order of a builder
// dictionary holding the same terms under the same ids.
func FuzzEachByTerm(f *testing.F) {
	f.Add(uint64(1), uint8(12), uint8(5), false)
	f.Add(uint64(2), uint8(40), uint8(17), true)
	f.Add(uint64(3), uint8(33), uint8(0), true)
	f.Add(uint64(4), uint8(9), uint8(9), false)
	f.Fuzz(func(t *testing.T, seed uint64, n, split uint8, lazy bool) {
		rng := rand.New(rand.NewPCG(seed, 48))
		kinds := []Kind{IRI, Literal, Blank}
		all := NewDictionary()
		for all.Len() < int(n) {
			all.Encode(Term{Kind: kinds[rng.IntN(len(kinds))], Value: fmt.Sprintf("v%d", rng.IntN(4*int(n)))})
		}
		terms := all.Terms()
		cut := int(split) % (len(terms) + 1)
		d := NewDictionary()
		for _, term := range terms[:cut] {
			d.Encode(term)
		}
		if lazy {
			d = lazyOf(t, d)
		}
		for rest := terms[cut:]; len(rest) > 0; {
			k := 1 + rng.IntN(len(rest))
			var err error
			if d, err = ExtendDictionary(d, rest[:k]); err != nil {
				t.Fatal(err)
			}
			rest = rest[k:]
		}
		if got, want := walkByTerm(t, d), walkByTerm(t, all); !slices.Equal(got, want) {
			t.Fatalf("extended walk %v, builder walk %v", got, want)
		}
	})
}
