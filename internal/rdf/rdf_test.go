package rdf

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseTermIRI(t *testing.T) {
	tm, err := ParseTerm("<http://example.org/Paris>")
	if err != nil {
		t.Fatal(err)
	}
	if tm.Kind != IRI || tm.Value != "http://example.org/Paris" {
		t.Fatalf("got %+v", tm)
	}
}

func TestParseTermBlank(t *testing.T) {
	tm, err := ParseTerm("_:b42")
	if err != nil {
		t.Fatal(err)
	}
	if tm.Kind != Blank || tm.Value != "b42" {
		t.Fatalf("got %+v", tm)
	}
}

func TestParseTermLiteralPlain(t *testing.T) {
	tm, err := ParseTerm(`"hello world"`)
	if err != nil {
		t.Fatal(err)
	}
	if tm.Kind != Literal || tm.Value != "hello world" {
		t.Fatalf("got %+v", tm)
	}
}

func TestParseTermLiteralTyped(t *testing.T) {
	tm, err := ParseTerm(`"42"^^<http://www.w3.org/2001/XMLSchema#integer>`)
	if err != nil {
		t.Fatal(err)
	}
	if tm.Kind != Literal {
		t.Fatalf("got %+v", tm)
	}
	if got := tm.LocalName(); got != "42" {
		t.Fatalf("LocalName = %q", got)
	}
}

func TestParseTermLiteralLang(t *testing.T) {
	tm, err := ParseTerm(`"bonjour"@fr`)
	if err != nil {
		t.Fatal(err)
	}
	if tm.LocalName() != "bonjour" {
		t.Fatalf("got %+v", tm)
	}
}

func TestParseTermErrors(t *testing.T) {
	for _, bad := range []string{"", "<unterminated", `"unterminated`, "plainword", `"lit"^^garbage`} {
		if _, err := ParseTerm(bad); err == nil {
			t.Errorf("ParseTerm(%q): expected error", bad)
		}
	}
}

func TestTermStringRoundTrip(t *testing.T) {
	terms := []Term{
		NewIRI("http://example.org/a"),
		NewBlank("node7"),
		NewLiteral("plain"),
		NewLiteral("with \"quotes\" and \\slash\\"),
		NewLiteral("tab\there"),
		NewLiteral(`42"^^<http://www.w3.org/2001/XMLSchema#integer>`),
		NewLiteral(`hi"@en`),
	}
	for _, tm := range terms {
		got, err := ParseTerm(tm.String())
		if err != nil {
			t.Fatalf("ParseTerm(%s): %v", tm.String(), err)
		}
		if got != tm {
			t.Errorf("round trip %q: got %+v want %+v", tm.String(), got, tm)
		}
	}
}

func TestTripleLineRoundTrip(t *testing.T) {
	tr := NewTriple(NewIRI("http://e/s"), NewIRI("http://e/p"), NewLiteral("a b c"))
	got, ok, err := ParseTripleLine(tr.String())
	if err != nil || !ok {
		t.Fatalf("parse: %v ok=%v", err, ok)
	}
	if got != tr {
		t.Fatalf("got %v want %v", got, tr)
	}
}

func TestParseTripleLineSkips(t *testing.T) {
	for _, line := range []string{"", "   ", "# a comment"} {
		_, ok, err := ParseTripleLine(line)
		if err != nil || ok {
			t.Errorf("line %q: ok=%v err=%v", line, ok, err)
		}
	}
}

func TestParseTripleLineRejects(t *testing.T) {
	bad := []string{
		"<http://a> <http://p> .",                           // 2 terms
		`"lit" <http://p> <http://o> .`,                     // literal subject
		"<http://a> _:b <http://o> .",                       // blank predicate
		"<http://a> <http://p> <http://o> <http://extra> .", // 4 terms
	}
	for _, line := range bad {
		if _, ok, err := ParseTripleLine(line); err == nil && ok {
			t.Errorf("line %q: expected rejection", line)
		}
	}
}

func TestReadWriteAll(t *testing.T) {
	triples := []Triple{
		NewTriple(NewIRI("http://e/s1"), NewIRI("http://e/p"), NewIRI("http://e/o1")),
		NewTriple(NewIRI("http://e/s2"), NewIRI("http://e/p"), NewLiteral("lit with spaces")),
		NewTriple(NewBlank("b1"), NewIRI("http://e/q"), NewBlank("b2")),
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, triples); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, triples) {
		t.Fatalf("got %v want %v", got, triples)
	}
}

func TestDictionaryBasics(t *testing.T) {
	d := NewDictionary()
	a := NewIRI("http://e/a")
	b := NewLiteral("b")
	ida := d.Encode(a)
	idb := d.Encode(b)
	if ida == idb {
		t.Fatal("distinct terms share an id")
	}
	if d.Encode(a) != ida {
		t.Fatal("re-encoding changed the id")
	}
	if d.Decode(ida) != a || d.Decode(idb) != b {
		t.Fatal("decode mismatch")
	}
	if _, ok := d.Lookup(NewIRI("http://absent")); ok {
		t.Fatal("lookup of absent term succeeded")
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d", d.Len())
	}
}

func TestDictionaryRoundTripProperty(t *testing.T) {
	d := NewDictionary()
	f := func(kind uint8, val string) bool {
		tm := Term{Kind: Kind(kind % 3), Value: val}
		return d.Decode(d.Encode(tm)) == tm
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLocalName(t *testing.T) {
	cases := []struct {
		term Term
		want string
	}{
		{NewIRI("http://example.org/ontology/birthPlace"), "birthPlace"},
		{NewIRI("http://example.org/ns#Paris"), "Paris"},
		{NewBlank("b1"), "_:b1"},
		{NewLiteral("plain"), "plain"},
	}
	for _, c := range cases {
		if got := c.term.LocalName(); got != c.want {
			t.Errorf("LocalName(%v) = %q want %q", c.term, got, c.want)
		}
	}
}

func TestCompareTotalOrder(t *testing.T) {
	terms := []Term{NewIRI("a"), NewIRI("b"), NewLiteral("a"), NewBlank("a")}
	for _, a := range terms {
		if a.Compare(a) != 0 {
			t.Errorf("Compare(%v,%v) != 0", a, a)
		}
		for _, b := range terms {
			if a.Compare(b) != -b.Compare(a) {
				t.Errorf("antisymmetry violated for %v %v", a, b)
			}
		}
	}
}

func TestReaderLargeLiteral(t *testing.T) {
	long := strings.Repeat("x", 100_000)
	in := "<http://e/s> <http://e/p> \"" + long + "\" .\n"
	got, err := ReadAll(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].O.Value != long {
		t.Fatal("large literal mangled")
	}
}

// TestParserNeverPanics feeds random garbage to the N-Triples parser; it
// must reject or accept but never panic.
func TestParserNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	alphabet := []byte(`<>"\_:@^. aZ0#策`)
	for i := 0; i < 5000; i++ {
		n := rng.Intn(60)
		line := make([]byte, n)
		for j := range line {
			line[j] = alphabet[rng.Intn(len(alphabet))]
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %q: %v", line, r)
				}
			}()
			ParseTripleLine(string(line))
		}()
	}
}

// TestParserRoundTripFuzz: any triple the writer produces must parse back
// identically, for randomized term content including escapes and unicode.
func TestParserRoundTripFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	pieces := []string{"plain", "with space", `with"quote`, `back\slash`, "tab\there",
		"new\nline", "uni– ché", "123", ""}
	randTerm := func(allowLiteral bool) Term {
		switch k := rng.Intn(3); {
		case k == 0 || !allowLiteral && k == 1:
			return NewIRI("http://e/x" + pieces[rng.Intn(4)][:2] + "y")
		case k == 1:
			return NewLiteral(pieces[rng.Intn(len(pieces))])
		default:
			return NewBlank("b" + pieces[7][:2])
		}
	}
	for i := 0; i < 2000; i++ {
		tr := Triple{S: randTerm(false), P: NewIRI("http://e/p"), O: randTerm(true)}
		got, ok, err := ParseTripleLine(tr.String())
		if err != nil || !ok {
			t.Fatalf("round trip failed for %q: %v", tr.String(), err)
		}
		if got != tr {
			t.Fatalf("round trip changed triple:\n in %#v\nout %#v", tr, got)
		}
	}
}
