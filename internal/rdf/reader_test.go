package rdf

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
)

func TestParseTripleLineTrailingComment(t *testing.T) {
	s, p := NewIRI("http://e/s"), NewIRI("http://e/p")
	for _, tc := range []struct {
		line string
		o    Term
	}{
		{`<http://e/s> <http://e/p> <http://e/o> . # c`, NewIRI("http://e/o")},
		{`<http://e/s> <http://e/p> "a b" .# c`, NewLiteral("a b")},
		{"<http://e/s> <http://e/p> <http://e/o> .\t# a comment that ends with a dot.", NewIRI("http://e/o")},
		{`<http://e/s> <http://e/p> <http://e/o> # no terminator`, NewIRI("http://e/o")},
		// A '#' inside a term is not a comment.
		{`<http://e/s> <http://e/p> <http://e/x#frag> . # c`, NewIRI("http://e/x#frag")},
		{`<http://e/s> <http://e/p> "a # b" .`, NewLiteral("a # b")},
		{`<http://e/s> <http://e/p> "a # b"@en . #c`, NewLiteral(`a # b"@en`)},
		{`<http://e/s> <http://e/p> "1"^^<http://www.w3.org/2001/XMLSchema#int> .#`, NewLiteral(`1"^^<http://www.w3.org/2001/XMLSchema#int>`)},
	} {
		got, ok, err := ParseTripleLine(tc.line)
		if err != nil || !ok || got != NewTriple(s, p, tc.o) {
			t.Errorf("%q: got %v ok=%v err=%v, want object %v", tc.line, got, ok, err, tc.o)
		}
	}
	for _, bad := range []string{
		`<http://e/s> <http://e/p> <http://e/o> . <http://e/x>`, // text after the terminator
		`<http://e/s> <http://e/p> # <http://e/o> .`,            // the comment hides the object
	} {
		if _, ok, err := ParseTripleLine(bad); err == nil || ok {
			t.Errorf("%q: accepted", bad)
		}
	}
}

// lineOracle parses doc one line at a time with ParseTripleLine, sharing
// nothing with the reader's block loop. It returns the triples before the
// first bad line and that line's 1-based number (0 when there is none).
func lineOracle(doc string) (trs []Triple, badLine int) {
	for i, ln := range strings.Split(doc, "\n") {
		tr, ok, err := ParseTripleLine(ln)
		if err != nil {
			return trs, i + 1
		}
		if ok {
			trs = append(trs, tr)
		}
	}
	return trs, 0
}

// readBlocks reads r to the end by blocks, copying every triple out of the
// block before it is reused.
func readBlocks(r *Reader) ([]Triple, error) {
	var b Block
	var out []Triple
	for {
		err := r.ReadBlock(&b)
		for _, tr := range b.Triples {
			tr.S.Value, tr.P.Value, tr.O.Value = strings.Clone(tr.S.Value), strings.Clone(tr.P.Value), strings.Clone(tr.O.Value)
			out = append(out, tr)
		}
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
	}
}

// boundaryDoc puts special so that it starts pad bytes before the end of the
// first block's worth of input, follows it with a line longer than a block,
// and ends without a final newline.
func boundaryDoc(special string, pad int) string {
	var b strings.Builder
	for i := 0; b.Len() < blockSize-pad-200; i++ {
		fmt.Fprintf(&b, "<http://e/s%d> <http://e/p> \"filler %d\" .\n", i, i)
	}
	fmt.Fprintf(&b, "#%s\n", strings.Repeat("-", blockSize-pad-b.Len()-2))
	b.WriteString(special)
	b.WriteString("<http://e/s> <http://e/q> <http://e/after> .\n")
	fmt.Fprintf(&b, "<http://e/s> <http://e/p> \"%s\" .\r\n", strings.Repeat("long ", blockSize/4))
	b.WriteString(`<http://e/last> <http://e/p> "no final newline"`)
	return b.String()
}

// TestReadBlockBoundaries moves awkward lines across the first block
// boundary under readers that deliver the input whole, in halves or byte by
// byte: every read path must see what the line oracle sees, and a bad line
// must be reported with its number after the triples before it.
func TestReadBlockBoundaries(t *testing.T) {
	specials := []string{
		"<http://e/s> <http://e/p> <http://e/crlf> .\r\n",
		"\r\n\n<http://e/s> <http://e/p> <http://e/afterblank> .\n",
		"# a comment line\n<http://e/s> <http://e/p> \"x\" . # and a trailing one\n",
		"<http://e/s> <http://e/p> \"tab\\t quote\\\" caf\\u00E9 \\U0001F600\" .\n",
		"<http://e/s> <http://e/p> .\n", // bad: two terms
	}
	// Shifts of the special's first line against the boundary: 0 ends it
	// exactly at blockSize, -len starts it there.
	readers := []struct {
		name   string
		wrap   func(io.Reader) io.Reader
		shifts []int
	}{
		{"whole", func(r io.Reader) io.Reader { return r }, []int{-1, 0, 1, 2, -1000}},
		{"half", iotest.HalfReader, []int{0, 1}},
		{"dataerr", iotest.DataErrReader, []int{0}},
		{"onebyte", iotest.OneByteReader, []int{1}},
	}
	for si, special := range specials {
		first := strings.IndexByte(special, '\n') + 1
		for _, rd := range readers {
			for _, shift := range rd.shifts {
				pad := max(first+shift, 0)
				doc := boundaryDoc(special, pad)
				want, badLine := lineOracle(doc)
				name := fmt.Sprintf("special%d/%s/pad%d", si, rd.name, pad)

				got, err := readBlocks(NewReader(rd.wrap(strings.NewReader(doc))))
				checkRead(t, name+"/ReadBlock", got, err, want, badLine)
				got, err = ReadAll(rd.wrap(strings.NewReader(doc)))
				checkRead(t, name+"/Read", got, err, want, badLine)
			}
		}
	}
}

func checkRead(t *testing.T, name string, got []Triple, err error, want []Triple, badLine int) {
	t.Helper()
	if badLine == 0 && err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if badLine != 0 && (err == nil || !strings.HasPrefix(err.Error(), fmt.Sprintf("line %d: ", badLine))) {
		t.Fatalf("%s: error %v, want one for line %d", name, err, badLine)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: %d triples differ from the line oracle's %d", name, len(got), len(want))
	}
}

// TestReaderLineTooLong: a line over 16 MiB is an error that names the
// line, like every other parse error, whether or not a newline ends it; the
// error is sticky.
func TestReaderLineTooLong(t *testing.T) {
	long := `<http://e/s> <http://e/p> "` + strings.Repeat("x", maxLine) + `" .`
	for _, doc := range []string{
		"<http://e/s> <http://e/p> <http://e/o> .\n\n" + long + "\n<http://e/s> <http://e/p> <http://e/o2> .\n",
		"<http://e/s> <http://e/p> <http://e/o> .\n\n" + long,
	} {
		r := NewReader(bytes.NewReader([]byte(doc)))
		if _, err := r.Read(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := r.Read(); !errors.Is(err, errLineTooLong) || !strings.HasPrefix(err.Error(), "line 3: ") {
				t.Fatalf("read %d: error %v, want line 3 too long", i, err)
			}
		}
	}
	// A line that never ends is rejected once it passes the limit, not
	// buffered to the end of the input.
	endless := &countingReader{r: io.LimitReader(xs{}, 4*maxLine)}
	r := NewReader(io.MultiReader(strings.NewReader("<http://e/s> <http://e/p> <http://e/o> .\n"), endless))
	var b Block
	for err := r.ReadBlock(&b); err == nil; err = r.ReadBlock(&b) {
	}
	if err := r.ReadBlock(&b); !errors.Is(err, errLineTooLong) || !strings.HasPrefix(err.Error(), "line 2: ") || endless.n > 2*maxLine {
		t.Fatalf("error %v after reading %d bytes of an endless line", err, endless.n)
	}
}

// xs is an endless stream of 'x'.
type xs struct{}

func (xs) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'x'
	}
	return len(p), nil
}

type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestReadKeepsNoBorrow: triples from Read stay intact after the reader has
// refilled the buffer they were parsed from.
func TestReadKeepsNoBorrow(t *testing.T) {
	doc := boundaryDoc("", 0)
	want, _ := lineOracle(doc)
	r := NewReader(strings.NewReader(doc))
	first, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	for err == nil {
		_, err = r.Read()
	}
	if err != io.EOF || first != want[0] {
		t.Fatalf("first triple %v after reading to %v, want %v", first, err, want[0])
	}
}
