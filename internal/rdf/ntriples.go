package rdf

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"unsafe"
)

// ParseTerm parses a single term in N-Triples syntax: <iri>, _:label, or a
// quoted literal with optional ^^<datatype> or @lang suffix.
func ParseTerm(s string) (Term, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Term{}, fmt.Errorf("rdf: empty term")
	}
	switch {
	case s[0] == '<':
		if !strings.HasSuffix(s, ">") {
			return Term{}, fmt.Errorf("rdf: unterminated IRI %q", s)
		}
		iri, err := unescapeIRI(s[1 : len(s)-1])
		if err != nil {
			return Term{}, err
		}
		return NewIRI(iri), nil
	case strings.HasPrefix(s, "_:"):
		return NewBlank(s[2:]), nil
	case s[0] == '"':
		return parseLiteral(s)
	default:
		return Term{}, fmt.Errorf("rdf: cannot parse term %q", s)
	}
}

func parseLiteral(s string) (Term, error) {
	// Find the closing quote, honoring backslash escapes.
	end := -1
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++ // skip escaped char
		case '"':
			end = i
		}
		if end >= 0 {
			break
		}
	}
	if end < 0 {
		return Term{}, fmt.Errorf("rdf: unterminated literal %q", s)
	}
	lex, err := unescapeLiteral(s[1:end])
	if err != nil {
		return Term{}, err
	}
	rest := s[end+1:]
	switch {
	case rest == "":
		return NewLiteral(lex), nil
	case strings.HasPrefix(rest, "^^<") && strings.HasSuffix(rest, ">"):
		return NewLiteral(lex + `"^^` + rest[2:]), nil
	case strings.HasPrefix(rest, "@"):
		return NewLiteral(lex + `"` + rest), nil
	default:
		return Term{}, fmt.Errorf("rdf: malformed literal suffix %q", rest)
	}
}

// unescapeLiteral decodes the escape sequences allowed inside a quoted
// literal: the ECHARs \t \b \n \r \f \" \' \\ plus the numeric UCHARs
// \uXXXX and \UXXXXXXXX. Malformed escapes are an error, never passed
// through: DBpedia and Wikidata dumps lean heavily on \u escapes, and
// silently keeping the backslash would corrupt the lexical form.
func unescapeLiteral(s string) (string, error) {
	return unescapeText(s, true, "literal")
}

// unescapeIRI decodes the escapes allowed inside <...>: the IRIREF grammar
// admits only the numeric \uXXXX / \UXXXXXXXX forms, not ECHARs.
func unescapeIRI(s string) (string, error) {
	return unescapeText(s, false, "IRI")
}

func unescapeText(s string, allowEchar bool, what string) (string, error) {
	if !strings.ContainsRune(s, '\\') {
		return s, nil
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '\\' {
			b.WriteByte(c)
			continue
		}
		i++
		if i == len(s) {
			return "", fmt.Errorf("rdf: trailing backslash in %s", what)
		}
		e := s[i]
		if allowEchar {
			switch e {
			case 't':
				b.WriteByte('\t')
				continue
			case 'b':
				b.WriteByte('\b')
				continue
			case 'n':
				b.WriteByte('\n')
				continue
			case 'r':
				b.WriteByte('\r')
				continue
			case 'f':
				b.WriteByte('\f')
				continue
			case '"':
				b.WriteByte('"')
				continue
			case '\'':
				b.WriteByte('\'')
				continue
			case '\\':
				b.WriteByte('\\')
				continue
			}
		}
		switch e {
		case 'u', 'U':
			n := 4
			if e == 'U' {
				n = 8
			}
			if i+n >= len(s) {
				return "", fmt.Errorf("rdf: truncated \\%c escape in %s", e, what)
			}
			r := rune(0)
			for _, d := range []byte(s[i+1 : i+1+n]) {
				v := hexVal(d)
				if v < 0 {
					return "", fmt.Errorf("rdf: invalid hex digit %q in \\%c escape in %s", d, e, what)
				}
				r = r<<4 | rune(v)
			}
			if r > unicodeMaxRune || (r >= 0xD800 && r <= 0xDFFF) {
				return "", fmt.Errorf("rdf: \\%c escape U+%04X is not a Unicode scalar value in %s", e, r, what)
			}
			b.WriteRune(r)
			i += n
		default:
			return "", fmt.Errorf("rdf: unknown escape \\%c in %s", e, what)
		}
	}
	return b.String(), nil
}

const unicodeMaxRune = '\U0010FFFF'

func hexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	case c >= 'A' && c <= 'F':
		return int(c-'A') + 10
	default:
		return -1
	}
}

// ParseTripleLine parses one N-Triples statement. It returns ok=false for
// blank lines and comment lines starting with '#', and ignores a comment
// after the statement.
func ParseTripleLine(line string) (tr Triple, ok bool, err error) {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return Triple{}, false, nil
	}
	line = strings.TrimSuffix(line, ".")
	line = strings.TrimSpace(line)

	fields, n := splitTerms(line)
	if n != 3 {
		return Triple{}, false, fmt.Errorf("rdf: expected 3 terms, got %d in %q", n, line)
	}
	s, err := ParseTerm(fields[0])
	if err != nil {
		return Triple{}, false, err
	}
	p, err := ParseTerm(fields[1])
	if err != nil {
		return Triple{}, false, err
	}
	if p.Kind != IRI {
		return Triple{}, false, fmt.Errorf("rdf: predicate must be an IRI, got %s", p)
	}
	o, err := ParseTerm(fields[2])
	if err != nil {
		return Triple{}, false, err
	}
	if s.Kind == Literal {
		return Triple{}, false, fmt.Errorf("rdf: subject cannot be a literal: %s", s)
	}
	return NewTriple(s, p, o), true, nil
}

// splitTerms splits an N-Triples statement body into its whitespace-separated
// terms, keeping quoted literals (which may contain spaces) intact. It
// returns the first three terms by value and the total count found —
// allocation-free, since the streaming ingest path calls it once per input
// line and a per-line slice was a third of the whole build's garbage. A
// comment ('#' where a term would start, N-Triples 1.1 whitespace) ends the
// statement, and so does a '.' followed by nothing but such a comment.
func splitTerms(line string) (fields [3]string, n int) {
	i := 0
	for i < len(line) {
		for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
		if i >= len(line) || line[i] == '#' {
			break
		}
		if line[i] == '.' {
			if rest := strings.TrimLeft(line[i+1:], " \t"); rest == "" || rest[0] == '#' {
				break
			}
		}
		start := i
		if line[i] == '"' {
			i++
			for i < len(line) {
				if line[i] == '\\' {
					i += 2
					if i > len(line) {
						i = len(line)
					}
					continue
				}
				if line[i] == '"' {
					i++
					break
				}
				i++
			}
			// consume suffix (^^<...> or @lang) until whitespace
			for i < len(line) && line[i] != ' ' && line[i] != '\t' {
				i++
			}
		} else {
			for i < len(line) && line[i] != ' ' && line[i] != '\t' {
				i++
			}
		}
		if n < 3 {
			fields[n] = line[start:i]
		}
		n++
	}
	return fields, n
}

// A block gathers blockSize bytes of input before it is cut at its last
// newline; a longer line makes a longer block, up to maxLine.
const blockSize, maxLine = 256 << 10, 16 << 20

var errLineTooLong = errors.New("rdf: line longer than 16 MiB")

// Block is a line-aligned stretch of an N-Triples document, parsed. The
// escape-free term values of Triples alias the block's own buffer, so they
// stay valid until the block is passed to ReadBlock again.
type Block struct {
	Triples []Triple
	buf     []byte
}

// Reader streams triples from an N-Triples document. It reads the input in
// line-aligned blocks of about 256 KiB and parses a block at a time.
type Reader struct {
	r     io.Reader
	carry []byte // the partial line that ended the last block
	line  int    // lines parsed so far
	err   error  // sticky: io.EOF or the first read or parse error
	cur   Block  // the block Read and ReadBorrowed serve from
	next  int    // index of the next triple of cur to serve
}

// NewReader wraps r in a streaming N-Triples reader.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r}
}

// ReadBlock parses the next block of input into b, reusing b's buffers, and
// returns io.EOF once the input is exhausted. On a parse error b holds the
// triples of the lines before the bad one, and the error, which names that
// line, is returned by this and every later call. A Reader is read either
// by blocks or by Read/ReadBorrowed, not both.
func (r *Reader) ReadBlock(b *Block) error {
	b.Triples = b.Triples[:0]
	if r.err != nil {
		return r.err
	}
	chunk, err := r.fill(b)
	for len(chunk) > 0 {
		ln := chunk
		if i := bytes.IndexByte(chunk, '\n'); i >= 0 {
			ln, chunk = chunk[:i], chunk[i+1:]
		} else {
			chunk = nil
		}
		r.line++
		if len(ln) == 0 {
			continue
		}
		tr, ok, perr := ParseTripleLine(unsafe.String(&ln[0], len(ln)))
		if len(ln) > maxLine {
			perr = errLineTooLong
		}
		if perr != nil {
			err = fmt.Errorf("line %d: %w", r.line, perr)
			break
		}
		if ok {
			b.Triples = append(b.Triples, tr)
		}
	}
	r.err = err
	if err == io.EOF && len(b.Triples) > 0 {
		return nil
	}
	return err
}

// fill reads into b's buffer, after the carried partial line, until it holds
// blockSize bytes and a newline, or the input ends. It returns the whole
// lines and carries the rest; at the end of input (err != nil) it returns
// everything. It stops early, returning the partial line too, once that
// line alone exceeds maxLine.
func (r *Reader) fill(b *Block) (chunk []byte, err error) {
	buf := append(b.buf[:0], r.carry...)
	last := -1 // index of the last newline in buf; the carry holds none
	for err == nil && (len(buf) < blockSize || last < 0) && len(buf)-last-1 <= maxLine {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, blockSize)
		}
		var n int
		n, err = r.r.Read(buf[len(buf):cap(buf)])
		if i := bytes.LastIndexByte(buf[len(buf):len(buf)+n], '\n'); i >= 0 {
			last = len(buf) + i
		}
		buf = buf[:len(buf)+n]
	}
	b.buf = buf
	if err != nil || len(buf)-last-1 > maxLine {
		last = len(buf) - 1 // the input ended, or the caller rejects the long line
	}
	r.carry = append(r.carry[:0], buf[last+1:]...)
	return buf[:last+1], err
}

// Read returns the next triple, or io.EOF when the input is exhausted. The
// triple's values share one fresh allocation and hold no reference to the
// reader's buffers.
func (r *Reader) Read() (Triple, error) {
	tr, err := r.ReadBorrowed()
	if err != nil {
		return tr, err
	}
	var all strings.Builder
	all.Grow(len(tr.S.Value) + len(tr.P.Value) + len(tr.O.Value))
	all.WriteString(tr.S.Value)
	all.WriteString(tr.P.Value)
	all.WriteString(tr.O.Value)
	v, s, p := all.String(), len(tr.S.Value), len(tr.S.Value)+len(tr.P.Value)
	tr.S.Value, tr.P.Value, tr.O.Value = v[:s], v[s:p], v[p:]
	return tr, nil
}

// ReadBorrowed is Read without the copy: escape-free term values alias the
// reader's current block and are only valid until the next Read or
// ReadBorrowed call. Callers that retain a term must copy it
// (strings.Clone) first.
func (r *Reader) ReadBorrowed() (Triple, error) {
	for r.next == len(r.cur.Triples) {
		r.next = 0
		if err := r.ReadBlock(&r.cur); err != nil && len(r.cur.Triples) == 0 {
			return Triple{}, err
		}
	}
	r.next++
	return r.cur.Triples[r.next-1], nil
}

// ReadAll parses every triple in the input.
func ReadAll(r io.Reader) ([]Triple, error) {
	rd := NewReader(r)
	var out []Triple
	for {
		tr, err := rd.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, tr)
	}
}

// WriteAll serializes triples in N-Triples syntax.
func WriteAll(w io.Writer, triples []Triple) error {
	bw := bufio.NewWriter(w)
	for _, tr := range triples {
		if _, err := bw.WriteString(tr.String()); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
