// Package frontcoding stores a sorted set of RDF terms as front-coded blocks
// with random access: the term table of KB snapshots (internal/kb).
package frontcoding

import (
	"encoding/binary"
	"fmt"
	"strings"
	"unsafe"

	"github.com/remi-kb/remi/internal/rdf"
)

// Front coding compresses a sorted string section by storing, for every
// string except block heads, only the length of the prefix shared with its
// predecessor plus the remaining suffix. Blocks of BlockSize strings keep
// random access cheap while achieving most of the compression: random access
// decodes at most BlockSize-1 delta entries after one block head.
const BlockSize = 16

func commonPrefix(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// SerializeTerm renders a term as a kind-prefixed byte string ('I'/'L'/'B' +
// value), the canonical form used for front coding. Note the byte order of
// the kind prefixes differs from rdf.Term.Compare's kind order; use
// CompareSerializedTerm, never bytes.Compare, to order serialized terms
// consistently with live ones.
func SerializeTerm(t rdf.Term) []byte {
	return AppendTerm(make([]byte, 0, len(t.Value)+1), t)
}

// AppendTerm appends SerializeTerm(t) to dst and returns the extended
// buffer, so a caller serializing many terms can reuse one.
func AppendTerm(dst []byte, t rdf.Term) []byte {
	switch t.Kind {
	case rdf.IRI:
		dst = append(dst, 'I')
	case rdf.Literal:
		dst = append(dst, 'L')
	case rdf.Blank:
		dst = append(dst, 'B')
	}
	return append(dst, t.Value...)
}

// DeserializeTerm reverses SerializeTerm.
func DeserializeTerm(b []byte) (rdf.Term, error) {
	t, err := BorrowTerm(b)
	t.Value = strings.Clone(t.Value)
	return t, err
}

// BorrowTerm is DeserializeTerm without the copy: the term's Value aliases
// b, so it is valid only while b is neither modified nor reused.
func BorrowTerm(b []byte) (rdf.Term, error) {
	if len(b) == 0 {
		return rdf.Term{}, fmt.Errorf("frontcoding: empty serialized term")
	}
	v := unsafe.String(unsafe.SliceData(b[1:]), len(b)-1)
	switch b[0] {
	case 'I':
		return rdf.NewIRI(v), nil
	case 'L':
		return rdf.NewLiteral(v), nil
	case 'B':
		return rdf.NewBlank(v), nil
	default:
		return rdf.Term{}, fmt.Errorf("frontcoding: unknown term kind byte %q", b[0])
	}
}

// CompareSerializedTerm orders a serialized term against a live term using
// rdf.Term.Compare semantics (IRI < Literal < Blank, then value bytes),
// without allocating. It panics on an unknown kind prefix: callers hand it
// checksummed snapshot data, where a malformed entry indicates a writer bug,
// not an input error.
func CompareSerializedTerm(b []byte, t rdf.Term) int {
	if len(b) == 0 {
		panic("frontcoding: empty serialized term")
	}
	var kind rdf.Kind
	switch b[0] {
	case 'I':
		kind = rdf.IRI
	case 'L':
		kind = rdf.Literal
	case 'B':
		kind = rdf.Blank
	default:
		panic(fmt.Sprintf("frontcoding: unknown term kind byte %q", b[0]))
	}
	if kind != t.Kind {
		if kind < t.Kind {
			return -1
		}
		return 1
	}
	rest, v := b[1:], t.Value
	n := len(rest)
	if len(v) < n {
		n = len(v)
	}
	for i := 0; i < n; i++ {
		if rest[i] != v[i] {
			if rest[i] < v[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(rest) < len(v):
		return -1
	case len(rest) > len(v):
		return 1
	}
	return 0
}

// FCBuilder accumulates serialized terms — appended in the order they will
// be searched in — into a front-coded blob plus block start offsets, the
// random-access layout FCSet reads. It carries no count prefix: blob and
// offsets are stored as separate snapshot sections.
type FCBuilder struct {
	blob []byte
	offs []uint64
	prev []byte
	n    int
}

// Append front-codes one serialized term.
func (fb *FCBuilder) Append(cur []byte) {
	if fb.n%BlockSize == 0 {
		fb.offs = append(fb.offs, uint64(len(fb.blob)))
		fb.blob = binary.AppendUvarint(fb.blob, uint64(len(cur)))
		fb.blob = append(fb.blob, cur...)
	} else {
		common := commonPrefix(fb.prev, cur)
		fb.blob = binary.AppendUvarint(fb.blob, uint64(common))
		fb.blob = binary.AppendUvarint(fb.blob, uint64(len(cur)-common))
		fb.blob = append(fb.blob, cur[common:]...)
	}
	fb.prev = append(fb.prev[:0], cur...)
	fb.n++
}

// Finish returns the blob, the block offsets (one per block plus a final
// entry equal to len(blob)), and the entry count.
func (fb *FCBuilder) Finish() (blob []byte, blockOffs []uint64, n int) {
	fb.offs = append(fb.offs, uint64(len(fb.blob)))
	return fb.blob, fb.offs, fb.n
}

// FCSet is a read-only random-access view over a front-coded blob produced
// by FCBuilder, typically aliasing an mmap'd snapshot section. No per-entry
// offset table exists or is built: entry access decodes within one block,
// and Search binary-searches block heads before walking a single block.
type FCSet struct {
	blob []byte
	offs []uint64
	n    int
}

// NewFCSet validates the block-offset structure (count, monotonicity,
// bounds) against the blob and entry count. The slices are retained.
func NewFCSet(blob []byte, blockOffs []uint64, n int) (*FCSet, error) {
	if n < 0 {
		return nil, fmt.Errorf("frontcoding: negative entry count %d", n)
	}
	blocks := (n + BlockSize - 1) / BlockSize
	if len(blockOffs) != blocks+1 {
		return nil, fmt.Errorf("frontcoding: front-coded set of %d entries needs %d block offsets, got %d", n, blocks+1, len(blockOffs))
	}
	if blocks > 0 && blockOffs[0] != 0 {
		return nil, fmt.Errorf("frontcoding: front-coded set first block offset %d, want 0", blockOffs[0])
	}
	for i := 1; i < len(blockOffs); i++ {
		if blockOffs[i] < blockOffs[i-1] {
			return nil, fmt.Errorf("frontcoding: front-coded block offsets not monotonic at %d", i)
		}
	}
	if blockOffs[len(blockOffs)-1] != uint64(len(blob)) {
		return nil, fmt.Errorf("frontcoding: front-coded block offsets end at %d, want blob size %d", blockOffs[len(blockOffs)-1], len(blob))
	}
	return &FCSet{blob: blob, offs: blockOffs, n: n}, nil
}

// Len returns the number of entries.
func (s *FCSet) Len() int { return s.n }

// TermAt decodes entry i.
func (s *FCSet) TermAt(i int) (rdf.Term, error) {
	b, err := s.entryAt(i, nil)
	if err != nil {
		return rdf.Term{}, err
	}
	return DeserializeTerm(b)
}

// entryAt returns the serialized bytes of entry i, reusing scratch when it
// has capacity. The returned slice is only valid until the next call with
// the same scratch.
func (s *FCSet) entryAt(i int, scratch []byte) ([]byte, error) {
	if i < 0 || i >= s.n {
		return nil, fmt.Errorf("frontcoding: front-coded entry %d out of range (%d entries)", i, s.n)
	}
	block := i / BlockSize
	c := blockCursor{data: s.blob[s.offs[block]:s.offs[block+1]]}
	cur, err := c.head(scratch)
	if err != nil {
		return nil, err
	}
	for k := 0; k < i%BlockSize; k++ {
		cur, err = c.next(cur)
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}

// Search locates the entry for which cmp returns 0, where cmp receives a
// serialized entry and reports its order relative to the target (negative
// when the entry sorts before the target). Entries must have been appended
// in an order consistent with cmp. It returns the entry index and whether an
// exact match was found.
func (s *FCSet) Search(cmp func(serialized []byte) int) (int, bool, error) {
	blocks := len(s.offs) - 1
	lo, hi := 0, blocks
	var scratch []byte
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		c := blockCursor{data: s.blob[s.offs[mid]:s.offs[mid+1]]}
		head, err := c.head(scratch)
		if err != nil {
			return 0, false, err
		}
		scratch = head
		if cmp(head) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// lo is now the first block whose head sorts after the target; the
	// target, if present, lives in the previous block.
	block := lo - 1
	if block < 0 {
		return 0, false, nil
	}
	c := blockCursor{data: s.blob[s.offs[block]:s.offs[block+1]]}
	cur, err := c.head(scratch)
	if err != nil {
		return 0, false, err
	}
	limit := s.n - block*BlockSize
	if limit > BlockSize {
		limit = BlockSize
	}
	for k := 0; k < limit; k++ {
		if k > 0 {
			cur, err = c.next(cur)
			if err != nil {
				return 0, false, err
			}
		}
		switch c := cmp(cur); {
		case c == 0:
			return block*BlockSize + k, true, nil
		case c > 0:
			return block*BlockSize + k, false, nil
		}
	}
	return block*BlockSize + limit, false, nil
}

// Each calls f with every entry index and its serialized bytes — valid only
// for the duration of the call — until f returns false. One sequential
// decode pass, far cheaper than n TermAt calls.
func (s *FCSet) Each(f func(i int, serialized []byte) bool) error {
	var cur []byte
	for block := 0; block*BlockSize < s.n; block++ {
		c := blockCursor{data: s.blob[s.offs[block]:s.offs[block+1]]}
		limit := s.n - block*BlockSize
		if limit > BlockSize {
			limit = BlockSize
		}
		var err error
		for k := 0; k < limit; k++ {
			if k == 0 {
				cur, err = c.head(cur)
			} else {
				cur, err = c.next(cur)
			}
			if err != nil {
				return err
			}
			if !f(block*BlockSize+k, cur) {
				return nil
			}
		}
	}
	return nil
}

// blockCursor decodes front-coded entries within a single block.
type blockCursor struct {
	data []byte
	pos  int
}

func (c *blockCursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.data[c.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("frontcoding: corrupt front-coded block (bad uvarint at %d)", c.pos)
	}
	c.pos += n
	return v, nil
}

func (c *blockCursor) head(scratch []byte) ([]byte, error) {
	l, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if l > uint64(len(c.data)-c.pos) {
		return nil, fmt.Errorf("frontcoding: corrupt front-coded block (head length %d overruns block)", l)
	}
	cur := append(scratch[:0], c.data[c.pos:c.pos+int(l)]...)
	c.pos += int(l)
	return cur, nil
}

func (c *blockCursor) next(prev []byte) ([]byte, error) {
	common, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	suffixLen, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if common > uint64(len(prev)) {
		return nil, fmt.Errorf("frontcoding: corrupt front coding (prefix %d > prev %d)", common, len(prev))
	}
	if suffixLen > uint64(len(c.data)-c.pos) {
		return nil, fmt.Errorf("frontcoding: corrupt front-coded block (suffix %d overruns block)", suffixLen)
	}
	cur := append(prev[:common], c.data[c.pos:c.pos+int(suffixLen)]...)
	c.pos += int(suffixLen)
	return cur, nil
}
