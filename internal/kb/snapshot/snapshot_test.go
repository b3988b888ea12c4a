package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// writeImage assembles a small multi-section snapshot and returns its bytes.
func writeImage(t *testing.T) []byte {
	t.Helper()
	w := NewWriter()
	w.Add(7, []byte("hello"))             // odd length: forces padding
	w.Add(3, Bytes([]uint64{1, 2, 3}))    // aligned payload
	w.Add(9, nil)                         // empty section
	w.Add(5, Bytes([]uint32{9, 8, 7, 6})) // 16 bytes
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// alignedCopy duplicates an image into an 8-byte aligned buffer so FromBytes
// views stay valid.
func alignedCopy(img []byte) []byte {
	buf := make([]uint64, (len(img)+7)/8)
	out := Bytes(buf)[:len(img)]
	copy(out, img)
	return out
}

func TestWriterReaderRoundTrip(t *testing.T) {
	img := alignedCopy(writeImage(t))
	r, err := FromBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	if r.Version() != Version {
		t.Fatalf("version = %d, want %d", r.Version(), Version)
	}
	if got, ok := r.Section(7); !ok || string(got) != "hello" {
		t.Fatalf("section 7 = %q, %v", got, ok)
	}
	u64s, err := View[uint64](mustSection(t, r, 3))
	if err != nil || len(u64s) != 3 || u64s[2] != 3 {
		t.Fatalf("section 3 view = %v, %v", u64s, err)
	}
	if got, ok := r.Section(9); !ok || len(got) != 0 {
		t.Fatalf("empty section = %v, %v", got, ok)
	}
	u32s, err := View[uint32](mustSection(t, r, 5))
	if err != nil || len(u32s) != 4 || u32s[0] != 9 {
		t.Fatalf("section 5 view = %v, %v", u32s, err)
	}
	if _, ok := r.Section(42); ok {
		t.Fatal("unknown section must be absent")
	}
}

func mustSection(t *testing.T, r *Reader, id SectionID) []byte {
	t.Helper()
	b, ok := r.Section(id)
	if !ok {
		t.Fatalf("missing section %d", id)
	}
	return b
}

func TestOpenFileMmapAndHeap(t *testing.T) {
	img := writeImage(t)
	path := filepath.Join(t.TempDir(), "x.snap")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if !SniffFile(path) {
		t.Fatal("SniffFile must recognize a snapshot")
	}
	for _, noMmap := range []bool{false, true} {
		r, err := Open(path, Options{NoMmap: noMmap})
		if err != nil {
			t.Fatalf("NoMmap=%v: %v", noMmap, err)
		}
		if noMmap && r.Mapped() {
			t.Fatal("NoMmap ignored")
		}
		if got := mustSection(t, r, 7); string(got) != "hello" {
			t.Fatalf("NoMmap=%v: section 7 = %q", noMmap, got)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRejectBadMagic(t *testing.T) {
	img := alignedCopy(writeImage(t))
	copy(img, "NOTASNAP")
	if _, err := FromBytes(img); err == nil {
		t.Fatal("bad magic accepted")
	}
	if SniffFile(filepath.Join(t.TempDir(), "missing")) {
		t.Fatal("SniffFile on missing file")
	}
}

func TestRejectTruncation(t *testing.T) {
	img := writeImage(t)
	for _, cut := range []int{len(img) - 1, len(img) / 2, headerSize + 3, 10, 0} {
		if _, err := FromBytes(alignedCopy(img[:cut])); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
}

func TestRejectCorruption(t *testing.T) {
	img := writeImage(t)
	// Any flipped bit in the payload region (directory, padding, sections)
	// must be caught by the CRC.
	for off := headerSize; off < len(img); off++ {
		mut := alignedCopy(img)
		mut[off] ^= 0x40
		if _, err := FromBytes(mut); err == nil {
			t.Fatalf("payload corruption at offset %d accepted", off)
		}
	}
	// Validated header fields: byte-order mark, section count, file size,
	// CRC, directory offset. (The version pair has its own negotiation
	// semantics and the trailing reserved bytes are don't-care by design.)
	for off := 16; off < 48; off++ {
		mut := alignedCopy(img)
		mut[off] ^= 0x40
		if _, err := FromBytes(mut); err == nil {
			t.Fatalf("header corruption at offset %d accepted", off)
		}
	}
}

func TestVersionNegotiation(t *testing.T) {
	// Rewriting header fields invalidates nothing in the payload CRC (it
	// only covers data after the header), so no re-checksum is needed.
	img := writeImage(t)

	// A future version whose minReader is still within range must open.
	fwd := alignedCopy(img)
	binary.LittleEndian.PutUint32(fwd[8:], Version+5)
	binary.LittleEndian.PutUint32(fwd[12:], MinReaderVersion)
	r, err := FromBytes(fwd)
	if err != nil {
		t.Fatalf("forward-compatible file rejected: %v", err)
	}
	if r.Version() != Version+5 {
		t.Fatalf("version = %d", r.Version())
	}

	// A future version that declares it needs a newer reader must not.
	hard := alignedCopy(img)
	binary.LittleEndian.PutUint32(hard[8:], Version+5)
	binary.LittleEndian.PutUint32(hard[12:], Version+5)
	if _, err := FromBytes(hard); err == nil {
		t.Fatal("file requiring a newer reader accepted")
	}

	// A pre-historic version must be rejected.
	old := alignedCopy(img)
	binary.LittleEndian.PutUint32(old[8:], 0)
	binary.LittleEndian.PutUint32(old[12:], 0)
	if _, err := FromBytes(old); err == nil {
		t.Fatal("obsolete version accepted")
	}
}

func TestViewChecks(t *testing.T) {
	if _, err := View[uint64](make([]byte, 12)); err == nil {
		t.Fatal("ragged length accepted")
	}
	v, err := View[uint32](nil)
	if err != nil || v != nil {
		t.Fatalf("empty view = %v, %v", v, err)
	}
	b := Bytes([]uint32{1, 2})
	if len(b) != 8 {
		t.Fatalf("Bytes length = %d", len(b))
	}
	if _, err := View[uint32](b[:8]); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateSectionRejected(t *testing.T) {
	w := NewWriter()
	w.Add(1, []byte("a"))
	w.Add(1, []byte("b"))
	if _, err := w.WriteTo(&bytes.Buffer{}); err == nil {
		t.Fatal("duplicate section id accepted")
	}
}

// TestAddPartsMatchesAdd: a section handed over as parts — with empty and
// nil parts among them, zero-length sections and lengths that need padding
// — must write exactly the bytes of the same sections concatenated and
// handed to Add.
func TestAddPartsMatchesAdd(t *testing.T) {
	sections := [][][]byte{
		{[]byte("he"), nil, []byte("llo")},              // 5 bytes: 3 of padding
		{Bytes([]uint64{1}), {}, Bytes([]uint64{2, 3})}, // aligned
		{},        // no parts at all
		{nil, {}}, // parts, all empty
		{[]byte("a"), []byte("bcdefgh"), []byte("ijklmnop")}, // parts straddle the padding
		{Bytes([]uint32{9, 8, 7}), Bytes([]uint32{6})},
	}
	whole, parted := NewWriter(), NewWriter()
	for i, parts := range sections {
		whole.Add(SectionID(i+1), bytes.Join(parts, nil))
		parted.AddParts(SectionID(i+1), parts...)
	}
	var want, got bytes.Buffer
	if _, err := whole.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	n, err := parted.WriteTo(&got)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(got.Len()) || !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("AddParts image (%d bytes, %d reported) differs from Add's (%d bytes)", got.Len(), n, want.Len())
	}
	r, err := FromBytes(alignedCopy(got.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if s := mustSection(t, r, 5); string(s) != "abcdefghijklmnop" {
		t.Fatalf("section 5 = %q", s)
	}
}

// failAfter is an io.Writer that takes n bytes and then fails.
type failAfter struct{ n int }

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		m := w.n
		w.n = 0
		return m, errors.New("disk full")
	}
	w.n -= len(p)
	return len(p), nil
}

// TestWriteToReportsWriteErrors: a write that fails anywhere in the image —
// header, a section's parts, the final flush — is reported, with the count
// of the bytes that reached the writer, not of those the buffer took.
func TestWriteToReportsWriteErrors(t *testing.T) {
	big := make([]byte, 1<<20+3) // larger than the write buffer, so a part reaches the writer mid-image
	w := NewWriter()
	w.AddParts(1, big, big[:5])
	w.Add(2, []byte("tail"))
	var full bytes.Buffer
	size, err := w.WriteTo(&full)
	if err != nil || size != int64(full.Len()) {
		t.Fatalf("WriteTo = %d, %v (image %d bytes)", size, err, full.Len())
	}
	for _, cut := range []int{0, headerSize, 1 << 20, 1<<20 + 100, int(size) - 1} {
		n, err := w.WriteTo(&failAfter{n: cut})
		if err == nil {
			t.Errorf("a write failing after %d bytes went unreported", cut)
		}
		if n != int64(cut) {
			t.Errorf("a write failing after %d bytes reported %d written", cut, n)
		}
	}
	if n, err := w.WriteTo(&failAfter{n: int(size)}); err != nil || n != size {
		t.Errorf("a writer taking the whole image: WriteTo = %d, %v, want %d", n, err, size)
	}
}

// TestReaderRefcount: an image stays readable until its last reference
// closes; extra Closes are harmless and a Ref after release panics.
func TestReaderRefcount(t *testing.T) {
	w := NewWriter()
	w.SetVersion(Version+1, MinReaderVersion)
	w.Add(7, []byte("hello"))
	var img bytes.Buffer
	if _, err := w.WriteTo(&img); err != nil {
		t.Fatal(err)
	}
	r, err := FromBytes(alignedCopy(img.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if r.Version() != Version+1 || r.Size() != img.Len() || r.Refs() != 1 {
		t.Fatalf("version %d, size %d, refs %d", r.Version(), r.Size(), r.Refs())
	}
	if r.Ref() != r || r.Refs() != 2 {
		t.Fatalf("Ref: refs %d", r.Refs())
	}
	if err := r.Close(); err != nil || r.Refs() != 1 || string(mustSection(t, r, 7)) != "hello" {
		t.Fatalf("after one of two Closes: %v, refs %d", err, r.Refs())
	}
	for range 2 {
		if err := r.Close(); err != nil || r.Refs() != 0 {
			t.Fatalf("Close: %v, refs %d", err, r.Refs())
		}
	}
	if _, ok := r.Section(7); ok {
		t.Fatal("a released image still serves sections")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Ref on a released reader did not panic")
		}
	}()
	r.Ref()
}

// TestOpenRejectsUnreadableFiles: a missing file, one shorter than the
// header and a header-only file with a bad magic all fail Open, mmap or
// not, and none sniffs as a snapshot.
func TestOpenRejectsUnreadableFiles(t *testing.T) {
	dir := t.TempDir()
	short, junk := filepath.Join(dir, "short"), filepath.Join(dir, "junk")
	if err := os.WriteFile(short, []byte("REMI"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(junk, make([]byte, 2*headerSize), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{filepath.Join(dir, "missing"), short, junk} {
		for _, noMmap := range []bool{false, true} {
			if _, err := Open(path, Options{NoMmap: noMmap}); err == nil {
				t.Errorf("%s (NoMmap=%v): opened", path, noMmap)
			}
		}
		if SniffFile(path) {
			t.Errorf("%s sniffs as a snapshot", path)
		}
	}
	if _, err := View[struct{}](make([]byte, 8)); err == nil {
		t.Error("a zero-size view element accepted")
	}
	if _, err := View[uint64](Bytes(make([]uint64, 2))[1:9]); err == nil {
		t.Error("a misaligned view accepted")
	}
}
