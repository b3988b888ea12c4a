// Package snapshot implements the on-disk container behind KB snapshots: a
// versioned, checksummed binary image made of 8-byte-aligned sections with a
// section directory. The KB layer serializes its flat CSR arenas into
// sections once ("pack once"); OpenSnapshot then maps the file (mmap on unix,
// one contiguous aligned read elsewhere) and hands back byte views that the
// caller casts directly into the typed slices its accessors binary-search —
// cold start becomes O(page-in) I/O instead of O(parse + sort) CPU.
//
// File layout (all integers little-endian, written natively on LE hosts and
// guarded by a byte-order mark):
//
//	[0..64)            fixed header (magic, versions, BOM, size, CRC, dir)
//	[64..64+24·n)      directory: n entries of {id u32, pad u32, off u64, len u64}
//	[...]              section payloads, each 8-byte aligned, zero padded
//
// Version negotiation is two-sided: the header carries both the writer's
// format version and the minimum reader version able to parse the file. A
// reader accepts any file whose minReader is not newer than the reader
// itself, ignoring unknown section ids (forward compatibility), and rejects
// files older than its own floor (backward compatibility). The CRC-64 of
// everything after the header is verified on open, so truncated or corrupted
// images are rejected before any section is interpreted.
package snapshot

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"unsafe"
)

// Magic is the 8-byte file signature; the trailing newline guards against
// text-mode mangling.
const Magic = "REMISNP\n"

const (
	// Version is the format version this package writes by default. Version
	// 2 replaced the raw term blob + per-entity offset table with
	// front-coded term blocks and dropped the sections derivable from the
	// CSR arenas; version-1 readers cannot interpret that layout, so v2
	// files carry minReader = 2.
	Version = 2
	// MinReaderVersion is the oldest reader able to parse files we write by
	// default; recorded in the header so future writers can extend the
	// format without stranding old readers (they skip unknown sections)
	// until a layout change truly requires a cut-off.
	MinReaderVersion = 2
	// oldestSupported is the oldest file version this reader still accepts.
	// Version-1 images (raw term table, stored pair lists and adjacency)
	// are refused: re-pack them from their N-Triples source.
	oldestSupported = 2
)

// headerSize is the fixed byte length of the file header.
const headerSize = 64

// byteOrderMark is stored natively; a reader on a host with different
// endianness sees the bytes reversed and rejects the file instead of
// silently misreading every integer.
const byteOrderMark uint32 = 0x01020304

// dirEntrySize is the byte length of one directory entry.
const dirEntrySize = 24

// SectionID names one section of a snapshot. IDs are format-stable;
// readers ignore ids they do not know.
type SectionID uint32

// crcTable is the ECMA polynomial table shared by writer and reader.
var crcTable = crc64.MakeTable(crc64.ECMA)

// align8 rounds n up to the next multiple of 8.
func align8(n uint64) uint64 { return (n + 7) &^ 7 }

// section is one section's payload as the parts it is written from, in
// order, and their total length.
type section struct {
	id    SectionID
	parts [][]byte
	size  uint64
}

// Writer assembles a snapshot from named sections. Sections are written in
// Add order; the payload slices are retained (not copied) until WriteTo.
type Writer struct {
	sections  []section
	version   uint32
	minReader uint32
}

// NewWriter returns an empty snapshot writer stamping the current default
// (Version, MinReaderVersion) pair.
func NewWriter() *Writer { return &Writer{version: Version, minReader: MinReaderVersion} }

// SetVersion overrides the header's format/min-reader pair (the version
// negotiation tests stamp images older and newer than this reader with it).
// It does not change what sections are written — the caller owns
// layout/version consistency.
func (w *Writer) SetVersion(version, minReader uint32) {
	w.version = version
	w.minReader = minReader
}

// Add appends one section. The data slice is retained until WriteTo; callers
// must not mutate it in between. Duplicate ids are a programming error and
// surface at WriteTo.
func (w *Writer) Add(id SectionID, data []byte) { w.AddParts(id, data) }

// AddParts appends one section whose payload is the concatenation of parts,
// without concatenating them: the checksum and the write walk the parts in
// order, so a section gathered from many live arrays costs no copy. Parts
// are retained like Add's data.
func (w *Writer) AddParts(id SectionID, parts ...[]byte) {
	s := section{id: id, parts: parts}
	for _, p := range parts {
		s.size += uint64(len(p))
	}
	w.sections = append(w.sections, s)
}

var zeroPad [8]byte

// WriteTo writes the snapshot image: header, directory, then each section
// 8-byte aligned. The payload CRC covers everything after the header, so the
// directory and padding are integrity-checked too.
func (w *Writer) WriteTo(out io.Writer) (int64, error) {
	seen := make(map[SectionID]bool, len(w.sections))
	for _, s := range w.sections {
		if seen[s.id] {
			return 0, fmt.Errorf("snapshot: duplicate section id %d", s.id)
		}
		seen[s.id] = true
	}

	// Lay out the directory and section offsets.
	dir := make([]byte, dirEntrySize*len(w.sections))
	off := uint64(headerSize) + uint64(len(dir)) // dir length is a multiple of 8
	for i, s := range w.sections {
		e := dir[i*dirEntrySize:]
		binary.LittleEndian.PutUint32(e[0:], uint32(s.id))
		binary.LittleEndian.PutUint64(e[8:], off)
		binary.LittleEndian.PutUint64(e[16:], s.size)
		off = align8(off + s.size)
	}
	fileSize := off

	// CRC over the payload region exactly as it will appear on disk.
	crc := crc64.Update(0, crcTable, dir)
	for _, s := range w.sections {
		for _, p := range s.parts {
			crc = crc64.Update(crc, crcTable, p)
		}
		crc = crc64.Update(crc, crcTable, zeroPad[:align8(s.size)-s.size])
	}

	var hdr [headerSize]byte
	copy(hdr[0:8], Magic)
	binary.LittleEndian.PutUint32(hdr[8:], w.version)
	binary.LittleEndian.PutUint32(hdr[12:], w.minReader)
	*(*uint32)(unsafe.Pointer(&hdr[16])) = byteOrderMark // native order: the BOM check
	binary.LittleEndian.PutUint32(hdr[20:], uint32(len(w.sections)))
	binary.LittleEndian.PutUint64(hdr[24:], fileSize)
	binary.LittleEndian.PutUint64(hdr[32:], crc)
	binary.LittleEndian.PutUint64(hdr[40:], headerSize)

	// Count beneath the buffer: what reached out, not what the buffer took.
	// The buffer keeps its first write error, makes every later write a
	// no-op and reports the error from Flush.
	cw := &countingWriter{w: out}
	bw := bufio.NewWriterSize(cw, 1<<20)
	bw.Write(hdr[:])
	bw.Write(dir)
	for _, s := range w.sections {
		for _, p := range s.parts {
			bw.Write(p)
		}
		bw.Write(zeroPad[:align8(s.size)-s.size])
	}
	err := bw.Flush()
	return cw.n, err
}

// countingWriter counts the bytes its writer accepted.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	m, err := c.w.Write(p)
	c.n += int64(m)
	return m, err
}

// View reinterprets a section's bytes as a []T without copying. T must be a
// fixed-size type whose in-memory layout matches the on-disk layout (the KB
// uses uint32-derived ids and 8-byte pair structs). The byte length must be
// an exact multiple of the element size and the base pointer must satisfy
// T's alignment — both hold by construction for sections of an 8-aligned
// image, so a failure indicates a corrupt directory.
func View[T any](b []byte) ([]T, error) {
	var t T
	sz := int(unsafe.Sizeof(t))
	if sz == 0 {
		return nil, fmt.Errorf("snapshot: zero-size view element")
	}
	if len(b) == 0 {
		return nil, nil
	}
	if len(b)%sz != 0 {
		return nil, fmt.Errorf("snapshot: section length %d not a multiple of element size %d", len(b), sz)
	}
	p := unsafe.Pointer(&b[0])
	if al := uintptr(unsafe.Alignof(t)); uintptr(p)%al != 0 {
		return nil, fmt.Errorf("snapshot: section misaligned for element alignment %d", al)
	}
	return unsafe.Slice((*T)(p), len(b)/sz), nil
}

// Bytes is the writer-side inverse of View: it reinterprets a typed slice as
// its raw bytes without copying, for handing live arenas to Writer.Add.
func Bytes[T any](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	var t T
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(t)))
}
