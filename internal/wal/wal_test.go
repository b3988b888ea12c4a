package wal

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/remi-kb/remi/internal/faults"
)

// openT fails the test on error and closes the log at cleanup.
func openT(t *testing.T, path string) (*Log, *Recovery) {
	t.Helper()
	l, rec, err := Open(path)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	t.Cleanup(func() { l.Close() })
	return l, rec
}

func appendAll(t *testing.T, l *Log, payloads ...[]byte) {
	t.Helper()
	for i, p := range payloads {
		if err := l.Append(context.Background(), p); err != nil {
			t.Fatalf("Append #%d: %v", i, err)
		}
	}
}

func samplePayloads() [][]byte {
	return [][]byte{
		[]byte(`{"op":"upsert","n":1}`),
		{},
		[]byte("x"),
		bytes.Repeat([]byte{0xAB}, 300),
		[]byte(`{"op":"retract","term":"<http://example.org/e>"}`),
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kb.wal")
	l, rec := openT(t, path)
	if len(rec.Records) != 0 || rec.DroppedBytes != 0 {
		t.Fatalf("fresh log recovered %d records, %d dropped bytes", len(rec.Records), rec.DroppedBytes)
	}
	want := samplePayloads()
	appendAll(t, l, want...)
	if l.Records() != int64(len(want)) {
		t.Fatalf("Records() = %d, want %d", l.Records(), len(want))
	}
	size := l.Size()
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, rec2 := openT(t, path)
	if rec2.DroppedBytes != 0 {
		t.Fatalf("clean log dropped %d bytes on replay", rec2.DroppedBytes)
	}
	if len(rec2.Records) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(rec2.Records), len(want))
	}
	for i := range want {
		if !bytes.Equal(rec2.Records[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, rec2.Records[i], want[i])
		}
	}
	if l2.Size() != size {
		t.Fatalf("Size() after replay = %d, want %d", l2.Size(), size)
	}
}

func TestTruncateResetsLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kb.wal")
	l, _ := openT(t, path)
	appendAll(t, l, samplePayloads()...)
	if err := l.Truncate(); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	if l.Size() != 0 || l.Records() != 0 {
		t.Fatalf("after Truncate: size=%d records=%d", l.Size(), l.Records())
	}
	appendAll(t, l, []byte("after"))
	l.Close()
	_, rec := openT(t, path)
	if len(rec.Records) != 1 || string(rec.Records[0]) != "after" {
		t.Fatalf("replay after truncate = %q", rec.Records)
	}
}

func TestAppendRejectsOversizedRecord(t *testing.T) {
	l, _ := openT(t, filepath.Join(t.TempDir(), "kb.wal"))
	err := l.Append(context.Background(), make([]byte, MaxRecordBytes+1))
	if !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("oversized append: %v, want ErrRecordTooLarge", err)
	}
}

// TestTornTailTruncated crashes "mid-append" by hand: valid records
// followed by a partial frame. Replay must recover the prefix, truncate
// the tail, and leave the log appendable.
func TestTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kb.wal")
	l, _ := openT(t, path)
	want := samplePayloads()
	appendAll(t, l, want...)
	goodSize := l.Size()
	l.Close()

	for _, tail := range [][]byte{
		{0x05},                                // torn length field
		{0x05, 0, 0, 0, 0xAA, 0xBB},           // torn header
		{0x05, 0, 0, 0, 1, 2, 3, 4, 'h', 'i'}, // full header, short payload
	} {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.Write(tail)
		f.Close()

		l2, rec := openT(t, path)
		if len(rec.Records) != len(want) {
			t.Fatalf("tail %v: replayed %d records, want %d", tail, len(rec.Records), len(want))
		}
		if rec.DroppedBytes != int64(len(tail)) {
			t.Fatalf("tail %v: dropped %d bytes, want %d", tail, rec.DroppedBytes, len(tail))
		}
		if l2.Size() != goodSize {
			t.Fatalf("tail %v: size %d, want %d", tail, l2.Size(), goodSize)
		}
		l2.Close()
		if st, _ := os.Stat(path); st.Size() != goodSize {
			t.Fatalf("tail %v: file not truncated: %d bytes", tail, st.Size())
		}
	}
}

// TestLargeRecordStreamedReplay covers frames larger than the bounded
// replay buffer: a payload spanning several bufio fills must round-trip
// intact, and a torn tail promising more bytes than the file holds must be
// truncated back to the last consistent boundary.
func TestLargeRecordStreamedReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kb.wal")
	l, _ := openT(t, path)
	big := bytes.Repeat([]byte{0xC7}, 3<<20) // 3 MB > the 1 MB replay buffer
	want := [][]byte{[]byte("head"), big, []byte("tail")}
	appendAll(t, l, want...)
	goodSize := l.Size()
	l.Close()

	l2, rec := openT(t, path)
	if rec.DroppedBytes != 0 || len(rec.Records) != len(want) {
		t.Fatalf("clean replay: %d records, %d dropped", len(rec.Records), rec.DroppedBytes)
	}
	for i := range want {
		if !bytes.Equal(rec.Records[i], want[i]) {
			t.Fatalf("record %d corrupted by streamed replay", i)
		}
	}
	l2.Close()

	// A header promising a 2 MB payload with only 1000 bytes behind it:
	// torn mid-payload, below MaxRecordBytes, spanning buffer refills.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[:], 2<<20)
	binary.LittleEndian.PutUint32(hdr[4:], 0xDEADBEEF)
	f.Write(hdr[:])
	f.Write(bytes.Repeat([]byte{1}, 1000))
	f.Close()

	l3, rec3 := openT(t, path)
	if len(rec3.Records) != len(want) {
		t.Fatalf("torn big tail: replayed %d records, want %d", len(rec3.Records), len(want))
	}
	if rec3.DroppedBytes != headerSize+1000 {
		t.Fatalf("torn big tail: dropped %d bytes, want %d", rec3.DroppedBytes, headerSize+1000)
	}
	if l3.Size() != goodSize {
		t.Fatalf("torn big tail: size %d, want %d", l3.Size(), goodSize)
	}
	l3.Close()
	if st, _ := os.Stat(path); st.Size() != goodSize {
		t.Fatalf("torn big tail: file not truncated: %d bytes", st.Size())
	}
}

// TestBitFlipSweep flips every bit of a small log, one at a time, and
// asserts replay never panics and always recovers a consistent prefix of
// the original records.
func TestBitFlipSweep(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "kb.wal")
	l, _ := openT(t, path)
	want := [][]byte{[]byte("alpha"), []byte("beta-beta"), []byte("g")}
	appendAll(t, l, want...)
	l.Close()
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for pos := 0; pos < len(orig); pos++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), orig...)
			mut[pos] ^= 1 << bit
			p := filepath.Join(dir, "flip.wal")
			if err := os.WriteFile(p, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			l2, rec, err := Open(p)
			if err != nil {
				t.Fatalf("flip %d.%d: Open: %v", pos, bit, err)
			}
			assertPrefix(t, fmt.Sprintf("flip %d.%d", pos, bit), rec.Records, want)
			l2.Close()

			// Recovery must be stable: a second open of the truncated
			// file replays the same records and drops nothing.
			l3, rec2, err := Open(p)
			if err != nil {
				t.Fatalf("flip %d.%d: reopen: %v", pos, bit, err)
			}
			if rec2.DroppedBytes != 0 || len(rec2.Records) != len(rec.Records) {
				t.Fatalf("flip %d.%d: recovery not idempotent: %d records, %d dropped",
					pos, bit, len(rec2.Records), rec2.DroppedBytes)
			}
			l3.Close()
		}
	}
}

// TestTruncationSweep cuts the log at every byte length and asserts each
// cut recovers a consistent prefix.
func TestTruncationSweep(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "kb.wal")
	l, _ := openT(t, path)
	want := [][]byte{[]byte("alpha"), []byte("beta-beta"), []byte("g")}
	appendAll(t, l, want...)
	l.Close()
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(orig); cut++ {
		p := filepath.Join(dir, "cut.wal")
		if err := os.WriteFile(p, orig[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, rec, err := Open(p)
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		assertPrefix(t, fmt.Sprintf("cut %d", cut), rec.Records, want)
		// A cut exactly on a record boundary must lose nothing.
		if wholeRecords := boundaryCount(orig, cut); wholeRecords >= 0 && len(rec.Records) != wholeRecords {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(rec.Records), wholeRecords)
		}
		l2.Close()
	}
}

// boundaryCount returns how many whole records fit exactly in cut bytes,
// or -1 when cut is not a record boundary of the original file.
func boundaryCount(orig []byte, cut int) int {
	off, n := 0, 0
	for off < cut {
		if cut-off < headerSize {
			return -1
		}
		recLen := int(orig[off]) | int(orig[off+1])<<8 | int(orig[off+2])<<16 | int(orig[off+3])<<24
		off += headerSize + recLen
		n++
	}
	if off != cut {
		return -1
	}
	return n
}

func assertPrefix(t *testing.T, label string, got, want [][]byte) {
	t.Helper()
	if len(got) > len(want) {
		t.Fatalf("%s: recovered %d records from a %d-record log", label, len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: record %d = %q, want %q", label, i, got[i], want[i])
		}
	}
}

func TestTornFaultRefusesAndRecovers(t *testing.T) {
	defer faults.Reset()
	path := filepath.Join(t.TempDir(), "kb.wal")
	l, _ := openT(t, path)
	appendAll(t, l, []byte("acked-1"), []byte("acked-2"))

	boom := errors.New("disk died mid-write")
	disarm := faults.Arm(faults.WalTorn, faults.Injection{Err: boom})
	if err := l.Append(context.Background(), []byte("never-acked")); !errors.Is(err, boom) {
		t.Fatalf("torn append: %v, want %v", err, boom)
	}
	disarm()
	if faults.Hits(faults.WalTorn) != 0 { // disarmed points report 0
		t.Fatalf("Hits after disarm = %d", faults.Hits(faults.WalTorn))
	}

	// The handle is dead: the torn bytes are on disk and only a reopen
	// may touch the file again.
	if err := l.Append(context.Background(), []byte("x")); !errors.Is(err, ErrLogFailed) {
		t.Fatalf("append after torn: %v, want ErrLogFailed", err)
	}
	l.Close()

	l2, rec := openT(t, path)
	if len(rec.Records) != 2 || rec.DroppedBytes == 0 {
		t.Fatalf("recovery after torn append: %d records, %d dropped", len(rec.Records), rec.DroppedBytes)
	}
	appendAll(t, l2, []byte("acked-3"))
	l2.Close()
	_, rec2 := openT(t, path)
	if len(rec2.Records) != 3 || string(rec2.Records[2]) != "acked-3" {
		t.Fatalf("replay after recovery = %q", rec2.Records)
	}
}

func TestSyncFaultLeavesLogUsable(t *testing.T) {
	defer faults.Reset()
	path := filepath.Join(t.TempDir(), "kb.wal")
	l, _ := openT(t, path)
	appendAll(t, l, []byte("acked-1"))

	boom := errors.New("fsync: no space left on device")
	disarm := faults.Arm(faults.WalSync, faults.Injection{Err: boom})
	if err := l.Append(context.Background(), []byte("unacked")); !errors.Is(err, boom) {
		t.Fatalf("sync-failed append: %v, want %v", err, boom)
	}
	disarm()

	// Unlike a torn write the frame is intact, so the log keeps working
	// and replay sees a consistent sequence (the unacked record simply
	// was never promised).
	appendAll(t, l, []byte("acked-2"))
	l.Close()
	_, rec := openT(t, path)
	if len(rec.Records) != 3 {
		t.Fatalf("replayed %d records, want 3", len(rec.Records))
	}
	if string(rec.Records[0]) != "acked-1" || string(rec.Records[2]) != "acked-2" {
		t.Fatalf("replay = %q", rec.Records)
	}
}

// FuzzReplay feeds arbitrary bytes to Open as a log file: it must never
// panic, and recovery must be idempotent (a second open drops nothing).
func FuzzReplay(f *testing.F) {
	l, _, err := Open(filepath.Join(f.TempDir(), "seed.wal"))
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range samplePayloads() {
		l.Append(context.Background(), p)
	}
	seed, _ := os.ReadFile(l.Path())
	l.Close()
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		l1, rec1, err := Open(path)
		if err != nil {
			t.Skipf("open: %v", err)
		}
		l1.Close()
		l2, rec2, err := Open(path)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer l2.Close()
		if rec2.DroppedBytes != 0 || len(rec2.Records) != len(rec1.Records) {
			t.Fatalf("recovery not idempotent: first %d records, second %d records (%d dropped)",
				len(rec1.Records), len(rec2.Records), rec2.DroppedBytes)
		}
	})
}

// FuzzRecordRoundTrip appends an arbitrary payload and replays it back.
func FuzzRecordRoundTrip(f *testing.F) {
	for _, p := range samplePayloads() {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		path := filepath.Join(t.TempDir(), "rt.wal")
		l, _, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append(context.Background(), payload); err != nil {
			if errors.Is(err, ErrRecordTooLarge) {
				return
			}
			t.Fatal(err)
		}
		l.Close()
		_, rec, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Records) != 1 || !bytes.Equal(rec.Records[0], payload) {
			t.Fatalf("round trip = %q, want %q", rec.Records, payload)
		}
	})
}
