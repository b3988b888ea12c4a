// Package wal implements the write-ahead log that makes live KB mutations
// durable: an append-only file of length-prefixed, CRC-checked records
// where an append is acknowledged only after fsync returns.
//
// The recovery contract is the whole point of the format. Open replays the
// longest consistent prefix of the file — every record whose frame is
// complete and whose checksum matches — and truncates whatever follows
// (a torn tail from a crash mid-append, a corrupt record from bit rot)
// instead of refusing to start. Because an append is only acknowledged
// after fsync, everything acknowledged is in that prefix; everything in
// the truncated tail was never acknowledged, so dropping it loses nothing
// the caller was promised.
//
// Record frame: a 4-byte little-endian payload length, a 4-byte
// little-endian IEEE CRC32 of the payload, then the payload bytes.
// Payload semantics belong to the caller; the log stores opaque bytes.
package wal

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"github.com/remi-kb/remi/internal/faults"
)

// headerSize is the per-record frame overhead: length + CRC32.
const headerSize = 8

// MaxRecordBytes caps a single record's payload. It exists to reject
// corrupt appends, not to size anything: admin mutation batches are
// orders of magnitude smaller.
const MaxRecordBytes = 64 << 20

// ErrLogFailed marks a log that hit an unrecoverable append failure (a
// torn write whose tail is on disk, a rollback that itself failed). The
// log refuses further appends; reopening the path runs recovery and
// yields a clean log.
var ErrLogFailed = errors.New("wal: log failed, reopen to recover")

// ErrRecordTooLarge rejects an Append payload above MaxRecordBytes.
var ErrRecordTooLarge = errors.New("wal: record exceeds size cap")

// Recovery reports what Open found: the replayed payloads (the longest
// consistent prefix of the file) and how many trailing bytes were
// truncated as torn or corrupt.
type Recovery struct {
	// Records holds the payload of every recovered record, in append
	// order.
	Records [][]byte
	// DroppedBytes counts the torn/corrupt tail bytes Open truncated;
	// zero for a clean log.
	DroppedBytes int64
}

// Log is an append-only write-ahead log bound to one file. Appends are
// serialized internally; one Log per path, one writer per Log.
type Log struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	size    int64 // validated length: every byte below it is consistent
	records int64
	failed  bool
}

// Open opens (creating if absent) the log at path, replays its records
// and truncates any torn or corrupt tail so the file ends at the last
// consistent record. The returned Recovery holds the replayed payloads;
// the caller applies them before appending anything new.
func Open(path string) (*Log, *Recovery, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: stat %s: %w", path, err)
	}
	fileSize := st.Size()

	// Replay streams frame by frame through a bounded reader: peak memory
	// during recovery is one record, not the whole file (a compaction-starved
	// log can be far larger than RAM would like). A short read at a frame
	// boundary is a torn tail; any other read error aborts the open — it is
	// an I/O fault, not corruption, and truncating on it would destroy data.
	rec := &Recovery{}
	br := bufio.NewReaderSize(f, 1<<20)
	var off int64
	var hdr [headerSize]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				break // clean end or torn header
			}
			f.Close()
			return nil, nil, fmt.Errorf("wal: read %s: %w", path, err)
		}
		n := int64(binary.LittleEndian.Uint32(hdr[:]))
		sum := binary.LittleEndian.Uint32(hdr[4:])
		if n > MaxRecordBytes || off+headerSize+n > fileSize {
			break // length corrupt or frame torn mid-payload
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				break // file shrank under us; treat as torn
			}
			f.Close()
			return nil, nil, fmt.Errorf("wal: read %s: %w", path, err)
		}
		if crc32.ChecksumIEEE(payload) != sum {
			break // payload corrupt; everything after is untrusted
		}
		rec.Records = append(rec.Records, payload)
		off += headerSize + n
	}
	rec.DroppedBytes = fileSize - off
	if rec.DroppedBytes > 0 {
		if err := f.Truncate(int64(off)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: truncate torn tail of %s: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: sync %s: %w", path, err)
		}
	}
	if _, err := f.Seek(int64(off), io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: seek %s: %w", path, err)
	}
	return &Log{f: f, path: path, size: int64(off), records: int64(len(rec.Records))}, rec, nil
}

// Append writes one record and syncs it to stable storage. A nil return
// is the acknowledgement: the record survives any crash after this point.
// A non-nil return promises nothing either way — the record may or may
// not surface on replay, which is correct exactly because the caller must
// not report the mutation as applied.
func (l *Log) Append(ctx context.Context, payload []byte) error {
	if len(payload) > MaxRecordBytes {
		return fmt.Errorf("wal %s: %w (%d bytes)", l.path, ErrRecordTooLarge, len(payload))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed {
		return fmt.Errorf("wal %s: %w", l.path, ErrLogFailed)
	}

	frame := make([]byte, headerSize+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	copy(frame[headerSize:], payload)

	if err := faults.Fire(ctx, faults.WalTorn); err != nil {
		// Crash mid-append: a strict prefix of the frame reaches the disk
		// and the process "dies". The in-process handle refuses further
		// appends — only a reopen (which truncates the torn tail) may
		// write here again.
		torn := frame[:headerSize+len(payload)/2]
		l.f.Write(torn)
		l.f.Sync()
		l.failed = true
		return fmt.Errorf("wal %s: append: %w", l.path, err)
	}

	if _, err := l.f.Write(frame); err != nil {
		// Roll the file back to the last consistent record so the next
		// append lands on a clean boundary; if even that fails, the log
		// is done until reopened.
		if l.f.Truncate(l.size) != nil {
			l.failed = true
		} else if _, serr := l.f.Seek(l.size, io.SeekStart); serr != nil {
			l.failed = true
		}
		return fmt.Errorf("wal %s: write: %w", l.path, err)
	}

	err := faults.Fire(ctx, faults.WalSync)
	if err == nil {
		err = l.f.Sync()
	}
	// The frame is intact on disk either way, so the offset stays
	// consistent; on a sync failure the record simply was never
	// acknowledged, and replay surfacing it is as correct as not.
	l.size += int64(len(frame))
	l.records++
	if err != nil {
		return fmt.Errorf("wal %s: sync: %w", l.path, err)
	}
	return nil
}

// Truncate discards every record — called after a compaction has folded
// the log's contents into a durable snapshot. The truncation itself is
// synced before returning.
func (l *Log) Truncate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal %s: truncate: %w", l.path, err)
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		l.failed = true
		return fmt.Errorf("wal %s: seek: %w", l.path, err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal %s: sync: %w", l.path, err)
	}
	l.size, l.records, l.failed = 0, 0, false
	return nil
}

// Size reports the consistent byte length of the log.
func (l *Log) Size() int64 { l.mu.Lock(); defer l.mu.Unlock(); return l.size }

// Records reports how many records the log holds (replayed + appended).
func (l *Log) Records() int64 { l.mu.Lock(); defer l.mu.Unlock(); return l.records }

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// Close releases the file handle. It does not sync: every acknowledged
// append already did.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	l.failed = true
	return err
}
