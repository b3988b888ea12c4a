package remi

// Live knowledge bases: the crash-safe mutable layer over the immutable
// snapshot machinery. A LiveKB owns three pieces of state:
//
//	<dir>/<name>.snap   the last compaction's image (a CSR snapshot,
//	                    opened at boot only)
//	<dir>/<name>.wal    the write-ahead log of mutations since the snapshot
//	in memory           the newest generation: the booted image patched by
//	                    every batch since, one patch per batch
//
// The durability contract is ack-after-fsync: a mutation batch is appended
// and fsynced to the WAL before it is applied in memory or acknowledged to
// the caller, so an acknowledged fact survives any crash. Recovery is
// replay: boot opens the snapshot (or the original source when no snapshot
// exists yet), then re-applies the ops of every intact WAL record, in
// order, as one batch: one patch of the kind a live write takes, so boot
// costs the net edit rather than one patch per record of history.
// Replay is idempotent — mutations are upserts/retracts, so a record that
// was applied before the crash re-applies as a no-op — which makes the
// at-least-once semantics of a torn-tail-truncating log safe.
//
// Compaction (Compact) is a write, not a reload: it writes the newest
// generation as the new snapshot (temp file, fsync, rename over
// <name>.snap), only then truncates the WAL, and keeps serving the
// generation it wrote, which becomes the base later writes are counted
// from. A crash between the rename and the truncate leaves both a complete
// snapshot and a stale WAL; the next boot replays the WAL onto the new
// snapshot and idempotence absorbs the overlap. The snapshot is read back
// only at boot, so a process maps at most the one image it booted from.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"github.com/remi-kb/remi/internal/faults"
	"github.com/remi-kb/remi/internal/kb"
	"github.com/remi-kb/remi/internal/kb/delta"
	"github.com/remi-kb/remi/internal/rdf"
	"github.com/remi-kb/remi/internal/wal"
)

// LiveOptions tunes OpenLive.
type LiveOptions struct {
	// Source is the fallback KB source (N-Triples, or a snapshot sniffed
	// by magic) parsed when <dir>/<name>.snap does not exist yet — the
	// first boot of a live KB. Later boots prefer the snapshot, which
	// already folds every compacted mutation.
	Source string
	// Build are the KB build options used when parsing Source (nil means
	// kb.DefaultOptions(): inverse materialization for the top 1%).
	Build *kb.Options
}

// LiveStats is a point-in-time snapshot of a LiveKB's counters.
type LiveStats struct {
	// FactsApplied counts mutation ops acknowledged since this process
	// opened the KB (each op of each acked batch, no-ops included).
	FactsApplied int64
	// WalBytes and WalRecords size the write-ahead log right now; both drop
	// to zero after a successful compaction.
	WalBytes   int64
	WalRecords int64
	// RecoveryReplayed counts the WAL records replayed at boot;
	// RecoveryDroppedBytes the torn tail truncated by recovery.
	RecoveryDroppedBytes int64
	RecoveryReplayed     int64
	// Compactions counts successful Compact calls since open.
	Compactions int64
	// PendingAdds and PendingDels count the facts (inverse mirrors
	// included) the current generation holds over the last snapshot, and
	// the snapshot's facts it no longer holds; NewTerms and NewPreds count
	// the terms and predicates minted since. All four drop to zero after a
	// successful compaction.
	PendingAdds int
	PendingDels int
	NewTerms    int
	NewPreds    int
}

// LiveKB is a mutable, WAL-backed knowledge base. All methods are safe for
// concurrent use; mutations and compactions are serialized internally.
// Reads are served from immutable Systems returned by Apply/Compact/System
// — the LiveKB itself is only the mutation plane.
type LiveKB struct {
	mu        sync.Mutex
	dir, name string
	buildOpts kb.Options

	log     *wal.Log
	overlay *delta.Overlay
	cur     *System

	factsApplied     int64
	recoveryReplayed int64
	recoveryDropped  int64
	compactions      int64
	closed           bool
}

func (l *LiveKB) snapPath() string { return filepath.Join(l.dir, l.name+".snap") }
func (l *LiveKB) walPath() string  { return filepath.Join(l.dir, l.name+".wal") }

// walRecord is the JSON payload of one WAL record: a mutation batch with
// the request id that acked it, terms in N-Triples syntax. JSON+text keeps
// records self-describing across format evolution — the WAL is small and
// short-lived (truncated at every compaction), so wire compactness does
// not matter the way it does for the snapshot.
type walRecord struct {
	RequestID string  `json:"request_id,omitempty"`
	Ops       []walOp `json:"ops"`
}

type walOp struct {
	Op string `json:"op"` // "upsert" | "retract"
	S  string `json:"s"`
	P  string `json:"p"`
	O  string `json:"o"`
}

func encodeRecord(ops []delta.Op, requestID string) ([]byte, error) {
	rec := walRecord{RequestID: requestID, Ops: make([]walOp, len(ops))}
	for i, op := range ops {
		verb := "upsert"
		if op.Retract {
			verb = "retract"
		}
		rec.Ops[i] = walOp{Op: verb, S: op.S.String(), P: op.P.String(), O: op.O.String()}
	}
	return json.Marshal(rec)
}

func decodeRecord(payload []byte) ([]delta.Op, string, error) {
	var rec walRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return nil, "", fmt.Errorf("remi: wal record: %w", err)
	}
	ops := make([]delta.Op, len(rec.Ops))
	for i, wo := range rec.Ops {
		op := delta.Op{}
		switch wo.Op {
		case "", "upsert":
		case "retract":
			op.Retract = true
		default:
			return nil, "", fmt.Errorf("remi: wal record: unknown op %q", wo.Op)
		}
		var err error
		if op.S, err = rdf.ParseTerm(wo.S); err != nil {
			return nil, "", fmt.Errorf("remi: wal record subject: %w", err)
		}
		if op.P, err = rdf.ParseTerm(wo.P); err != nil {
			return nil, "", fmt.Errorf("remi: wal record predicate: %w", err)
		}
		if op.O, err = rdf.ParseTerm(wo.O); err != nil {
			return nil, "", fmt.Errorf("remi: wal record object: %w", err)
		}
		ops[i] = op
	}
	return ops, rec.RequestID, nil
}

// OpenLive opens (or creates) the live KB <name> rooted at dir: the base
// loads from <dir>/<name>.snap when present (the product of the last
// compaction), else from opts.Source; then the WAL is opened, its torn
// tail truncated, and the ops of every intact record replayed through the
// overlay as one batch.
// Records that no longer validate (written by an older build against a
// different base) are skipped rather than failing the boot — the WAL is a
// redo log, not a schema.
func OpenLive(dir, name string, opts LiveOptions) (*LiveKB, error) {
	_, statErr := os.Stat(dir)
	created := errors.Is(statErr, os.ErrNotExist)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("remi: live dir: %w", err)
	}
	l := &LiveKB{dir: dir, name: name}
	if opts.Build != nil {
		l.buildOpts = *opts.Build
	} else {
		l.buildOpts = kb.DefaultOptions()
	}

	base, err := l.loadBase(opts.Source)
	if err != nil {
		return nil, err
	}
	log, rec, err := wal.Open(l.walPath())
	if err != nil {
		base.Close()
		return nil, fmt.Errorf("remi: live KB %q: %w", name, err)
	}
	l.log = log
	l.overlay = delta.New(base)
	// The WAL may have just been created, and on a first boot the directory
	// too: their names must be durable, the directory's first, before an
	// append to the WAL is acknowledged.
	syncs := []string{dir}
	if created {
		syncs = []string{filepath.Dir(dir), dir}
	}
	for _, d := range syncs {
		if err := kb.SyncDir(d); err != nil {
			l.Close()
			return nil, fmt.Errorf("remi: live KB %q: syncing %s: %w", name, d, err)
		}
	}
	l.recoveryDropped = rec.DroppedBytes
	var ops []delta.Op
	for _, payload := range rec.Records {
		recOps, _, err := decodeRecord(payload)
		if err != nil {
			continue // unreadable but CRC-intact record from an older build
		}
		if err := l.overlay.Validate(recOps); err != nil {
			continue // no longer valid against this base
		}
		ops = append(ops, recOps...)
		l.recoveryReplayed++
	}
	// The valid records replay as one batch, one patch: ops in a batch take
	// effect in order, and Validate reads only an op's shape and the base's
	// inverse predicates, which no write adds, so a record validates alike
	// before and after the ones ahead of it.
	if len(ops) > 0 {
		if _, err := l.overlay.Apply(ops); err != nil {
			l.Close()
			return nil, fmt.Errorf("remi: live KB %q: replaying the WAL: %w", name, err)
		}
	}
	k, err := l.overlay.Materialize()
	if err != nil {
		l.Close()
		return nil, err
	}
	l.cur = fromKB(k, nil)
	return l, nil
}

// loadBase opens the compacted snapshot when one exists, else the source.
func (l *LiveKB) loadBase(source string) (*kb.KB, error) {
	if _, err := os.Stat(l.snapPath()); err == nil {
		k, err := kb.OpenSnapshot(l.snapPath())
		if err != nil {
			return nil, fmt.Errorf("remi: live KB %q: opening snapshot: %w", l.name, err)
		}
		return k, nil
	}
	if source == "" {
		return nil, fmt.Errorf("remi: live KB %q: no snapshot at %s and no source configured", l.name, l.snapPath())
	}
	if kb.IsSnapshotFile(source) {
		k, err := kb.OpenSnapshot(source)
		if err != nil {
			return nil, fmt.Errorf("remi: live KB %q: opening source snapshot: %w", l.name, err)
		}
		return k, nil
	}
	f, err := os.Open(source)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	k, err := kb.BuildStreaming(rdf.NewReader(f), l.buildOpts)
	if err != nil {
		return nil, fmt.Errorf("remi: live KB %q: parsing %s: %w", l.name, source, err)
	}
	return k, nil
}

// Name returns the KB's registry name; Dir its state directory.
func (l *LiveKB) Name() string { return l.name }

// Dir returns the directory holding the KB's snapshot and WAL.
func (l *LiveKB) Dir() string { return l.dir }

// System returns the current materialized System (base + every applied
// mutation). The returned System is immutable and stays valid after
// further mutations; each mutation batch produces a new one.
func (l *LiveKB) System() *System {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cur
}

// Apply durably applies one mutation batch: validate, fsync to the WAL
// (the ack point), patch the newest generation with it. It returns a new
// System serving that generation and the number of ops that changed state
// (idempotent re-sends ack with changed=0). On error nothing is
// acknowledged: a validation or staging failure writes nothing, and a WAL
// failure may leave an unacked record that replay surfaces later — which
// idempotence makes harmless.
func (l *LiveKB) Apply(ctx context.Context, ops []delta.Op, requestID string) (sys *System, changed int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, 0, fmt.Errorf("remi: live KB %q is closed", l.name)
	}
	if len(ops) == 0 {
		return l.cur, 0, nil
	}
	if err := l.overlay.Validate(ops); err != nil {
		return nil, 0, err
	}
	// delta.apply fires before the WAL write: a staging failure must leave
	// no trace on disk.
	if err := faults.Fire(ctx, faults.DeltaApply); err != nil {
		return nil, 0, fmt.Errorf("remi: staging mutation batch: %w", err)
	}
	payload, err := encodeRecord(ops, requestID)
	if err != nil {
		return nil, 0, err
	}
	if err := l.log.Append(ctx, payload); err != nil {
		return nil, 0, fmt.Errorf("remi: wal append: %w", err)
	}
	// The batch is durable: from here on nothing may fail. Validate already
	// passed, so overlay.Apply cannot error.
	changed, err = l.overlay.Apply(ops)
	if err != nil {
		return nil, 0, fmt.Errorf("remi: applying validated batch (invariant violation): %w", err)
	}
	k, err := l.overlay.Materialize()
	if err != nil {
		return nil, 0, err
	}
	l.factsApplied += int64(len(ops))
	// The current System, still open, lends its fr rankings: Rebuild keeps
	// those of every predicate the batch left alone (the two generations
	// share its arrays) and corrects the join ranks by the batch's edits.
	l.cur = fromKB(k, l.cur)
	return l.cur, changed, nil
}

// Compact writes the generation it serves as the new snapshot and
// truncates the WAL, in that order: the snapshot is written to a temp file
// and atomically renamed over <name>.snap, the directory is synced so that
// the rename survives a power cut, and only then does the WAL shrink. A
// crash (or injected fault) after the rename but before the truncate loses
// nothing — the next boot opens the new snapshot and replays the stale WAL
// records as no-ops. On success the overlay counts
// later writes from that generation, and Compact returns the System already
// serving it: nothing is reopened, and readers see no change.
func (l *LiveKB) Compact(ctx context.Context) (*System, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, fmt.Errorf("remi: live KB %q is closed", l.name)
	}
	if err := l.cur.SaveSnapshot(l.snapPath()); err != nil {
		return nil, fmt.Errorf("remi: writing compacted snapshot: %w", err)
	}
	if err := faults.Fire(ctx, faults.CompactCrash); err != nil {
		return nil, fmt.Errorf("remi: compaction interrupted after snapshot publish (WAL intact; reboot replays it idempotently): %w", err)
	}
	if err := l.log.Truncate(); err != nil {
		return nil, fmt.Errorf("remi: truncating wal after compaction: %w", err)
	}
	l.overlay.Rebase()
	l.compactions++
	return l.cur, nil
}

// Stats snapshots the KB's live counters.
func (l *LiveKB) Stats() LiveStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LiveStats{
		FactsApplied:         l.factsApplied,
		WalBytes:             l.log.Size(),
		WalRecords:           l.log.Records(),
		RecoveryDroppedBytes: l.recoveryDropped,
		RecoveryReplayed:     l.recoveryReplayed,
		Compactions:          l.compactions,
		PendingAdds:          l.overlay.PendingAdds(),
		PendingDels:          l.overlay.PendingDels(),
		NewTerms:             l.overlay.NewTerms(),
		NewPreds:             l.overlay.NewPreds(),
	}
}

// Close releases the WAL handle and the overlay's references on the base
// and newest generation. Systems handed out by Apply/Compact/System stay
// valid (each owns its reference on the image the KB booted from, if any)
// but no further mutations are accepted.
func (l *LiveKB) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return errors.Join(l.log.Close(), l.overlay.Close())
}

// Close releases the System's reference on its backing snapshot mapping,
// if any (built Systems hold none). Call it once nothing mines on it (the
// server closes a replaced generation when its last reader returns); the
// strings it returned stay valid.
func (s *System) Close() error { return s.kb.Close() }
