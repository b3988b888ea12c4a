package kb

// KB snapshots: zero-copy serialization of a built KB into the sectioned
// container of internal/kb/snapshot. WriteSnapshot persists everything the
// accessors read and cannot derive — the front-coded dictionary (plus its
// term-order permutation, so Lookup needs no rebuilt hash map), the kind
// array, predicate names, per-predicate CSR indexes laid end to end in shared
// arenas and the frequency statistics. OpenSnapshot maps the file and casts
// the sections straight into the []EntID/[]uint32 slices the binary searches
// walk: cold start costs page-in I/O plus one checksum pass instead of
// N-Triples parsing, deduplication and the global (p,s,o) sort. Datasets are
// packed once (kbgen -snapshot, System.SaveSnapshot) and opened many times.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"

	"github.com/remi-kb/remi/internal/frontcoding"
	"github.com/remi-kb/remi/internal/kb/snapshot"
	"github.com/remi-kb/remi/internal/rdf"
)

// Section ids of the KB snapshot layout (format-stable; see the package
// comment of internal/kb/snapshot for the container framing).
//
// Ids 3, 4, 10, 11 and 13 belonged to the retired version-1 layout (raw term
// table, stored adjacency and pair lists) and are not reused.
const (
	secMeta       snapshot.SectionID = 1  // []uint64: counts and special predicate ids
	secKinds      snapshot.SectionID = 2  // []rdf.Kind, one per entity
	secTermSorted snapshot.SectionID = 5  // []rdf.ID: ids in ascending term order
	secPredOffs   snapshot.SectionID = 6  // []uint64, len nPred+1: name blob boundaries
	secPredBlob   snapshot.SectionID = 7  // predicate names, concatenated
	secBaseOf     snapshot.SectionID = 8  // []PredID: inverse -> base mapping
	secEntFreq    snapshot.SectionID = 9  // []uint32: base-fact occurrences
	secPredCounts snapshot.SectionID = 12 // []uint32, 3 per predicate: nPairs, nPsoKey, nPosKey
	secPsoKey     snapshot.SectionID = 14 // []EntID arena
	secPsoOff     snapshot.SectionID = 15 // []uint32 arena (per-predicate runs of nPsoKey+1)
	secPsoVal     snapshot.SectionID = 16 // []EntID arena
	secPosKey     snapshot.SectionID = 17 // []EntID arena
	secPosOff     snapshot.SectionID = 18 // []uint32 arena (per-predicate runs of nPosKey+1)
	secPosVal     snapshot.SectionID = 19 // []EntID arena
	secTermRank   snapshot.SectionID = 20 // []uint32, rank[id-1] = position in term order
	secTermFC     snapshot.SectionID = 21 // front-coded serialized terms, ascending term order
	secTermFCOff  snapshot.SectionID = 22 // []uint64 block start offsets + final end offset
)

// metaWords is the number of uint64 fields in secMeta.
// Readers accept longer metas (future fields append; old readers ignore).
const metaWords = 6

// WriteSnapshot serializes the KB in the current (version 2) format: the
// dictionary becomes front-coded serialized-term blocks plus the rank
// permutation (no raw blob, no per-entity offset table), and the adjacency
// arena is not written at all — a reader derives it from the pso CSR on
// first use. Nothing the KB already holds is copied: each CSR arena section
// is handed to the container as its per-predicate index arrays, and the
// dictionary is walked once, in term order, into the front coder.
func (k *KB) WriteSnapshot(w io.Writer) error {
	sw := snapshot.NewWriter()
	nEnt := len(k.kind)
	nPred := len(k.predNames)

	// Dictionary: terms serialized with their kind prefix and front-coded
	// in ascending term order. Decode(id) walks one 16-entry block at
	// rank[id-1]; Lookup binary-searches block heads.
	sorted := make([]rdf.ID, 0, nEnt)
	rank := make([]uint32, nEnt)
	var fcb frontcoding.FCBuilder
	var buf []byte
	k.dict.EachByTerm(func(id rdf.ID, t rdf.Term) bool {
		rank[id-1] = uint32(len(sorted))
		sorted = append(sorted, id)
		buf = frontcoding.AppendTerm(buf[:0], t)
		fcb.Append(buf)
		return true
	})

	meta := []uint64{
		uint64(nEnt), uint64(nPred), uint64(k.nBase),
		uint64(k.nFacts), uint64(k.typePred), uint64(k.lblPred),
	}
	sw.Add(secMeta, snapshot.Bytes(meta))
	sw.Add(secKinds, snapshot.Bytes(k.kind))
	sw.Add(secTermSorted, snapshot.Bytes(sorted))

	predOffs := make([]uint64, nPred+1)
	total := 0
	for i, name := range k.predNames {
		total += len(name)
		predOffs[i+1] = uint64(total)
	}
	predBlob := make([]byte, 0, total)
	for _, name := range k.predNames {
		predBlob = append(predBlob, name...)
	}
	sw.Add(secPredOffs, snapshot.Bytes(predOffs))
	sw.Add(secPredBlob, predBlob)

	sw.Add(secBaseOf, snapshot.Bytes(k.baseOf))
	sw.Add(secEntFreq, snapshot.Bytes(k.entFreq))

	// Per-predicate CSR indexes: three counts per predicate, then each of
	// the six arrays laid end to end across predicates in predicate order.
	counts := make([]uint32, 0, nPred*3)
	var csr [6][][]byte // psoKey, psoOff, psoVal, posKey, posOff, posVal
	for i := range k.preds {
		ix := &k.preds[i]
		counts = append(counts, uint32(len(ix.psoVal)), uint32(len(ix.psoKey)), uint32(len(ix.posKey)))
		for j, a := range [6][]byte{
			snapshot.Bytes(ix.psoKey), snapshot.Bytes(ix.psoOff), snapshot.Bytes(ix.psoVal),
			snapshot.Bytes(ix.posKey), snapshot.Bytes(ix.posOff), snapshot.Bytes(ix.posVal),
		} {
			csr[j] = append(csr[j], a)
		}
	}
	sw.Add(secPredCounts, snapshot.Bytes(counts))
	for j, id := range [6]snapshot.SectionID{secPsoKey, secPsoOff, secPsoVal, secPosKey, secPosOff, secPosVal} {
		sw.AddParts(id, csr[j]...)
	}

	blob, blockOffs, _ := fcb.Finish()
	sw.Add(secTermRank, snapshot.Bytes(rank))
	sw.Add(secTermFC, blob)
	sw.Add(secTermFCOff, snapshot.Bytes(blockOffs))

	_, err := sw.WriteTo(w)
	return err
}

// WriteSnapshotFile writes the snapshot to path crash-safely: the bytes go
// to a temp file in the same directory, are fsynced, and only then rename
// into place, and the directory is synced after the rename. A reader (a
// replica pulling from a shared snapshot dir, a concurrent kbgen) therefore
// sees either the previous complete image or the new complete image —
// never a torn half-write — and once it returns, the new image survives a
// power cut under its name.
func (k *KB) WriteSnapshotFile(path string) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := k.WriteSnapshot(f); err != nil {
		return fail(err)
	}
	// Sync makes the bytes durable before the rename publishes them, so a
	// crash between the two cannot leave a named empty file; the directory
	// sync after the rename makes the name durable.
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return SyncDir(dir)
}

// SyncDir fsyncs the directory dir, making the entries created, renamed or
// removed in it durable: a file's fsync covers its bytes, not its name. It
// is a variable so that tests can observe where it falls among the steps
// of a compaction.
var SyncDir = func(dir string) error {
	if runtime.GOOS == "windows" {
		return nil // a directory cannot be opened for sync there
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// OpenSnapshot opens a KB snapshot written by WriteSnapshot. On unix the
// file is mmap'd and the KB's index slices alias the mapping directly.
// The mapping is refcounted: the returned KB holds one reference, derived
// KBs (ApplyPatch) take their own, and KB.Close releases — the mapping is
// reclaimed when the last holder closes, so a server that reloads and
// closes a generation after its last reader accumulates no dead mappings.
// Because accessors (Objects, Facts, AdjacencyOf, ...) hand out slice
// views the garbage collector cannot trace back to the KB, Close is an
// explicit promise that no such view is still live; strings are heap
// copies and outlive it. A KB never closed pins its mapping for the
// process lifetime. Where mmap is unsupported the image is read into a
// single heap arena, traced (and freed) like any other allocation.
func OpenSnapshot(path string) (*KB, error) {
	r, err := snapshot.Open(path, snapshot.Options{})
	if err != nil {
		return nil, err
	}
	k, err := fromSnapshotReader(r)
	if err != nil {
		r.Close()
		return nil, fmt.Errorf("kb: snapshot %s: %w", path, err)
	}
	k.src = r
	return k, nil
}

// IsSnapshotFile reports whether path starts with the snapshot magic
// (format sniffing for loaders that accept N-Triples and snapshots alike).
func IsSnapshotFile(path string) bool { return snapshot.SniffFile(path) }

// secView fetches a section and casts it, enforcing an exact element count
// when wantLen >= 0.
func secView[T any](r *snapshot.Reader, id snapshot.SectionID, name string, wantLen int) ([]T, error) {
	b, ok := r.Section(id)
	if !ok {
		return nil, fmt.Errorf("missing %s section", name)
	}
	v, err := snapshot.View[T](b)
	if err != nil {
		return nil, fmt.Errorf("%s section: %w", name, err)
	}
	if wantLen >= 0 && len(v) != wantLen {
		return nil, fmt.Errorf("%s section: %d elements, want %d", name, len(v), wantLen)
	}
	return v, nil
}

// checkAscending validates that ids ascend strictly — the invariant every
// binary search in the accessors depends on — and lie in 1..nEnt, which,
// given the order, is a check of the two ends. Like the dictionary's
// permutation check, this exists because a well-checksummed image
// (future/buggy writer) could otherwise open and then make lookups silently
// miss existing facts, or panic on the first dictionary decode or adjacency
// derivation of an out-of-range id.
func checkAscending(name string, ids []EntID, nEnt int) error {
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			return fmt.Errorf("%s: not strictly ascending at %d", name, i)
		}
	}
	if len(ids) > 0 && (ids[0] == 0 || int(ids[len(ids)-1]) > nEnt) {
		return fmt.Errorf("%s: entity id out of range 1..%d", name, nEnt)
	}
	return nil
}

// checkRunsAscending validates every CSR value run (vals sliced by the off
// boundaries) with checkAscending.
func checkRunsAscending(name string, off []uint32, vals []EntID, nEnt int) error {
	for r := 1; r < len(off); r++ {
		if err := checkAscending(name, vals[off[r-1]:off[r]], nEnt); err != nil {
			return err
		}
	}
	return nil
}

// checkOffsets validates a CSR-style offset run: monotone non-decreasing,
// starting at first and ending at last.
func checkOffsets[T uint32 | uint64](name string, offs []T, first, last uint64) error {
	if len(offs) == 0 || uint64(offs[0]) != first {
		return fmt.Errorf("%s: bad initial offset", name)
	}
	for i := 1; i < len(offs); i++ {
		if offs[i] < offs[i-1] {
			return fmt.Errorf("%s: offsets not monotone at %d", name, i)
		}
	}
	if uint64(offs[len(offs)-1]) != last {
		return fmt.Errorf("%s: final offset %d, want %d", name, offs[len(offs)-1], last)
	}
	return nil
}

// fromSnapshotReader reconstructs a KB over an opened snapshot image. The
// index arenas — everything the mining hot path binary-searches — are
// zero-copy views; the per-predicate bookkeeping (predicate index map, id
// list, slice headers) is small.
//
// The dictionary is fully lazy: the front-coded term blocks stay in the
// image, Decode/Lookup work block-at-a-time, and open allocates no
// O(entities) term structure — open cost is the container checksum pass
// plus page-in. The adjacency arena is derived on first use (derived.go).
func fromSnapshotReader(r *snapshot.Reader) (*KB, error) {
	meta, err := secView[uint64](r, secMeta, "meta", -1)
	if err != nil {
		return nil, err
	}
	if len(meta) < metaWords {
		return nil, fmt.Errorf("meta section: %d words, want >= %d", len(meta), metaWords)
	}
	// Every count is the length of at least one section, so none can exceed
	// the image. Checking that here also rejects values that would turn
	// negative as an int, and keeps each length derived below (nPred+1,
	// nPred*3) a real length rather than secView's negative "any length".
	for _, i := range []int{0, 1, 3} {
		if meta[i] > uint64(r.Size()) {
			return nil, fmt.Errorf("meta section: count %d exceeds the %d-byte image", meta[i], r.Size())
		}
	}
	nEnt := int(meta[0])
	nPred := int(meta[1])
	nFacts := int(meta[3])

	kinds, err := secView[rdf.Kind](r, secKinds, "kinds", nEnt)
	if err != nil {
		return nil, err
	}
	sorted, err := secView[rdf.ID](r, secTermSorted, "term order", nEnt)
	if err != nil {
		return nil, err
	}
	rank, err := secView[uint32](r, secTermRank, "term ranks", nEnt)
	if err != nil {
		return nil, err
	}
	fcBlob, ok := r.Section(secTermFC)
	if !ok {
		return nil, fmt.Errorf("missing front-coded term section")
	}
	blocks := (nEnt + frontcoding.BlockSize - 1) / frontcoding.BlockSize
	fcOffs, err := secView[uint64](r, secTermFCOff, "term block offsets", blocks+1)
	if err != nil {
		return nil, err
	}
	set, err := frontcoding.NewFCSet(fcBlob, fcOffs, nEnt)
	if err != nil {
		return nil, err
	}
	// Block heads must ascend in term order and agree with the kind
	// table: a cheap n/16 spot check standing in for the full O(n)
	// order validation the lazy open deliberately skips. (An
	// out-of-order array would not crash — it would make lookups
	// silently miss existing terms.)
	var prev rdf.Term
	for b := 0; b < blocks; b++ {
		head, err := set.TermAt(b * frontcoding.BlockSize)
		if err != nil {
			return nil, fmt.Errorf("term block %d: %w", b, err)
		}
		if b > 0 && prev.Compare(head) >= 0 {
			return nil, fmt.Errorf("term blocks: heads not ascending at block %d", b)
		}
		if id := sorted[b*frontcoding.BlockSize]; id == 0 || int(id) > nEnt {
			return nil, fmt.Errorf("term order: id %d out of range", id)
		} else if kinds[id-1] != head.Kind {
			return nil, fmt.Errorf("term blocks: head kind mismatch at block %d", b)
		}
		prev = head
	}
	dict, err := rdf.NewLazyDictionary(&fcTerms{set: set}, sorted, rank)
	if err != nil {
		return nil, err
	}

	predOffs, err := secView[uint64](r, secPredOffs, "predicate offsets", nPred+1)
	if err != nil {
		return nil, err
	}
	predBlob, ok := r.Section(secPredBlob)
	if !ok {
		return nil, fmt.Errorf("missing predicate blob section")
	}
	if err := checkOffsets("predicate offsets", predOffs, 0, uint64(len(predBlob))); err != nil {
		return nil, err
	}
	baseOf, err := secView[PredID](r, secBaseOf, "baseOf", nPred)
	if err != nil {
		return nil, err
	}
	for i, b := range baseOf {
		if int(b) > nPred {
			return nil, fmt.Errorf("baseOf section: predicate %d maps to unknown base %d", i+1, b)
		}
	}
	entFreq, err := secView[uint32](r, secEntFreq, "entity frequencies", nEnt)
	if err != nil {
		return nil, err
	}

	counts, err := secView[uint32](r, secPredCounts, "predicate counts", nPred*3)
	if err != nil {
		return nil, err
	}
	var nPairs, nPsoKeys, nPosKeys int
	for p := 0; p < nPred; p++ {
		nPairs += int(counts[p*3])
		nPsoKeys += int(counts[p*3+1])
		nPosKeys += int(counts[p*3+2])
	}
	if nPairs != nFacts {
		return nil, fmt.Errorf("predicate counts: %d pairs, meta says %d facts", nPairs, nFacts)
	}
	psoKey, err := secView[EntID](r, secPsoKey, "pso keys", nPsoKeys)
	if err != nil {
		return nil, err
	}
	psoOff, err := secView[uint32](r, secPsoOff, "pso offsets", nPsoKeys+nPred)
	if err != nil {
		return nil, err
	}
	psoVal, err := secView[EntID](r, secPsoVal, "pso values", nPairs)
	if err != nil {
		return nil, err
	}
	posKey, err := secView[EntID](r, secPosKey, "pos keys", nPosKeys)
	if err != nil {
		return nil, err
	}
	posOff, err := secView[uint32](r, secPosOff, "pos offsets", nPosKeys+nPred)
	if err != nil {
		return nil, err
	}
	posVal, err := secView[EntID](r, secPosVal, "pos values", nPairs)
	if err != nil {
		return nil, err
	}

	k := &KB{
		dict:     dict,
		kind:     kinds,
		baseOf:   baseOf,
		nFacts:   nFacts,
		nBase:    int(meta[2]),
		entFreq:  entFreq,
		typePred: PredID(meta[4]),
		lblPred:  PredID(meta[5]),
		adj:      new(adjacency),
	}
	if int(k.typePred) > nPred || int(k.lblPred) > nPred {
		return nil, fmt.Errorf("meta section: special predicate id out of range")
	}

	k.predNames = make([]string, nPred)
	k.predIdx = make(map[string]PredID, nPred)
	k.predIDs = make([]PredID, nPred)
	for i := 0; i < nPred; i++ {
		name := string(predBlob[predOffs[i]:predOffs[i+1]]) // a copy: names outlive the mapping
		k.predNames[i] = name
		k.predIdx[name] = PredID(i + 1)
		k.predIDs[i] = PredID(i + 1)
	}

	// Carve each predicate's CSR index out of the shared arenas. The stored
	// per-predicate offset runs are relative (packCSR starts every run at
	// zero), so slicing alone reconstructs the exact in-memory layout.
	k.preds = make([]predIndex, nPred)
	var cPair, cPsoKey, cPsoOff, cPosKey, cPosOff int
	for p := 0; p < nPred; p++ {
		np := int(counts[p*3])
		nsk := int(counts[p*3+1])
		nok := int(counts[p*3+2])
		ix := &k.preds[p]
		ix.psoKey = psoKey[cPsoKey : cPsoKey+nsk : cPsoKey+nsk]
		ix.psoOff = psoOff[cPsoOff : cPsoOff+nsk+1 : cPsoOff+nsk+1]
		ix.psoVal = psoVal[cPair : cPair+np : cPair+np]
		ix.posKey = posKey[cPosKey : cPosKey+nok : cPosKey+nok]
		ix.posOff = posOff[cPosOff : cPosOff+nok+1 : cPosOff+nok+1]
		ix.posVal = posVal[cPair : cPair+np : cPair+np]
		if err := checkOffsets(fmt.Sprintf("pso offsets (predicate %d)", p+1), ix.psoOff, 0, uint64(np)); err != nil {
			return nil, err
		}
		if err := checkOffsets(fmt.Sprintf("pos offsets (predicate %d)", p+1), ix.posOff, 0, uint64(np)); err != nil {
			return nil, err
		}
		if err := checkAscending(fmt.Sprintf("pso keys (predicate %d)", p+1), ix.psoKey, nEnt); err != nil {
			return nil, err
		}
		if err := checkAscending(fmt.Sprintf("pos keys (predicate %d)", p+1), ix.posKey, nEnt); err != nil {
			return nil, err
		}
		if err := checkRunsAscending(fmt.Sprintf("pso values (predicate %d)", p+1), ix.psoOff, ix.psoVal, nEnt); err != nil {
			return nil, err
		}
		if err := checkRunsAscending(fmt.Sprintf("pos values (predicate %d)", p+1), ix.posOff, ix.posVal, nEnt); err != nil {
			return nil, err
		}
		cPair += np
		cPsoKey += nsk
		cPsoOff += nsk + 1
		cPosKey += nok
		cPosOff += nok + 1
	}
	return k, nil
}
