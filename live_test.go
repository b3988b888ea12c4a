package remi

// Crash-recovery golden tests for live KBs: the same mining queries must
// return byte-identical answers whether the facts arrived by parsing a
// file, by live mutation, by WAL replay after a crash, or from a compacted
// snapshot. Fault points (wal.sync, wal.torn, compact.crash, delta.apply)
// inject the crashes; the invariant throughout is zero acknowledged-fact
// loss.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/remi-kb/remi/internal/datagen"
	"github.com/remi-kb/remi/internal/faults"
	"github.com/remi-kb/remi/internal/kb"
	"github.com/remi-kb/remi/internal/kb/delta"
	"github.com/remi-kb/remi/internal/rdf"
	"github.com/remi-kb/remi/internal/wal"
)

// liveBuildOpts disables inverse materialization: a fresh parse recomputes
// entity prominence from its own fact set, while a live KB froze it at base
// build time, so only the inverse-free configuration is exactly comparable.
func liveBuildOpts() *kb.Options {
	o := kb.DefaultOptions()
	o.InverseTopFraction = 0
	return &o
}

// writeTinySource writes the TinyGeo dataset as N-Triples and returns its
// path plus the triples.
func writeTinySource(t *testing.T, dir string) (string, []rdf.Triple) {
	t.Helper()
	d := datagen.TinyGeo()
	path := filepath.Join(dir, "tiny.nt")
	var buf []byte
	for _, tr := range d.Triples {
		buf = append(buf, fmt.Sprintf("%s %s %s .\n", tr.S, tr.P, tr.O)...)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, d.Triples
}

const tinyOnt = "http://tiny.demo/ontology/"

func upsertOp(s, p, o string) delta.Op {
	return delta.Op{S: rdf.NewIRI(s), P: rdf.NewIRI(p), O: rdf.NewIRI(o)}
}

func retractOp(s, p, o string) delta.Op {
	op := upsertOp(s, p, o)
	op.Retract = true
	return op
}

// tinyMutations is the scripted batch sequence the golden tests share:
// retract a discriminating fact, add a brand-new entity with facts, and
// re-route an existing relation.
func tinyMutations() [][]delta.Op {
	return [][]delta.Op{
		{
			retractOp(tinyNS+"Rennes", tinyOnt+"mayor", tinyNS+"MayorRennes"),
			upsertOp(tinyNS+"Atlantis", tinyOnt+"in", tinyNS+"SouthAmerica"),
		},
		{
			upsertOp(tinyNS+"Atlantis", "http://www.w3.org/1999/02/22-rdf-syntax-ns#type", tinyOnt+"City"),
			upsertOp(tinyNS+"Lyon", tinyOnt+"belongedTo", tinyNS+"Brittany"),
		},
		{
			retractOp(tinyNS+"Lyon", tinyOnt+"belongedTo", tinyNS+"Brittany"),
			upsertOp(tinyNS+"Nantes", tinyOnt+"mayor", tinyNS+"MayorRennes"),
		},
	}
}

// applyToTriples folds a mutation script into a triple list, producing the
// fact set a fresh parse must see to be equivalent.
func applyToTriples(trs []rdf.Triple, batches [][]delta.Op) []rdf.Triple {
	key := func(tr rdf.Triple) string { return tr.S.String() + "\x00" + tr.P.String() + "\x00" + tr.O.String() }
	eff := make(map[string]rdf.Triple, len(trs))
	order := make([]string, 0, len(trs))
	for _, tr := range trs {
		k := key(tr)
		if _, ok := eff[k]; !ok {
			order = append(order, k)
		}
		eff[k] = tr
	}
	for _, batch := range batches {
		for _, op := range batch {
			tr := rdf.Triple{S: op.S, P: op.P, O: op.O}
			k := key(tr)
			if op.Retract {
				delete(eff, k)
				continue
			}
			if _, ok := eff[k]; !ok {
				order = append(order, k)
			}
			eff[k] = tr
		}
	}
	out := make([]rdf.Triple, 0, len(eff))
	for _, k := range order {
		if tr, ok := eff[k]; ok {
			out = append(out, tr)
		}
	}
	return out
}

// goldenTargetSets are the mining queries whose answers must stay
// byte-identical across mutation, recovery and compaction.
func goldenTargetSets() [][]string {
	return [][]string{
		{tinyNS + "Paris"},
		{tinyNS + "Rennes", tinyNS + "Nantes"},
		{tinyNS + "Guyana", tinyNS + "Suriname"},
		{tinyNS + "France"},
		{tinyNS + "Rennes"},
	}
}

// mineGolden renders one comparable line per target set: the expression and
// its exact cost, or ⊥ when no RE exists.
func mineGolden(t *testing.T, sys *System, sets [][]string) []string {
	t.Helper()
	out := make([]string, len(sets))
	for i, set := range sets {
		res, err := sys.Mine(set)
		if err != nil {
			t.Fatalf("mining %v: %v", set, err)
		}
		if !res.Found {
			out[i] = "⊥"
			continue
		}
		out[i] = fmt.Sprintf("%s @ %.9f", res.Expression, res.Bits)
	}
	return out
}

func assertSameGolden(t *testing.T, label string, got, want []string) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: set %d mined %q, want %q", label, i, got[i], want[i])
		}
	}
}

func TestLiveKBMutatedMiningGolden(t *testing.T) {
	dir := t.TempDir()
	src, triples := writeTinySource(t, dir)
	live, err := OpenLive(dir, "tiny", LiveOptions{Source: src, Build: liveBuildOpts()})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()

	ctx := context.Background()
	batches := tinyMutations()
	var applied int
	for i, batch := range batches {
		sys, changed, err := live.Apply(ctx, batch, fmt.Sprintf("req-%d", i))
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if sys == nil || changed == 0 {
			t.Fatalf("batch %d: no effect (changed=%d)", i, changed)
		}
		applied += len(batch)
	}
	// Idempotent re-send of the last batch: acked, changes nothing.
	if _, changed, err := live.Apply(ctx, batches[len(batches)-1], "req-retry"); err != nil || changed != 0 {
		t.Fatalf("idempotent re-send: changed=%d err=%v", changed, err)
	}
	applied += len(batches[len(batches)-1])

	fresh, err := kb.FromTriples(applyToTriples(triples, batches), *liveBuildOpts())
	if err != nil {
		t.Fatal(err)
	}
	freshSys := fromKB(fresh, nil)
	defer freshSys.Close()

	liveSys := live.System()
	if liveSys.NumFacts() != freshSys.NumFacts() {
		t.Fatalf("facts: live %d vs fresh %d", liveSys.NumFacts(), freshSys.NumFacts())
	}
	sets := goldenTargetSets()
	assertSameGolden(t, "mutated vs fresh", mineGolden(t, liveSys, sets), mineGolden(t, freshSys, sets))

	st := live.Stats()
	if st.FactsApplied != int64(applied) {
		t.Errorf("FactsApplied = %d, want %d", st.FactsApplied, applied)
	}
	if st.WalRecords != int64(len(batches)+1) || st.WalBytes == 0 {
		t.Errorf("WAL sizing off: records=%d bytes=%d", st.WalRecords, st.WalBytes)
	}
}

func TestLiveKBRecoveryGolden(t *testing.T) {
	dir := t.TempDir()
	src, _ := writeTinySource(t, dir)
	live, err := OpenLive(dir, "tiny", LiveOptions{Source: src, Build: liveBuildOpts()})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	batches := tinyMutations()
	for i, batch := range batches {
		if _, _, err := live.Apply(ctx, batch, fmt.Sprintf("req-%d", i)); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	sets := goldenTargetSets()
	want := mineGolden(t, live.System(), sets)
	// Crash: no Close, no compaction — the WAL is all that survives beside
	// the source file.
	reborn, err := OpenLive(dir, "tiny", LiveOptions{Source: src, Build: liveBuildOpts()})
	if err != nil {
		t.Fatal(err)
	}
	defer reborn.Close()
	defer live.Close()
	st := reborn.Stats()
	if st.RecoveryReplayed != int64(len(batches)) {
		t.Fatalf("RecoveryReplayed = %d, want %d", st.RecoveryReplayed, len(batches))
	}
	assertSameGolden(t, "recovered vs pre-crash", mineGolden(t, reborn.System(), sets), want)
}

func TestLiveKBTornWriteRecovery(t *testing.T) {
	dir := t.TempDir()
	src, _ := writeTinySource(t, dir)
	live, err := OpenLive(dir, "tiny", LiveOptions{Source: src, Build: liveBuildOpts()})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	acked := tinyMutations()[0]
	if _, _, err := live.Apply(ctx, acked, "req-acked"); err != nil {
		t.Fatal(err)
	}
	want := mineGolden(t, live.System(), goldenTargetSets())

	disarm := faults.Arm(faults.WalTorn, faults.Injection{Err: errors.New("power loss mid-append")})
	_, _, err = live.Apply(ctx, tinyMutations()[1], "req-torn")
	disarm()
	if err == nil {
		t.Fatal("torn append acknowledged")
	}
	// The handle is bricked, as a crashed process would be.
	if _, _, err := live.Apply(ctx, tinyMutations()[1], "req-after-torn"); err == nil {
		t.Fatal("append accepted on a failed log")
	}
	live.Close()

	reborn, err := OpenLive(dir, "tiny", LiveOptions{Source: src, Build: liveBuildOpts()})
	if err != nil {
		t.Fatal(err)
	}
	defer reborn.Close()
	st := reborn.Stats()
	if st.RecoveryReplayed != 1 {
		t.Fatalf("RecoveryReplayed = %d, want 1 (the acked batch)", st.RecoveryReplayed)
	}
	if st.RecoveryDroppedBytes == 0 {
		t.Fatal("torn tail not detected")
	}
	// The acked batch survived; the torn one is gone without trace.
	assertSameGolden(t, "post-torn", mineGolden(t, reborn.System(), goldenTargetSets()), want)
	if reborn.System().NumFacts() != live.System().NumFacts() {
		t.Fatalf("fact count diverged: %d vs %d", reborn.System().NumFacts(), live.System().NumFacts())
	}
}

func TestLiveKBSyncFailureNeverAcks(t *testing.T) {
	dir := t.TempDir()
	src, _ := writeTinySource(t, dir)
	live, err := OpenLive(dir, "tiny", LiveOptions{Source: src, Build: liveBuildOpts()})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	ctx := context.Background()
	before := live.System()

	disarm := faults.Arm(faults.WalSync, faults.Injection{Err: errors.New("disk full")})
	_, _, err = live.Apply(ctx, tinyMutations()[0], "req-nosync")
	disarm()
	if err == nil {
		t.Fatal("unsynced batch acknowledged")
	}
	if live.System() != before {
		t.Fatal("failed batch mutated the serving System")
	}
	if live.Stats().FactsApplied != 0 {
		t.Fatal("failed batch counted as applied")
	}
	// The log stays usable: a client retry of the same batch must succeed
	// (and replay surfacing the unacked record later is harmless — the
	// retry made its contents acknowledged anyway).
	if _, changed, err := live.Apply(ctx, tinyMutations()[0], "req-retry"); err != nil || changed == 0 {
		t.Fatalf("retry after sync failure: changed=%d err=%v", changed, err)
	}
}

func TestLiveKBDeltaApplyFaultLeavesNoTrace(t *testing.T) {
	dir := t.TempDir()
	src, _ := writeTinySource(t, dir)
	live, err := OpenLive(dir, "tiny", LiveOptions{Source: src, Build: liveBuildOpts()})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	disarm := faults.Arm(faults.DeltaApply, faults.Injection{Err: errors.New("staging failed")})
	_, _, err = live.Apply(context.Background(), tinyMutations()[0], "req-staged")
	disarm()
	if err == nil {
		t.Fatal("staging failure acknowledged")
	}
	st := live.Stats()
	if st.WalRecords != 0 || st.WalBytes != 0 || st.FactsApplied != 0 {
		t.Fatalf("staging failure left state: %+v", st)
	}
}

func TestLiveKBCompactionAndCrash(t *testing.T) {
	dir := t.TempDir()
	src, _ := writeTinySource(t, dir)
	live, err := OpenLive(dir, "tiny", LiveOptions{Source: src, Build: liveBuildOpts()})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i, batch := range tinyMutations() {
		if _, _, err := live.Apply(ctx, batch, fmt.Sprintf("req-%d", i)); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	sets := goldenTargetSets()
	want := mineGolden(t, live.System(), sets)

	// Crash in compaction's dangerous window: the new snapshot is durable
	// but the WAL was not yet truncated.
	disarm := faults.Arm(faults.CompactCrash, faults.Injection{Err: errors.New("killed between rename and truncate")})
	_, err = live.Compact(ctx)
	disarm()
	if err == nil {
		t.Fatal("interrupted compaction reported success")
	}
	if st := live.Stats(); st.WalRecords != 3 || st.Compactions != 0 {
		t.Fatalf("interrupted compaction mutated state: %+v", st)
	}
	// Pre-crash process keeps serving correctly.
	assertSameGolden(t, "serving across failed compaction", mineGolden(t, live.System(), sets), want)
	live.Close()

	// Reboot: the new snapshot loads (no Source needed) and the stale WAL
	// replays onto it as no-ops.
	reborn, err := OpenLive(dir, "tiny", LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameGolden(t, "reboot after compact crash", mineGolden(t, reborn.System(), sets), want)

	// A clean compaction now: WAL empties, answers unchanged, and the next
	// boot replays nothing.
	if _, err := reborn.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	st := reborn.Stats()
	if st.WalRecords != 0 || st.WalBytes != 0 || st.Compactions != 1 {
		t.Fatalf("post-compaction stats: %+v", st)
	}
	if st.PendingAdds != 0 || st.PendingDels != 0 {
		t.Fatalf("overlay not reset after compaction: %+v", st)
	}
	assertSameGolden(t, "after clean compaction", mineGolden(t, reborn.System(), sets), want)
	reborn.Close()

	final, err := OpenLive(dir, "tiny", LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer final.Close()
	if st := final.Stats(); st.RecoveryReplayed != 0 {
		t.Fatalf("RecoveryReplayed = %d after clean compaction", st.RecoveryReplayed)
	}
	assertSameGolden(t, "boot from compacted snapshot", mineGolden(t, final.System(), sets), want)
}

// TestLiveKBDurabilityOrder pins the order of the steps that make a live
// KB's files survive a power cut, through the kb.SyncDir seam: OpenLive
// syncs the directory once the WAL exists, and Compact renames the new
// snapshot into place, then syncs the directory, and only then truncates
// the WAL — so a failed directory sync leaves the WAL whole. No test cuts
// the power; this pins the order that makes a cut safe.
func TestLiveKBDurabilityOrder(t *testing.T) {
	dir := t.TempDir()
	src, _ := writeTinySource(t, dir)
	snap, walPath := filepath.Join(dir, "tiny.snap"), filepath.Join(dir, "tiny.wal")
	var events []string
	var syncErr error
	sync := kb.SyncDir
	defer func() { kb.SyncDir = sync }()
	kb.SyncDir = func(d string) error {
		if d != dir {
			t.Errorf("synced %s, want the live dir %s", d, dir)
		}
		temps, _ := filepath.Glob(filepath.Join(dir, ".tiny.snap.tmp-*"))
		snapInfo, snapErr := os.Stat(snap)
		walInfo, walErr := os.Stat(walPath)
		switch {
		case walErr != nil:
			events = append(events, "sync before the WAL exists")
		case snapErr != nil:
			events = append(events, fmt.Sprintf("sync (no snapshot, WAL %d bytes)", walInfo.Size()))
		case len(temps) > 0:
			events = append(events, "sync before the rename")
		default:
			events = append(events, fmt.Sprintf("sync (snapshot %t, WAL %d bytes)", snapInfo.Size() > 0, walInfo.Size()))
		}
		if syncErr != nil {
			return syncErr
		}
		return sync(d)
	}
	live, err := OpenLive(dir, "tiny", LiveOptions{Source: src, Build: liveBuildOpts()})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	ctx := context.Background()
	if _, _, err := live.Apply(ctx, tinyMutations()[0], ""); err != nil {
		t.Fatal(err)
	}
	walBytes := live.Stats().WalBytes
	syncErr = errors.New("directory sync failed")
	if _, err := live.Compact(ctx); !errors.Is(err, syncErr) {
		t.Fatalf("compaction over a failing directory sync: %v", err)
	}
	if st := live.Stats(); st.WalBytes != walBytes || st.Compactions != 0 {
		t.Fatalf("a compaction whose directory sync failed truncated the WAL: %+v", st)
	}
	syncErr = nil
	if _, err := live.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	if st := live.Stats(); st.WalBytes != 0 || st.Compactions != 1 {
		t.Fatalf("after compaction: %+v", st)
	}
	walSync := fmt.Sprintf("sync (snapshot true, WAL %d bytes)", walBytes)
	want := []string{"sync (no snapshot, WAL 0 bytes)", walSync, walSync}
	if !slices.Equal(events, want) {
		t.Fatalf("durability steps %q, want %q", events, want)
	}
}

// TestLiveKBFirstBootSyncsParent: a first boot creates the live directory,
// and its entry in the parent must be durable before the WAL inside it is:
// OpenLive syncs the parent, then the live directory.
func TestLiveKBFirstBootSyncsParent(t *testing.T) {
	parent := t.TempDir()
	src, _ := writeTinySource(t, parent)
	dir := filepath.Join(parent, "new")
	var synced []string
	sync := kb.SyncDir
	defer func() { kb.SyncDir = sync }()
	kb.SyncDir = func(d string) error {
		synced = append(synced, d)
		return sync(d)
	}
	live, err := OpenLive(dir, "tiny", LiveOptions{Source: src, Build: liveBuildOpts()})
	if err != nil {
		t.Fatal(err)
	}
	live.Close()
	if want := []string{parent, dir}; !slices.Equal(synced, want) {
		t.Fatalf("first boot synced %q, want %q", synced, want)
	}
}

// assertSameKB compares two KBs element for element: the id spaces, the
// facts of every predicate by id, and the per-entity statistics.
func assertSameKB(t *testing.T, label string, got, want *kb.KB) {
	t.Helper()
	if got.NumEntities() != want.NumEntities() || got.NumPredicates() != want.NumPredicates() ||
		got.NumFacts() != want.NumFacts() || got.NumBaseFacts() != want.NumBaseFacts() {
		t.Fatalf("%s: sizes %d/%d/%d/%d, want %d/%d/%d/%d", label,
			got.NumEntities(), got.NumPredicates(), got.NumFacts(), got.NumBaseFacts(),
			want.NumEntities(), want.NumPredicates(), want.NumFacts(), want.NumBaseFacts())
	}
	for e := kb.EntID(1); int(e) <= want.NumEntities(); e++ {
		if got.Term(e) != want.Term(e) || got.EntityFreq(e) != want.EntityFreq(e) {
			t.Fatalf("%s: entity %d is %v (freq %d), want %v (freq %d)", label, e,
				got.Term(e), got.EntityFreq(e), want.Term(e), want.EntityFreq(e))
		}
	}
	for _, p := range want.Predicates() {
		if got.PredicateName(p) != want.PredicateName(p) || got.BaseOf(p) != want.BaseOf(p) {
			t.Fatalf("%s: predicate %d is %s, want %s", label, p, got.PredicateName(p), want.PredicateName(p))
		}
		if g, w := got.Facts(p), want.Facts(p); !slices.Equal(g, w) {
			t.Fatalf("%s: predicate %s holds %d facts, want %d", label, want.PredicateName(p), len(g), len(w))
		}
	}
}

// TestLiveKBChainReplayAndCompactMatch drives a history of random batches
// (re-linked and new subjects, a new predicate, retracts, literal objects)
// over a KB with materialized inverses, with no compaction in between. A
// reopen that replays the WAL must rebuild the live generation exactly and
// answer the golden sets the same; Compact must keep serving that
// generation, and the snapshot it wrote must match it element for element.
func TestLiveKBChainReplayAndCompactMatch(t *testing.T) {
	dir := t.TempDir()
	d := datagen.DBpediaLike(datagen.Config{Seed: 3, Scale: 0.2})
	k, err := d.BuildKB(kb.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(dir, "src.snap")
	if err := k.WriteSnapshotFile(src); err != nil {
		t.Fatal(err)
	}
	live, err := OpenLive(dir, "chain", LiveOptions{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()

	var named []rdf.Triple
	for _, tr := range d.Triples {
		if tr.S.Kind != rdf.Blank && tr.O.Kind != rdf.Blank {
			named = append(named, tr)
		}
	}
	rng := rand.New(rand.NewSource(3))
	pick := func() rdf.Triple { return named[rng.Intn(len(named))] }
	ctx := context.Background()
	for i := range 12 {
		var ops []delta.Op
		for j := range 6 {
			a, b := pick(), pick()
			s := rdf.NewIRI(fmt.Sprintf("http://dbpedia.demo/resource/Live_%d_%d", i, j%3))
			ops = append(ops,
				delta.Op{S: a.S, P: a.P, O: b.O},
				delta.Op{S: s, P: b.P, O: b.O},
				delta.Op{Retract: true, S: b.S, P: b.P, O: b.O},
				delta.Op{S: s, P: rdf.NewIRI("http://dbpedia.demo/ontology/liveNote"), O: rdf.NewLiteral(fmt.Sprint(i))},
			)
		}
		if _, _, err := live.Apply(ctx, ops, fmt.Sprintf("req-%d", i)); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	gen := live.System()
	mirrored := false
	for _, p := range k.Predicates() {
		if k.IsInverse(p) && len(gen.kb.Facts(p)) != len(k.Facts(p)) {
			mirrored = true
		}
	}
	if !mirrored {
		t.Fatal("test setup: no batch touched an inverse predicate")
	}
	sets := [][]string{
		{"http://dbpedia.demo/resource/Person_5", "http://dbpedia.demo/resource/Person_7"},
		{"http://dbpedia.demo/resource/Film_10"},
		{"http://dbpedia.demo/resource/Live_11_0"},
		{"http://dbpedia.demo/resource/Live_3_1", "http://dbpedia.demo/resource/Live_3_2"},
	}
	want := mineGolden(t, gen, sets)

	reopened, err := OpenLive(dir, "chain", LiveOptions{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if st := reopened.Stats(); st.RecoveryReplayed != 12 {
		t.Fatalf("RecoveryReplayed = %d, want 12", st.RecoveryReplayed)
	}
	assertSameKB(t, "replayed vs live", reopened.System().kb, gen.kb)
	assertSameGolden(t, "replayed vs live", mineGolden(t, reopened.System(), sets), want)
	if g, w := reopened.Stats(), live.Stats(); g.PendingAdds != w.PendingAdds || g.PendingDels != w.PendingDels ||
		g.NewTerms != w.NewTerms || g.NewPreds != w.NewPreds {
		t.Fatalf("replayed stats %+v, live %+v", g, w)
	}

	compacted, err := live.Compact(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if compacted != gen {
		t.Fatal("Compact swapped out the System serving the generation it wrote")
	}
	snap, err := kb.OpenSnapshot(filepath.Join(dir, "chain.snap"))
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	assertSameKB(t, "compacted snapshot vs live", snap, gen.kb)
	assertSameGolden(t, "compacted snapshot vs live", mineGolden(t, fromKB(snap, nil), sets), want)
}

// TestCompactionMapsNoImage: a live KB over a snapshot source maps the image
// it booted from and nothing else. Compaction writes the generation it
// serves and keeps serving it, so ten write-and-compact rounds, each
// dropping the Systems it was handed, leave at most one mapping of the
// test's files.
func TestCompactionMapsNoImage(t *testing.T) {
	maps := func() string {
		b, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			t.Skipf("no /proc/self/maps: %v", err)
		}
		return string(b)
	}
	maps()
	dir := t.TempDir()
	sys, err := FromTriples(datagen.TinyGeo().Triples)
	if err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(dir, "src.snap")
	if err := sys.SaveSnapshot(src); err != nil {
		t.Fatal(err)
	}
	live, err := OpenLive(dir, "tiny", LiveOptions{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	ctx := context.Background()
	for i := range 10 {
		op := upsertOp(fmt.Sprintf("http://tiny.demo/resource/Live%d", i), tinyOnt+"in", "http://tiny.demo/resource/SouthAmerica")
		if _, _, err := live.Apply(ctx, []delta.Op{op}, ""); err != nil {
			t.Fatal(err)
		}
		if _, err := live.Compact(ctx); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	n := 0
	for _, line := range strings.Split(maps(), "\n") {
		if strings.Contains(line, dir) {
			n++
		}
	}
	if n > 1 {
		t.Fatalf("%d mappings of the live KB's images after 10 compactions, want at most 1", n)
	}
}

// TestLiveRecoverMatchesChain: boot replays the WAL's valid records as one
// batch. Over random histories — new terms and predicates, literal objects,
// a predicate retracted whole and re-added, upserts retracted records
// later, records that no longer validate and one that does not decode —
// the recovered generation must be the chain's last generation, the one
// applying each record as its own patch reaches: element for element,
// dictionary ids and term order included (the snapshot bytes), with the
// same pending counts.
func TestLiveRecoverMatchesChain(t *testing.T) {
	d := datagen.DBpediaLike(datagen.Config{Seed: 5, Scale: 0.1})
	k, err := d.BuildKB(kb.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(t.TempDir(), "src.snap")
	if err := k.WriteSnapshotFile(src); err != nil {
		t.Fatal(err)
	}
	var named []rdf.Triple
	byPred := map[rdf.Term][]rdf.Triple{}
	for _, tr := range d.Triples {
		if tr.S.Kind != rdf.Blank && tr.O.Kind != rdf.Blank {
			named = append(named, tr)
			byPred[tr.P] = append(byPred[tr.P], tr)
		}
	}
	var whole []rdf.Triple // the smallest predicate with several facts
	for _, trs := range byPred {
		if len(trs) >= 3 && (whole == nil || len(trs) < len(whole)) {
			whole = trs
		}
	}
	var inverse rdf.Term // a predicate the base materialized as an inverse
	for _, p := range k.Predicates() {
		if k.IsInverse(p) {
			inverse = rdf.NewIRI(k.PredicateName(p))
			break
		}
	}
	if whole == nil || inverse.Value == "" {
		t.Fatal("test setup: no small predicate or no inverse in the base")
	}
	ont := "http://dbpedia.demo/ontology/"
	ctx := context.Background()
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pick := func() rdf.Triple { return named[rng.Intn(len(named))] }
		var records [][]delta.Op
		var upserted []delta.Op
		for r := range 24 {
			var ops []delta.Op
			switch r {
			case 6, 15: // retract the whole predicate, then re-add it
				for _, tr := range whole {
					ops = append(ops, delta.Op{Retract: r == 6, S: tr.S, P: tr.P, O: tr.O})
				}
			case 9, 19: // no longer valid against the base
				a := pick()
				bad := delta.Op{S: a.O, P: inverse, O: a.S}
				if r == 19 {
					bad = delta.Op{S: rdf.NewLiteral("x"), P: a.P, O: a.O}
				}
				ops = append(ops, delta.Op{S: a.S, P: a.P, O: pick().O}, bad)
			default:
				for j := range 1 + rng.Intn(6) {
					a := pick()
					same := byPred[a.P]
					var op delta.Op
					switch rng.Intn(5) {
					case 0:
						op = delta.Op{S: a.S, P: a.P, O: same[rng.Intn(len(same))].O}
					case 1:
						op = delta.Op{S: rdf.NewIRI(fmt.Sprintf("http://dbpedia.demo/resource/Live_%d_%d", r, j)), P: a.P, O: a.O}
					case 2:
						op = delta.Op{S: a.S, P: rdf.NewIRI(fmt.Sprintf("%sliveP%d", ont, rng.Intn(2))), O: rdf.NewLiteral(fmt.Sprint(r))}
					case 3:
						op = delta.Op{Retract: true, S: a.S, P: a.P, O: a.O}
					case 4:
						if len(upserted) == 0 {
							continue
						}
						op = upserted[rng.Intn(len(upserted))]
						op.Retract = true
					}
					if !op.Retract {
						upserted = append(upserted, op)
					}
					ops = append(ops, op)
				}
			}
			records = append(records, ops)
		}

		dir := t.TempDir()
		log, _, err := wal.Open(filepath.Join(dir, "h.wal"))
		if err != nil {
			t.Fatal(err)
		}
		for i, ops := range records {
			payload, err := encodeRecord(ops, "")
			if err != nil {
				t.Fatal(err)
			}
			if err := log.Append(ctx, payload); err != nil {
				t.Fatal(err)
			}
			if i == 12 {
				if err := log.Append(ctx, []byte("{not a record")); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}

		base, err := kb.OpenSnapshot(src)
		if err != nil {
			t.Fatal(err)
		}
		chain := delta.New(base)
		valid := 0
		for _, ops := range records {
			if _, err := chain.Apply(ops); err == nil {
				valid++
			}
		}
		want, err := chain.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		live, err := OpenLive(dir, "h", LiveOptions{Source: src})
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("seed %d", seed)
		got := live.System().kb
		assertSameKB(t, label, got, want)
		var gotImg, wantImg bytes.Buffer
		if err := got.WriteSnapshot(&gotImg); err != nil {
			t.Fatal(err)
		}
		if err := want.WriteSnapshot(&wantImg); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotImg.Bytes(), wantImg.Bytes()) {
			t.Fatalf("%s: recovered snapshot differs from the chain's", label)
		}
		st := live.Stats()
		if st.RecoveryReplayed != int64(valid) || valid != len(records)-2 {
			t.Fatalf("%s: replayed %d records, chain applied %d of %d", label, st.RecoveryReplayed, valid, len(records))
		}
		if st.PendingAdds != chain.PendingAdds() || st.PendingDels != chain.PendingDels() ||
			st.NewTerms != chain.NewTerms() || st.NewPreds != chain.NewPreds() {
			t.Fatalf("%s: recovered stats %+v, chain %d/%d/%d/%d", label, st,
				chain.PendingAdds(), chain.PendingDels(), chain.NewTerms(), chain.NewPreds())
		}
		if st.NewTerms == 0 || st.NewPreds == 0 || st.PendingDels == 0 {
			t.Fatalf("%s: history minted no term or predicate, or retracted nothing: %+v", label, st)
		}
		live.Close()
		want.Close()
		chain.Close()
	}
}
