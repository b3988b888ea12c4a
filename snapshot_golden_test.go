package remi

// End-to-end snapshot regression: a System saved to a snapshot and reloaded
// through the facade (format auto-detection included) must mine exactly the
// golden expressions of the original — the on-disk round trip may change
// the physical KB representation, never a mined result.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"path/filepath"
	"testing"

	"github.com/remi-kb/remi/internal/datagen"
	"github.com/remi-kb/remi/internal/experiments"
	"github.com/remi-kb/remi/internal/kb"
	"github.com/remi-kb/remi/internal/rdf"
)

func TestSnapshotGoldenTinyMining(t *testing.T) {
	sys, err := GenerateDemo("tiny", 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tiny.kbsnap") // deliberately not .nt: magic sniffing must route it
	if err := sys.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	if !kb.IsSnapshotFile(path) {
		t.Fatal("saved snapshot not recognized")
	}
	reloaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.NumFacts() != sys.NumFacts() || reloaded.NumEntities() != sys.NumEntities() ||
		reloaded.NumPredicates() != sys.NumPredicates() {
		t.Fatalf("reloaded sizes differ: %d/%d facts, %d/%d entities, %d/%d predicates",
			reloaded.NumFacts(), sys.NumFacts(), reloaded.NumEntities(), sys.NumEntities(),
			reloaded.NumPredicates(), sys.NumPredicates())
	}
	for _, want := range goldenTiny {
		iris := make([]string, len(want.targets))
		for i, n := range want.targets {
			iris[i] = "http://tiny.demo/resource/" + n
		}
		orig, err := sys.Mine(iris)
		if err != nil {
			t.Fatal(err)
		}
		got, err := reloaded.Mine(iris)
		if err != nil {
			t.Fatal(err)
		}
		if got.Expression != orig.Expression {
			t.Errorf("%v: snapshot expression %q, original %q", want.targets, got.Expression, orig.Expression)
		}
		if got.NL != orig.NL {
			t.Errorf("%v: snapshot NL %q, original %q", want.targets, got.NL, orig.NL)
		}
		if math.Abs(got.Bits-orig.Bits) > goldenBitsTol {
			t.Errorf("%v: snapshot bits %f, original %f", want.targets, got.Bits, orig.Bits)
		}
	}
}

// TestSnapshotGoldenDBpediaMining repeats the check on the DBpedia-like lab
// KB against the recorded goldens themselves. Targets are resolved by IRI so
// the check is independent of dictionary id assignment.
func TestSnapshotGoldenDBpediaMining(t *testing.T) {
	env := lab().DBpedia()
	sets := experiments.SampleSets(env, 8, 404, 0)
	if len(sets) != len(goldenDBpedia) {
		t.Fatalf("sampled %d sets, want %d", len(sets), len(goldenDBpedia))
	}
	path := filepath.Join(t.TempDir(), "dbp.snap")
	if err := env.KB.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	k, err := kb.OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	sys := fromKB(k, nil)
	for i, set := range sets {
		res, err := sys.Mine(set.IRIs)
		if err != nil {
			t.Fatal(err)
		}
		want := goldenDBpedia[i]
		if res.Found != want.found {
			t.Errorf("set %d: found = %v, want %v", i, res.Found, want.found)
			continue
		}
		if !want.found {
			continue
		}
		if res.Expression != want.expr {
			t.Errorf("set %d: expr = %q, want %q", i, res.Expression, want.expr)
		}
		if math.Abs(res.Bits-want.bits) > goldenBitsTol {
			t.Errorf("set %d: bits = %f, want %f", i, res.Bits, want.bits)
		}
	}
}

// snapshotPin is the SHA-256 of the snapshot of DBpediaLike seed 1 at scale
// 0.5 under kb.DefaultOptions (what `kbgen -dataset dbpedia -seed 1 -scale
// 0.5 -snapshot` writes). A change to it is a change to the build's output
// or to the snapshot format.
const snapshotPin = "73463c7a84f9ba3b3da5a9375d837ce4a8314b538b27118e7a8ebc3dbe34d585"

// TestSnapshotBytePin builds the pinned KB three ways: from the generated
// triples, streamed from their N-Triples text without spilling, and
// streamed with a buffer small enough to spill dozens of runs. Each must
// write exactly the pinned bytes, whatever GOMAXPROCS the builder's sorts
// and packers run under.
func TestSnapshotBytePin(t *testing.T) {
	d := datagen.DBpediaLike(datagen.Config{Seed: 1, Scale: 0.5})
	var dump bytes.Buffer
	if err := rdf.WriteAll(&dump, d.Triples); err != nil {
		t.Fatal(err)
	}
	streamed := func(cfg kb.StreamConfig) func() (*kb.KB, error) {
		return func() (*kb.KB, error) {
			return kb.BuildStreamingWith(rdf.NewReader(bytes.NewReader(dump.Bytes())), kb.DefaultOptions(), cfg)
		}
	}
	for _, c := range []struct {
		name  string
		build func() (*kb.KB, error)
	}{
		{"FromTriples", func() (*kb.KB, error) { return kb.FromTriples(d.Triples, kb.DefaultOptions()) }},
		{"BuildStreaming", streamed(kb.StreamConfig{})},
		{"BuildStreamingWith spilled", streamed(kb.StreamConfig{MaxBufferedTriples: len(d.Triples)/40 + 1, TmpDir: t.TempDir()})},
	} {
		k, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var img bytes.Buffer
		if err := k.WriteSnapshot(&img); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if sum := sha256.Sum256(img.Bytes()); hex.EncodeToString(sum[:]) != snapshotPin {
			t.Errorf("%s: snapshot SHA-256 %x, want %s", c.name, sum, snapshotPin)
		}
	}
}
