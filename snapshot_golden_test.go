package remi

// End-to-end snapshot regression: a System saved to a snapshot and reloaded
// through the facade (format auto-detection included) must mine exactly the
// golden expressions of the original — the on-disk round trip may change
// the physical KB representation, never a mined result.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/remi-kb/remi/internal/datagen"
	"github.com/remi-kb/remi/internal/experiments"
	"github.com/remi-kb/remi/internal/kb"
	"github.com/remi-kb/remi/internal/kb/delta"
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

// compactedPins are the SHA-256s of the three images
// TestCompactedSnapshotBytePin compacts, in order. A change to one is a
// change to what a compaction writes for the same history.
var compactedPins = []string{
	"f8dce27aeeb95e0df766ea741b159e0eb0e8e8574d133c16ee72ecef7f2c12d9",
	"43c6532a1a51a435429de423c2c4561d61326809f35c328e12a05127daeee660",
	"24f4ae4baa4cb741bc27e0904e3a43844e60dd798bdf4b3b8b65baba6163beb3",
}

// TestCompactedSnapshotBytePin opens a live KB over a scale-1 DBpediaLike
// snapshot and compacts it three times, each after two batches of re-linked
// subjects, retracts and fresh terms. The fresh IRIs and literals sort
// before, between and after the base's terms, and the in-between ones land
// in blocks spread over the whole term table, so every compaction writes a
// term order that interleaves an extension tail with the base's lazy terms.
// Each compacted image must be the pinned bytes.
func TestCompactedSnapshotBytePin(t *testing.T) {
	d := datagen.DBpediaLike(datagen.Config{Seed: 1, Scale: 1})
	k, err := d.BuildKB(kb.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	src := filepath.Join(dir, "src.snap")
	if err := k.WriteSnapshotFile(src); err != nil {
		t.Fatal(err)
	}
	k.Close()
	var named, literal []rdf.Triple
	for _, tr := range d.Triples {
		switch {
		case tr.S.Kind == rdf.Blank || tr.O.Kind == rdf.Blank:
		case tr.O.Kind == rdf.Literal:
			literal = append(literal, tr)
		default:
			named = append(named, tr)
		}
	}
	live, err := OpenLive(filepath.Join(dir, "live"), "pin", LiveOptions{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	rng := rand.New(rand.NewSource(48))
	batch := func(round, n int) []delta.Op {
		var ops []delta.Op
		tag := fmt.Sprintf("r%dn%d", round, n)
		for range 8 {
			a, b := named[rng.Intn(len(named))], named[rng.Intn(len(named))]
			ops = append(ops, delta.Op{S: a.S, P: a.P, O: b.O})
		}
		for range 4 {
			a := named[rng.Intn(len(named))]
			ops = append(ops, delta.Op{Retract: true, S: a.S, P: a.P, O: a.O})
		}
		for i := range 24 {
			a, l := named[rng.Intn(len(named))], literal[rng.Intn(len(literal))]
			for _, s := range []rdf.Term{
				rdf.NewIRI(fmt.Sprintf("http://a.remi.test/%s-%d", tag, i)),  // before every base IRI
				rdf.NewIRI(fmt.Sprintf("%s~%s-%d", a.S.Value, tag, i)),       // right after a base IRI
				rdf.NewIRI(fmt.Sprintf("http://zz.remi.test/%s-%d", tag, i)), // after every base IRI
			} {
				ops = append(ops, delta.Op{S: s, P: a.P, O: a.O})
			}
			for _, o := range []rdf.Term{
				rdf.NewLiteral(fmt.Sprintf(" %s-%d", tag, i)),              // before every base literal
				rdf.NewLiteral(fmt.Sprintf("%s~%s-%d", l.O.Value, tag, i)), // right after a base literal
				rdf.NewLiteral(fmt.Sprintf("~%s-%d", tag, i)),              // after every base literal
			} {
				ops = append(ops, delta.Op{S: l.S, P: l.P, O: o})
			}
		}
		return ops
	}
	ctx := context.Background()
	snap := filepath.Join(dir, "live", "pin.snap")
	for round, want := range compactedPins {
		for n := range 2 {
			if _, _, err := live.Apply(ctx, batch(round, n), ""); err != nil {
				t.Fatalf("round %d batch %d: %v", round, n, err)
			}
		}
		if _, err := live.Compact(ctx); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		img, err := os.ReadFile(snap)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(img); hex.EncodeToString(sum[:]) != want {
			t.Errorf("compaction %d: image SHA-256 %x, want %s", round+1, sum, want)
		}
	}
}
