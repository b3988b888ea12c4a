package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"

	remi "github.com/remi-kb/remi"
	"github.com/remi-kb/remi/internal/datagen"
	"github.com/remi-kb/remi/internal/kb/delta"
	"github.com/remi-kb/remi/internal/rdf"
	"github.com/remi-kb/remi/internal/zipf"
)

// The canonical input. Mining workloads run at mineScale, where a set costs
// ~0.4 ms to mine and the harness's ~0.1 µs per op is noise. The two KB-path
// workloads run the same generator at kbScale: their op is a whole build or
// a whole Apply, and at mineScale forty of them do not fit a run (prominence
// alone is 0.85 s at scale 4 against 0.3 s at scale 2).
//
// The KB and the set list are the same in every run (canonSeed): across KB
// instances the median mining time alone moves by ±13 %, which would drown
// any change a later PR makes. The run's -seed draws what is run on them:
// the order of a traversal, the Zipf key sequence and which keys are hot, the
// probe sets of a cold start, the mutation batches and the reads beside them.
const (
	canonSeed = 1
	mineScale = 4.0
	mineSets  = 4096
	kbScale   = 2.0
	kbSets    = 256

	// Targets come from ranks poolLo..poolHi of each class ranking: a tenth
	// of the class, near its head. The top 2 % are left out because they are
	// hubs: a set of three settlements ranked 0, 13 and 57 mines for 2.7 s at
	// scale 4, which is near slowOp, and with such sets the failed count
	// could flip with the seed. Uniform pools are ~15 µs sets that measure
	// the harness.
	poolLo = 0.02
	poolHi = 0.12

	zipfS       = 1.1  // serve_zipf key skew
	resultCache = 1024 // remi-serve's default -result-cache, a quarter of mineSets
	probeSets   = 16   // sets a cold replica answers, and the recovery probes
	liveOps     = 16   // mutations per Apply: 8 upserts, 4 upserts of new terms, 4 retracts
	liveReads   = 64   // Mine calls per cycle
	compactGap  = 5    // cycles between compactions
)

// evalClasses are the classes of the paper's Table 4.
var evalClasses = []string{"Person", "Settlement", "Album", "Film", "Organization"}

// answer is what a correct system must return for a target set; costs are
// compared bit for bit (Go's JSON round-trips float64 exactly).
type answer struct {
	Found bool    `json:"found"`
	Bits  float64 `json:"bits"`
	Expr  string  `json:"expr"`
}

// canon is everything a process under test is given: files plus this
// document. It is written by the _gen child and never by a measured process.
type canon struct {
	Scale   float64    `json:"scale"`
	Triples int        `json:"triples"`
	Facts   int        `json:"facts"`
	Sets    [][]string `json:"sets"`
	Answers []answer   `json:"answers"`
	Digest  string     `json:"digest"` // SHA-256 over every (set → answer) pair
	// Cycles are live_mixed's mutation batches (nil for other workloads).
	Cycles [][]delta.Op `json:"cycles,omitempty"`
}

func dumpPath(dir string) string  { return filepath.Join(dir, "dump.nt") }
func snapPath(dir string) string  { return filepath.Join(dir, "canon.snap") }
func canonPath(dir string) string { return filepath.Join(dir, "canon.json") }

// sampleCanon draws n distinct target sets as Table 4 does — 50 % singletons,
// 30 % pairs, 20 % triples, members of one class — from ranks poolLo..poolHi
// of each class ranking (Members is most popular first).
func sampleCanon(members map[string][]string, seed int64, n int) ([][]string, error) {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, n)
	sets := make([][]string, 0, n)
	for tries := 0; len(sets) < n; tries++ {
		if tries > 1000*n {
			return nil, fmt.Errorf("canon: class pools too small for %d distinct sets", n)
		}
		size := 1
		switch i := len(sets); {
		case i >= n*8/10:
			size = 3
		case i >= n/2:
			size = 2
		}
		all := members[evalClasses[rng.Intn(len(evalClasses))]]
		pool := all[int(float64(len(all))*poolLo):int(float64(len(all))*poolHi)]
		if len(pool) < size {
			continue
		}
		set := make([]string, 0, size)
		for _, j := range rng.Perm(len(pool))[:size] {
			set = append(set, pool[j])
		}
		slices.Sort(set)
		if key := strings.Join(set, "\x00"); !seen[key] {
			seen[key] = true
			sets = append(sets, set)
		}
	}
	// Mix the sizes, so that any prefix is a fair sample.
	rng.Shuffle(len(sets), func(i, j int) { sets[i], sets[j] = sets[j], sets[i] })
	return sets, nil
}

// order is the seed's permutation of the set list: the order of a traversal,
// and a prefix of it is the seed's choice of probe sets.
func order(seed int64, sets int) []int {
	return rand.New(rand.NewSource(seed)).Perm(sets)
}

// zipfKeys is serve_zipf's request sequence: n indexes into the set list,
// Zipf-distributed over the seed's own popularity ranking of the sets.
func zipfKeys(seed int64, sets, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	ranking := rng.Perm(sets)
	z := zipf.NewSampler(rng, zipfS, sets)
	keys := make([]int, n)
	for i := range keys {
		keys[i] = ranking[z.Next()]
	}
	return keys
}

// liveCycles generates live_mixed's mutation batches from the dataset's own
// triples, so every op is type-correct: an upsert re-links the subject of one
// fact to the object of another fact of the same predicate, a new-term upsert
// attaches a fresh entity to an existing object, a retract removes a fact
// that was in the dump.
func liveCycles(triples []rdf.Triple, seed int64, cycles int) [][]delta.Op {
	rng := rand.New(rand.NewSource(seed))
	var named []rdf.Triple // no blank nodes: their labels are not stable names
	byPred := make(map[rdf.Term][]int)
	for _, t := range triples {
		if t.S.Kind == rdf.Blank || t.O.Kind == rdf.Blank {
			continue
		}
		byPred[t.P] = append(byPred[t.P], len(named))
		named = append(named, t)
	}
	pick := func() rdf.Triple { return named[rng.Intn(len(named))] }
	out := make([][]delta.Op, cycles)
	fresh := 0
	for c := range out {
		ops := make([]delta.Op, 0, liveOps)
		for len(ops) < liveOps/2 {
			a := pick()
			same := byPred[a.P]
			b := named[same[rng.Intn(len(same))]]
			ops = append(ops, delta.Op{S: a.S, P: a.P, O: b.O})
		}
		for len(ops) < liveOps*3/4 {
			a := pick()
			s := rdf.NewIRI(fmt.Sprintf("http://bench.remi.local/live/E%d", fresh))
			fresh++
			ops = append(ops, delta.Op{S: s, P: a.P, O: a.O})
		}
		for len(ops) < liveOps {
			a := pick()
			ops = append(ops, delta.Op{Retract: true, S: a.S, P: a.P, O: a.O})
		}
		out[c] = ops
	}
	return out
}

// answerOf reduces a mining result to what is compared.
func answerOf(res *remi.Result) answer {
	return answer{Found: res.Found, Bits: res.Bits, Expr: res.Expression}
}

// mineAnswers mines every set on sys and returns the answers; a timed-out
// run is an error, because its answer is not the answer.
func mineAnswers(sys *remi.System, sets [][]string) ([]answer, error) {
	out := make([]answer, len(sets))
	for i, set := range sets {
		res, err := sys.MineContext(context.Background(), set)
		if err != nil {
			return nil, fmt.Errorf("mining set %d: %w", i, err)
		}
		if res.Stats.TimedOut {
			return nil, fmt.Errorf("mining set %d timed out", i)
		}
		out[i] = answerOf(res)
	}
	return out, nil
}

func digest(sets [][]string, answers []answer) string {
	h := sha256.New()
	for i, set := range sets {
		fmt.Fprintf(h, "%s\x00%t\x00%x\x00%s\n", strings.Join(set, "\x00"), answers[i].Found, answers[i].Bits, answers[i].Expr)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// generate is the _gen child: it writes the dump, the snapshot and the canon
// document into dir. The reference answers come from the in-memory build of
// the triples, a different path from every measured one (snapshot open,
// streamed build, patched generations, sockets). Only the mutation batches
// depend on seed.
func generate(dir string, seed int64, scale float64, nSets, cycles int) error {
	d := datagen.DBpediaLike(datagen.Config{Seed: canonSeed, Scale: scale})
	f, err := os.Create(dumpPath(dir))
	if err != nil {
		return err
	}
	if err := rdf.WriteAll(f, d.Triples); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	sys, err := remi.FromTriples(d.Triples)
	if err != nil {
		return err
	}
	if err := sys.SaveSnapshot(snapPath(dir)); err != nil {
		return err
	}
	sets, err := sampleCanon(d.Members, canonSeed, nSets)
	if err != nil {
		return err
	}
	answers, err := mineAnswers(sys, sets)
	if err != nil {
		return err
	}
	c := canon{
		Scale: scale, Triples: len(d.Triples), Facts: sys.NumFacts(),
		Sets: sets, Answers: answers, Digest: digest(sets, answers),
	}
	if cycles > 0 {
		c.Cycles = liveCycles(d.Triples, seed, cycles)
	}
	return writeJSON(canonPath(dir), c)
}

func loadCanon(dir string) (*canon, error) {
	var c canon
	if err := readJSON(canonPath(dir), &c); err != nil {
		return nil, err
	}
	return &c, nil
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
