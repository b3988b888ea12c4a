package remi

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper, plus ablation benchmarks. The heavyweight table regenerators live
// in internal/experiments (shared with the remi-bench command); the
// benchmarks here run them at a reduced scale so `go test -bench=.`
// completes on a laptop while exercising every code path.
//
//	go test -bench=. -benchmem
//	go run ./cmd/remi-bench all          # full tables with paper comparisons

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/remi-kb/remi/internal/amie"
	"github.com/remi-kb/remi/internal/complexity"
	"github.com/remi-kb/remi/internal/core"
	"github.com/remi-kb/remi/internal/datagen"
	"github.com/remi-kb/remi/internal/experiments"
	"github.com/remi-kb/remi/internal/expr"
	"github.com/remi-kb/remi/internal/kb"
	"github.com/remi-kb/remi/internal/kb/delta"
	"github.com/remi-kb/remi/internal/prominence"
	"github.com/remi-kb/remi/internal/rdf"
	"github.com/remi-kb/remi/internal/wal"
)

// benchLab is shared across benchmarks (building the synthetic KBs once).
var (
	benchLabOnce sync.Once
	benchLab     *experiments.Lab
)

func lab() *experiments.Lab {
	benchLabOnce.Do(func() { benchLab = experiments.NewLab(42, 0.1) })
	return benchLab
}

// tinyMiner builds a miner over the TinyGeo KB.
func tinyMiner(b *testing.B, cfg core.Config) (*core.Miner, *kb.KB) {
	b.Helper()
	d := datagen.TinyGeo()
	opts := kb.DefaultOptions()
	opts.InverseTopFraction = 0.10
	k, err := d.BuildKB(opts)
	if err != nil {
		b.Fatal(err)
	}
	prom := prominence.Build(k, prominence.Fr)
	est := complexity.New(k, prom, complexity.Exact)
	return core.NewMiner(k, est, cfg), k
}

func tinyIDs(b *testing.B, k *kb.KB, names ...string) []kb.EntID {
	b.Helper()
	out := make([]kb.EntID, len(names))
	for i, n := range names {
		id, ok := k.EntityID(rdf.NewIRI("http://tiny.demo/resource/" + n))
		if !ok {
			b.Fatalf("missing %s", n)
		}
		out[i] = id
	}
	return out
}

// --- Table 1: the language of subgraph expressions -------------------------

// BenchmarkTable1Enumeration measures the subgraphs-expressions routine
// (line 1 of Algorithm 1) over prominent entities of the DBpedia-like KB;
// the enumerated shapes are exactly the five rows of Table 1.
func BenchmarkTable1Enumeration(b *testing.B) {
	env := lab().DBpedia()
	ids := experiments.TopOfClass(env, "Person", 16)
	prominent := env.KB.ProminentSet(0.05)
	opts := core.EnumerateOptions{Language: core.ExtendedLanguage, Prominent: prominent}
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		total += len(core.SubgraphsOf(env.KB, ids[i%len(ids)], opts))
	}
	b.ReportMetric(float64(total)/float64(b.N), "subgraphs/op")
}

// --- Figure 1: the search over conjunctions ---------------------------------

// BenchmarkFigure1DFS mines the Figure 1 target pair {Rennes, Nantes} on the
// tiny KB, exercising the priority queue, the cost-ordered search of Figure
// 1's tree and pruning by depth. The name predates the cost-ordered search.
func BenchmarkFigure1DFS(b *testing.B) {
	m, k := tinyMiner(b, core.DefaultConfig())
	targets := tinyIDs(b, k, "Rennes", "Nantes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Mine(targets); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 2: evaluation of Ĉ ----------------------------------------------

// BenchmarkTable2RankingStudy runs the first user study (precision@k of Ĉ's
// subgraph-expression ranking against simulated users).
func BenchmarkTable2RankingStudy(b *testing.B) {
	l := lab()
	cfg := experiments.Table2Config{Sets: 4, UsersPerSet: 2, Seed: 202, CandidateCap: 2048}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2With(l, cfg)
		if len(rows) != 2 {
			b.Fatal("bad study output")
		}
	}
}

// --- Section 4.1.2: MAP study ------------------------------------------------

// BenchmarkSec412OutputStudy runs the MAP study (REMI's answer ranked among
// alternatives by simulated users).
func BenchmarkSec412OutputStudy(b *testing.B) {
	l := lab()
	cfg := experiments.MAPConfig{Sets: 3, UsersPerSet: 2, Seed: 412, MaxAlts: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.Section412With(l, cfg)
		if res.Answers == 0 {
			b.Fatal("no answers")
		}
	}
}

// --- Section 4.1.3: perceived quality ----------------------------------------

// BenchmarkSec413PerceivedQuality runs the 1–5 grading study on the
// Wikidata-like KB.
func BenchmarkSec413PerceivedQuality(b *testing.B) {
	l := lab()
	cfg := experiments.ScoreConfig{PerClass: 2, UsersPerRE: 2, Seed: 413}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.Section413With(l, cfg)
		if res.REs == 0 {
			b.Fatal("no REs graded")
		}
	}
}

// --- Table 3: entity summarization -------------------------------------------

// BenchmarkTable3Summarization compares FACES-like, LinkSUM-like and REMI
// against the simulated expert gold standard.
func BenchmarkTable3Summarization(b *testing.B) {
	l := lab()
	cfg := experiments.Table3Config{Entities: 8, Experts: 3, Seed: 303}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Table3With(l, cfg)
		if len(rows) != 4 {
			b.Fatal("bad table 3 output")
		}
	}
}

// --- Table 4: runtime comparison ---------------------------------------------

// table4Sets samples the Table 4 workload once per benchmark run.
func table4Sets(b *testing.B, env *experiments.Env, n int) []experiments.EntitySet {
	b.Helper()
	return experiments.SampleSets(env, n, 404, 0)
}

func benchMine(b *testing.B, lang core.Language, workers int) {
	env := lab().DBpedia()
	sets := table4Sets(b, env, 8)
	cfg := core.DefaultConfig()
	cfg.Language = lang
	cfg.Workers = workers
	cfg.Timeout = 5 * time.Second
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set := sets[i%len(sets)]
		m := core.NewMiner(env.KB, env.EstFr, cfg)
		if _, err := m.Mine(set.IDs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4StandardREMI times sequential REMI under the standard
// language bias (first row block of Table 4).
func BenchmarkTable4StandardREMI(b *testing.B) { benchMine(b, core.StandardLanguage, 1) }

// BenchmarkTable4StandardPREMI times P-REMI under the standard bias.
func BenchmarkTable4StandardPREMI(b *testing.B) { benchMine(b, core.StandardLanguage, 8) }

// BenchmarkTable4ExtendedREMI times sequential REMI under REMI's bias.
func BenchmarkTable4ExtendedREMI(b *testing.B) { benchMine(b, core.ExtendedLanguage, 1) }

// BenchmarkTable4ExtendedPREMI times P-REMI under REMI's bias.
func BenchmarkTable4ExtendedPREMI(b *testing.B) { benchMine(b, core.ExtendedLanguage, 8) }

// BenchmarkHubMine mines hub target sets — the most popular members of the
// Table 4 classes, which the canonical benchmark leaves out — on the
// DBpedia-like KB at scale 4 (where benchmark/ mines), with the facade's
// defaults. A set is named by its members' popularity ranks within their
// class: Settlement {0, 13, 57} and Person {3, 7, 20}, plus each class's
// rank-0 singleton. Each op mines the set on a fresh miner, bounded by a
// 30 s timeout, and reports its time, visits, the peak bytes of binding sets
// the search retained, the most bytes its heap and node arena held, and
// whether it stopped early (timeout or frontier budget). Each set runs under
// REMI and, as "<set>,workers=2", under P-REMI with two workers, whose
// figures are the workers' totals.
func BenchmarkHubMine(b *testing.B) {
	d := datagen.DBpediaLike(datagen.Config{Seed: 1, Scale: 4})
	k, err := d.BuildKB(kb.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	est := complexity.New(k, prominence.Build(k, prominence.Fr), complexity.Compressed)
	cfg := core.DefaultConfig()
	cfg.Timeout = 30 * time.Second
	type hubSet struct {
		class string
		ranks []int
	}
	sets := []hubSet{{"Settlement", []int{0, 13, 57}}, {"Person", []int{3, 7, 20}}}
	for _, class := range experiments.EvalClasses(d.Name) {
		sets = append(sets, hubSet{class, []int{0}})
	}
	for _, s := range sets {
		var ids []kb.EntID
		for _, r := range s.ranks {
			id, ok := k.EntityID(rdf.NewIRI(d.Members[s.class][r]))
			if !ok {
				b.Fatalf("%s rank %d missing from the KB", s.class, r)
			}
			ids = append(ids, id)
		}
		for _, workers := range []int{1, 2} {
			name := fmt.Sprintf("%s%v", s.class, s.ranks)
			if workers > 1 {
				name += fmt.Sprintf(",workers=%d", workers)
			}
			cfg := cfg
			cfg.Workers = workers
			b.Run(name, func(b *testing.B) {
				var visits, retained, frontier, timeouts uint64
				for i := 0; i < b.N; i++ {
					res, err := core.NewMiner(k, est, cfg).Mine(ids)
					if err != nil {
						b.Fatal(err)
					}
					visits += res.Stats.Visited
					retained = max(retained, res.Stats.PeakRetainedBytes)
					frontier = max(frontier, res.Stats.FrontierBytes)
					if res.Stats.TimedOut {
						timeouts++
					}
				}
				b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/set")
				b.ReportMetric(float64(visits)/float64(b.N), "visits/set")
				b.ReportMetric(float64(retained), "retained-B")
				b.ReportMetric(float64(frontier), "frontier-B")
				b.ReportMetric(float64(timeouts)/float64(b.N), "timeouts/set")
			})
		}
	}
}

// BenchmarkTable4AMIE times the AMIE+ baseline on the same sets (the slow
// column of Table 4; bounded by a tight timeout).
func BenchmarkTable4AMIE(b *testing.B) {
	env := lab().DBpedia()
	sets := table4Sets(b, env, 4)
	cfg := amie.DefaultConfig()
	cfg.Timeout = 2 * time.Second
	cfg.Workers = 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set := sets[i%len(sets)]
		m := amie.NewMiner(env.KB, env.PromFr, cfg)
		_ = m.Mine(set.IDs)
	}
}

// --- Eq. 1: power-law rank compression ----------------------------------------

// BenchmarkEq1PowerLawFit measures building the full prominence store
// (conditional rankings + per-predicate fits) for the DBpedia-like KB.
func BenchmarkEq1PowerLawFit(b *testing.B) {
	env := lab().DBpedia()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prom := prominence.Build(env.KB, prominence.Fr)
		if avg, n := prom.AverageFitR2(10); n == 0 || avg <= 0 {
			b.Fatal("no fits")
		}
	}
}

// BenchmarkProminenceBuild measures prominence.Build (fr) on DBpedia-like KBs
// of doubling size and reports ns/fact, which stays flat when the build is
// linear: every remi.Load and every LiveKB.Apply pays this.
func BenchmarkProminenceBuild(b *testing.B) {
	for _, scale := range []float64{1, 2, 4} {
		b.Run(fmt.Sprintf("scale%g", scale), func(b *testing.B) {
			k, err := datagen.DBpediaLike(datagen.Config{Seed: 1, Scale: scale}).BuildKB(kb.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if prominence.Build(k, prominence.Fr).PredicateRank(1) == 0 {
					b.Fatal("unranked predicate")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(k.NumFacts()), "ns/fact")
		})
	}
}

// BenchmarkBuildStreaming measures the streamed KB build from N-Triples text
// (parse, encode, sort, CSR pack) on the DBpedia-like dump at scale 2, held
// in memory so the disk is not timed, and reports ns per stored fact. Run it
// with -cpuprofile to see where the KB path spends its time.
func BenchmarkBuildStreaming(b *testing.B) {
	var dump bytes.Buffer
	if err := rdf.WriteAll(&dump, datagen.DBpediaLike(datagen.Config{Seed: 1, Scale: 2}).Triples); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	facts := 0
	for i := 0; i < b.N; i++ {
		k, err := kb.BuildStreaming(rdf.NewReader(bytes.NewReader(dump.Bytes())), kb.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		facts = k.NumFacts()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(facts), "ns/fact")
}

// BenchmarkWriteSnapshot measures the snapshot write that follows the
// streamed build (term-order sort and the one walk of the terms into the
// front coder, then the checksum and the write, which read the CSR arrays
// in place) on the same scale-2 KB, into a reused in-memory buffer so the
// disk is not timed, and reports ns per stored fact.
func BenchmarkWriteSnapshot(b *testing.B) {
	k, err := datagen.DBpediaLike(datagen.Config{Seed: 1, Scale: 2}).BuildKB(kb.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	var img bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img.Reset()
		if err := k.WriteSnapshot(&img); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(k.NumFacts()), "ns/fact")
}

// BenchmarkBindingSet times expr.BindingSet, the evaluation under every
// cache miss of the DFS, one sub-benchmark per subgraph shape. The KB is the
// DBpedia-like one at scale 4 (where benchmark/ mines). The subgraphs are
// the queues of single targets drawn with a fixed seed from the evaluation
// classes: 256 of them, and more until every shape has turned up (three
// closed atoms are rare: a handful of queues in the whole KB hold one).
// Each op evaluates the next distinct subgraph of the shape, uncached.
func BenchmarkBindingSet(b *testing.B) {
	d := datagen.DBpediaLike(datagen.Config{Seed: 1, Scale: 4})
	k, err := d.BuildKB(kb.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	est := complexity.New(k, prominence.Build(k, prominence.Fr), complexity.Compressed)
	m := core.NewMiner(k, est, core.DefaultConfig())
	rng := rand.New(rand.NewSource(1))
	classes := experiments.EvalClasses(d.Name)
	byShape := make(map[expr.Shape][]expr.Subgraph)
	seen := make(map[expr.Subgraph]bool)
	for drawn := 0; drawn < 256 || len(byShape) < 5; drawn++ {
		if drawn == 1<<16 {
			b.Fatalf("%d targets drawn and only %d shapes seen", drawn, len(byShape))
		}
		members := d.Members[classes[rng.Intn(len(classes))]]
		id, ok := k.EntityID(rdf.NewIRI(members[rng.Intn(len(members))]))
		if !ok {
			b.Fatal("class member missing from the KB")
		}
		gs, _ := m.RankedCandidates([]kb.EntID{id})
		for _, g := range gs {
			if !seen[g] {
				seen[g] = true
				byShape[g.Shape] = append(byShape[g.Shape], g)
			}
		}
	}
	for _, c := range []struct {
		name  string
		shape expr.Shape
	}{{"atom", expr.Atom1}, {"path", expr.Path}, {"pathstar", expr.PathStar}, {"closed2", expr.Closed2}, {"closed3", expr.Closed3}} {
		gs := byShape[c.shape]
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bindingsSeen += expr.BindingSet(k, gs[i%len(gs)]).Card()
			}
		})
	}
}

// bindingsSeen keeps BenchmarkBindingSet's evaluations observable.
var bindingsSeen int

// --- Section 3.2: search-space census ------------------------------------------

// BenchmarkSec32SearchSpace runs the language-bias census behind the
// +40% / +270% observations.
func BenchmarkSec32SearchSpace(b *testing.B) {
	l := lab()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.SearchSpaceCensus(l, 4, 32)
		if len(rows) != 3 {
			b.Fatal("bad census")
		}
	}
}

// --- Ablations ------------------------------------------------------------------

// BenchmarkAblationPruningProminentOn/Off isolates the Section 3.5.2
// heuristic that refuses to expand atoms with top-5% prominent objects.
func BenchmarkAblationPruningProminentOn(b *testing.B)  { benchProminent(b, 0.05) }
func BenchmarkAblationPruningProminentOff(b *testing.B) { benchProminent(b, 0) }

func benchProminent(b *testing.B, cutoff float64) {
	env := lab().DBpedia()
	ids := experiments.TopOfClass(env, "Settlement", 8)
	cfg := core.DefaultConfig()
	cfg.ProminentCutoff = cutoff
	cfg.Timeout = 10 * time.Second
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := core.NewMiner(env.KB, env.EstFr, cfg)
		if _, err := m.Mine([]kb.EntID{ids[i%len(ids)]}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRankExact/Compressed compares exact conditional rankings
// with the Eq. 1 power-law compression used to price tail entities.
func BenchmarkAblationRankExact(b *testing.B)      { benchRankMode(b, complexity.Exact) }
func BenchmarkAblationRankCompressed(b *testing.B) { benchRankMode(b, complexity.Compressed) }

func benchRankMode(b *testing.B, mode complexity.Mode) {
	env := lab().DBpedia()
	sets := table4Sets(b, env, 6)
	est := complexity.New(env.KB, env.PromFr, mode)
	cfg := core.DefaultConfig()
	cfg.Timeout = 10 * time.Second
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := core.NewMiner(env.KB, est, cfg)
		if _, err := m.Mine(sets[i%len(sets)].IDs); err != nil {
			b.Fatal(err)
		}
	}
}

// liveBench is the write workload BenchmarkLiveApply and
// BenchmarkLiveApplyNoCompaction share: a scale-2 DBpediaLike KB written as
// a snapshot, and 16-op batches drawn from the dataset's own triples (8
// upserts that re-link a subject to another object of the same predicate, 4
// upserts of a new subject, 4 retracts).
type liveBench struct {
	dir, snap string
	named     []rdf.Triple // blank-node labels are not stable names
	byPred    map[rdf.Term][]rdf.Triple
}

func newLiveBench(b *testing.B) *liveBench {
	d := datagen.DBpediaLike(datagen.Config{Seed: 1, Scale: 2})
	k, err := d.BuildKB(kb.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	lb := &liveBench{dir: b.TempDir(), byPred: make(map[rdf.Term][]rdf.Triple)}
	lb.snap = filepath.Join(lb.dir, "base.snap")
	if err := k.WriteSnapshotFile(lb.snap); err != nil {
		b.Fatal(err)
	}
	for _, t := range d.Triples {
		if t.S.Kind != rdf.Blank && t.O.Kind != rdf.Blank {
			lb.named = append(lb.named, t)
			lb.byPred[t.P] = append(lb.byPred[t.P], t)
		}
	}
	return lb
}

// open starts a fresh live KB over the snapshot.
func (lb *liveBench) open(b *testing.B, name string) *LiveKB {
	l, err := OpenLive(filepath.Join(lb.dir, name), "bench", LiveOptions{Source: lb.snap})
	if err != nil {
		b.Fatal(err)
	}
	return l
}

// batches returns the batch sequence, the same on every call.
func (lb *liveBench) batches() func(i int) []delta.Op {
	rng := rand.New(rand.NewSource(1))
	pick := func() rdf.Triple { return lb.named[rng.Intn(len(lb.named))] }
	return func(i int) []delta.Op {
		ops := make([]delta.Op, 0, 16)
		for j := 0; j < 8; j++ {
			a := pick()
			same := lb.byPred[a.P]
			ops = append(ops, delta.Op{S: a.S, P: a.P, O: same[rng.Intn(len(same))].O})
		}
		for j := 0; j < 4; j++ {
			a := pick()
			s := rdf.NewIRI(fmt.Sprintf("http://bench.remi.local/live/E%d-%d", i, j))
			ops = append(ops, delta.Op{S: s, P: a.P, O: a.O})
		}
		for j := 0; j < 4; j++ {
			a := pick()
			ops = append(ops, delta.Op{Retract: true, S: a.S, P: a.P, O: a.O})
		}
		return ops
	}
}

func p50ms(ds []time.Duration) float64 {
	slices.Sort(ds)
	return float64(ds[len(ds)/2].Microseconds()) / 1000
}

// BenchmarkLiveApply times the write path of a live KB the way the
// benchmark's live_mixed workload drives it, without its reads: one op is an
// Apply of one liveBench batch on a live KB opened from the snapshot, and
// every fifth op also compacts. ns/op averages both kinds; apply-p50-ms is
// the median Apply alone, compact-ms the mean compaction and compact-p50-ms
// its median.
//
//	go test -run '^$' -bench LiveApply -benchtime 50x .
func BenchmarkLiveApply(b *testing.B) {
	lb := newLiveBench(b)
	l := lb.open(b, "live")
	defer l.Close()
	batch := lb.batches()

	ctx := context.Background()
	var applies, compactions []time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if _, _, err := l.Apply(ctx, batch(i), ""); err != nil {
			b.Fatal(err)
		}
		applies = append(applies, time.Since(start))
		if (i+1)%5 == 0 {
			start = time.Now()
			if _, err := l.Compact(ctx); err != nil {
				b.Fatal(err)
			}
			compactions = append(compactions, time.Since(start))
		}
	}
	b.StopTimer()
	b.ReportMetric(p50ms(applies), "apply-p50-ms")
	if n := len(compactions); n > 0 {
		var total time.Duration
		for _, d := range compactions {
			total += d
		}
		b.ReportMetric(float64(total.Microseconds())/1000/float64(n), "compact-ms")
		b.ReportMetric(p50ms(compactions), "compact-p50-ms")
	}
}

// BenchmarkLiveApplyNoCompaction is BenchmarkLiveApply's no-compaction arm:
// one op drives 100 batches into a fresh live KB and never compacts. It
// reports the median Apply over batches 1–5 and over batches 96–100 of
// every op, so the two read the same if a write costs its batch and not
// the history since the last snapshot. ns/op is the 100 applies.
//
//	go test -run '^$' -bench LiveApplyNoCompaction -benchtime 3x .
func BenchmarkLiveApplyNoCompaction(b *testing.B) {
	lb := newLiveBench(b)
	ctx := context.Background()
	var first, last []time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		l := lb.open(b, fmt.Sprintf("live-%d", i))
		batch := lb.batches()
		b.StartTimer()
		for j := 0; j < 100; j++ {
			start := time.Now()
			if _, _, err := l.Apply(ctx, batch(j), ""); err != nil {
				b.Fatal(err)
			}
			switch d := time.Since(start); {
			case j < 5:
				first = append(first, d)
			case j >= 95:
				last = append(last, d)
			}
		}
		b.StopTimer()
		l.Close()
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(p50ms(first), "apply-p50-ms-1-5")
	b.ReportMetric(p50ms(last), "apply-p50-ms-96-100")
}

// BenchmarkLiveApplyFreshTerms is BenchmarkLiveApply's growing-dictionary
// arm: one op drives 200 batches into a fresh live KB, each batch 500 facts
// on 500 subjects the KB has never seen, and compacts after every fifth.
// Compaction keeps the generation it wrote, so the dictionary's extension
// tail only grows; the median Apply over batches 1–10 and over batches
// 191–200 of every op read the same if a write costs its own terms and not
// the tail minted before it. ns/op is the whole op: 200 batches built and
// applied, and 40 compactions.
//
//	go test -run '^$' -bench LiveApplyFreshTerms -benchtime 1x .
func BenchmarkLiveApplyFreshTerms(b *testing.B) {
	lb := newLiveBench(b)
	ctx := context.Background()
	var first, last []time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		l := lb.open(b, fmt.Sprintf("fresh-%d", i))
		rng := rand.New(rand.NewSource(1))
		b.StartTimer()
		for j := 0; j < 200; j++ {
			ops := make([]delta.Op, 500)
			for k := range ops {
				a := lb.named[rng.Intn(len(lb.named))]
				ops[k] = delta.Op{S: rdf.NewIRI(fmt.Sprintf("http://bench.remi.local/fresh/E%d-%d", j, k)), P: a.P, O: a.O}
			}
			start := time.Now()
			if _, _, err := l.Apply(ctx, ops, ""); err != nil {
				b.Fatal(err)
			}
			switch d := time.Since(start); {
			case j < 10:
				first = append(first, d)
			case j >= 190:
				last = append(last, d)
			}
			if (j+1)%5 == 0 {
				if _, err := l.Compact(ctx); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		l.Close()
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(p50ms(first), "apply-p50-ms-1-10")
	b.ReportMetric(p50ms(last), "apply-p50-ms-191-200")
}

// BenchmarkLiveRecover times a live KB's boot over WALs of 10, 100 and 1,000
// liveBench batches written since the scale-2 snapshot: OpenLive then
// Close, each size once per op. It reports each size's median boot and the
// slope between the smallest and the largest, ms/record: boot replays the
// records as one batch, so a record should cost about its decode.
//
//	go test -run '^$' -bench LiveRecover -benchtime 5x .
func BenchmarkLiveRecover(b *testing.B) {
	lb := newLiveBench(b)
	sizes := []int{10, 100, 1000}
	ctx := context.Background()
	for _, n := range sizes {
		dir := filepath.Join(lb.dir, fmt.Sprint(n))
		if err := os.Mkdir(dir, 0o755); err != nil {
			b.Fatal(err)
		}
		log, _, err := wal.Open(filepath.Join(dir, "bench.wal"))
		if err != nil {
			b.Fatal(err)
		}
		batch := lb.batches()
		for i := range n {
			payload, err := json.Marshal(walRecord{Ops: batch(i)})
			if err != nil {
				b.Fatal(err)
			}
			if err := log.Append(ctx, payload); err != nil {
				b.Fatal(err)
			}
		}
		if err := log.Close(); err != nil {
			b.Fatal(err)
		}
	}
	boots := make([][]time.Duration, len(sizes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, n := range sizes {
			start := time.Now()
			l := lb.open(b, fmt.Sprint(n))
			boots[j] = append(boots[j], time.Since(start))
			if got := l.Stats().RecoveryReplayed; got != int64(n) {
				b.Fatalf("replayed %d records, want %d", got, n)
			}
			l.Close()
		}
	}
	b.StopTimer()
	for j, n := range sizes {
		b.ReportMetric(p50ms(boots[j]), fmt.Sprintf("ms-%drec", n))
	}
	last := len(sizes) - 1
	b.ReportMetric((p50ms(boots[last])-p50ms(boots[0]))/float64(sizes[last]-sizes[0]), "ms/record")
}

// BenchmarkPREMIScaling sweeps the worker count (Section 3.4).
func BenchmarkPREMIScaling1(b *testing.B) { benchMine(b, core.ExtendedLanguage, 1) }
func BenchmarkPREMIScaling2(b *testing.B) { benchMine(b, core.ExtendedLanguage, 2) }
func BenchmarkPREMIScaling4(b *testing.B) { benchMine(b, core.ExtendedLanguage, 4) }
func BenchmarkPREMIScaling8(b *testing.B) { benchMine(b, core.ExtendedLanguage, 8) }
