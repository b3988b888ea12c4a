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
	"fmt"
	"math/rand"
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

// --- Figure 1: the DFS over conjunctions ------------------------------------

// BenchmarkFigure1DFS mines the Figure 1 target pair {Rennes, Nantes} on the
// tiny KB, exercising the priority queue, pruning by depth and side pruning.
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

// BenchmarkAblationCacheOn/Off isolates the LRU query cache (Section 3.5.2).
func BenchmarkAblationCacheOn(b *testing.B)  { benchCache(b, 1<<16) }
func BenchmarkAblationCacheOff(b *testing.B) { benchCache(b, -1) }

func benchCache(b *testing.B, size int) {
	env := lab().DBpedia()
	sets := table4Sets(b, env, 6)
	cfg := core.DefaultConfig()
	cfg.CacheSize = size
	cfg.Timeout = 10 * time.Second
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := core.NewMiner(env.KB, env.EstFr, cfg)
		if _, err := m.Mine(sets[i%len(sets)].IDs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDFSTree/Literal compares the tree-complete DFS with the
// verbatim Algorithm 2 scan.
func BenchmarkAblationDFSTree(b *testing.B)    { benchDFS(b, false) }
func BenchmarkAblationDFSLiteral(b *testing.B) { benchDFS(b, true) }

func benchDFS(b *testing.B, literal bool) {
	env := lab().DBpedia()
	sets := table4Sets(b, env, 6)
	cfg := core.DefaultConfig()
	cfg.LiteralAlg2 = literal
	cfg.Timeout = 10 * time.Second
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := core.NewMiner(env.KB, env.EstFr, cfg)
		if _, err := m.Mine(sets[i%len(sets)].IDs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationQueueSorted/Unsorted isolates the ascending-Ĉ queue
// order (line 2 of Algorithm 1) that makes side/cost pruning effective.
func BenchmarkAblationQueueSorted(b *testing.B)   { benchQueueOrder(b, false) }
func BenchmarkAblationQueueUnsorted(b *testing.B) { benchQueueOrder(b, true) }

func benchQueueOrder(b *testing.B, unsorted bool) {
	env := lab().DBpedia()
	sets := table4Sets(b, env, 6)
	cfg := core.DefaultConfig()
	cfg.UnsortedQueue = unsorted
	cfg.Timeout = 10 * time.Second
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := core.NewMiner(env.KB, env.EstFr, cfg)
		if _, err := m.Mine(sets[i%len(sets)].IDs); err != nil {
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

// BenchmarkBatchSplit splits what a batch buys: one op mines the same 64
// Table-4-style sets on one thread with a fresh miner per set, with
// MineBatch on one miner, and with a plain MineContext loop on one miner.
// batch ≈ loop < fresh says the gain is the evaluator cache one miner keeps
// across sets, not anything batch-specific (all three share one estimator,
// so its Ĉ memo is warm everywhere).
func BenchmarkBatchSplit(b *testing.B) {
	env := lab().DBpedia()
	sets := table4Sets(b, env, 64)
	ids := make([][]kb.EntID, len(sets))
	for i, s := range sets {
		ids[i] = s.IDs
	}
	cfg := core.DefaultConfig()
	cfg.Timeout = 10 * time.Second
	ctx := context.Background()
	mine := func(b *testing.B, m *core.Miner, set []kb.EntID) {
		if _, err := m.MineContext(ctx, set); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, set := range ids {
				mine(b, core.NewMiner(env.KB, env.EstFr, cfg), set)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, o := range core.NewMiner(env.KB, env.EstFr, cfg).MineBatch(ctx, ids, 1) {
				if o.Err != nil {
					b.Fatal(o.Err)
				}
			}
		}
	})
	b.Run("loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := core.NewMiner(env.KB, env.EstFr, cfg)
			for _, set := range ids {
				mine(b, m, set)
			}
		}
	})
}

// BenchmarkLiveApply times the write path of a live KB the way the
// benchmark's live_mixed workload drives it, without its reads: one op is an
// Apply of 16 mutations drawn from the dataset's own triples (8 upserts that
// re-link a subject to another object of the same predicate, 4 upserts of a
// new subject, 4 retracts) on a scale-2 DBpediaLike KB opened from a
// snapshot, and every fifth op also compacts. ns/op averages both kinds;
// apply-p50-ms is the median Apply alone, compact-ms the mean compaction.
//
//	go test -run '^$' -bench LiveApply -benchtime 50x .
func BenchmarkLiveApply(b *testing.B) {
	d := datagen.DBpediaLike(datagen.Config{Seed: 1, Scale: 2})
	k, err := d.BuildKB(kb.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	snap := filepath.Join(dir, "base.snap")
	if err := k.WriteSnapshotFile(snap); err != nil {
		b.Fatal(err)
	}
	l, err := OpenLive(filepath.Join(dir, "live"), "bench", LiveOptions{Source: snap})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()

	var named []rdf.Triple // blank-node labels are not stable names
	byPred := make(map[rdf.Term][]rdf.Triple)
	for _, t := range d.Triples {
		if t.S.Kind != rdf.Blank && t.O.Kind != rdf.Blank {
			named = append(named, t)
			byPred[t.P] = append(byPred[t.P], t)
		}
	}
	rng := rand.New(rand.NewSource(1))
	pick := func() rdf.Triple { return named[rng.Intn(len(named))] }
	batch := func(i int) []delta.Op {
		ops := make([]delta.Op, 0, 16)
		for j := 0; j < 8; j++ {
			a := pick()
			same := byPred[a.P]
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

	ctx := context.Background()
	var applies []time.Duration
	var compacting time.Duration
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
			compacting += time.Since(start)
		}
	}
	b.StopTimer()
	slices.Sort(applies)
	b.ReportMetric(float64(applies[len(applies)/2].Microseconds())/1000, "apply-p50-ms")
	if n := b.N / 5; n > 0 {
		b.ReportMetric(float64(compacting.Microseconds())/1000/float64(n), "compact-ms")
	}
}

// BenchmarkPREMIScaling sweeps the worker count (Section 3.4).
func BenchmarkPREMIScaling1(b *testing.B) { benchMine(b, core.ExtendedLanguage, 1) }
func BenchmarkPREMIScaling2(b *testing.B) { benchMine(b, core.ExtendedLanguage, 2) }
func BenchmarkPREMIScaling4(b *testing.B) { benchMine(b, core.ExtendedLanguage, 4) }
func BenchmarkPREMIScaling8(b *testing.B) { benchMine(b, core.ExtendedLanguage, 8) }
