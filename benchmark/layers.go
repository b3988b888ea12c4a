package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	remi "github.com/remi-kb/remi"
	"github.com/remi-kb/remi/internal/complexity"
	"github.com/remi-kb/remi/internal/core"
	"github.com/remi-kb/remi/internal/kb"
	"github.com/remi-kb/remi/internal/kb/delta"
	"github.com/remi-kb/remi/internal/prominence"
	"github.com/remi-kb/remi/internal/rdf"
	"github.com/remi-kb/remi/internal/wal"
)

// The traced run times each layer from outside, by calling its public
// functions or driving the real binaries, and records a span around every
// such call. It is never the source of an end-to-end number.
//
// layerMetrics lists every per-layer metric with its unit; BENCHMARK.json's
// per_layer section is checked against it by a test.
var layerMetrics = []struct{ name, unit string }{
	{"rdf.parse_ms", "ms"},
	{"rdf.parse_mb_per_s", "MB/s"},
	{"kb.build_stream_ms", "ms"},
	{"kb.build_inmem_ms", "ms"},
	{"kb.snapshot_write_ms", "ms"},
	{"kb.snapshot_open_ms", "ms"},
	{"kb.first_touch_ms", "ms"},
	{"kb.snapshot_bytes_per_fact", "B"},
	{"kb.build_peak_rss_mb", "MB"},
	{"kb.apply_patch_ms", "ms"},
	{"prominence.build_fr_ms", "ms"},
	{"prominence.build_pr_ms", "ms"},
	{"core.mine_p50_ms", "ms"},
	{"core.mine_p99_ms", "ms"},
	{"core.queue_build_share", "ratio"},
	{"core.candidates_per_op", "count"},
	{"core.visited_per_op", "count"},
	{"core.re_tests_per_op", "count"},
	{"core.cache_hit_share", "ratio"},
	{"core.premi2_over_remi", "ratio"},
	{"core.batch_over_sequential", "ratio"},
	{"remi.mine_p50_ms", "ms"},
	{"remi.facade_self_p50_ms", "ms"},
	{"remi.allocs_per_op", "count"},
	{"remi.load_snapshot_ms", "ms"},
	{"server.hit_p50_ms", "ms"},
	{"server.miss_p50_ms", "ms"},
	{"server.http_self_p50_ms", "ms"},
	{"server.cache_hit_share", "ratio"},
	{"server.rejected", "count"},
	{"cluster.hop_p50_ms", "ms"},
	{"cluster.hop_p99_ms", "ms"},
	{"cluster.retries", "count"},
	{"cluster.hedges", "count"},
	{"wal.append_fsync_p50_ms", "ms"},
	{"delta.materialize_ms", "ms"},
	{"live.apply_p50_ms", "ms"},
	{"live.compact_ms", "ms"},
	{"live.recover_ms", "ms"},
	{"live.read_over_flat", "ratio"},
	{"loadgen.empty_op_us", "us"},
	{"trace.overhead_share", "ratio"},
}

// span is one timed call into a layer. Spans of one op share Op; Parent is
// the span of the next-outer layer (0 for none). Times are nanoseconds since
// the trace began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is the untraced side of trace.overhead_share.
type tracer struct {
	t0    time.Time
	spans []span
}

// do runs f inside a span and returns the span's id. The span is entered in
// the list before f runs, so spans that f records can name it as parent.
func (t *tracer) do(name string, op, parent int, f func()) int {
	if t == nil {
		f()
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: op, Start: int64(time.Since(t.t0))})
	f()
	t.spans[id-1].End = int64(time.Since(t.t0))
	return id
}

// millis is a finished span's duration in ms.
func (t *tracer) millis(id int) float64 {
	s := t.spans[id-1]
	return float64(s.End-s.Start) / 1e6
}

// nest makes each outer span the parent of the inner span of the same op.
// The mining waterfall runs the same ops at successive depths, one depth
// after the other, so the nesting is by op and not by time.
func (t *tracer) nest(inner, outer []int) {
	for op, id := range inner {
		t.spans[id-1].Parent = outer[op]
	}
}

// selfTimes is each span's duration minus its children's: the time the layer
// itself spent.
func selfTimes(spans []span) map[int]time.Duration {
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] += time.Duration(s.End - s.Start)
		if s.Parent != 0 {
			self[s.Parent] -= time.Duration(s.End - s.Start)
		}
	}
	return self
}

// waterfall prints the median self time of each span name, in the order the
// layers were first entered.
func waterfall(w io.Writer, spans []span) {
	self := selfTimes(spans)
	byName := map[string][]float64{}
	var order []string
	for _, s := range spans {
		if _, ok := byName[s.Name]; !ok {
			order = append(order, s.Name)
		}
		byName[s.Name] = append(byName[s.Name], ms(self[s.ID]))
	}
	fmt.Fprintln(w, "layer self times (median over spans; a span minus its children):")
	for _, name := range order {
		fmt.Fprintf(w, "  %-24s %10.4f ms  ×%d\n", name, median(byName[name]), len(byName[name]))
	}
}

// medianOf times f n times and returns the median in milliseconds.
func medianOf(n int, f func()) float64 {
	v := make([]float64, n)
	for i := range v {
		t0 := time.Now()
		f()
		v[i] = ms(time.Since(t0))
	}
	return median(v)
}

// layerRepeats is how often a whole-KB step is repeated for its median.
const layerRepeats = 5

// layerApplies is how many batches the live-layer probes apply, and so how
// many records the recovery probe replays.
const layerApplies = 10

// layerRun is the state the three groups of layer probes share.
type layerRun struct {
	*report
	t   *tracer
	err error // the first error of a probe body; checked after each group
}

func (lr *layerRun) set(name string, v float64) { lr.Metrics[name] = metric{Value: v} }

func (lr *layerRun) note(err error) {
	if err != nil && lr.err == nil {
		lr.err = err
	}
}

// runLayers is the _layers child. e.dir holds the mining input, kbDir the
// KB-path input with live_mixed's batches.
func runLayers(e env, kbDir, spansPath string) (*report, error) {
	lr := &layerRun{report: newReport("layers"), t: &tracer{t0: time.Now()}}

	empty := timePass(1_000_000, selfCPU, func(int) {})
	lr.set("loadgen.empty_op_us", float64(empty.wall.Nanoseconds())/1e3/float64(len(empty.lat)))

	for _, group := range []struct {
		name string
		run  func() error
	}{
		{"kb", func() error { return lr.kbLayers(kbDir) }},
		{"live", func() error { return lr.liveLayers(kbDir) }},
		{"mining", func() error { return lr.miningLayers(e) }},
	} {
		if err := group.run(); err != nil {
			return nil, fmt.Errorf("%s layers: %w", group.name, err)
		}
		if lr.err != nil {
			return nil, fmt.Errorf("%s layers: %w", group.name, lr.err)
		}
	}

	for _, m := range layerMetrics {
		v, ok := lr.Metrics[m.name]
		if !ok {
			return nil, fmt.Errorf("layer metric %s was not measured", m.name)
		}
		lr.Metrics[m.name] = metric{v.Value, m.unit}
	}
	waterfall(os.Stderr, lr.t.spans)
	if spansPath != "" {
		if err := writeJSON(spansPath, lr.t.spans); err != nil {
			return nil, err
		}
	}
	return lr.report, nil
}

// kbLayers walks the KB path of kb_cold_start step by step: parse, build,
// write, open, prominence, first answers.
func (lr *layerRun) kbLayers(dir string) error {
	c, err := loadCanon(dir)
	if err != nil {
		return err
	}
	probes := c.Sets[:probeSets]
	dump, err := os.ReadFile(dumpPath(dir))
	if err != nil {
		return err
	}
	reader := func() *rdf.Reader { return rdf.NewReader(bytes.NewReader(dump)) }

	parse := medianOf(layerRepeats, func() {
		rd := reader()
		for {
			if _, err := rd.ReadBorrowed(); err != nil {
				if err != io.EOF {
					lr.note(err)
				}
				return
			}
		}
	})
	lr.set("rdf.parse_ms", parse)
	lr.set("rdf.parse_mb_per_s", float64(len(dump))/1e6/(parse/1e3))

	triples, err := rdf.ReadAll(bytes.NewReader(dump))
	if err != nil {
		return err
	}
	lr.set("kb.build_inmem_ms", medianOf(layerRepeats, func() {
		_, err := kb.FromTriples(triples, kb.DefaultOptions())
		lr.note(err)
	}))

	// The nested part: one cold path per repeat, every step a child span.
	snap := filepath.Join(dir, "layers.snap")
	defer os.Remove(snap)
	steps := map[string][]float64{}
	for rep := 0; rep < layerRepeats && lr.err == nil; rep++ {
		root := len(lr.t.spans) + 1
		step := func(name string, f func()) {
			steps[name] = append(steps[name], lr.t.millis(lr.t.do(name, rep, root, f)))
		}
		var built, opened *kb.KB
		var sys *remi.System
		lr.t.do("kb cold path", rep, 0, func() {
			step("kb.build_stream_ms", func() { built, err = kb.BuildStreaming(reader(), kb.DefaultOptions()) })
			if err != nil {
				return
			}
			step("kb.snapshot_write_ms", func() { err = built.WriteSnapshotFile(snap) })
			if err != nil {
				return
			}
			step("kb.snapshot_open_ms", func() { opened, err = kb.OpenSnapshot(snap) })
			if err != nil {
				return
			}
			step("prominence.build_fr_ms", func() { prominence.Build(opened, prominence.Fr) })
			// First answers, as a replica gives them: the facade on the file.
			step("first answers", func() {
				if sys, err = remi.Load(snap); err == nil {
					_, err = mineAnswers(sys, probes)
				}
			})
		})
		if err != nil {
			return err
		}
		steps["prominence.build_pr_ms"] = append(steps["prominence.build_pr_ms"],
			medianOf(1, func() { prominence.Build(opened, prominence.Pr) }))
		// First touch: what the first visit of the probe sets costs beyond
		// the same sets on the then-warm System. The load is kept out of
		// both sides, so only mining is compared.
		fresh, err := remi.Load(snap)
		if err != nil {
			return err
		}
		cold := medianOf(1, func() { _, err := mineAnswers(fresh, probes); lr.note(err) })
		warm := medianOf(1, func() { _, err := mineAnswers(fresh, probes); lr.note(err) })
		steps["kb.first_touch_ms"] = append(steps["kb.first_touch_ms"], cold-warm)
		if rep == 0 {
			st, err := os.Stat(snap)
			if err != nil {
				return err
			}
			lr.set("kb.snapshot_bytes_per_fact", float64(st.Size())/float64(opened.NumFacts()))
		}
		fresh.Close()
		sys.Close()
		opened.Close()
	}
	delete(steps, "first answers")
	for name, v := range steps {
		lr.set(name, median(v))
	}

	_, ps, err := runChild("_compile", dumpPath(dir), snap)
	if err != nil {
		return err
	}
	lr.set("kb.build_peak_rss_mb", rssOf(ps))
	return nil
}

// liveLayers times the parts of one live_mixed op separately.
func (lr *layerRun) liveLayers(dir string) error {
	ctx := context.Background()
	c, err := loadCanon(dir)
	if err != nil {
		return err
	}
	batch := c.Cycles[0]

	// WAL: records the size of a real batch, each fsynced before the ack.
	payload, err := json.Marshal(batch)
	if err != nil {
		return err
	}
	log, _, err := wal.Open(filepath.Join(dir, "layers.wal"))
	if err != nil {
		return err
	}
	appends := timePass(50, selfCPU, func(int) { lr.note(log.Append(ctx, payload)) })
	lr.note(log.Close())
	lr.set("wal.append_fsync_p50_ms", quantile(msSorted(appends.lat), 0.5))

	// Overlay → KB: the batch materialized, and a patch of the same size
	// folded by kb.ApplyPatch directly.
	base, err := kb.OpenSnapshot(snapPath(dir))
	if err != nil {
		return err
	}
	defer base.Close()
	ov := delta.New(base)
	if _, err := ov.Apply(batch); err != nil {
		return err
	}
	lr.set("delta.materialize_ms", medianOf(layerRepeats, func() {
		_, err := ov.Materialize()
		lr.note(err)
	}))
	patch, err := freshTermPatch(base, batch)
	if err != nil {
		return err
	}
	lr.set("kb.apply_patch_ms", medianOf(layerRepeats, func() {
		_, err := base.ApplyPatch(patch)
		lr.note(err)
	}))

	// The live KB itself: Apply, reads on the flat and on a patched
	// generation, a reopen that replays the WAL, and Compact.
	liveDir := filepath.Join(dir, "layers-live")
	opts := remi.LiveOptions{Source: snapPath(dir)}
	l, err := remi.OpenLive(liveDir, "canon", opts)
	if err != nil {
		return err
	}
	mineP50 := func(sys *remi.System) float64 {
		p := timePass(len(c.Sets), selfCPU, func(i int) {
			_, err := sys.MineContext(ctx, c.Sets[i], remi.WithTimeout(mineTimeout))
			lr.note(err)
		})
		return quantile(msSorted(p.lat), 0.5)
	}
	flat := mineP50(l.System())
	var patched *remi.System
	applies := timePass(layerApplies, selfCPU, func(i int) {
		patched, _, err = l.Apply(ctx, c.Cycles[i], fmt.Sprintf("layers-%d", i))
		lr.note(err)
	})
	if lr.err != nil {
		l.Close()
		return lr.err
	}
	lr.set("live.apply_p50_ms", quantile(msSorted(applies.lat), 0.5))
	lr.set("live.read_over_flat", mineP50(patched)/flat)
	if err := l.Close(); err != nil {
		return err
	}
	lr.set("live.recover_ms", medianOf(1, func() { l, err = remi.OpenLive(liveDir, "canon", opts) }))
	if err != nil {
		return err
	}
	defer l.Close()
	lr.set("live.compact_ms", medianOf(1, func() { _, err = l.Compact(ctx) }))
	return err
}

// freshTermPatch builds a kb.Patch of len(ops) facts by hand: each attaches a
// new subject to the first op's predicate and object. A new subject collides
// with no base fact, so the patch meets ApplyPatch's preconditions without
// the overlay's bookkeeping, and one predicate index is rebuilt.
func freshTermPatch(base *kb.KB, ops []delta.Op) (kb.Patch, error) {
	p := kb.Patch{Adds: map[kb.PredID][]kb.Pair{}}
	pred, ok := base.PredicateID(ops[0].P.Value)
	if !ok {
		return p, fmt.Errorf("predicate %s is not in the base", ops[0].P)
	}
	obj, ok := base.EntityID(ops[0].O)
	if !ok {
		return p, fmt.Errorf("object %s is not in the base", ops[0].O)
	}
	for i := range ops {
		p.ExtraTerms = append(p.ExtraTerms, rdf.NewIRI(fmt.Sprintf("http://bench.remi.local/patch/E%d", i)))
		p.Adds[pred] = append(p.Adds[pred], kb.Pair{S: kb.EntID(base.NumEntities() + 1 + i), O: obj})
	}
	return p, nil
}

// coreAnswer reduces a core result to the compared form, as the facade does.
func coreAnswer(k *kb.KB, res *core.Result) answer {
	if !res.Found() {
		return answer{}
	}
	return answer{Found: true, Bits: res.Bits, Expr: res.Expression.Format(k)}
}

// miningLayers runs the canonical sets at successive depths — core.Miner,
// remi.System, replica socket, router socket — so that each layer's cost is
// the difference to the next-inner one.
func (lr *layerRun) miningLayers(e env) error {
	ctx := context.Background()
	t := lr.t
	c, err := loadCanon(e.dir)
	if err != nil {
		return err
	}
	n := len(c.Sets)
	p50 := func(sorted []float64) float64 { return quantile(sorted, 0.5) }

	// Depth 1: the miner on entity ids, assembled as the facade assembles it.
	k, err := kb.OpenSnapshot(snapPath(e.dir))
	if err != nil {
		return err
	}
	defer k.Close()
	est := complexity.New(k, prominence.Build(k, prominence.Fr), complexity.Compressed)
	ids := make([][]kb.EntID, n)
	for i, s := range c.Sets {
		for _, iri := range s {
			id, ok := k.EntityID(rdf.NewIRI(iri))
			if !ok {
				return fmt.Errorf("set %d: %s is not in the snapshot", i, iri)
			}
			ids[i] = append(ids[i], id)
		}
	}
	cfg := core.DefaultConfig()
	cfg.Timeout = mineTimeout
	var total core.Stats
	coreSpans := make([]int, n)
	sequential := timePass(n, selfCPU, func(i int) {
		// A miner per call, as in the facade: the query cache starts cold.
		m := core.NewMiner(k, est, cfg)
		var res *core.Result
		coreSpans[i] = t.do("core.Miner", i, 0, func() { res, err = m.MineContext(ctx, ids[i]) })
		if err != nil {
			lr.note(err)
			return
		}
		if a := coreAnswer(k, res); a != c.Answers[i] {
			lr.fail("core set %d: got %+v, want %+v", i, a, c.Answers[i])
		}
		st := res.Stats
		total.Candidates += st.Candidates
		total.Visited += st.Visited
		total.RETests += st.RETests
		total.CacheHits += st.CacheHits
		total.CacheMisses += st.CacheMisses
		total.QueueBuild += st.QueueBuild
		total.Search += st.Search
	})
	coreLat := spanMillis(t, coreSpans)
	lr.set("core.mine_p50_ms", p50(coreLat))
	lr.set("core.mine_p99_ms", quantile(coreLat, 0.99))
	lr.set("core.queue_build_share", total.QueueBuild.Seconds()/(total.QueueBuild+total.Search).Seconds())
	lr.set("core.candidates_per_op", float64(total.Candidates)/float64(n))
	lr.set("core.visited_per_op", float64(total.Visited)/float64(n))
	lr.set("core.re_tests_per_op", float64(total.RETests)/float64(n))
	lr.set("core.cache_hit_share", float64(total.CacheHits)/float64(total.CacheHits+total.CacheMisses))

	// P-REMI with two workers, and MineBatch in chunks of 64 on one thread,
	// each against the sequential pass above over the same sets.
	parallel := cfg
	parallel.Workers = 2
	premi := timePass(n, selfCPU, func(i int) {
		_, err := core.NewMiner(k, est, parallel).MineContext(ctx, ids[i])
		lr.note(err)
	})
	lr.set("core.premi2_over_remi", premi.wall.Seconds()/sequential.wall.Seconds())
	const chunk = 64
	batched := timePass((n+chunk-1)/chunk, selfCPU, func(i int) {
		for _, o := range core.NewMiner(k, est, cfg).MineBatch(ctx, ids[i*chunk:min((i+1)*chunk, n)], 1) {
			lr.note(o.Err)
		}
	})
	lr.set("core.batch_over_sequential", batched.wall.Seconds()/sequential.wall.Seconds())

	// Depth 2: the facade on IRIs. The walk runs untraced first; the ratio
	// of the two walks is what tracing costs.
	var sys *remi.System
	lr.set("remi.load_snapshot_ms", medianOf(1, func() { sys, err = remi.Load(snapPath(e.dir)) }))
	if err != nil {
		return err
	}
	defer sys.Close()
	facade := func(tr *tracer, spans []int) pass {
		return timePass(n, selfCPU, func(i int) {
			var res *remi.Result
			id := tr.do("remi.System", i, 0, func() {
				res, err = sys.MineContext(ctx, c.Sets[i], remi.WithTimeout(mineTimeout))
			})
			if err != nil {
				lr.note(err)
			} else if answerOf(res) != c.Answers[i] {
				lr.fail("facade set %d: got %+v, want %+v", i, answerOf(res), c.Answers[i])
			}
			spans[i] = id
		})
	}
	remiSpans := make([]int, n)
	untraced := facade(nil, remiSpans)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	traced := facade(t, remiSpans)
	runtime.ReadMemStats(&m1)
	if lr.err != nil {
		return lr.err
	}
	t.nest(coreSpans, remiSpans)
	remiLat := spanMillis(t, remiSpans)
	lr.set("remi.mine_p50_ms", p50(remiLat))
	lr.set("remi.facade_self_p50_ms", p50(remiLat)-p50(coreLat))
	lr.set("remi.allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/float64(n))
	lr.set("trace.overhead_share", traced.wall.Seconds()/untraced.wall.Seconds())

	// Depths 3 and 4: the same sets over loopback, straight to the replica
	// and then through the router. The list is four times the result cache
	// and is walked in order, so every request of both walks is a miss (the
	// quick run's list fits the cache, and its second walk hits).
	cl, err := newCaller(c)
	if err != nil {
		return err
	}
	f, err := startFleet(e)
	if err != nil {
		return err
	}
	defer f.stop()
	type counters struct {
		Jobs struct {
			Rejected float64 `json:"rejected"`
		} `json:"jobs"`
		Retries float64 `json:"retries"`
		Hedges  float64 `json:"hedges"`
	}
	readCounters := func() (cs counters) {
		lr.note(getJSON(f.replica.url+"/v1/stats", &cs))
		lr.note(getJSON(f.router.url+"/router/stats", &cs))
		return cs
	}
	before := readCounters()
	walk := func(name, base string) []int {
		spans := make([]int, n)
		for i := range spans {
			spans[i] = t.do(name, i, 0, func() {
				if cl.check(lr.report, c, base, i) && n > resultCache {
					lr.fail("%s set %d: served from the result cache, expected a miss", name, i)
				}
			})
		}
		return spans
	}
	serverSpans := walk("replica socket", f.replica.url)
	routerSpans := walk("router socket", f.router.url)
	t.nest(remiSpans, serverSpans)
	t.nest(serverSpans, routerSpans)
	direct, routed := spanMillis(t, serverSpans), spanMillis(t, routerSpans)
	lr.set("server.http_self_p50_ms", p50(direct)-p50(remiLat))
	lr.set("cluster.hop_p50_ms", p50(routed)-p50(direct))
	lr.set("cluster.hop_p99_ms", quantile(routed, 0.99)-quantile(direct, 0.99))
	lr.Notes = append(lr.Notes, fmt.Sprintf("mining waterfall p50: core %.4f ≤ facade %.4f ≤ replica socket %.4f ≤ router socket %.4f ms",
		p50(coreLat), p50(remiLat), p50(direct), p50(routed)))

	// The cache at work: serve_zipf's sequence straight to the replica,
	// warmed by one replay, latencies split on the reply's cached flag.
	keys := zipfKeys(e.seed, n, e.serveRequests())
	cached := make([]bool, len(keys))
	replay := func() pass {
		return timePass(len(keys), selfCPU, func(i int) { cached[i] = cl.check(lr.report, c, f.replica.url, keys[i]) })
	}
	replay()
	var hit, miss []time.Duration
	for i, d := range replay().lat {
		if cached[i] {
			hit = append(hit, d)
		} else {
			miss = append(miss, d)
		}
	}
	lr.set("server.hit_p50_ms", p50(msSorted(hit)))
	lr.set("server.miss_p50_ms", p50(msSorted(miss)))
	lr.set("server.cache_hit_share", float64(len(hit))/float64(len(keys)))

	after := readCounters()
	lr.set("server.rejected", after.Jobs.Rejected-before.Jobs.Rejected)
	lr.set("cluster.retries", after.Retries-before.Retries)
	lr.set("cluster.hedges", after.Hedges-before.Hedges)
	lr.Attempted = 5*n + 2*len(keys)
	return nil
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// spanMillis returns the sorted durations of the given spans in ms.
func spanMillis(t *tracer, ids []int) []float64 {
	out := make([]float64, len(ids))
	for i, id := range ids {
		out[i] = t.millis(id)
	}
	slices.Sort(out)
	return out
}
