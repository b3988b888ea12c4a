package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/remi-kb/remi/internal/datagen"
)

// These tests start no child process and mine nothing, so they stay fast;
// `go run -C benchmark . -quick` is the end-to-end smoke run.

func TestQuantileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.1, 1}, {0.5, 5}, {0.75, 8}, {0.99, 10}, {1, 10}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// The tail rule: ten samples beyond the percentile, never past p99, never
// below the median.
func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{40, 0.75}, {100, 0.9}, {1000, 0.99}, {16384, 0.99}, {20, 0.5}, {3, 0.5}} {
		if got := tailQuantile(c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// p75 of 40 samples leaves exactly ten beyond it.
	s := make([]float64, 40)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if got := quantile(s, tailQuantile(40)); got != 30 {
		t.Errorf("p75 of 1..40 = %v, want 30", got)
	}
}

// live_mixed's pass is whole compaction gaps, and enough of them that the
// tail of its ops is a compaction cycle with another one below it: with ops
// 1..n in ascending order and the last n/compactGap of them compacting, the
// tail lies at least two ranks inside that group.
func TestLiveTailIsACompactionCycle(t *testing.T) {
	for _, seconds := range []float64{1, 15, 20, 60} {
		n := env{seconds: seconds}.liveCycles()
		if n%compactGap != 0 {
			t.Fatalf("%g s: %d cycles are not whole gaps of %d", seconds, n, compactGap)
		}
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		plain := n - n/compactGap
		if got := int(quantile(s, tailQuantile(n))); got != n-tailSamples || got < plain+2 {
			t.Errorf("%g s: tail of %d cycles is rank %d, want %d and at least %d", seconds, n, got, n-tailSamples, plain+2)
		}
		if mid := int(quantile(s, 0.5)); mid > plain*3/4 {
			t.Errorf("%g s: median rank %d is near the top of the %d plain cycles", seconds, mid, plain)
		}
	}
	if n := (env{seconds: 15}).liveCycles(); n != 60 {
		t.Errorf("15 s: %d cycles, want 60", n)
	}
}

// relSpread must be the driver's statistic: the quartiles of CPython's
// statistics.quantiles(xs, n=4), whose values for these lists are 2.75 and
// 8.25, and 1.5 and 4.5.
func TestRelSpreadMatchesPython(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := relSpread(ten), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("relSpread(1..10) = %v, want %v", got, want)
	}
	five := []float64{1, 2, 3, 4, 5}
	if got, want := relSpread(five), (4.5-1.5)/3; math.Abs(got-want) > 1e-12 {
		t.Errorf("relSpread(1..5) = %v, want %v", got, want)
	}
}

func TestSummarizeTakesMedianOverPasses(t *testing.T) {
	mk := func(opMS float64) pass {
		lat := make([]time.Duration, 100)
		for i := range lat {
			lat[i] = time.Duration(opMS * float64(time.Millisecond))
		}
		return pass{lat: lat, wall: time.Duration(100 * opMS * float64(time.Millisecond)), cpu: time.Duration(50 * opMS * float64(time.Millisecond))}
	}
	r := newReport("x")
	r.summarize([]pass{mk(1), mk(3), mk(2)}, 7)
	want := map[string]float64{"op_p50_ms": 2, "op_tail_ms": 2, "ops_per_s": 500, "cpu_ms_per_op": 1, "peak_rss_mb": 7}
	for name, v := range want {
		if got := r.Metrics[name].Value; math.Abs(got-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	if r.Attempted != 300 || r.Failed != 0 {
		t.Errorf("attempted %d failed %d, want 300 and 0", r.Attempted, r.Failed)
	}
	// An op within a factor ten of the timeout is a loud failure.
	slow := mk(1)
	slow.lat[0] = slowOp
	r = newReport("x")
	r.summarize([]pass{slow}, 1)
	if r.Failed != 1 {
		t.Errorf("slow op: failed = %d, want 1", r.Failed)
	}
}

func TestCanonDeterministicDistinctAndMixed(t *testing.T) {
	d := datagen.DBpediaLike(datagen.Config{Seed: 7, Scale: quickScale})
	a, err := sampleCanon(d.Members, 7, quickSets)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := sampleCanon(d.Members, 7, quickSets)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different set lists")
	}
	if c, _ := sampleCanon(d.Members, 8, quickSets); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds, same set list")
	}
	class := func(iri string) string {
		local := iri[strings.LastIndexByte(iri, '/')+1:]
		return local[:strings.IndexByte(local, '_')]
	}
	seen := map[string]bool{}
	sizes := map[int]int{}
	for _, set := range a {
		key := strings.Join(set, " ")
		if seen[key] {
			t.Errorf("set %v drawn twice", set)
		}
		seen[key] = true
		sizes[len(set)]++
		if !slices.IsSorted(set) || len(slices.Compact(slices.Clone(set))) != len(set) {
			t.Errorf("set %v is not sorted and duplicate-free", set)
		}
		for _, iri := range set {
			if class(iri) != class(set[0]) {
				t.Errorf("set %v mixes classes", set)
			}
			rank := slices.Index(d.Members[class(iri)], iri)
			n := float64(len(d.Members[class(iri)]))
			if float64(rank) < math.Floor(n*poolLo) || float64(rank) >= n*poolHi {
				t.Errorf("%s has rank %d of %v, outside the pool", iri, rank, n)
			}
		}
	}
	if sizes[1] != quickSets/2 || sizes[2] != quickSets*3/10 || sizes[3] != quickSets-quickSets/2-quickSets*3/10 {
		t.Errorf("sizes %v, want 50/30/20 %% of %d", sizes, quickSets)
	}
}

func TestZipfKeysDeterministicAndSkewed(t *testing.T) {
	a, b := zipfKeys(3, mineSets, 5000), zipfKeys(3, mineSets, 5000)
	if !slices.Equal(a, b) {
		t.Fatal("same seed, different key sequences")
	}
	if slices.Equal(a, zipfKeys(4, mineSets, 5000)) {
		t.Fatal("different seeds, same key sequence")
	}
	count := make([]int, mineSets)
	for _, k := range a {
		if k < 0 || k >= mineSets {
			t.Fatalf("key %d out of range", k)
		}
		count[k]++
	}
	// With s = 1.1 the hottest quarter of the keys draws well over half of
	// the requests; that is what makes the result cache matter.
	slices.Sort(count)
	head := 0
	for _, n := range count[mineSets-resultCache:] {
		head += n
	}
	if share := float64(head) / float64(len(a)); share < 0.7 {
		t.Errorf("the %d hottest keys draw %.2f of the requests, want > 0.7", resultCache, share)
	}
	if p := order(3, 50); !slices.Equal(p, order(3, 50)) || slices.Equal(p, order(4, 50)) {
		t.Error("order is not a function of the seed alone")
	}
}

func TestLiveCyclesShape(t *testing.T) {
	d := datagen.DBpediaLike(datagen.Config{Seed: 5, Scale: quickScale})
	a, b := liveCycles(d.Triples, 5, 4), liveCycles(d.Triples, 5, 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different batches")
	}
	for _, batch := range a {
		retracts, fresh := 0, 0
		for _, op := range batch {
			if op.Retract {
				retracts++
			}
			if strings.HasPrefix(op.S.Value, "http://bench.remi.local/live/") {
				fresh++
			}
		}
		if len(batch) != liveOps || retracts != liveOps/4 || fresh != liveOps/4 {
			t.Errorf("batch of %d ops with %d retracts and %d new terms", len(batch), retracts, fresh)
		}
	}
}

// A layer's self time is its span minus its children's, whether the children
// ran inside it (the KB path) or were linked to it by op afterwards (the
// mining waterfall).
func TestSpanSelfTimes(t *testing.T) {
	tr := &tracer{t0: time.Now()}
	var inner int
	outer := tr.do("outer", 0, 0, func() {
		inner = tr.do("inner", 0, len(tr.spans), func() {})
	})
	if tr.spans[inner-1].Parent != outer {
		t.Fatalf("inner's parent = %d, want %d", tr.spans[inner-1].Parent, outer)
	}

	spans := []span{
		{ID: 1, Name: "router", Op: 0, Start: 0, End: 700},
		{ID: 2, Name: "replica", Op: 0, Start: 1000, End: 1450},
		{ID: 3, Name: "facade", Op: 0, Start: 2000, End: 2200},
		{ID: 4, Name: "core", Op: 0, Start: 3000, End: 3180},
	}
	tr = &tracer{spans: spans}
	tr.nest([]int{4}, []int{3})
	tr.nest([]int{3}, []int{2})
	tr.nest([]int{2}, []int{1})
	self := selfTimes(tr.spans)
	want := map[int]time.Duration{1: 250, 2: 250, 3: 20, 4: 180}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	if sum != 700 {
		t.Errorf("self times add up to %v, want the outermost span's 700ns", sum)
	}

	var nilTracer *tracer
	ran := false
	if id := nilTracer.do("x", 0, 0, func() { ran = true }); id != 0 || !ran {
		t.Errorf("nil tracer: id %d ran %t", id, ran)
	}
}

func TestProcReaders(t *testing.T) {
	cpu, err := procCPU(os.Getpid())
	if err != nil || cpu < 0 {
		t.Errorf("procCPU(self) = %v, %v", cpu, err)
	}
	rss, err := procHWM(os.Getpid())
	if err != nil || rss <= 0 {
		t.Errorf("procHWM(self) = %v, %v", rss, err)
	}
}

// BENCHMARK.json, which the driver reads, must say what this program does.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json above the module:", err)
	}
	type entry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var doc struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, doc.Workloads[i].Name, w.name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		better := "lower"
		if m.higher {
			better = "higher"
		}
		if got, want := doc.EndToEnd[i], (entry{m.name, m.unit, better, m.bound}); got != want {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, got, want)
		}
	}
	if len(doc.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(doc.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if doc.PerLayer[i].Name != m.name || doc.PerLayer[i].Unit != m.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %s in %s", i, doc.PerLayer[i], m.name, m.unit)
		}
	}
}
