package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	remi "github.com/remi-kb/remi"
	"github.com/remi-kb/remi/internal/faults"
	"github.com/remi-kb/remi/internal/wire"
)

// newJSONRequest builds a request without serving it, for tests that need
// to tweak the context first.
func newJSONRequest(t *testing.T, method, path string, body any) *http.Request {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return httptest.NewRequest(method, path, bytes.NewReader(buf))
}

// batchGoldenSets is the 8-set workload of the batch golden test: real
// sets, overlapping sets and one exact repeat.
func batchGoldenSets() [][]string {
	return [][]string{
		{tinyNS + "Rennes", tinyNS + "Nantes"},
		{tinyNS + "Paris"},
		{tinyNS + "Lyon"},
		{tinyNS + "Lyon", tinyNS + "Marseille"},
		{tinyNS + "Berlin", tinyNS + "Hamburg"},
		{tinyNS + "Brazil", tinyNS + "Argentina"},
		{tinyNS + "Nantes", tinyNS + "Rennes"}, // repeat of set 0, reordered
		{tinyNS + "Amsterdam"},
	}
}

// TestMineBatchGolden is the service-level acceptance contract: one
// /v1/mine:batch call with 8 target sets returns per-set results
// golden-identical to 8 sequential /v1/mine calls. Sequential and batch run
// on separate servers so the result cache of one cannot feed the other.
func TestMineBatchGolden(t *testing.T) {
	sets := batchGoldenSets()

	seq := tinyServer(t, Options{DefaultTimeout: 10 * time.Second})
	seqH := seq.Handler()
	want := make([]MineResponse, len(sets))
	for i, targets := range sets {
		rec := postJSON(t, seqH, "/v1/mine", wire.MineRequest{Targets: targets})
		if rec.Code != http.StatusOK {
			t.Fatalf("sequential set %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		want[i] = decode[MineResponse](t, rec)
	}

	// The guarded configuration arms the watchdog, a per-client quota and an
	// interactive queue reserve, none of them binding on eight sets: guards
	// that do not fire must change no answer.
	for name, opts := range map[string]Options{
		"default": {DefaultTimeout: 10 * time.Second},
		"guarded": {
			DefaultTimeout:     10 * time.Second,
			WatchdogGrace:      30 * time.Second,
			QuotaRate:          1e6,
			QuotaBurst:         1 << 20,
			InteractiveReserve: 1,
		},
	} {
		t.Run(name, func(t *testing.T) {
			batch := tinyServer(t, opts)
			rec := postJSON(t, batch.Handler(), "/v1/mine:batch", wire.MineRequest{Sets: sets})
			if rec.Code != http.StatusOK {
				t.Fatalf("batch: status %d: %s", rec.Code, rec.Body.String())
			}
			out := decode[BatchMineResponse](t, rec)
			if len(out.Results) != len(sets) {
				t.Fatalf("batch returned %d results for %d sets", len(out.Results), len(sets))
			}
			for i := range sets {
				got := out.Results[i]
				if got.Error != "" || got.Response == nil {
					t.Fatalf("set %d: unexpected error entry %+v", i, got)
				}
				// Golden identity covers everything the search produces; phase
				// times and the served-from flags legitimately differ (the
				// batch dedups the repeat).
				if got.Response.Found != want[i].Found ||
					!reflect.DeepEqual(got.Response.Solution, want[i].Solution) ||
					!reflect.DeepEqual(got.Response.Alternatives, want[i].Alternatives) ||
					!reflect.DeepEqual(got.Response.Exceptions, want[i].Exceptions) {
					t.Fatalf("set %d: batch result differs from sequential /v1/mine:\nbatch: %+v\nsequential: %+v",
						i, got.Response, want[i])
				}
			}
			if !out.Results[6].Response.Deduplicated {
				t.Fatal("repeated set not flagged deduplicated")
			}
			st := out.Stats
			if st.Sets != 8 || st.Mined != 7 || st.Deduplicated != 1 || st.Errors != 0 {
				t.Fatalf("batch stats: %+v", st)
			}
			if st.QueueBuildMS < 0 || st.SearchMS < 0 {
				t.Fatalf("negative phase totals: %+v", st)
			}
			if out.KB != DefaultKBName {
				t.Fatalf("batch KB = %q", out.KB)
			}
		})
	}
}

// TestMineBatchPerSetIsolation: bad sets occupy their own error entries —
// with per-set statuses — while the rest of the batch succeeds.
func TestMineBatchPerSetIsolation(t *testing.T) {
	s := tinyServer(t, Options{DefaultTimeout: 10 * time.Second, MaxTargets: 3})
	rec := postJSON(t, s.Handler(), "/v1/mine:batch", wire.MineRequest{Sets: [][]string{
		{tinyNS + "Rennes", tinyNS + "Nantes"},
		{},                   // empty set
		{tinyNS + "Nowhere"}, // unknown entity
		{tinyNS + "Paris", tinyNS + "Lyon", tinyNS + "Berlin", tinyNS + "Hamburg"}, // over MaxTargets
	}})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	out := decode[BatchMineResponse](t, rec)
	if out.Results[0].Error != "" || !out.Results[0].Response.Found {
		t.Fatalf("healthy set failed: %+v", out.Results[0])
	}
	wantStatus := []int{0, http.StatusBadRequest, http.StatusNotFound, http.StatusBadRequest}
	for i := 1; i < 4; i++ {
		if out.Results[i].Error == "" || out.Results[i].Status != wantStatus[i] {
			t.Fatalf("set %d: %+v, want status %d", i, out.Results[i], wantStatus[i])
		}
	}
	if out.Stats.Errors != 3 || out.Stats.Mined != 1 {
		t.Fatalf("batch stats: %+v", out.Stats)
	}
}

// TestMineBatchUsesResultCache: sets already answered by /v1/mine are served
// from the completed-result LRU, and batch results prime the cache for
// later /v1/mine calls.
func TestMineBatchUsesResultCache(t *testing.T) {
	s := tinyServer(t, Options{DefaultTimeout: 10 * time.Second})
	h := s.Handler()
	postJSON(t, h, "/v1/mine", wire.MineRequest{Targets: []string{tinyNS + "Paris"}})
	runsBefore := s.mineRuns.Load()

	rec := postJSON(t, h, "/v1/mine:batch", wire.MineRequest{Sets: [][]string{
		{tinyNS + "Paris"},
		{tinyNS + "Lyon"},
	}})
	out := decode[BatchMineResponse](t, rec)
	if !out.Results[0].Response.Cached {
		t.Fatalf("previously mined set not served from cache: %+v", out.Results[0])
	}
	if out.Results[1].Response.Cached {
		t.Fatal("fresh set claimed cached")
	}
	if got := s.mineRuns.Load() - runsBefore; got != 1 {
		t.Fatalf("batch executed %d runs, want 1", got)
	}
	if out.Stats.Cached != 1 || out.Stats.Mined != 1 {
		t.Fatalf("batch stats: %+v", out.Stats)
	}

	// The batch-mined set now serves /v1/mine from cache.
	rec = postJSON(t, h, "/v1/mine", wire.MineRequest{Targets: []string{tinyNS + "Lyon"}})
	if res := decode[MineResponse](t, rec); !res.Cached {
		t.Fatal("batch result did not prime the cache for /v1/mine")
	}
}

// TestMineBatchValidation: batch-level failures are whole-request JSON
// errors.
func TestMineBatchValidation(t *testing.T) {
	s := tinyServer(t, Options{MaxBatchSets: 2})
	h := s.Handler()
	cases := []struct {
		name string
		body wire.MineRequest
		want int
	}{
		{"empty batch", wire.MineRequest{}, http.StatusBadRequest},
		{"oversized batch", wire.MineRequest{Sets: [][]string{
			{tinyNS + "Paris"}, {tinyNS + "Lyon"}, {tinyNS + "Berlin"},
		}}, http.StatusBadRequest},
		{"bad metric", wire.MineRequest{Sets: [][]string{{tinyNS + "Paris"}}, Metric: "xx"}, http.StatusBadRequest},
		{"unknown kb", wire.MineRequest{Sets: [][]string{{tinyNS + "Paris"}}, KB: "nope"}, http.StatusNotFound},
	}
	for _, tc := range cases {
		rec := postJSON(t, h, "/v1/mine:batch", tc.body)
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.want, rec.Body.String())
		}
		if decode[wire.ErrorResponse](t, rec).Error == "" {
			t.Errorf("%s: missing error message", tc.name)
		}
	}
}

// TestMineBatchCancelledContext: a batch whose client went away returns 499
// instead of a partial document nobody reads.
func TestMineBatchCancelledContext(t *testing.T) {
	s := tinyServer(t, Options{})
	s.mine = func(ctx context.Context, targets []string, opts ...remi.MineOption) (*remi.Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	h := s.Handler()
	body := wire.MineRequest{Sets: [][]string{{tinyNS + "Paris"}}}
	req := newJSONRequest(t, "POST", "/v1/mine:batch", body)
	ctx, cancel := context.WithCancel(req.Context())
	cancel()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req.WithContext(ctx))
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("status %d, want %d: %s", rec.Code, StatusClientClosedRequest, rec.Body.String())
	}
}

// TestMultiKBRouting: requests route by body field and path segment, stats
// are per KB, and swapping one KB invalidates only its cached results.
func TestMultiKBRouting(t *testing.T) {
	s := tinyServer(t, Options{DefaultTimeout: 10 * time.Second})
	second, err := remi.GenerateDemo("tiny", 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddKB("geo2", second); err != nil {
		t.Fatal(err)
	}
	if err := s.AddKB("geo2", second); err == nil {
		t.Fatal("duplicate KB name accepted")
	}
	if err := s.AddKB("bad/name", second); err == nil {
		t.Fatal("invalid KB name accepted")
	}
	h := s.Handler()
	body := wire.MineRequest{Targets: []string{tinyNS + "Rennes", tinyNS + "Nantes"}}

	// Same query on both KBs: separate cache keys, separate runs.
	viaField := wire.MineRequest{Targets: body.Targets, KB: "geo2"}
	if rec := postJSON(t, h, "/v1/mine", viaField); rec.Code != http.StatusOK {
		t.Fatalf("kb field routing: %d: %s", rec.Code, rec.Body.String())
	}
	if rec := postJSON(t, h, "/v1/kb/geo2/mine", body); rec.Code != http.StatusOK {
		t.Fatalf("kb path routing: %d: %s", rec.Code, rec.Body.String())
	}
	// The second geo2 request was an exact repeat: served from cache.
	if runs := s.mineRuns.Load(); runs != 1 {
		t.Fatalf("runs = %d, want 1 (repeat served from cache)", runs)
	}
	if rec := postJSON(t, h, "/v1/mine", body); rec.Code != http.StatusOK {
		t.Fatalf("default KB: %d", rec.Code)
	}
	if runs := s.mineRuns.Load(); runs != 2 {
		t.Fatalf("runs = %d, want 2 (default KB has its own cache scope)", runs)
	}

	// Conflicting body/path names are rejected.
	if rec := postJSON(t, h, "/v1/kb/geo2/mine", wire.MineRequest{Targets: body.Targets, KB: DefaultKBName}); rec.Code != http.StatusBadRequest {
		t.Fatalf("kb conflict: status %d", rec.Code)
	}
	// Unknown KB via path and field: 404 JSON.
	for _, req := range []func() *httptest.ResponseRecorder{
		func() *httptest.ResponseRecorder { return postJSON(t, h, "/v1/kb/nope/mine", body) },
		func() *httptest.ResponseRecorder {
			return postJSON(t, h, "/v1/mine", wire.MineRequest{Targets: body.Targets, KB: "nope"})
		},
	} {
		rec := req()
		if rec.Code != http.StatusNotFound {
			t.Fatalf("unknown kb: status %d", rec.Code)
		}
		if decode[wire.ErrorResponse](t, rec).Error == "" {
			t.Fatal("unknown kb: missing JSON error")
		}
	}

	// Per-KB stats: global lists both, the scoped endpoint narrows to one.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	st := decode[StatsResponse](t, rec)
	if len(st.KBs) != 2 || !st.KBs[DefaultKBName].Default || st.KBs["geo2"].Default {
		t.Fatalf("global per-KB stats: %+v", st.KBs)
	}
	if st.KBs["geo2"].Requests == 0 {
		t.Fatalf("geo2 request counter not bumped: %+v", st.KBs["geo2"])
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/kb/geo2/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("per-KB stats: status %d", rec.Code)
	}
	kst := decode[KBStatsResponse](t, rec)
	if kst.Name != "geo2" || kst.Facts == 0 {
		t.Fatalf("per-KB stats: %+v", kst)
	}

	// Swapping geo2 invalidates only geo2's cache entries.
	if err := s.SwapKB("geo2", second); err != nil {
		t.Fatal(err)
	}
	if rec := postJSON(t, h, "/v1/mine", body); !decode[MineResponse](t, rec).Cached {
		t.Fatal("default KB cache entry lost to a geo2 swap")
	}
	runsBefore := s.mineRuns.Load()
	if rec := postJSON(t, h, "/v1/kb/geo2/mine", body); decode[MineResponse](t, rec).Cached {
		t.Fatal("geo2 cache entry survived its swap")
	}
	if s.mineRuns.Load() != runsBefore+1 {
		t.Fatal("geo2 query after swap did not re-run")
	}
	if err := s.SwapKB("nope", second); err == nil {
		t.Fatal("swap of unknown KB accepted")
	}
}

// TestMultiKBSummarizeAndDescribe: the kb field and path also route the
// other KB-scoped endpoints.
func TestMultiKBSummarizeAndDescribe(t *testing.T) {
	s := tinyServer(t, Options{})
	second, err := remi.GenerateDemo("tiny", 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddKB("geo2", second); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	rec := postJSON(t, h, "/v1/kb/geo2/summarize", SummarizeRequest{Entity: tinyNS + "Paris", Size: 3})
	if rec.Code != http.StatusOK {
		t.Fatalf("summarize via path: %d: %s", rec.Code, rec.Body.String())
	}
	rec = postJSON(t, h, "/v1/summarize", SummarizeRequest{Entity: tinyNS + "Paris", KB: "nope"})
	if rec.Code != http.StatusNotFound {
		t.Fatalf("summarize unknown kb: %d", rec.Code)
	}

	req := httptest.NewRequest("GET", "/v1/kb/geo2/describe?entity="+tinyNS+"Paris", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("describe via path: %d: %s", rec.Code, rec.Body.String())
	}
	req = httptest.NewRequest("GET", "/v1/describe?entity="+tinyNS+"Paris&kb=nope", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("describe unknown kb: %d", rec.Code)
	}
}

// TestBatchSetAfterSwapMinesCurrentGeneration: every search reads a System
// that was current when it started. A batch planned on one generation
// whose sets start only after a write swapped in the next (and closed the
// old one, which nothing read) mines on the new generation: the set naming
// an entity the write created is found.
func TestBatchSetAfterSwapMinesCurrentGeneration(t *testing.T) {
	s, _ := liveServer(t, Options{DefaultTimeout: 10 * time.Second, ResultCache: -1,
		JobWorkers: 1})
	h := s.Handler()
	disarm := faults.Arm(faults.JobStuck, faults.Injection{Block: true})
	defer disarm()

	done := make(chan *httptest.ResponseRecorder)
	go func() {
		done <- postJSON(t, h, "/v1/kb/geo/mine:batch", wire.MineRequest{Sets: [][]string{
			{tinyNS + "Rennes", tinyNS + "Nantes"},
			{tinyNS + "Atlantis"},
		}})
	}()
	// The first set holds the only worker before reading any System.
	waitFor(t, func() bool { return faults.Hits(faults.JobStuck) == 1 })
	rec := postJSON(t, h, "/v1/kb/geo/facts", FactsRequest{Ops: []FactOp{
		upsertJSON(tinyNS+"Atlantis", tinyOnt+"sunkIn", tinyNS+"SouthAmerica"),
	}})
	if rec.Code != http.StatusOK {
		t.Fatalf("facts: %d %s", rec.Code, rec.Body.String())
	}
	disarm()

	brec := <-done
	if brec.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", brec.Code, brec.Body.String())
	}
	out := decode[BatchMineResponse](t, brec)
	for i, item := range out.Results {
		if item.Response == nil || !item.Response.Found {
			t.Fatalf("set %d after the swap: %+v, want an answer from the current generation", i, item)
		}
	}
	if got := out.Results[1].Response.Solution.Expression; !strings.Contains(got, "sunkIn") {
		t.Fatalf("Atlantis mined %q, want the fact the write added", got)
	}
	if out.Stats.Mined != 2 || out.Stats.CacheMisses == 0 {
		t.Fatalf("batch stats %+v, want 2 mined with their cache traffic counted", out.Stats)
	}
}

// TestBatchesShareThePool: a batch set is one pool job, so concurrent
// batches never run more searches at once than the pool has workers.
func TestBatchesShareThePool(t *testing.T) {
	s := tinyServer(t, Options{DefaultTimeout: 10 * time.Second, ResultCache: -1, JobWorkers: 2})
	real := s.sys().MineContext
	var mu sync.Mutex
	running, peak := 0, 0
	s.mine = func(ctx context.Context, targets []string, opts ...remi.MineOption) (*remi.Result, error) {
		mu.Lock()
		running++
		peak = max(peak, running)
		mu.Unlock()
		defer func() { mu.Lock(); running--; mu.Unlock() }()
		time.Sleep(5 * time.Millisecond) // long enough for oversubscription to show
		return real(ctx, targets, opts...)
	}
	h := s.Handler()
	cities := []string{"Paris", "Berlin", "London", "Rennes", "Nantes", "Lyon",
		"Marseille", "Hamburg", "Georgetown", "Paramaribo", "Brasilia", "BuenosAires"}
	var wg sync.WaitGroup
	for b := 0; b < 3; b++ {
		sets := make([][]string, 4)
		for i := range sets {
			sets[i] = []string{tinyNS + cities[4*b+i]}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := postJSON(t, h, "/v1/mine:batch", wire.MineRequest{Sets: sets})
			if rec.Code != http.StatusOK {
				t.Errorf("batch: %d %s", rec.Code, rec.Body.String())
				return
			}
			if st := decode[BatchMineResponse](t, rec).Stats; st.Mined != 4 {
				t.Errorf("batch stats %+v, want 4 mined", st)
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if peak > 2 {
		t.Fatalf("%d searches ran at once on a 2-worker pool", peak)
	}
	if st := s.jobs.Snapshot(); st.Submitted != 12 {
		t.Fatalf("jobs submitted = %d, want one per set (12)", st.Submitted)
	}
}

// TestBatchSetWatchdogPerSet: a wedged set is failed by the watchdog after
// its own timeout plus grace — not the batch's summed budget — in its own
// 504 entry, while its neighbors answer.
func TestBatchSetWatchdogPerSet(t *testing.T) {
	const timeout = 400 * time.Millisecond
	s := chaosServer(t, Options{DefaultTimeout: timeout, ResultCache: -1,
		JobWorkers: 1, WatchdogGrace: 50 * time.Millisecond})
	h := s.Handler()
	disarm := faults.Arm(faults.JobStuck, faults.Injection{Block: true})
	defer disarm()

	start := time.Now()
	done := make(chan *httptest.ResponseRecorder)
	go func() {
		done <- postJSON(t, h, "/v1/mine:batch", wire.MineRequest{Sets: [][]string{
			{tinyNS + "Rennes", tinyNS + "Nantes"}, {tinyNS + "Paris"}, {tinyNS + "Lyon"},
		}})
	}()
	waitFor(t, func() bool { return s.jobs.Snapshot().WatchdogKilled == 1 })
	killedAfter := time.Since(start)
	disarm() // the wedge was the first set's alone
	if killedAfter >= 3*timeout {
		t.Fatalf("stuck set killed after %v, want about timeout+grace, not 3 × %v", killedAfter, timeout)
	}
	rec := <-done
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", rec.Code, rec.Body.String())
	}
	out := decode[BatchMineResponse](t, rec)
	killed := 0
	for i, item := range out.Results {
		switch {
		case item.Status == http.StatusGatewayTimeout:
			killed++
		case item.Response == nil || !item.Response.Found:
			t.Fatalf("neighbor set %d: %+v, want an answer", i, item)
		}
	}
	if killed != 1 {
		t.Fatalf("%d sets answered 504, want the one wedged set: %+v", killed, out.Results)
	}
}

// TestBatchPartialAdmission: sets the queue refuses get their own 429
// entries; the batch is answered 200 because one new set was admitted.
func TestBatchPartialAdmission(t *testing.T) {
	s := chaosServer(t, Options{DefaultTimeout: 10 * time.Second, ResultCache: -1,
		JobWorkers: 1, JobQueueDepth: 1})
	h := s.Handler()
	disarm := faults.Arm(faults.JobStuck, faults.Injection{Block: true})
	defer disarm()
	if rec := postJSON(t, h, "/v1/mine:async", wire.MineRequest{Targets: []string{tinyNS + "Berlin"}}); rec.Code != http.StatusAccepted {
		t.Fatalf("blocking job: %d %s", rec.Code, rec.Body.String())
	}
	waitFor(t, func() bool { st := s.jobs.Snapshot(); return st.Running == 1 && st.Queued == 0 })

	done := make(chan *httptest.ResponseRecorder)
	go func() {
		done <- postJSON(t, h, "/v1/mine:batch", wire.MineRequest{Sets: [][]string{
			{tinyNS + "Rennes", tinyNS + "Nantes"}, {tinyNS + "Paris"}, {tinyNS + "Lyon"},
		}})
	}()
	waitFor(t, func() bool { return s.jobs.Snapshot().Rejected == 2 })
	disarm()
	rec := <-done
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: %d %s, want 200 with per-set refusals", rec.Code, rec.Body.String())
	}
	out := decode[BatchMineResponse](t, rec)
	if r := out.Results[0].Response; r == nil || !r.Found {
		t.Fatalf("admitted set: %+v", out.Results[0])
	}
	for _, i := range []int{1, 2} {
		if out.Results[i].Status != http.StatusTooManyRequests || out.Results[i].Error == "" {
			t.Fatalf("refused set %d: %+v, want a 429 entry", i, out.Results[i])
		}
	}
	if st := out.Stats; st.Mined != 1 || st.Errors != 2 {
		t.Fatalf("batch stats %+v, want 1 mined, 2 errors", st)
	}
}

// TestBatchStatsSumItsSets: every set of a batch is an ordinary mine, so
// each entry's search stats equal the same set's /v1/mine response and the
// batch's cache totals are the sums over its sets.
func TestBatchStatsSumItsSets(t *testing.T) {
	sets := [][]string{
		{tinyNS + "Rennes", tinyNS + "Nantes"},
		{tinyNS + "Rennes", tinyNS + "Nantes", tinyNS + "Paris"},
		{tinyNS + "Rennes", tinyNS + "Paris"},
		{tinyNS + "Lyon", tinyNS + "Marseille"},
		{tinyNS + "Lyon"},
	}
	s := tinyServer(t, Options{DefaultTimeout: 10 * time.Second, ResultCache: -1, JobWorkers: 1})
	// Phase times differ from run to run; every other stat is deterministic.
	counts := func(st MineStats) MineStats {
		st.QueueBuildMS, st.SearchMS = 0, 0
		return st
	}
	separate := make([]MineStats, len(sets))
	var hits, misses uint64
	for i, set := range sets {
		rec := postJSON(t, s.Handler(), "/v1/mine", wire.MineRequest{Targets: set})
		if rec.Code != http.StatusOK {
			t.Fatalf("set %d: %d %s", i, rec.Code, rec.Body.String())
		}
		separate[i] = counts(decode[MineResponse](t, rec).Stats)
		hits += separate[i].CacheHits
		misses += separate[i].CacheMisses
	}
	rec := postJSON(t, s.Handler(), "/v1/mine:batch", wire.MineRequest{Sets: sets})
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", rec.Code, rec.Body.String())
	}
	out := decode[BatchMineResponse](t, rec)
	for i, item := range out.Results {
		if item.Response == nil {
			t.Fatalf("set %d: %s", i, item.Error)
		}
		if got := counts(item.Response.Stats); got != separate[i] {
			t.Fatalf("set %d: batch stats %+v, /v1/mine stats %+v", i, got, separate[i])
		}
	}
	if st := out.Stats; st.Mined != len(sets) || st.CacheHits != hits || st.CacheMisses != misses {
		t.Fatalf("batch stats %+v; the sets' own responses sum to %d hits, %d misses", st, hits, misses)
	}
}
