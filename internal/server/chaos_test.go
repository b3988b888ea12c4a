package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	remi "github.com/remi-kb/remi"
	"github.com/remi-kb/remi/internal/faults"
	"github.com/remi-kb/remi/internal/server/jobs"
	"github.com/remi-kb/remi/internal/wire"
)

// This file is the chaos suite: every test arms a faults.Point, drives the
// server through its public HTTP surface, and asserts the documented
// degraded behavior — not just "no crash" but the specific containment the
// operations story promises (last-known-good serving, watchdog kills,
// bounded event logs, quota vs saturation rejections, graceful drain).

// chaosServer is tinyServer plus a faults.Reset cleanup registered to run
// before the server's Close, so an armed Block can never wedge shutdown
// even when the test fails mid-way.
func chaosServer(t *testing.T, opts Options) *Server {
	t.Helper()
	s := tinyServer(t, opts)
	t.Cleanup(faults.Reset) // LIFO: runs before s.Close
	return s
}

// kbStats reads the default KB's entry from /v1/stats.
func kbStats(t *testing.T, h http.Handler) KBInfo {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d %s", rec.Code, rec.Body.String())
	}
	return decode[StatsResponse](t, rec).KBs[DefaultKBName]
}

func fullStats(t *testing.T, h http.Handler) StatsResponse {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d %s", rec.Code, rec.Body.String())
	}
	return decode[StatsResponse](t, rec)
}

// TestChaosReloadLastKnownGood is the reload-containment contract: a failed
// reload — source unopenable, or corrupt after reading — must leave the old
// generation serving byte-identical results, count into reload_failures,
// and quarantine the source; a later successful reload clears the
// quarantine and bumps the generation.
func TestChaosReloadLastKnownGood(t *testing.T) {
	for _, tc := range []struct {
		name  string
		point faults.Point
	}{
		{"open error", faults.ReloadOpen},
		{"corrupt source", faults.ReloadCorrupt},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := chaosServer(t, Options{
				DefaultTimeout: 10 * time.Second,
				ReloadBackoff:  40 * time.Millisecond,
			})
			h := s.Handler()
			mine := func() string {
				rec := postJSON(t, h, "/v1/mine", wire.MineRequest{Targets: []string{tinyNS + "Rennes"}})
				if rec.Code != http.StatusOK {
					t.Fatalf("mine: %d %s", rec.Code, rec.Body.String())
				}
				return rec.Body.String()
			}
			mine() // populate the result cache
			before := mine()
			g0 := kbStats(t, h).Generation

			disarm := faults.Arm(tc.point, faults.Injection{Err: errors.New("injected reload fault")})
			reload := func() error {
				return s.ReloadKB(DefaultKBName, func() (*remi.System, error) { return tinySys, nil })
			}
			err := reload()
			if err == nil {
				t.Fatal("armed reload did not fail")
			}
			if !strings.Contains(err.Error(), "still serving generation") {
				t.Fatalf("reload error does not name the surviving generation: %v", err)
			}
			if got := faults.Hits(tc.point); got != 1 {
				t.Fatalf("fault point fired %d times, want 1", got)
			}

			// The golden assertion: the exact bytes served before the failed
			// reload keep coming (same generation, same cache, same result).
			if after := mine(); after != before {
				t.Fatalf("degraded serving changed bytes:\nbefore: %s\nafter:  %s", before, after)
			}
			info := kbStats(t, h)
			if info.Generation != g0 {
				t.Fatalf("generation moved across a failed reload: %d -> %d", g0, info.Generation)
			}
			if info.ReloadFailures != 1 {
				t.Fatalf("reload_failures = %d, want 1", info.ReloadFailures)
			}
			if info.QuarantinedForMS <= 0 {
				t.Fatal("failed reload did not quarantine the source")
			}

			// While quarantined, even a healthy reload is refused.
			disarm()
			if err := reload(); !errors.Is(err, errReloadQuarantined) {
				t.Fatalf("reload during quarantine: %v, want quarantine refusal", err)
			}
			waitFor(t, func() bool { return kbStats(t, h).QuarantinedForMS == 0 })
			if err := reload(); err != nil {
				t.Fatalf("reload after quarantine expiry: %v", err)
			}
			info = kbStats(t, h)
			if info.Generation != g0+1 || info.LastGoodGeneration != g0+1 {
				t.Fatalf("successful reload: generation %d / last good %d, want %d",
					info.Generation, info.LastGoodGeneration, g0+1)
			}
			if info.QuarantinedForMS != 0 {
				t.Fatal("successful reload left the source quarantined")
			}
		})
	}
}

// TestChaosReloadBackoffDoubles pins the exponential part of the reload
// quarantine: consecutive failures double the window (the durations are
// embedded in the reload errors, so the test reads them back exactly).
func TestChaosReloadBackoffDoubles(t *testing.T) {
	s := chaosServer(t, Options{ReloadBackoff: 40 * time.Millisecond})
	h := s.Handler()
	defer faults.Arm(faults.ReloadOpen, faults.Injection{Err: errors.New("boom")})()
	reload := func() error {
		return s.ReloadKB(DefaultKBName, func() (*remi.System, error) { return tinySys, nil })
	}
	err := reload()
	if err == nil || !strings.Contains(err.Error(), "retry in 40ms") {
		t.Fatalf("first failure backoff: %v, want retry in 40ms", err)
	}
	waitFor(t, func() bool { return kbStats(t, h).QuarantinedForMS == 0 })
	err = reload()
	if err == nil || !strings.Contains(err.Error(), "retry in 80ms") {
		t.Fatalf("second failure backoff: %v, want retry in 80ms", err)
	}
}

// TestChaosReloadSlowDoesNotBlockServing: while a reload crawls (cold page
// cache, slow disk), requests keep being served by the old generation —
// mining never waits on the reload path.
func TestChaosReloadSlowDoesNotBlockServing(t *testing.T) {
	s := chaosServer(t, Options{DefaultTimeout: 10 * time.Second})
	h := s.Handler()
	defer faults.Arm(faults.ReloadSlow, faults.Injection{Delay: 400 * time.Millisecond})()

	reloadDone := make(chan error, 1)
	go func() {
		reloadDone <- s.ReloadKB(DefaultKBName, func() (*remi.System, error) { return tinySys, nil })
	}()
	t0 := time.Now()
	rec := postJSON(t, h, "/v1/mine", wire.MineRequest{Targets: []string{tinyNS + "Nantes"}})
	if rec.Code != http.StatusOK {
		t.Fatalf("mine during slow reload: %d %s", rec.Code, rec.Body.String())
	}
	if elapsed := time.Since(t0); elapsed >= 350*time.Millisecond {
		t.Fatalf("mining waited %v on a slow reload", elapsed)
	}
	if err := <-reloadDone; err != nil {
		t.Fatalf("slow reload failed: %v", err)
	}
}

// TestChaosWatchdogKillsStuckMine: a mining run that wedges and stops
// checking its context is failed by the watchdog with a 504, its worker
// slot is freed, and the pool keeps serving.
func TestChaosWatchdogKillsStuckMine(t *testing.T) {
	s := chaosServer(t, Options{
		DefaultTimeout: 50 * time.Millisecond,
		WatchdogGrace:  40 * time.Millisecond,
	})
	h := s.Handler()
	disarm := faults.Arm(faults.JobStuck, faults.Injection{Block: true})

	rec := postJSON(t, h, "/v1/mine", wire.MineRequest{Targets: []string{tinyNS + "Rennes"}})
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("stuck mine: %d %s, want 504", rec.Code, rec.Body.String())
	}
	if er := decode[wire.ErrorResponse](t, rec); !strings.Contains(er.Error, "watchdog") {
		t.Fatalf("stuck mine error %q does not name the watchdog", er.Error)
	}
	st := fullStats(t, h)
	if st.Jobs.WatchdogKilled < 1 {
		t.Fatalf("watchdog_kills = %d, want >= 1", st.Jobs.WatchdogKilled)
	}

	// The slot was handed off: with the fault disarmed the pool serves again.
	disarm()
	rec = postJSON(t, h, "/v1/mine", wire.MineRequest{Targets: []string{tinyNS + "Nantes"}})
	if rec.Code != http.StatusOK {
		t.Fatalf("mine after watchdog kill: %d %s", rec.Code, rec.Body.String())
	}
}

// TestChaosWatchdogFailedJobDocument pins the async face of a watchdog
// kill: the job document reports state "failed", the watchdog error, and
// the 504 the blocking endpoint would have answered.
func TestChaosWatchdogFailedJobDocument(t *testing.T) {
	s := chaosServer(t, Options{
		DefaultTimeout: 50 * time.Millisecond,
		WatchdogGrace:  40 * time.Millisecond,
	})
	h := s.Handler()
	defer faults.Arm(faults.JobStuck, faults.Injection{Block: true})()

	rec := postJSON(t, h, "/v1/mine:async", wire.MineRequest{Targets: []string{tinyNS + "Rennes"}})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("async submit: %d %s", rec.Code, rec.Body.String())
	}
	id := decode[JobResponse](t, rec).ID
	var doc JobResponse
	waitFor(t, func() bool {
		r2 := httptest.NewRecorder()
		h.ServeHTTP(r2, httptest.NewRequest("GET", "/v1/jobs/"+id, nil))
		doc = decode[JobResponse](t, r2)
		return doc.State == "failed"
	})
	if doc.Status != http.StatusGatewayTimeout {
		t.Fatalf("watchdog-failed job status = %d, want 504", doc.Status)
	}
	if !strings.Contains(doc.Error, "watchdog") {
		t.Fatalf("watchdog-failed job error %q does not name the watchdog", doc.Error)
	}
}

// TestChaosMinePanicContained: an evaluator bug (panic inside a pool run)
// becomes a 500 for the waiter; the pool and the process survive and the
// next request is served normally. In a batch every set is its own pool
// job, so each set's panic is its own 500 entry and the batch still
// answers 200.
func TestChaosMinePanicContained(t *testing.T) {
	s := chaosServer(t, Options{DefaultTimeout: 10 * time.Second})
	h := s.Handler()
	disarm := faults.Arm(faults.MinePanic, faults.Injection{Panic: "injected evaluator bug"})

	rec := postJSON(t, h, "/v1/mine", wire.MineRequest{Targets: []string{tinyNS + "Rennes"}})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicked mine: %d %s, want 500", rec.Code, rec.Body.String())
	}
	if er := decode[wire.ErrorResponse](t, rec); !strings.Contains(er.Error, "panicked") {
		t.Fatalf("panicked mine error %q does not say so", er.Error)
	}
	brec := postJSON(t, h, "/v1/mine:batch", wire.MineRequest{Sets: [][]string{{tinyNS + "Nantes"}, {tinyNS + "Paris"}}})
	if brec.Code != http.StatusOK {
		t.Fatalf("batch with panicking sets: %d %s", brec.Code, brec.Body.String())
	}
	br := decode[BatchMineResponse](t, brec)
	if len(br.Results) != 2 || br.Stats.Errors != 2 {
		t.Fatalf("batch after panics: %+v, want two error entries", br)
	}
	for i, item := range br.Results {
		if item.Status != http.StatusInternalServerError || !strings.Contains(item.Error, "panicked") {
			t.Fatalf("batch entry %d after panic: %+v, want its own 500", i, item)
		}
	}
	if got := faults.Hits(faults.MinePanic); got != 3 {
		t.Fatalf("mine.panic fired %d times, want once per run (3)", got)
	}

	disarm()
	rec = postJSON(t, h, "/v1/mine", wire.MineRequest{Targets: []string{tinyNS + "Rennes"}})
	if rec.Code != http.StatusOK {
		t.Fatalf("mine after contained panic: %d %s", rec.Code, rec.Body.String())
	}
}

// retryAfterSecs parses the Retry-After header, failing on absence: every
// 429 must tell the client when to come back, and never "0 seconds".
func retryAfterSecs(t *testing.T, rec *httptest.ResponseRecorder) int {
	t.Helper()
	v := rec.Header().Get("Retry-After")
	if v == "" {
		t.Fatal("429 without a Retry-After header")
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		t.Fatalf("unparsable Retry-After %q", v)
	}
	return n
}

// TestChaosQuotaVsSaturation separates the two 429s: a quota rejection
// names the client and derives Retry-After from that client's own deficit;
// a saturation rejection talks about the shared queue and still honors the
// 1-second Retry-After floor. Other clients sail through a neighbor's
// exhausted quota.
func TestChaosQuotaVsSaturation(t *testing.T) {
	t.Run("quota", func(t *testing.T) {
		s := chaosServer(t, Options{
			DefaultTimeout: 10 * time.Second,
			QuotaRate:      0.01, // ~100s per token: no refill mid-test
			QuotaBurst:     2,
		})
		h := s.Handler()
		mineAs := func(client string) *httptest.ResponseRecorder {
			req := newJSONRequest(t, "POST", "/v1/mine", wire.MineRequest{Targets: []string{tinyNS + "Rennes"}})
			req.Header.Set("X-Client-Id", client)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			return rec
		}
		for i := 0; i < 2; i++ {
			if rec := mineAs("alice"); rec.Code != http.StatusOK {
				t.Fatalf("alice mine %d: %d %s", i, rec.Code, rec.Body.String())
			}
		}
		rec := mineAs("alice")
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("alice over quota: %d, want 429", rec.Code)
		}
		if secs := retryAfterSecs(t, rec); secs < 1 {
			t.Fatalf("quota Retry-After %ds, want >= 1", secs)
		}
		er := decode[wire.ErrorResponse](t, rec)
		if !strings.Contains(er.Error, "quota exceeded") || !strings.Contains(er.Error, "alice") {
			t.Fatalf("quota error %q does not name the quota and the client", er.Error)
		}
		if rec := mineAs("bob"); rec.Code != http.StatusOK {
			t.Fatalf("bob behind alice's quota: %d %s", rec.Code, rec.Body.String())
		}
		st := fullStats(t, h)
		if st.Quota == nil || !st.Quota.Enabled || st.Quota.Rejected != 1 || st.Quota.Clients < 1 {
			t.Fatalf("quota stats %+v, want enabled with 1 rejection", st.Quota)
		}
	})

	t.Run("saturation", func(t *testing.T) {
		s := chaosServer(t, Options{
			DefaultTimeout: 10 * time.Second,
			JobWorkers:     1,
			JobQueueDepth:  1,
		})
		h := s.Handler()
		defer faults.Arm(faults.JobStuck, faults.Injection{Block: true, BlockCtx: true})()
		// Occupy the worker and the one queue slot with distinct queries,
		// waiting for the first to leave the queue for the worker.
		for i, target := range []string{"Rennes", "Nantes"} {
			rec := postJSON(t, h, "/v1/mine:async", wire.MineRequest{Targets: []string{tinyNS + target}})
			if rec.Code != http.StatusAccepted {
				t.Fatalf("async fill %d: %d %s", i, rec.Code, rec.Body.String())
			}
			if i == 0 {
				waitFor(t, func() bool { return s.jobs.Snapshot().Queued == 0 })
			}
		}
		rec := postJSON(t, h, "/v1/mine:async", wire.MineRequest{Targets: []string{tinyNS + "Paris"}})
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("saturated submit: %d %s, want 429", rec.Code, rec.Body.String())
		}
		if secs := retryAfterSecs(t, rec); secs < 1 {
			t.Fatalf("saturation Retry-After %ds, want the 1s floor", secs)
		}
		er := decode[wire.ErrorResponse](t, rec)
		if !strings.Contains(er.Error, "saturated") || strings.Contains(er.Error, "quota") {
			t.Fatalf("saturation error %q must talk about the queue, not quotas", er.Error)
		}
	})
}

// TestChaosBatchPriorityReserve: with queue slots reserved for interactive
// work, batch submissions are shed while a single mine still gets in.
func TestChaosBatchPriorityReserve(t *testing.T) {
	s := chaosServer(t, Options{
		DefaultTimeout:     10 * time.Second,
		JobWorkers:         1,
		JobQueueDepth:      2,
		InteractiveReserve: 1,
	})
	h := s.Handler()
	defer faults.Arm(faults.JobStuck, faults.Injection{Block: true, BlockCtx: true})()

	// A stuck interactive run occupies the worker; one async batch phase
	// fills the unreserved queue slot; the next batch must be shed while an
	// interactive request still gets the reserved slot.
	rec := postJSON(t, h, "/v1/mine:async", wire.MineRequest{Targets: []string{tinyNS + "Rennes"}})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("interactive fill: %d %s", rec.Code, rec.Body.String())
	}
	waitFor(t, func() bool { return s.jobs.Snapshot().Queued == 0 })
	rec = postJSON(t, h, "/v1/mine:async", wire.MineRequest{Sets: [][]string{{tinyNS + "Nantes"}}})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("batch fill: %d %s", rec.Code, rec.Body.String())
	}
	brec := postJSON(t, h, "/v1/mine:async", wire.MineRequest{Sets: [][]string{{tinyNS + "Paris"}}})
	if brec.Code != http.StatusTooManyRequests {
		t.Fatalf("batch into reserved queue: %d %s, want 429", brec.Code, brec.Body.String())
	}
	irec := postJSON(t, h, "/v1/mine:async", wire.MineRequest{Targets: []string{tinyNS + "Vannes"}})
	if irec.Code != http.StatusAccepted {
		t.Fatalf("interactive into reserve: %d %s, want 202", irec.Code, irec.Body.String())
	}
	st := fullStats(t, h)
	if st.Jobs.RejectedBatch < 1 {
		t.Fatalf("rejected_batch = %d, want >= 1", st.Jobs.RejectedBatch)
	}
}

// TestChaosGracefulDrain: draining flips readiness (while liveness stays
// green), refuses new mining work with 503, lets in-flight jobs finish,
// and DrainWait returns once they have.
func TestChaosGracefulDrain(t *testing.T) {
	s := chaosServer(t, Options{DefaultTimeout: 10 * time.Second})
	h := s.Handler()
	defer faults.Arm(faults.JobStuck, faults.Injection{Delay: 100 * time.Millisecond})()

	// An in-flight async job that outlives the drain flip.
	rec := postJSON(t, h, "/v1/mine:async", wire.MineRequest{Targets: []string{tinyNS + "Rennes"}})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("async submit: %d %s", rec.Code, rec.Body.String())
	}
	id := decode[JobResponse](t, rec).ID

	get := func(path string) *httptest.ResponseRecorder {
		r := httptest.NewRecorder()
		h.ServeHTTP(r, httptest.NewRequest("GET", path, nil))
		return r
	}
	if r := get("/readyz"); r.Code != http.StatusOK {
		t.Fatalf("readyz before drain: %d", r.Code)
	}
	s.StartDrain()
	if r := get("/healthz"); r.Code != http.StatusOK || !strings.Contains(r.Body.String(), `"draining":true`) {
		t.Fatalf("healthz during drain: %d %s, want 200 + draining", r.Code, r.Body.String())
	}
	if r := get("/readyz"); r.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d, want 503", r.Code)
	}
	for _, tc := range []struct {
		path string
		body any
	}{
		{"/v1/mine", wire.MineRequest{Targets: []string{tinyNS + "Nantes"}}},
		{"/v1/mine:batch", wire.MineRequest{Sets: [][]string{{tinyNS + "Nantes"}}}},
		{"/v1/mine:async", wire.MineRequest{Targets: []string{tinyNS + "Nantes"}}},
		{"/v1/mine:stream", wire.MineRequest{Targets: []string{tinyNS + "Nantes"}}},
	} {
		rec := postJSON(t, h, tc.path, tc.body)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s during drain: %d, want 503", tc.path, rec.Code)
		}
		if er := decode[wire.ErrorResponse](t, rec); !strings.Contains(er.Error, "draining") {
			t.Fatalf("%s drain error %q does not say draining", tc.path, er.Error)
		}
	}
	// Reads still work mid-drain: the in-flight job is observable until done.
	if r := get("/v1/jobs/" + id); r.Code != http.StatusOK {
		t.Fatalf("job poll during drain: %d", r.Code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.DrainWait(ctx); err != nil {
		t.Fatalf("DrainWait: %v", err)
	}
	if r := get("/v1/jobs/" + id); decode[JobResponse](t, r).State != "done" {
		t.Fatalf("in-flight job did not finish across drain: %s", r.Body.String())
	}
	st := fullStats(t, h)
	if !st.Draining || st.Jobs == nil || !st.Jobs.Draining {
		t.Fatal("stats do not report draining")
	}
}

// TestChaosStreamStallBoundedLog: a stream consumer that stops reading must
// not grow the job's event log without bound. The log stays capped while
// the consumer is wedged, and once it resumes it receives one explicit
// truncation marker whose count, plus the events actually delivered,
// accounts for every event emitted.
func TestChaosStreamStallBoundedLog(t *testing.T) {
	s := chaosServer(t, Options{DefaultTimeout: 10 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	j, _ := s.jobs.External(jobs.SubmitOpts{
		Kind: jobKindMine, Meta: jobMeta{kb: DefaultKBName}, Retain: true, Detached: true,
	})
	j.Emit(streamProgress, StreamEvent{Event: streamProgress, Expression: "e0"})

	resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID() + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no first event: %v", sc.Err())
	}

	// Consumer "stops reading": every further send parks until disarmed.
	// One probe event first — once its send is parked (Hits >= 1), the
	// follower is pinned at a low cursor while the storm laps the log.
	disarm := faults.Arm(faults.StreamStall, faults.Injection{Block: true})
	j.Emit(streamProgress, StreamEvent{Event: streamProgress, Expression: "probe"})
	waitFor(t, func() bool { return faults.Hits(faults.StreamStall) >= 1 })
	const storm = 1200
	for i := 0; i < storm; i++ {
		j.Emit(streamProgress, StreamEvent{Event: streamProgress, Expression: fmt.Sprintf("e%d", i)})
	}
	disarm()
	j.Complete(nil, nil)
	const emitted = storm + 2 // e0 + probe + storm

	// Drain the stream: the marker plus delivered progress events must
	// account for everything emitted (nothing silently lost).
	progress, dropped, truncs := 1, 0, 0 // first event read above
	for sc.Scan() {
		var ev StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		switch ev.Event {
		case streamProgress:
			progress++
		case streamTruncated:
			truncs++
			dropped += ev.Dropped
		case streamDone:
		default:
			t.Fatalf("unexpected stream event %q", ev.Event)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if truncs != 1 || dropped <= 0 {
		t.Fatalf("got %d truncation markers dropping %d, want exactly 1 with a positive count", truncs, dropped)
	}
	if progress+dropped != emitted {
		t.Fatalf("accounting broken: %d delivered + %d dropped != %d emitted", progress, dropped, emitted)
	}
	if progress >= emitted {
		t.Fatal("log was not bounded: every event survived a stalled consumer")
	}
}
