package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/remi-kb/remi/internal/faults"
	"github.com/remi-kb/remi/internal/server"
	"github.com/remi-kb/remi/internal/wire"
)

// scriptReplica is a controllable fake remi-serve instance: by default it
// answers /readyz ready and everything else 200 with a body naming itself,
// recording the tier headers it received; tests script failures by
// swapping in a custom handler.
type scriptReplica struct {
	name string
	ts   *httptest.Server

	hits       atomic.Int64 // non-probe requests served
	lastReqID  atomic.Value // string
	lastBudget atomic.Value // string
	custom     atomic.Value // http.HandlerFunc; handles every path when set
}

func (f *scriptReplica) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Drain the body like a real handler parsing JSON would — the server
	// only watches for client aborts once the body is consumed, and the
	// hedge tests assert that cancelled stragglers notice.
	_, _ = io.Copy(io.Discard, r.Body)
	if h, ok := f.custom.Load().(http.HandlerFunc); ok && h != nil {
		if r.URL.Path != "/readyz" {
			f.hits.Add(1)
		}
		h(w, r)
		return
	}
	if r.URL.Path == "/readyz" {
		wire.WriteJSON(w, http.StatusOK, map[string]any{"status": "ready"})
		return
	}
	f.hits.Add(1)
	f.lastReqID.Store(r.Header.Get(wire.HeaderRequestID))
	f.lastBudget.Store(r.Header.Get(wire.HeaderTimeoutBudget))
	wire.WriteJSON(w, http.StatusOK, map[string]any{"replica": f.name})
}

func (f *scriptReplica) script(h http.HandlerFunc) { f.custom.Store(h) }

func (f *scriptReplica) lastID() string {
	s, _ := f.lastReqID.Load().(string)
	return s
}

func newFleet(t *testing.T, names ...string) []*scriptReplica {
	t.Helper()
	fleet := make([]*scriptReplica, len(names))
	for i, name := range names {
		f := &scriptReplica{name: name}
		f.ts = httptest.NewServer(f)
		t.Cleanup(f.ts.Close)
		fleet[i] = f
	}
	return fleet
}

func fleetReplicas(fleet []*scriptReplica) []Replica {
	reps := make([]Replica, len(fleet))
	for i, f := range fleet {
		reps[i] = Replica{Name: f.name, URL: f.ts.URL}
	}
	return reps
}

// fastOpts keeps retries and probes snappy so tests don't sleep through
// production-scale backoffs. Hedging is off unless a test turns it on.
func fastOpts() Options {
	return Options{
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  2 * time.Millisecond,
		HedgeDisabled:  true,
	}
}

func newTestRouter(t *testing.T, fleet []*scriptReplica, opts Options) *Router {
	t.Helper()
	rt, err := New(fleetReplicas(fleet), opts)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func doRouted(rt *Router, method, path, body string, hdr map[string]string) *httptest.ResponseRecorder {
	var rd *bytes.Reader
	if body != "" {
		rd = bytes.NewReader([]byte(body))
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, req)
	return rec
}

const mineBody = `{"targets":["http://tiny.demo/resource/Rennes","http://tiny.demo/resource/Nantes"]}`

// servingReplica sends one request and reports which replica answered it —
// i.e. the key's healthy primary.
func servingReplica(t *testing.T, rt *Router, body string) string {
	t.Helper()
	rec := doRouted(rt, "POST", "/v1/mine", body, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("probe request failed: %d %s", rec.Code, rec.Body.String())
	}
	name := rec.Header().Get(HeaderReplica)
	if name == "" {
		t.Fatal("response carries no " + HeaderReplica)
	}
	return name
}

// ringPrimary names the key's true ring primary — from the ring, not from
// who happened to answer (a hedge can hand a healthy fleet's response to
// the backup).
func ringPrimary(t *testing.T, rt *Router, path, body string) string {
	t.Helper()
	req := httptest.NewRequest("POST", path, nil)
	key, _, status, err := rt.routeKey(req, []byte(body))
	if status != 0 {
		t.Fatalf("routeKey: %v", err)
	}
	return rt.ring.Primary(key)
}

func byName(fleet []*scriptReplica, name string) *scriptReplica {
	for _, f := range fleet {
		if f.name == name {
			return f
		}
	}
	return nil
}

func TestRouterPassThroughAndHeaders(t *testing.T) {
	fleet := newFleet(t, "r1", "r2", "r3")
	rt := newTestRouter(t, fleet, fastOpts())

	rec := doRouted(rt, "POST", "/v1/mine", mineBody, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	serving := rec.Header().Get(HeaderReplica)
	if byName(fleet, serving) == nil {
		t.Fatalf("%s names unknown replica %q", HeaderReplica, serving)
	}
	if rec.Header().Get(wire.HeaderRequestID) == "" {
		t.Fatal("router did not mint a request id")
	}
	// The serving replica saw the same id the client got back, and a
	// default budget (non-streaming request without an explicit one).
	srv := byName(fleet, serving)
	if srv.lastID() != rec.Header().Get(wire.HeaderRequestID) {
		t.Fatalf("replica saw id %q, client got %q", srv.lastID(), rec.Header().Get(wire.HeaderRequestID))
	}
	if b, _ := srv.lastBudget.Load().(string); b == "" {
		t.Fatal("replica received no timeout budget for a non-streaming request")
	}

	// A client-supplied id passes through both tiers untouched.
	rec = doRouted(rt, "POST", "/v1/mine", mineBody, map[string]string{wire.HeaderRequestID: "trace-42"})
	if got := rec.Header().Get(wire.HeaderRequestID); got != "trace-42" {
		t.Fatalf("client-supplied request id came back as %q", got)
	}
}

func TestRouterAffinityIsStable(t *testing.T) {
	fleet := newFleet(t, "r1", "r2", "r3")
	rt := newTestRouter(t, fleet, fastOpts())
	first := servingReplica(t, rt, mineBody)
	for i := 0; i < 5; i++ {
		if got := servingReplica(t, rt, mineBody); got != first {
			t.Fatalf("identical query moved from %q to %q with a healthy fleet", first, got)
		}
	}
}

func TestRouterFailoverOnPrimaryFailure(t *testing.T) {
	cases := []struct {
		name   string
		fail   http.HandlerFunc
		minTry int64
	}{
		{"http 500", func(w http.ResponseWriter, r *http.Request) {
			wire.WriteJSON(w, http.StatusInternalServerError, map[string]any{"error": "boom"})
		}, 1},
		{"bare 503", func(w http.ResponseWriter, r *http.Request) {
			// No Retry-After: an instance-local refusal, e.g. draining.
			wire.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"error": "draining"})
		}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fleet := newFleet(t, "r1", "r2", "r3")
			rt := newTestRouter(t, fleet, fastOpts())
			primary := servingReplica(t, rt, mineBody)
			byName(fleet, primary).script(tc.fail)

			rec := doRouted(rt, "POST", "/v1/mine", mineBody, nil)
			if rec.Code != http.StatusOK {
				t.Fatalf("failover did not produce an answer: %d %s", rec.Code, rec.Body.String())
			}
			if got := rec.Header().Get(HeaderReplica); got == primary {
				t.Fatalf("response still served by failed primary %q", got)
			}
			st := rt.Stats()
			if st.Failovers < 1 || st.Retries < tc.minTry {
				t.Fatalf("stats do not reflect the failover: %+v", st)
			}
		})
	}
}

func TestRouterFailoverOnTransportError(t *testing.T) {
	fleet := newFleet(t, "r1", "r2", "r3")
	rt := newTestRouter(t, fleet, fastOpts())
	primary := servingReplica(t, rt, mineBody)
	// Kill the primary's listener outright — but tell the router's health
	// view nothing: the breaker path has to absorb it.
	byName(fleet, primary).ts.Close()

	rec := doRouted(rt, "POST", "/v1/mine", mineBody, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(HeaderReplica); got == primary {
		t.Fatalf("dead replica %q apparently answered", got)
	}
}

// The conformance rows: statuses that must pass through unchanged rather
// than trigger retries — hints and client errors are the replica's answer,
// not a router failure.
func TestRouterPassThroughStatuses(t *testing.T) {
	rows := []struct {
		name       string
		status     int
		retryAfter string
		wantStatus int
	}{
		{"429 with Retry-After", http.StatusTooManyRequests, "7", http.StatusTooManyRequests},
		{"503 with Retry-After", http.StatusServiceUnavailable, "3", http.StatusServiceUnavailable},
		{"504 budget exceeded", http.StatusGatewayTimeout, "", http.StatusGatewayTimeout},
		{"404 not found", http.StatusNotFound, "", http.StatusNotFound},
		{"400 bad request", http.StatusBadRequest, "", http.StatusBadRequest},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			fleet := newFleet(t, "only")
			fleet[0].script(func(w http.ResponseWriter, r *http.Request) {
				if row.retryAfter != "" {
					w.Header().Set("Retry-After", row.retryAfter)
				}
				w.Header().Set("X-Conformance", "yes")
				wire.WriteJSON(w, row.status, map[string]any{"error": "scripted"})
			})
			rt := newTestRouter(t, fleet, fastOpts())
			rec := doRouted(rt, "POST", "/v1/mine", mineBody, nil)
			if rec.Code != row.wantStatus {
				t.Fatalf("status %d, want %d: %s", rec.Code, row.wantStatus, rec.Body.String())
			}
			if got := rec.Header().Get("Retry-After"); got != row.retryAfter {
				t.Fatalf("Retry-After = %q, want %q passed through", got, row.retryAfter)
			}
			if rec.Header().Get("X-Conformance") != "yes" {
				t.Fatal("replica response headers were not passed through")
			}
			if n := fleet[0].hits.Load(); n != 1 {
				t.Fatalf("replica was hit %d times; pass-through statuses must not retry", n)
			}
		})
	}
}

func TestRouterRetriesExhaustedAnswer502(t *testing.T) {
	fleet := newFleet(t, "only")
	fleet[0].script(func(w http.ResponseWriter, r *http.Request) {
		wire.WriteJSON(w, http.StatusInternalServerError, map[string]any{"error": "boom"})
	})
	opts := fastOpts()
	opts.MaxAttempts = 2
	rt := newTestRouter(t, fleet, opts)

	rec := doRouted(rt, "POST", "/v1/mine", mineBody, map[string]string{wire.HeaderRequestID: "give-up"})
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("status %d, want 502: %s", rec.Code, rec.Body.String())
	}
	if n := fleet[0].hits.Load(); n != 2 {
		t.Fatalf("replica hit %d times, want MaxAttempts=2", n)
	}
	var body struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("error body is not JSON: %s", rec.Body.String())
	}
	if body.RequestID != "give-up" || body.Error == "" {
		t.Fatalf("error body lost the trace: %+v", body)
	}
}

func TestRouterTimeoutBudget(t *testing.T) {
	fleet := newFleet(t, "slow")
	fleet[0].script(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(2 * time.Second):
		case <-r.Context().Done():
			return
		}
		wire.WriteJSON(w, http.StatusOK, map[string]any{"replica": "slow"})
	})
	opts := fastOpts()
	opts.MaxAttempts = 2
	rt := newTestRouter(t, fleet, opts)

	start := time.Now()
	rec := doRouted(rt, "POST", "/v1/mine", mineBody, map[string]string{wire.HeaderTimeoutBudget: "80"})
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", rec.Code, rec.Body.String())
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("router waited %v; the 80ms budget did not bound the walk", el)
	}
}

func TestRouterBodyLimits(t *testing.T) {
	fleet := newFleet(t, "r1")
	opts := fastOpts()
	opts.MaxBodyBytes = 256
	rt := newTestRouter(t, fleet, opts)

	big := `{"targets":["` + strings.Repeat("a", 512) + `"]}`
	if rec := doRouted(rt, "POST", "/v1/mine", big, nil); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", rec.Code)
	}
	if rec := doRouted(rt, "POST", "/v1/mine", `{"targets":`, nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("unparseable body: status %d, want 400", rec.Code)
	}
	if n := fleet[0].hits.Load(); n != 0 {
		t.Fatalf("invalid requests were forwarded %d times", n)
	}
}

// TestRouterAndReplicaAgreeOnBodyTypes: both tiers decode one request
// type, so a body whose unused sets or targets field has the wrong JSON
// type is a 400 ErrorResponse from the router and from a replica reached
// directly alike — and the router answers it without forwarding.
func TestRouterAndReplicaAgreeOnBodyTypes(t *testing.T) {
	srv := server.New(tinySystem(t), server.Options{DefaultTimeout: 10 * time.Second})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	rt, err := New([]Replica{{Name: "r1", URL: ts.URL}}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ path, body string }{
		{"/v1/mine", `{"targets":["x"],"sets":5}`},
		{"/v1/mine:batch", `{"sets":[["x"]],"targets":5}`},
	} {
		direct := httptest.NewRecorder()
		srv.Handler().ServeHTTP(direct, httptest.NewRequest("POST", tc.path, strings.NewReader(tc.body)))
		routed := doRouted(rt, "POST", tc.path, tc.body, nil)
		for tier, rec := range map[string]*httptest.ResponseRecorder{"replica": direct, "router": routed} {
			var er wire.ErrorResponse
			if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &er) != nil || er.Error == "" {
				t.Errorf("%s %s on the %s: %d %s, want a 400 ErrorResponse", tc.path, tc.body, tier, rec.Code, rec.Body.String())
			}
		}
		if name := routed.Header().Get(HeaderReplica); name != "" {
			t.Errorf("%s %s: the router forwarded an invalid body to %s", tc.path, tc.body, name)
		}
	}
}

func TestRouterLocalEndpoints(t *testing.T) {
	fleet := newFleet(t, "r1", "r2")
	rt := newTestRouter(t, fleet, fastOpts())

	rec := doRouted(rt, "GET", "/healthz", "", nil)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"role":"router"`) {
		t.Fatalf("healthz: %d %s", rec.Code, rec.Body.String())
	}
	if rec := doRouted(rt, "GET", "/readyz", "", nil); rec.Code != http.StatusOK {
		t.Fatalf("readyz with healthy fleet: %d", rec.Code)
	}
	rec = doRouted(rt, "GET", "/router/stats", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}
	var st RouterStats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Replicas) != 2 || st.Replicas["r1"].Breaker != "closed" {
		t.Fatalf("stats body: %+v", st)
	}
}

func TestRouterFleetDown(t *testing.T) {
	fleet := newFleet(t, "r1", "r2")
	rt := newTestRouter(t, fleet, fastOpts())
	for _, f := range fleet {
		f.ts.Close()
	}
	rt.ProbeNow(context.Background())

	rec := doRouted(rt, "POST", "/v1/mine", mineBody, nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("fleet-down 503 carries no Retry-After")
	}
	if rec := doRouted(rt, "GET", "/readyz", "", nil); rec.Code != http.StatusServiceUnavailable ||
		rec.Header().Get("Retry-After") == "" {
		t.Fatalf("readyz with dead fleet: %d, Retry-After %q", rec.Code, rec.Header().Get("Retry-After"))
	}
	if st := rt.Stats(); st.FleetUnavailable < 1 || st.Replicas["r1"].Healthy {
		t.Fatalf("stats do not reflect the dead fleet: %+v", st)
	}
}

func TestRouterAllBreakersOpen(t *testing.T) {
	fleet := newFleet(t, "r1", "r2")
	opts := fastOpts()
	opts.BreakerThreshold = 2
	opts.BreakerCooldown = time.Minute
	rt := newTestRouter(t, fleet, opts)
	for _, rep := range rt.replicas {
		rep.breaker.Report(false)
		rep.breaker.Report(false)
	}
	rec := doRouted(rt, "POST", "/v1/mine", mineBody, nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("breakers-open 503 carries no Retry-After")
	}
	if !strings.Contains(rec.Body.String(), "circuit breakers") {
		t.Fatalf("error body: %s", rec.Body.String())
	}
}

func TestRouterHedgeWin(t *testing.T) {
	fleet := newFleet(t, "r1", "r2")
	opts := fastOpts()
	opts.HedgeDisabled = false
	opts.HedgeDelay = 5 * time.Millisecond
	rt := newTestRouter(t, fleet, opts)
	primary := ringPrimary(t, rt, "/v1/mine", mineBody)
	primaryCancelled := make(chan struct{}, 1)
	byName(fleet, primary).script(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(3 * time.Second):
			wire.WriteJSON(w, http.StatusOK, map[string]any{"replica": "slow-primary"})
		case <-r.Context().Done():
			select {
			case primaryCancelled <- struct{}{}:
			default:
			}
		}
	})

	rec := doRouted(rt, "POST", "/v1/mine", mineBody, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(HeaderReplica); got == primary {
		t.Fatalf("hedged response still claims the slow primary %q", got)
	}
	st := rt.Stats()
	if st.Hedges < 1 || st.HedgeWins < 1 {
		t.Fatalf("hedge counters not bumped: %+v", st)
	}
	// The straggler's context must be cancelled so the fleet doesn't finish
	// work nobody will read.
	select {
	case <-primaryCancelled:
	case <-time.After(2 * time.Second):
		t.Fatal("slow primary's request context was never cancelled")
	}
}

func TestRouterHedgeSettlesOnSecondWhenFirstFails(t *testing.T) {
	fleet := newFleet(t, "r1", "r2")
	opts := fastOpts()
	opts.HedgeDisabled = false
	opts.HedgeDelay = 2 * time.Millisecond
	rt := newTestRouter(t, fleet, opts)
	primary := ringPrimary(t, rt, "/v1/mine", mineBody)
	byName(fleet, primary).script(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(20 * time.Millisecond) // past the hedge trigger, then fail
		wire.WriteJSON(w, http.StatusInternalServerError, map[string]any{"error": "boom"})
	})
	backupName := ""
	for _, f := range fleet {
		if f.name != primary {
			backupName = f.name
			f.script(func(w http.ResponseWriter, r *http.Request) {
				time.Sleep(60 * time.Millisecond) // slower than the failing primary
				wire.WriteJSON(w, http.StatusOK, map[string]any{"replica": f.name})
			})
		}
	}

	rec := doRouted(rt, "POST", "/v1/mine", mineBody, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(HeaderReplica); got != backupName {
		t.Fatalf("served by %q, want the hedge backup %q", got, backupName)
	}
}

func TestRouterHedgeRespectsBackupBreaker(t *testing.T) {
	fleet := newFleet(t, "r1", "r2")
	opts := fastOpts()
	opts.HedgeDisabled = false
	opts.HedgeDelay = time.Millisecond
	opts.BreakerCooldown = time.Minute
	rt := newTestRouter(t, fleet, opts)
	primary := ringPrimary(t, rt, "/v1/mine", mineBody)
	byName(fleet, primary).script(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(30 * time.Millisecond)
		wire.WriteJSON(w, http.StatusOK, map[string]any{"replica": primary})
	})
	for _, rep := range rt.replicas {
		if rep.name != primary {
			for i := 0; i < rt.opts.BreakerThreshold; i++ {
				rep.breaker.Report(false)
			}
		}
	}

	before := rt.Stats().Hedges
	rec := doRouted(rt, "POST", "/v1/mine", mineBody, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(HeaderReplica); got != primary {
		t.Fatalf("served by %q, want the slow primary (backup breaker is open)", got)
	}
	if after := rt.Stats().Hedges; after != before {
		t.Fatalf("a hedge was launched through an open breaker (%d -> %d)", before, after)
	}
}

func TestRouterJobFanOut(t *testing.T) {
	job := `{"id":"j-1","state":"done","kind":"mine"}`
	notFound := func(w http.ResponseWriter, r *http.Request) {
		wire.WriteJSON(w, http.StatusNotFound, map[string]any{"error": "no such job"})
	}

	t.Run("found on a non-primary replica", func(t *testing.T) {
		fleet := newFleet(t, "r1", "r2")
		fleet[0].script(notFound)
		fleet[1].script(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			fmt.Fprint(w, job)
		})
		rt := newTestRouter(t, fleet, fastOpts())
		rec := doRouted(rt, "GET", "/v1/jobs/j-1", "", nil)
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"id":"j-1"`) {
			t.Fatalf("fan-out missed the owning replica: %d %s", rec.Code, rec.Body.String())
		}
		if got := rec.Header().Get(HeaderReplica); got != "r2" {
			t.Fatalf("served by %q, want r2", got)
		}
	})

	t.Run("every replica disclaims", func(t *testing.T) {
		fleet := newFleet(t, "r1", "r2")
		fleet[0].script(notFound)
		fleet[1].script(notFound)
		rt := newTestRouter(t, fleet, fastOpts())
		rec := doRouted(rt, "GET", "/v1/jobs/gone", "", nil)
		if rec.Code != http.StatusNotFound {
			t.Fatalf("status %d, want the 404 passed through", rec.Code)
		}
	})

	t.Run("a failing replica is skipped", func(t *testing.T) {
		fleet := newFleet(t, "r1", "r2")
		fleet[0].script(func(w http.ResponseWriter, r *http.Request) {
			wire.WriteJSON(w, http.StatusInternalServerError, map[string]any{"error": "boom"})
		})
		fleet[1].script(notFound)
		rt := newTestRouter(t, fleet, fastOpts())
		rec := doRouted(rt, "GET", "/v1/jobs/j-2", "", nil)
		if rec.Code != http.StatusNotFound {
			t.Fatalf("status %d, want 404 from the surviving replica", rec.Code)
		}
	})

	t.Run("no healthy replicas", func(t *testing.T) {
		fleet := newFleet(t, "r1")
		fleet[0].ts.Close()
		rt := newTestRouter(t, fleet, fastOpts())
		rt.ProbeNow(context.Background())
		rec := doRouted(rt, "GET", "/v1/jobs/j-3", "", nil)
		if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
			t.Fatalf("status %d, Retry-After %q", rec.Code, rec.Header().Get("Retry-After"))
		}
	})
}

func TestRouterStreamingPassThrough(t *testing.T) {
	fleet := newFleet(t, "r1")
	fleet[0].script(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		f := w.(http.Flusher)
		fmt.Fprintln(w, `{"event":"progress","expression":"a"}`)
		f.Flush()
		fmt.Fprintln(w, `{"event":"done"}`)
		f.Flush()
	})
	rt := newTestRouter(t, fleet, fastOpts())
	rec := doRouted(rt, "POST", "/v1/mine:stream", mineBody, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("Content-Type"); !strings.Contains(got, "ndjson") {
		t.Fatalf("Content-Type = %q", got)
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != 2 || !strings.Contains(lines[1], "done") {
		t.Fatalf("stream body: %q", rec.Body.String())
	}
}

func TestRouteKeyAffinity(t *testing.T) {
	rt := newTestRouter(t, newFleet(t, "r1"), fastOpts())
	key := func(method, path, body string) string {
		req := httptest.NewRequest(method, path, nil)
		k, _, status, err := rt.routeKey(req, []byte(body))
		if status != 0 {
			t.Fatalf("routeKey(%s %s): %v", method, path, err)
		}
		return k
	}

	// One query's sync, async and stream forms share affinity, target order
	// and duplicates notwithstanding.
	sync := key("POST", "/v1/mine", `{"targets":["b","a"]}`)
	if async := key("POST", "/v1/mine:async", `{"targets":["a","b","a"]}`); async != sync {
		t.Fatalf("sync and async forms of one query keyed apart: %q vs %q", sync, async)
	}
	if stream := key("POST", "/v1/mine:stream", `{"targets":["a","b"]}`); stream != sync {
		t.Fatalf("stream form keyed apart: %q", stream)
	}

	// The KB travels in the key whether it arrives as a path prefix or a
	// body field.
	inPath := key("POST", "/v1/kb/geo/mine", `{"targets":["a"]}`)
	inBody := key("POST", "/v1/mine", `{"targets":["a"],"kb":"geo"}`)
	if inPath != inBody {
		t.Fatalf("kb-in-path and kb-in-body keyed apart: %q vs %q", inPath, inBody)
	}
	if other := key("POST", "/v1/mine", `{"targets":["a"],"kb":"other"}`); other == inBody {
		t.Fatal("different KBs share a key")
	}

	// Options and shapes that change the result change the key.
	if key("POST", "/v1/mine", `{"targets":["a"],"top_k":3}`) == sync {
		t.Fatal("top_k did not affect the key")
	}
	if key("POST", "/v1/mine:batch", `{"sets":[["a"],["b"]]}`) == key("POST", "/v1/mine:batch", `{"sets":[["a","b"]]}`) {
		t.Fatal("set structure did not affect the key")
	}
	if key("POST", "/v1/summarize", `{"entity":"x","size":3}`) == key("POST", "/v1/summarize", `{"entity":"x","size":5}`) {
		t.Fatal("summary size did not affect the key")
	}

	// GETs key on path + canonical query: parameter order is irrelevant,
	// values are not.
	a := key("GET", "/v1/describe?entity=x&metric=fr", "")
	if b := key("GET", "/v1/describe?metric=fr&entity=x", ""); a != b {
		t.Fatalf("query order changed a GET key: %q vs %q", a, b)
	}
	if c := key("GET", "/v1/describe?entity=y&metric=fr", ""); a == c {
		t.Fatal("different GET queries share a key")
	}

	// Stream detection follows the KB prefix strip.
	req := httptest.NewRequest("POST", "/v1/kb/geo/mine:stream", nil)
	if _, stream, _, _ := rt.routeKey(req, []byte(`{"targets":["a"]}`)); !stream {
		t.Fatal("kb-prefixed stream path not detected as streaming")
	}

	// A body that does not parse is the client's error, not a routing one.
	badReq := httptest.NewRequest("POST", "/v1/mine", nil)
	if _, _, status, err := rt.routeKey(badReq, []byte(`{"targets":`)); status != http.StatusBadRequest || err == nil {
		t.Fatalf("bad JSON: status %d, err %v", status, err)
	}
}

// TestRouteAliasesShareAPrimary: every spelling of one query that a replica
// serves from one result-cache entry must hash to one replica, or the
// second spelling misses the cache the first one warmed.
func TestRouteAliasesShareAPrimary(t *testing.T) {
	rt := newTestRouter(t, newFleet(t, "r1", "r2", "r3"), fastOpts())
	for i := 0; i < 32; i++ {
		targets := fmt.Sprintf(`"targets":["http://x/e%d","http://x/e%d"]`, i, i+100)
		want := ringPrimary(t, rt, "/v1/mine", "{"+targets+"}")
		for _, alias := range []string{
			`"metric":""`, `"metric":"fr"`,
			`"language":""`, `"language":"remi"`, `"language":"extended"`,
			`"top_k":0`, `"top_k":1`, `"workers":0`, `"workers":1`,
		} {
			body := "{" + targets + "," + alias + "}"
			if got := ringPrimary(t, rt, "/v1/mine", body); got != want {
				t.Fatalf("%s routes to %s, the plain query to %s", body, got, want)
			}
		}
	}
}

func TestClientBudget(t *testing.T) {
	req := httptest.NewRequest("POST", "/v1/mine", nil)
	if got := clientBudget(req, false, time.Minute); got != time.Minute {
		t.Fatalf("default budget = %v", got)
	}
	if got := clientBudget(req, true, time.Minute); got != 0 {
		t.Fatalf("stream without explicit budget = %v, want unbounded", got)
	}
	req.Header.Set(wire.HeaderTimeoutBudget, "250")
	if got := clientBudget(req, false, time.Minute); got != 250*time.Millisecond {
		t.Fatalf("explicit budget = %v", got)
	}
	if got := clientBudget(req, true, time.Minute); got != 250*time.Millisecond {
		t.Fatalf("explicit budget on a stream = %v", got)
	}
	req.Header.Set(wire.HeaderTimeoutBudget, "garbage")
	if got := clientBudget(req, false, time.Minute); got != time.Minute {
		t.Fatalf("unparseable budget fell through to %v", got)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Fatal("empty fleet accepted")
	}
	if _, err := New([]Replica{{Name: "", URL: "http://x"}}, Options{}); err == nil {
		t.Fatal("unnamed replica accepted")
	}
	if _, err := New([]Replica{{Name: "a", URL: ""}}, Options{}); err == nil {
		t.Fatal("URL-less replica accepted")
	}
	if _, err := New([]Replica{
		{Name: "a", URL: "http://x"},
		{Name: "a", URL: "http://y"},
	}, Options{}); err == nil {
		t.Fatal("duplicate replica name accepted")
	}
}

func TestProbeHealthTransitions(t *testing.T) {
	fleet := newFleet(t, "r1")
	rt := newTestRouter(t, fleet, fastOpts())
	ctx := context.Background()

	rt.ProbeNow(ctx)
	if st := rt.Stats().Replicas["r1"]; !st.Healthy || st.Degraded {
		t.Fatalf("ready replica probed as %+v", st)
	}

	// Degraded but serving: stays routable, surfaces in stats.
	fleet[0].script(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			wire.WriteJSON(w, http.StatusOK, map[string]any{"status": "ready", "degraded": true})
			return
		}
		wire.WriteJSON(w, http.StatusOK, map[string]any{"replica": "r1"})
	})
	rt.ProbeNow(ctx)
	if st := rt.Stats().Replicas["r1"]; !st.Healthy || !st.Degraded {
		t.Fatalf("degraded replica probed as %+v", st)
	}
	if rec := doRouted(rt, "POST", "/v1/mine", mineBody, nil); rec.Code != http.StatusOK {
		t.Fatalf("degraded replica dropped from routing: %d", rec.Code)
	}

	// Draining (503 from /readyz): out of routing.
	fleet[0].script(func(w http.ResponseWriter, r *http.Request) {
		wire.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
	})
	rt.ProbeNow(ctx)
	if st := rt.Stats().Replicas["r1"]; st.Healthy || st.ProbeFailures < 1 || st.LastProbeError == "" {
		t.Fatalf("draining replica probed as %+v", st)
	}

	// Recovered: back in.
	fleet[0].script(nil)
	rt.ProbeNow(ctx)
	if st := rt.Stats().Replicas["r1"]; !st.Healthy {
		t.Fatalf("recovered replica probed as %+v", st)
	}
}

func TestProbeTimeoutFault(t *testing.T) {
	fleet := newFleet(t, "r1")
	rt := newTestRouter(t, fleet, fastOpts())
	ctx := context.Background()

	disarm := faults.Arm(faults.ProbeTimeout, faults.Injection{Err: errors.New("injected probe failure")})
	rt.ProbeNow(ctx)
	if hits := faults.Hits(faults.ProbeTimeout); hits < 1 {
		t.Fatal("probe.timeout point never fired; the hook is not wired in")
	}
	if st := rt.Stats().Replicas["r1"]; st.Healthy || !strings.Contains(st.LastProbeError, "injected") {
		t.Fatalf("wedged probe left replica %+v", st)
	}
	disarm()

	rt.ProbeNow(ctx)
	if st := rt.Stats().Replicas["r1"]; !st.Healthy {
		t.Fatalf("replica did not recover after probes resumed: %+v", st)
	}
}

func TestStartProbingNoticesDeath(t *testing.T) {
	fleet := newFleet(t, "r1")
	opts := fastOpts()
	opts.ProbeInterval = 5 * time.Millisecond
	rt := newTestRouter(t, fleet, opts)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rt.StartProbing(ctx)

	fleet[0].ts.Close()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if !rt.Stats().Replicas["r1"].Healthy {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("background prober never noticed the dead replica")
}
