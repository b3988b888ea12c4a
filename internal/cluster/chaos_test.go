package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/remi-kb/remi/internal/faults"
	"github.com/remi-kb/remi/internal/server"
)

// chaosHarness is a full in-process fleet: n real remi-serve servers over
// the shared tiny KB behind one router, the same stack docker-compose runs
// minus the sockets.
type chaosHarness struct {
	router   *Router
	servers  []*server.Server
	backends []*httptest.Server
}

func newChaosHarness(t *testing.T, n int, opts Options) *chaosHarness {
	t.Helper()
	sys := tinySystem(t)
	h := &chaosHarness{}
	reps := make([]Replica, n)
	for i := 0; i < n; i++ {
		srv := server.New(sys, server.Options{DefaultTimeout: 10 * time.Second})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(srv.Close)
		t.Cleanup(ts.Close)
		h.servers = append(h.servers, srv)
		h.backends = append(h.backends, ts)
		reps[i] = Replica{Name: "r" + string(rune('1'+i)), URL: ts.URL}
	}
	rt, err := New(reps, opts)
	if err != nil {
		t.Fatal(err)
	}
	h.router = rt
	return h
}

func (h *chaosHarness) post(t *testing.T, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", path, bytes.NewReader([]byte(body)))
	h.router.ServeHTTP(rec, req)
	return rec
}

// canonMine strips the run-dependent fields of a mine response — phase
// timings, cache counters, dedup/cache provenance — and returns
// the deterministic remainder re-marshalled, so two runs of one query
// compare byte-identical iff they found the same answer.
func canonMine(t *testing.T, body []byte) []byte {
	t.Helper()
	var m server.MineResponse
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("decoding mine response %q: %v", body, err)
	}
	m.Stats = server.MineStats{}
	m.Deduplicated, m.Cached = false, false
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// canonBatch is canonMine for batch responses.
func canonBatch(t *testing.T, body []byte) []byte {
	t.Helper()
	var b server.BatchMineResponse
	if err := json.Unmarshal(body, &b); err != nil {
		t.Fatalf("decoding batch response %q: %v", body, err)
	}
	b.Stats = server.BatchMineStats{}
	for i := range b.Results {
		if r := b.Results[i].Response; r != nil {
			r.Stats = server.MineStats{}
			r.Deduplicated, r.Cached = false, false
		}
	}
	out, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

const (
	chaosMine  = `{"targets":["http://tiny.demo/resource/Rennes","http://tiny.demo/resource/Nantes"]}`
	chaosMine2 = `{"targets":["http://tiny.demo/resource/Paris"]}`
	chaosBatch = `{"sets":[["http://tiny.demo/resource/Rennes","http://tiny.demo/resource/Nantes"],["http://tiny.demo/resource/Paris"]]}`
)

// goldenAnswers mines the chaos queries on a plain single-node server —
// no router, no faults — and returns their canonical bodies.
func goldenAnswers(t *testing.T) (mine, mine2, batch []byte) {
	t.Helper()
	srv := server.New(tinySystem(t), server.Options{DefaultTimeout: 10 * time.Second})
	t.Cleanup(srv.Close)
	h := srv.Handler()
	run := func(path, body string) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader([]byte(body))))
		if rec.Code != http.StatusOK {
			t.Fatalf("golden %s: %d %s", path, rec.Code, rec.Body.String())
		}
		return rec.Body.Bytes()
	}
	return canonMine(t, run("/v1/mine", chaosMine)),
		canonMine(t, run("/v1/mine", chaosMine2)),
		canonBatch(t, run("/v1/mine:batch", chaosBatch))
}

// A dead primary mid-traffic — single mines and a batch — must be invisible
// to clients: every retried answer is byte-identical (canonicalized) to
// what a healthy single-node server mines.
func TestChaosPrimaryDownGoldenAnswers(t *testing.T) {
	goldMine, goldMine2, goldBatch := goldenAnswers(t)
	h := newChaosHarness(t, 3, Options{
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  2 * time.Millisecond,
		HedgeDisabled:  true,
	})

	disarm := faults.Arm(faults.ReplicaDown, faults.Injection{Err: errors.New("injected: replica down")})
	defer disarm()

	for _, q := range []struct {
		path, body string
		canon      func(*testing.T, []byte) []byte
		golden     []byte
	}{
		{"/v1/mine", chaosMine, canonMine, goldMine},
		{"/v1/mine", chaosMine2, canonMine, goldMine2},
		{"/v1/mine:batch", chaosBatch, canonBatch, goldBatch},
	} {
		rec := h.post(t, q.path, q.body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s with primary down: %d %s", q.path, rec.Code, rec.Body.String())
		}
		if got := q.canon(t, rec.Body.Bytes()); !bytes.Equal(got, q.golden) {
			t.Fatalf("%s answer diverged from single-node golden:\n got  %s\n want %s", q.path, got, q.golden)
		}
	}
	if hits := faults.Hits(faults.ReplicaDown); hits < 3 {
		t.Fatalf("replica.down fired %d times, want one per query's primary attempt", hits)
	}
	if st := h.router.Stats(); st.Failovers < 3 {
		t.Fatalf("failovers = %d, want every query failed over: %+v", st.Failovers, st)
	}
}

// A slow primary must lose to a hedged second request, and the hedged
// answer must match the golden one.
func TestChaosSlowPrimaryHedged(t *testing.T) {
	goldMine, _, _ := goldenAnswers(t)
	h := newChaosHarness(t, 3, Options{
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  2 * time.Millisecond,
		HedgeDelay:     10 * time.Millisecond,
	})

	disarm := faults.Arm(faults.ReplicaSlow, faults.Injection{Delay: 2 * time.Second})
	defer disarm()

	start := time.Now()
	rec := h.post(t, "/v1/mine", chaosMine)
	if rec.Code != http.StatusOK {
		t.Fatalf("hedged mine: %d %s", rec.Code, rec.Body.String())
	}
	if el := time.Since(start); el > 1500*time.Millisecond {
		t.Fatalf("answer took %v; the hedge did not beat the 2s-slow primary", el)
	}
	if got := canonMine(t, rec.Body.Bytes()); !bytes.Equal(got, goldMine) {
		t.Fatalf("hedged answer diverged from golden:\n got  %s\n want %s", got, goldMine)
	}
	st := h.router.Stats()
	if st.Hedges < 1 || st.HedgeWins < 1 {
		t.Fatalf("hedge counters not bumped: %+v", st)
	}
	if faults.Hits(faults.ReplicaSlow) < 1 {
		t.Fatal("replica.slow never fired")
	}
}

// A corrupt snapshot pull must leave the replica serving its last-known-good
// generation while the router's stats surface it as degraded.
func TestChaosCorruptPullLastKnownGood(t *testing.T) {
	goldMine, _, _ := goldenAnswers(t)
	src := tinySnapshot(t, t.TempDir(), server.DefaultKBName)
	p := NewPuller(server.DefaultKBName, src, t.TempDir())
	sys, err := p.Load()
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(sys, server.Options{DefaultTimeout: 10 * time.Second})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	rt, err := New([]Replica{{Name: "r1", URL: ts.URL}}, Options{HedgeDisabled: true})
	if err != nil {
		t.Fatal(err)
	}
	rt.ProbeNow(t.Context())
	if st := rt.Stats().Replicas["r1"]; !st.Healthy || st.Degraded {
		t.Fatalf("fresh replica probed as %+v", st)
	}

	disarm := faults.Arm(faults.FetchCorrupt, faults.Injection{Err: errors.New("armed")})
	defer disarm()
	if err := srv.ReloadKB(server.DefaultKBName, p.Load); err == nil {
		t.Fatal("reload from a corrupt pull succeeded")
	}

	// The router sees the degradation on its next probe; the replica stays
	// in rotation and still answers the golden result from its
	// last-known-good generation.
	rt.ProbeNow(t.Context())
	if st := rt.Stats().Replicas["r1"]; !st.Healthy || !st.Degraded {
		t.Fatalf("replica after corrupt pull probed as %+v, want healthy+degraded", st)
	}
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/mine", bytes.NewReader([]byte(chaosMine))))
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded replica: %d %s", rec.Code, rec.Body.String())
	}
	if got := canonMine(t, rec.Body.Bytes()); !bytes.Equal(got, goldMine) {
		t.Fatalf("last-known-good answer diverged from golden:\n got  %s\n want %s", got, goldMine)
	}
}

// After K consecutive primary failures the primary's breaker opens (traffic
// stops probing it per-request), and once the fault clears a half-open
// trial folds it back in.
func TestChaosBreakerLifecycle(t *testing.T) {
	h := newChaosHarness(t, 2, Options{
		BreakerThreshold: 2,
		BreakerCooldown:  100 * time.Millisecond,
		RetryBaseDelay:   time.Millisecond,
		RetryMaxDelay:    2 * time.Millisecond,
		HedgeDisabled:    true,
	})
	primaryName := h.router.ring.Primary(func() string {
		req := httptest.NewRequest("POST", "/v1/mine", nil)
		k, _, _, _ := h.router.routeKey(req, []byte(chaosMine))
		return k
	}())

	disarm := faults.Arm(faults.ReplicaDown, faults.Injection{Err: errors.New("injected: replica down")})
	for i := 0; i < 3; i++ {
		if rec := h.post(t, "/v1/mine", chaosMine); rec.Code != http.StatusOK {
			disarm()
			t.Fatalf("request %d with primary down: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	if st := h.router.Stats().Replicas[primaryName]; st.Breaker != "open" {
		disarm()
		t.Fatalf("primary breaker = %q after repeated failures, want open", st.Breaker)
	}
	disarm()

	// Past the cooldown a half-open trial succeeds and the breaker closes.
	time.Sleep(150 * time.Millisecond)
	if rec := h.post(t, "/v1/mine", chaosMine); rec.Code != http.StatusOK {
		t.Fatalf("post-recovery request: %d %s", rec.Code, rec.Body.String())
	}
	if st := h.router.Stats().Replicas[primaryName]; st.Breaker != "closed" {
		t.Fatalf("primary breaker = %q after recovery, want closed", st.Breaker)
	}
}
