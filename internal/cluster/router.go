package cluster

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/remi-kb/remi/internal/wire"
)

// HeaderReplica names the replica that actually served a routed response
// (the request-id and timeout-budget headers both tiers speak are package
// wire's).
const HeaderReplica = "X-Remi-Replica"

// Replica names one remi-serve instance the router forwards to.
type Replica struct {
	// Name identifies the replica in the ring, stats and headers; it must
	// be unique and stable across router restarts (ring placement hashes
	// it).
	Name string
	// URL is the replica's base URL, e.g. http://10.0.0.3:8080.
	URL string
}

// Options tunes the router. The zero value picks the documented defaults.
type Options struct {
	// Vnodes per replica on the hash ring (default 128).
	Vnodes int
	// ProbeInterval is the /readyz probe cadence (default 2s);
	// ProbeTimeout bounds each probe (default 1s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// BreakerThreshold consecutive failures open a replica's circuit
	// breaker (default 3); BreakerCooldown is how long it stays open
	// before a half-open trial (default 5s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// MaxAttempts bounds the total forwards per request, first try
	// included (default 3).
	MaxAttempts int
	// RetryBaseDelay seeds the exponential backoff between attempts
	// (default 25ms, doubling, jittered, capped at RetryMaxDelay, default
	// 500ms).
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	// HedgeDelay controls the hedged second request: 0 derives the delay
	// from the EWMA latency p99 (with HedgeFallback, default 100ms, until
	// enough samples arrive), a positive value fixes it, and
	// HedgeDisabled turns hedging off.
	HedgeDelay    time.Duration
	HedgeFallback time.Duration
	HedgeDisabled bool
	// DefaultTimeout is the budget applied to non-streaming requests that
	// carry no X-Timeout-Budget-Ms of their own (default 60s). Streaming
	// requests without a budget run unbounded — a deadline mid-stream
	// would cut legitimate long-running mines.
	DefaultTimeout time.Duration
	// Transport overrides the forwarding round-tripper (tests).
	Transport http.RoundTripper
}

func (o *Options) fill() {
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 2 * time.Second
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = time.Second
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 3
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 5 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.RetryBaseDelay <= 0 {
		o.RetryBaseDelay = 25 * time.Millisecond
	}
	if o.RetryMaxDelay <= 0 {
		o.RetryMaxDelay = 500 * time.Millisecond
	}
	if o.HedgeFallback <= 0 {
		o.HedgeFallback = 100 * time.Millisecond
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 60 * time.Second
	}
}

// replica is the runtime state the router keeps per configured Replica.
type replica struct {
	name    string
	base    string // URL with no trailing slash
	breaker *Breaker

	mu         atomicHealth
	forwards   atomic.Int64
	failures   atomic.Int64
	probeFails atomic.Int64
}

// atomicHealth folds the probe outcome into one word so forwards read it
// without a lock: bit 0 healthy, bit 1 degraded. The probe error string is
// stored separately (stats-only, rarely read).
type atomicHealth struct {
	bits    atomic.Int32
	lastErr atomic.Value // string
}

func (r *replica) setHealth(healthy, degraded bool, probeErr string) {
	var b int32
	if healthy {
		b |= 1
	}
	if degraded {
		b |= 2
	}
	r.mu.bits.Store(b)
	r.mu.lastErr.Store(probeErr)
	if probeErr != "" {
		r.probeFails.Add(1)
	}
}

func (r *replica) healthy() bool  { return r.mu.bits.Load()&1 != 0 }
func (r *replica) degraded() bool { return r.mu.bits.Load()&2 != 0 }
func (r *replica) probeErr() string {
	if v, ok := r.mu.lastErr.Load().(string); ok {
		return v
	}
	return ""
}

// Router is the fault-tolerant routing tier: it consistent-hashes each
// request's dedup key onto the replica fleet and wraps every forward in
// the robustness envelope (breaker, retries, hedging, budget). It is an
// http.Handler; mount it as the server of cmd/remi-router.
type Router struct {
	opts     Options
	ring     *Ring
	replicas []*replica
	byName   map[string]*replica
	client   *http.Client
	lat      *latencyTracker

	nForwards    atomic.Int64
	nRetries     atomic.Int64
	nHedges      atomic.Int64
	nHedgeWins   atomic.Int64
	nFailovers   atomic.Int64
	nUnavailable atomic.Int64
}

// New builds a router over the replica fleet. Replicas start healthy
// (optimistic — the breaker catches a dead one on its first forward);
// call ProbeNow or StartProbing to ground health in /readyz.
func New(replicas []Replica, opts Options) (*Router, error) {
	if len(replicas) == 0 {
		return nil, errors.New("cluster: no replicas configured")
	}
	opts.fill()
	rt := &Router{
		opts:   opts,
		byName: make(map[string]*replica, len(replicas)),
		client: &http.Client{Transport: opts.Transport},
		lat:    &latencyTracker{},
	}
	names := make([]string, 0, len(replicas))
	for _, rc := range replicas {
		if rc.Name == "" || rc.URL == "" {
			return nil, fmt.Errorf("cluster: replica needs both name and URL (got %q, %q)", rc.Name, rc.URL)
		}
		if _, dup := rt.byName[rc.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate replica name %q", rc.Name)
		}
		rep := &replica{
			name:    rc.Name,
			base:    strings.TrimRight(rc.URL, "/"),
			breaker: NewBreaker(opts.BreakerThreshold, opts.BreakerCooldown),
		}
		rep.setHealth(true, false, "")
		rt.replicas = append(rt.replicas, rep)
		rt.byName[rc.Name] = rep
		names = append(names, rc.Name)
	}
	rt.ring = NewRing(names, opts.Vnodes)
	return rt, nil
}

// ServeHTTP dispatches: router-local endpoints answer in place, job
// endpoints fan out by id, everything else routes by dedup key. The request
// id is accepted or minted here and travels to the replica on the request's
// own header.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	wire.EnsureRequestID(w, r)
	switch {
	case r.URL.Path == "/healthz":
		rt.handleHealth(w)
	case r.URL.Path == "/readyz":
		rt.handleReady(w)
	case r.URL.Path == "/router/stats":
		wire.WriteJSON(w, http.StatusOK, rt.Stats())
	case strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
		rt.forwardJob(w, r)
	default:
		rt.forwardKeyed(w, r)
	}
}

// queryKey is a mining body's share of the route key: the replicas' own
// dedup key of the canonicalised query (wire.MineRequest.Key), so every
// spelling of one query — and its sync, async and stream forms — hashes to
// the replica whose result cache holds it. A batch concatenates its sets'
// keys.
func queryKey(q wire.MineRequest) string {
	q.Canonicalize()
	if len(q.Sets) == 0 {
		q.Normalize()
		return q.Key()
	}
	var b strings.Builder
	for _, set := range q.Sets {
		q.Targets = set
		q.Normalize()
		b.WriteString(q.Key())
		b.WriteByte(0)
	}
	return b.String()
}

// routeKey reads the request body through wire.ReadJSON, into the type the
// replica decodes for the endpoint, and derives the consistent-hash key:
// the KB name plus the query identity the replicas deduplicate on, so
// identical queries land on the same replica's result cache regardless of
// endpoint. A summary is keyed on its entity, size and metric, a facts or
// compile body on its KB alone; GETs and empty bodies key on KB + path +
// query. A non-zero status is the client's answer: don't forward.
func (rt *Router) routeKey(w http.ResponseWriter, r *http.Request) (key string, body []byte, stream bool, status int, err error) {
	path := r.URL.Path
	kb := ""
	if rest, ok := strings.CutPrefix(path, "/v1/kb/"); ok {
		if name, rest2, ok2 := strings.Cut(rest, "/"); ok2 {
			kb, path = name, "/v1/"+rest2
		}
	}
	stream = path == "/v1/mine:stream"
	var (
		q              wire.MineRequest // the query the body keys on
		bodyKB, prefix string
	)
	decoded := r.Method == http.MethodPost
	switch {
	case decoded && (path == "/v1/mine" || path == "/v1/mine:batch" || path == "/v1/mine:async" || stream):
		body, status, err = wire.ReadJSON(w, r, &q)
		bodyKB = q.KB
	case decoded && path == "/v1/summarize":
		var sr wire.SummarizeRequest
		body, status, err = wire.ReadJSON(w, r, &sr)
		bodyKB, q.Metric = sr.KB, sr.Metric
		prefix = "e:" + sr.Entity + "|" + strconv.Itoa(sr.Size) + "|"
	case decoded && (path == "/v1/facts" || path == "/v1/admin/compile"):
		var wr struct {
			KB string `json:"kb"`
		}
		body, status, err = wire.ReadJSON(w, r, &wr)
		bodyKB = wr.KB
		// A facts body's ops are the replica's to parse, and its first
		// error may be an op's, ahead of a kb the router failed on: the
		// write plane's 400s are left to the replica, which words them.
		if status == http.StatusBadRequest {
			status, err = 0, nil
		}
	default:
		decoded = false
		body, status, err = wire.ReadJSON(w, r, nil)
	}
	if status != 0 {
		return "", nil, false, status, err
	}
	if decoded && len(body) > 0 {
		if kb == "" {
			kb = bodyKB
		}
		return kb + "\x00" + prefix + queryKey(q), body, stream, 0, nil
	}
	// GETs (describe, stats) and empty-body POSTs: path + canonical query
	// (Encode sorts by parameter name).
	return kb + "\x00" + path + "\x00" + r.URL.Query().Encode(), body, stream, 0, nil
}

// forwardKeyed reads the body, derives the routing key and runs the
// robustness envelope.
func (rt *Router) forwardKeyed(w http.ResponseWriter, r *http.Request) {
	key, body, stream, status, err := rt.routeKey(w, r)
	if status != 0 {
		wire.WriteError(w, status, err)
		return
	}
	rt.forward(w, r, key, body, stream)
}

// writeResponse passes a replica's response to the client unchanged,
// stamped with the serving replica's name. Streaming responses flush per
// chunk so NDJSON/SSE consumers see events as they happen.
func (rt *Router) writeResponse(w http.ResponseWriter, res attemptResult, stream bool) {
	defer res.close()
	h := w.Header()
	for k, vv := range res.resp.Header {
		h[k] = vv
	}
	h.Set(HeaderReplica, res.rep.name)
	w.WriteHeader(res.resp.StatusCode)
	var dst io.Writer = w
	if stream || strings.Contains(res.resp.Header.Get("Content-Type"), "ndjson") ||
		strings.Contains(res.resp.Header.Get("Content-Type"), "event-stream") {
		if f, ok := w.(http.Flusher); ok {
			dst = flushWriter{w: w, f: f}
		}
	}
	_, _ = io.Copy(dst, res.resp.Body)
}

type flushWriter struct {
	w io.Writer
	f http.Flusher
}

func (fw flushWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	fw.f.Flush()
	return n, err
}

// handleHealth is router liveness: always 200 while the process answers.
func (rt *Router) handleHealth(w http.ResponseWriter) {
	healthy := 0
	for _, rep := range rt.replicas {
		if rep.healthy() {
			healthy++
		}
	}
	wire.WriteJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"role":     "router",
		"replicas": len(rt.replicas),
		"healthy":  healthy,
	})
}

// handleReady is router readiness: the router can do useful work iff at
// least one replica is routable.
func (rt *Router) handleReady(w http.ResponseWriter) {
	for _, rep := range rt.replicas {
		if rep.healthy() {
			wire.WriteJSON(w, http.StatusOK, map[string]any{"status": "ready"})
			return
		}
	}
	wire.SetRetryAfter(w, rt.opts.ProbeInterval)
	wire.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "no healthy replicas"})
}

// RouterStats is the body of GET /router/stats.
type RouterStats struct {
	Replicas map[string]ReplicaStats `json:"replicas"`
	// Forwards counts routed requests; Retries the extra attempts after a
	// failed one; Hedges the speculative second requests and HedgeWins
	// the hedges that answered first; Failovers the requests served by a
	// non-primary replica; FleetUnavailable the 503s for want of any
	// routable replica.
	Forwards         int64 `json:"forwards"`
	Retries          int64 `json:"retries"`
	Hedges           int64 `json:"hedges"`
	HedgeWins        int64 `json:"hedge_wins"`
	Failovers        int64 `json:"failovers"`
	FleetUnavailable int64 `json:"fleet_unavailable"`
	// HedgeDelayMS is the current hedge trigger (EWMA-p99-derived unless
	// fixed by configuration).
	HedgeDelayMS float64 `json:"hedge_delay_ms"`
}

// ReplicaStats describes one replica's routing state.
type ReplicaStats struct {
	URL      string `json:"url"`
	Healthy  bool   `json:"healthy"`
	Degraded bool   `json:"degraded,omitempty"`
	Breaker  string `json:"breaker"`
	Forwards int64  `json:"forwards"`
	Failures int64  `json:"failures"`
	// ProbeFailures counts failed /readyz probes; LastProbeError is the
	// most recent probe failure ("" while healthy).
	ProbeFailures  int64  `json:"probe_failures,omitempty"`
	LastProbeError string `json:"last_probe_error,omitempty"`
}

// Stats snapshots the router's counters and per-replica health.
func (rt *Router) Stats() RouterStats {
	st := RouterStats{
		Replicas:         make(map[string]ReplicaStats, len(rt.replicas)),
		Forwards:         rt.nForwards.Load(),
		Retries:          rt.nRetries.Load(),
		Hedges:           rt.nHedges.Load(),
		HedgeWins:        rt.nHedgeWins.Load(),
		Failovers:        rt.nFailovers.Load(),
		FleetUnavailable: rt.nUnavailable.Load(),
		HedgeDelayMS:     float64(rt.hedgeDelay()) / float64(time.Millisecond),
	}
	for _, rep := range rt.replicas {
		st.Replicas[rep.name] = ReplicaStats{
			URL:            rep.base,
			Healthy:        rep.healthy(),
			Degraded:       rep.degraded(),
			Breaker:        rep.breaker.State().String(),
			Forwards:       rep.forwards.Load(),
			Failures:       rep.failures.Load(),
			ProbeFailures:  rep.probeFails.Load(),
			LastProbeError: rep.probeErr(),
		}
	}
	return st
}
