// Package server exposes loaded remi.Systems as a long-lived HTTP/JSON
// service: each knowledge base is loaded (or generated) once and registered
// under a name in the server's KB registry; the thread-safe Systems are
// shared across requests and routed by a `kb` request field or a
// /v1/kb/{name}/ path prefix (requests that name no KB use the default).
// Mining runs are tied to the request context — a client disconnect or
// deadline cancels the underlying search — concurrent identical queries are
// deduplicated onto a single in-flight run, and a batch of target sets (POST
// /v1/mine:batch) is one ordinary mine per set at batch priority. Command
// remi-serve wraps this package in a binary.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	remi "github.com/remi-kb/remi"
	"github.com/remi-kb/remi/internal/lru"
	"github.com/remi-kb/remi/internal/server/jobs"
	"github.com/remi-kb/remi/internal/wire"
)

// StatusClientClosedRequest is returned when the client went away before
// the mining run finished (nginx's non-standard 499).
const StatusClientClosedRequest = 499

// DefaultKBName is the registry name New gives its knowledge base; requests
// that name no KB route to the server's default entry.
const DefaultKBName = "default"

// ErrUnknownKB is wrapped when a request routes to a KB name absent from
// the registry; the handlers map it to a 404.
var ErrUnknownKB = errors.New("unknown knowledge base")

// errKBConflict marks a request whose body names one KB while its path
// routes to another; mapped to a 400.
var errKBConflict = errors.New("conflicting knowledge-base names")

// errDraining rejects new mining work while the server drains for
// shutdown; mapped to a 503 (the instance is going away — no Retry-After,
// the client should pick another replica).
var errDraining = errors.New("server is draining; not accepting new mining work")

// errQuotaExceeded rejects a request that overran its client's token
// bucket; mapped to a 429 whose Retry-After is derived from the client's
// own deficit, distinct from pool saturation.
var errQuotaExceeded = errors.New("client quota exceeded")

// errReloadQuarantined rejects a reload attempt while its KB source is
// quarantined after previous failures (exponential backoff).
var errReloadQuarantined = errors.New("KB source quarantined after failed reloads")

// ErrKBUnchanged is returned by a ReloadKB loader that found its source
// byte-identical to what is already serving (a replica's periodic snapshot
// refresh, most of the time). ReloadKB treats it as a benign no-op: the
// generation does not advance — so cached results stay valid — and any
// failure streak or quarantine is cleared, since the source proved
// reachable and consistent.
var ErrKBUnchanged = errors.New("KB source unchanged")

// Options tunes a Server. The zero value is usable: no default timeout, no
// caps beyond the built-in safety limits.
type Options struct {
	// DefaultTimeout bounds a mining run when the request does not carry
	// its own timeout_ms (0 = unbounded, unless MaxTimeout is set).
	DefaultTimeout time.Duration
	// MaxTimeout is the ceiling on any mining run: it clamps
	// request-supplied timeouts and also bounds runs that would otherwise
	// be unbounded, so no single request can hold a worker forever
	// (0 = no ceiling). Batch requests are budgeted per target set.
	MaxTimeout time.Duration
	// DefaultWorkers is the P-REMI parallelism used when the request does
	// not set workers (0 or 1 = sequential REMI).
	DefaultWorkers int
	// MaxWorkers clamps request-supplied worker counts (0 = no clamp).
	MaxWorkers int
	// MaxTargets caps the number of target IRIs per mine request — and per
	// target set of a batch request (0 = the built-in default of 64).
	MaxTargets int
	// MaxTopK clamps requested alternative counts (0 = the built-in 25).
	MaxTopK int
	// MaxExceptions clamps the requested exception budget so one request
	// cannot disable the miner's pruning outright (0 = the built-in 100).
	MaxExceptions int
	// MaxBatchSets caps the number of target sets per mine:batch request
	// (0 = the built-in default of 64).
	MaxBatchSets int
	// ResultCache is the capacity (entries) of the LRU of completed mine
	// responses, keyed by the same normalized query key as the in-flight
	// dedup plus the KB name: a repeated identical query is served from
	// memory instead of re-running the search. 0 picks the built-in default
	// of 1024; negative disables the cache. Timed-out (partial) results are
	// never cached, and invalidation is scoped per KB: swapping one KB
	// (SwapKB/SIGHUP) bumps that KB's generation tag, so only its entries
	// become unreachable (they age out of the LRU) while other KBs keep
	// serving from cache.
	ResultCache int
	// JobWorkers is the worker pool executing mining jobs — every mining
	// request (blocking, batch, async, streaming) runs on it (0 = the
	// built-in default of 4).
	JobWorkers int
	// JobQueueDepth bounds how many admitted jobs may wait for a worker;
	// beyond it submissions are shed with 429 + Retry-After (0 = the
	// built-in default of 64).
	JobQueueDepth int
	// JobTTL is how long a finished async job stays pollable before the
	// garbage collector drops it (0 = the built-in default of 5m).
	JobTTL time.Duration
	// WatchdogGrace arms the job watchdog: a mining run that exceeds its
	// effective timeout by this much is failed with a distinct watchdog
	// error and its worker slot is freed, so a wedged evaluator cannot
	// starve the pool. 0 disables the watchdog (runs keep their own
	// timeouts but are never force-killed).
	WatchdogGrace time.Duration
	// InteractiveReserve reserves this many job-queue slots for
	// interactive submissions: batch mining is shed with 429 while only
	// the reserve remains free (0 = no reservation).
	InteractiveReserve int
	// QuotaRate enables per-client admission quotas: each client key (the
	// X-Client-Id header, else the remote IP) refills at this many mining
	// units per second (a single mine costs 1, a batch costs one per
	// target set). 0 disables quotas.
	QuotaRate float64
	// QuotaBurst is the bucket capacity per client (how much a client may
	// burst above its steady rate; 0 picks the built-in default of 10).
	QuotaBurst float64
	// ReloadBackoff is the quarantine after the first failed KB reload;
	// each consecutive failure doubles it up to ReloadBackoffMax
	// (defaults 1s and 5m). Tests shrink these to keep chaos runs fast.
	ReloadBackoff    time.Duration
	ReloadBackoffMax time.Duration
}

const (
	defaultMaxTargets    = 64
	defaultMaxTopK       = 25
	defaultMaxExceptions = 100
	defaultMaxBatchSets  = 64
	defaultResultCache   = 1024
	defaultQuotaBurst    = 10
	defaultReloadBackoff = time.Second
	maxReloadBackoff     = 5 * time.Minute
	defaultSummary       = 5
	maxSummary           = 100
	// maxBodyBytes caps request bodies before decoding so an oversized
	// payload cannot balloon memory ahead of validation.
	maxBodyBytes = 1 << 20
)

type counter struct {
	requests atomic.Int64
	errors   atomic.Int64
}

func (c *counter) stats() EndpointStats {
	return EndpointStats{Requests: c.requests.Load(), Errors: c.errors.Load()}
}

// mineFunc abstracts System.MineContext so tests can substitute a
// controllable miner.
type mineFunc func(ctx context.Context, targets []string, opts ...remi.MineOption) (*remi.Result, error)

// Server handles the REMI HTTP API. Create with New (optionally AddKB more
// knowledge bases) and mount Handler.
type Server struct {
	mu          sync.RWMutex
	kbs         map[string]*kbEntry
	defaultName string

	mine    mineFunc // test override (nil in production)
	opts    Options
	started time.Time
	// jobs is the unified execution subsystem: every mining run — blocking
	// single, batch entry, async, streaming — is a job in this registry,
	// sharing one flight-key namespace and one admission-controlled pool.
	jobs *jobs.Registry

	// quota is the per-client token-bucket layer (nil when disabled).
	quota         *quotaLimiter
	quotaRejected atomic.Int64

	// draining flips at StartDrain: readiness goes 503, mining endpoints
	// refuse new work, in-flight jobs keep running.
	draining atomic.Bool

	// results caches completed mine results by KB-name- and
	// generation-tagged query key (nil when disabled). A KB swap bumps that
	// KB's generation, which makes its cached keys — and its in-flight
	// dedup keys — unreachable without touching entries of other KBs.
	results *lru.Cache[string, *remi.Result]

	cMine       counter
	cFacts      counter
	cCompile    counter
	cMineBatch  counter
	cMineAsync  counter
	cMineStream counter
	cJobs       counter
	cSummarize  counter
	cDescribe   counter
	cStats      counter
	cHealth     counter
	cReady      counter
	cNotFound   counter

	mineRuns    atomic.Int64
	dedupedHits atomic.Int64

	aggMu   sync.Mutex
	agg     MiningStats
	lastRun *MineStats
	lastAt  time.Time
}

// New wraps a loaded System, registered under name (DefaultKBName when
// empty) as the server's default KB.
func New(sys *remi.System, opts Options) *Server { return NewNamed(DefaultKBName, sys, opts) }

// NewNamed is New with an explicit registry name for the default KB.
func NewNamed(name string, sys *remi.System, opts Options) *Server {
	if opts.MaxTargets <= 0 {
		opts.MaxTargets = defaultMaxTargets
	}
	if opts.MaxTopK <= 0 {
		opts.MaxTopK = defaultMaxTopK
	}
	if opts.MaxExceptions <= 0 {
		opts.MaxExceptions = defaultMaxExceptions
	}
	if opts.MaxBatchSets <= 0 {
		opts.MaxBatchSets = defaultMaxBatchSets
	}
	if opts.ResultCache == 0 {
		opts.ResultCache = defaultResultCache
	}
	if opts.QuotaBurst <= 0 {
		opts.QuotaBurst = defaultQuotaBurst
	}
	if opts.ReloadBackoff <= 0 {
		opts.ReloadBackoff = defaultReloadBackoff
	}
	if opts.ReloadBackoffMax <= 0 {
		opts.ReloadBackoffMax = maxReloadBackoff
	}
	if name == "" {
		name = DefaultKBName
	}
	s := &Server{opts: opts, started: time.Now(), kbs: make(map[string]*kbEntry), defaultName: name}
	if err := s.AddKB(name, sys); err != nil {
		// The only failure modes are an invalid or duplicate name; a bad
		// default name is a programming error, not a runtime condition.
		panic("server: " + err.Error())
	}
	if opts.ResultCache > 0 {
		s.results = lru.New[string, *remi.Result](opts.ResultCache)
	}
	s.jobs = jobs.New(jobs.Options{
		Workers:            opts.JobWorkers,
		QueueDepth:         opts.JobQueueDepth,
		TTL:                opts.JobTTL,
		WatchdogGrace:      opts.WatchdogGrace,
		InteractiveReserve: opts.InteractiveReserve,
	})
	if opts.QuotaRate > 0 {
		s.quota = newQuotaLimiter(opts.QuotaRate, opts.QuotaBurst)
	}
	return s
}

// Close stops the job subsystem: queued and running jobs are cancelled,
// workers drained. The HTTP handler must not serve requests afterwards.
func (s *Server) Close() { s.jobs.Close() }

// Handler returns the routing table of the service. Every endpoint is
// mounted twice — at its plain path (serving the KB the request names, or
// the default) and under /v1/kb/{kb}/ — and every non-2xx the mux itself
// would emit as plain text (unknown path, method mismatch) is routed
// through the same JSON error writer as handler-level failures.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	routes := []struct {
		method, path string
		h            http.HandlerFunc
		c            *counter
	}{
		{"POST", "/v1/mine", s.handleMine, &s.cMine},
		{"POST", "/v1/facts", s.handleFacts, &s.cFacts},
		{"POST", "/v1/admin/compile", s.handleCompile, &s.cCompile},
		{"POST", "/v1/mine:batch", s.handleMineBatch, &s.cMineBatch},
		{"POST", "/v1/mine:async", s.handleMineAsync, &s.cMineAsync},
		{"POST", "/v1/mine:stream", s.handleMineStream, &s.cMineStream},
		{"POST", "/v1/summarize", s.handleSummarize, &s.cSummarize},
		{"GET", "/v1/describe", s.handleDescribe, &s.cDescribe},
		{"GET", "/v1/stats", s.handleStats, &s.cStats},
		{"GET", "/healthz", s.handleHealth, &s.cHealth},
		{"GET", "/readyz", s.handleReady, &s.cReady},
	}
	for _, rt := range routes {
		mux.HandleFunc(rt.method+" "+rt.path, rt.h)
		// The method-less pattern catches every other verb on a known path:
		// without it the mux would answer with a plain-text 405.
		mux.HandleFunc(rt.path, s.methodNotAllowed(rt.c, rt.method))
		if rest, ok := strings.CutPrefix(rt.path, "/v1"); ok {
			kbPath := "/v1/kb/{kb}" + rest
			mux.HandleFunc(rt.method+" "+kbPath, rt.h)
			mux.HandleFunc(kbPath, s.methodNotAllowed(rt.c, rt.method))
		}
	}
	// Job lifecycle endpoints are global (a job id already pins its KB), and
	// /v1/jobs/{id} answers two verbs, so they sit outside the table.
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobDelete)
	mux.HandleFunc("/v1/jobs/{id}", s.methodNotAllowed(&s.cJobs, "GET, DELETE"))
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleJobStream)
	mux.HandleFunc("/v1/jobs/{id}/stream", s.methodNotAllowed(&s.cJobs, "GET"))
	// Everything else is an unknown endpoint: JSON 404 instead of the mux's
	// plain-text page, counted under the not_found pseudo-endpoint.
	mux.HandleFunc("/", s.handleNotFound)
	return s.withRequestEnvelope(mux)
}

// withRequestEnvelope wraps the mux with the cross-tier request envelope
// (see package wire): every request gets a request id (accepted or minted)
// visible to handlers via the request header and already stamped on the
// response, and an explicit timeout budget becomes the request context's
// deadline.
func (s *Server) withRequestEnvelope(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		wire.EnsureRequestID(w, r)
		if budget := wire.TimeoutBudget(r); budget > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), budget)
			defer cancel()
			r = r.WithContext(ctx)
		}
		next.ServeHTTP(w, r)
	})
}

// requestIDOf reads the request's id; the envelope guarantees it is set.
func requestIDOf(r *http.Request) string { return r.Header.Get(wire.HeaderRequestID) }

func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	s.cNotFound.requests.Add(1)
	s.writeError(w, &s.cNotFound, http.StatusNotFound,
		fmt.Errorf("no such endpoint %s", r.URL.Path))
}

// methodNotAllowed rejects a known path hit with the wrong verb, counting
// it against the endpoint it belongs to.
func (s *Server) methodNotAllowed(c *counter, allow string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		c.requests.Add(1)
		w.Header().Set("Allow", allow)
		s.writeError(w, c, http.StatusMethodNotAllowed,
			fmt.Errorf("method %s is not allowed on %s (allowed: %s)", r.Method, r.URL.Path, allow))
	}
}

// writeError maps an error to a status and JSON body, counting it.
func (s *Server) writeError(w http.ResponseWriter, c *counter, status int, err error) {
	c.errors.Add(1)
	wire.WriteError(w, status, err)
}

// errStatus classifies request-processing errors.
func errStatus(err error) int {
	switch {
	case errors.Is(err, remi.ErrUnknownEntity):
		return http.StatusNotFound
	case errors.Is(err, ErrUnknownKB):
		return http.StatusNotFound
	case errors.Is(err, errKBConflict):
		return http.StatusBadRequest
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, jobs.ErrSaturated), errors.Is(err, errQuotaExceeded):
		return http.StatusTooManyRequests
	case errors.Is(err, jobs.ErrDraining), errors.Is(err, errDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, jobs.ErrWatchdogKilled):
		return http.StatusGatewayTimeout
	case errors.Is(err, jobs.ErrCancelled), errors.Is(err, jobs.ErrClosed):
		return http.StatusConflict
	case errors.Is(err, jobs.ErrPanicked):
		return http.StatusInternalServerError
	default:
		return http.StatusUnprocessableEntity
	}
}
