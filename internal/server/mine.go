package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	remi "github.com/remi-kb/remi"
	"github.com/remi-kb/remi/internal/faults"
	"github.com/remi-kb/remi/internal/server/jobs"
	"github.com/remi-kb/remi/internal/wire"
)

// This file is the mining plane: validation against the server limits, the
// admission gate, submission into the job subsystem, and the blocking
// handlers (/v1/mine, /v1/summarize, /v1/describe). The batch, async and
// streaming handlers (batch.go, async.go) build on the same pieces.

// metricOptions validates a metric name and returns the matching facade
// options (shared by mine and summarize).
func metricOptions(metric string) ([]remi.MineOption, error) {
	switch wire.CanonicalMetric(metric) {
	case "fr":
		return nil, nil
	case "pr":
		return []remi.MineOption{remi.WithMetric(remi.MetricPr)}, nil
	default:
		return nil, fmt.Errorf("unknown metric %q (fr|pr)", metric)
	}
}

// mineOptions validates the request against the server limits and builds
// the facade options. It also rewrites the request's option fields to their
// effective canonical values (the configured default for unset workers,
// then the tiers' shared alias canonicalisation, then the clamps), so the
// dedup key built afterwards matches every semantically identical query.
func (s *Server) mineOptions(q *wire.MineRequest) ([]remi.MineOption, error) {
	if q.Workers == 0 && s.opts.DefaultWorkers > 0 {
		q.Workers = s.opts.DefaultWorkers
	}
	q.Canonicalize()
	opts, err := metricOptions(q.Metric)
	if err != nil {
		return nil, err
	}
	switch q.Language {
	case "remi":
	case "standard":
		opts = append(opts, remi.WithLanguage(remi.LanguageStandard))
	default:
		return nil, fmt.Errorf("unknown language %q (remi|standard)", q.Language)
	}
	if q.Workers < 0 || q.TopK < 0 || q.Exceptions < 0 || q.TimeoutMS < 0 {
		return nil, errors.New("workers, top_k, exceptions and timeout_ms must be non-negative")
	}
	if s.opts.MaxWorkers > 0 && q.Workers > s.opts.MaxWorkers {
		q.Workers = s.opts.MaxWorkers
	}
	if q.Workers > 1 {
		opts = append(opts, remi.WithWorkers(q.Workers))
	}
	if q.TopK > s.opts.MaxTopK {
		q.TopK = s.opts.MaxTopK
	}
	if q.TopK > 1 {
		opts = append(opts, remi.WithTopK(q.TopK))
	}
	if q.Exceptions > s.opts.MaxExceptions {
		q.Exceptions = s.opts.MaxExceptions
	}
	if q.Exceptions > 0 {
		opts = append(opts, remi.WithExceptions(q.Exceptions))
	}
	timeout := s.opts.DefaultTimeout
	if q.TimeoutMS > 0 {
		timeout = time.Duration(q.TimeoutMS) * time.Millisecond
	}
	if s.opts.MaxTimeout > 0 && (timeout <= 0 || timeout > s.opts.MaxTimeout) {
		timeout = s.opts.MaxTimeout
	}
	q.TimeoutMS = timeout.Milliseconds()
	if timeout > 0 {
		opts = append(opts, remi.WithTimeout(timeout))
	}
	return opts, nil
}

// decode reads a size-capped JSON request body into v. A body that does not
// decode is answered here — 400, or 413 past the cap — against the
// endpoint's counter, and false tells the handler to return.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, c *counter, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) {
		status = http.StatusRequestEntityTooLarge
	}
	s.writeError(w, c, status, fmt.Errorf("decoding request: %w", err))
	return false
}

// mineQuery is a validated single-target-set mining request bound to its
// KB, carrying the facade options and the unified flight/cache key. batch
// marks a batch set, which is admitted at batch priority.
type mineQuery struct {
	e     *kbEntry
	q     wire.MineRequest
	opts  []remi.MineOption
	key   string
	reqID string
	batch bool
}

// prepareMine validates the single query of an already-decoded request
// against the server limits, resolves its KB and builds the flight key. On
// error the returned status is the HTTP code to answer with.
func (s *Server) prepareMine(r *http.Request, q wire.MineRequest) (*mineQuery, int, error) {
	e, err := s.kbFromRequest(r, q.KB)
	if err != nil {
		return nil, errStatus(err), err
	}
	q.KB = e.name
	q.Normalize()
	if len(q.Targets) == 0 {
		return nil, http.StatusBadRequest, errors.New("targets is required")
	}
	if len(q.Targets) > s.opts.MaxTargets {
		return nil, http.StatusBadRequest,
			fmt.Errorf("%d targets exceed the limit of %d", len(q.Targets), s.opts.MaxTargets)
	}
	opts, err := s.mineOptions(&q)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	return &mineQuery{e: e, q: q, opts: opts, key: s.cacheKey(e, q.Key()), reqID: requestIDOf(r)}, 0, nil
}

// cachedResult consults the result LRU (nil-safe).
func (s *Server) cachedResult(key string) (*remi.Result, bool) {
	if s.results == nil {
		return nil, false
	}
	return s.results.Get(key)
}

// jobMeta travels with every job so poll and stream responses can report
// which KB the job ran against — and which request created it — without
// reaching back into the request.
type jobMeta struct {
	kb        string
	requestID string
}

// Job kinds, visible in poll responses.
const (
	jobKindMine      = "mine"
	jobKindMineBatch = "mine_batch"
)

// submitMine admits one single-set mining run into the job subsystem under
// its flight key: concurrent identical queries — blocking, async, streaming
// or batch sets alike — join the same job and share one evaluator pass.
// retain keeps the finished job pollable past the last waiter (async
// submissions); blocking callers let it drop with their interest. The
// watchdog deadline is the run's own timeout, and a batch set is admitted
// at batch priority.
func (s *Server) submitMine(mq *mineQuery, retain bool) (*jobs.Job, bool, error) {
	prio := jobs.PriorityInteractive
	if mq.batch {
		prio = jobs.PriorityBatch
	}
	return s.jobs.Submit(jobs.SubmitOpts{
		Key:      mq.key,
		Kind:     jobKindMine,
		Meta:     jobMeta{kb: mq.e.name, requestID: mq.reqID},
		Retain:   retain,
		Priority: prio,
		Deadline: s.jobDeadline(time.Duration(mq.q.TimeoutMS) * time.Millisecond),
		Run:      s.mineRun(mq),
	})
}

// jobDeadline converts a run's effective timeout into a watchdog deadline.
// With the watchdog disabled (no grace configured) every deadline is zero,
// so runs keep their cooperative timeouts but are never force-killed —
// exactly the pre-watchdog behavior.
func (s *Server) jobDeadline(timeout time.Duration) time.Duration {
	if s.opts.WatchdogGrace <= 0 {
		return 0
	}
	return timeout
}

// mineRun is the pool-executed body of a single-set mining job. Each new
// incumbent is emitted into the job's event log for streaming subscribers;
// the completed result feeds the stats aggregates and the result LRU exactly
// as the blocking path always did.
func (s *Server) mineRun(mq *mineQuery) jobs.RunFunc {
	return func(ctx context.Context, j *jobs.Job) (any, error) {
		// Chaos hooks: a wedged evaluator (ignores ctx until disarmed) and an
		// evaluator bug (panic → ErrPanicked → 500). One atomic load each
		// while disarmed.
		if err := faults.Fire(ctx, faults.JobStuck); err != nil {
			return nil, err
		}
		if err := faults.Fire(ctx, faults.MinePanic); err != nil {
			return nil, err
		}
		s.mineRuns.Add(1)
		opts := append(mq.opts[:len(mq.opts):len(mq.opts)], remi.WithProgress(func(p remi.Progress) {
			j.Emit(streamProgress, StreamEvent{Event: streamProgress,
				Kind: p.Kind, Expression: p.Expression, Bits: p.Bits})
		}))
		// The System is read when the run starts and held until it returns,
		// so a set queued across a swap mines on the current generation.
		// The test override, when set, replaces the search.
		h := mq.e.acquire()
		defer h.release()
		mine := h.sys.MineContext
		if s.mine != nil {
			mine = s.mine
		}
		res, err := mine(ctx, mq.q.Targets, opts...)
		if err == nil {
			s.recordRun(res)
			// Only complete searches are worth remembering: a timed-out run
			// holds whatever the deadline allowed, and a retry with more
			// budget deserves a fresh search.
			if s.results != nil && !res.Stats.TimedOut {
				s.results.Put(mq.key, res)
			}
		}
		return res, err
	}
}

// submitFailed answers a refused job submission: pool saturation is a 429
// with a Retry-After hint derived from the pool's average run time and
// current backlog; everything else maps through errStatus.
func (s *Server) submitFailed(w http.ResponseWriter, c *counter, err error) {
	if errors.Is(err, jobs.ErrSaturated) {
		wire.SetRetryAfter(w, s.jobs.RetryAfter())
	}
	s.writeError(w, c, errStatus(err), err)
}

// admitMining is the gate every mining endpoint passes before doing work:
// a draining server refuses with 503 (the instance is going away), then the
// client's quota bucket is charged units (1 per single mine, 1 per batch
// target set). A quota rejection answers 429 with a Retry-After derived
// from the client's own deficit — deliberately distinct from the pool-wide
// backlog estimate a saturation 429 carries.
func (s *Server) admitMining(w http.ResponseWriter, r *http.Request, c *counter, units int) bool {
	if s.draining.Load() {
		s.writeError(w, c, http.StatusServiceUnavailable, errDraining)
		return false
	}
	if s.quota == nil {
		return true
	}
	key := clientKey(r)
	ok, retry := s.quota.allow(key, float64(units))
	if ok {
		return true
	}
	s.quotaRejected.Add(1)
	wire.SetRetryAfter(w, retry)
	s.writeError(w, c, http.StatusTooManyRequests,
		fmt.Errorf("%w for client %q", errQuotaExceeded, key))
	return false
}

func (s *Server) handleMine(w http.ResponseWriter, r *http.Request) {
	s.cMine.requests.Add(1)
	var q wire.MineRequest
	if !s.decode(w, r, &s.cMine, &q) {
		return
	}
	if !s.admitMining(w, r, &s.cMine, 1) {
		return
	}
	mq, status, err := s.prepareMine(r, q)
	if err != nil {
		s.writeError(w, &s.cMine, status, err)
		return
	}
	if res, ok := s.cachedResult(mq.key); ok {
		wire.WriteJSON(w, http.StatusOK, wireResult(res, false, true))
		return
	}
	j, joined, err := s.submitMine(mq, false)
	if err != nil {
		s.submitFailed(w, &s.cMine, err)
		return
	}
	if joined {
		s.dedupedHits.Add(1)
	}
	v, err := s.jobs.Wait(r.Context(), j)
	if err != nil {
		s.writeError(w, &s.cMine, errStatus(err), err)
		return
	}
	wire.WriteJSON(w, http.StatusOK, wireResult(v.(*remi.Result), joined, false))
}

func (s *Server) handleSummarize(w http.ResponseWriter, r *http.Request) {
	s.cSummarize.requests.Add(1)
	var q SummarizeRequest
	if !s.decode(w, r, &s.cSummarize, &q) {
		return
	}
	e, err := s.kbFromRequest(r, q.KB)
	if err != nil {
		s.writeError(w, &s.cSummarize, errStatus(err), err)
		return
	}
	if q.Entity == "" {
		s.writeError(w, &s.cSummarize, http.StatusBadRequest, errors.New("entity is required"))
		return
	}
	if q.Size <= 0 {
		q.Size = defaultSummary
	}
	if q.Size > maxSummary {
		q.Size = maxSummary
	}
	opts, err := metricOptions(q.Metric)
	if err != nil {
		s.writeError(w, &s.cSummarize, http.StatusBadRequest, err)
		return
	}
	h := e.acquire()
	defer h.release()
	entries, err := h.sys.SummarizeContext(r.Context(), q.Entity, q.Size, opts...)
	if err != nil {
		s.writeError(w, &s.cSummarize, errStatus(err), err)
		return
	}
	out := SummarizeResponse{Entity: q.Entity, Features: make([]Feature, len(entries))}
	for i, en := range entries {
		out.Features[i] = Feature{Predicate: en.Predicate, Object: en.Object}
	}
	wire.WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleDescribe(w http.ResponseWriter, r *http.Request) {
	s.cDescribe.requests.Add(1)
	e, err := s.kbFromRequest(r, "")
	if err != nil {
		s.writeError(w, &s.cDescribe, errStatus(err), err)
		return
	}
	entity := r.URL.Query().Get("entity")
	if entity == "" {
		s.writeError(w, &s.cDescribe, http.StatusBadRequest, errors.New("query parameter entity is required"))
		return
	}
	h := e.acquire()
	defer h.release()
	label, err := h.sys.Describe(entity)
	if err != nil {
		s.writeError(w, &s.cDescribe, errStatus(err), err)
		return
	}
	wire.WriteJSON(w, http.StatusOK, DescribeResponse{Entity: entity, Label: label})
}
