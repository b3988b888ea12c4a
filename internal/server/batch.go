package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	remi "github.com/remi-kb/remi"
	"github.com/remi-kb/remi/internal/faults"
	"github.com/remi-kb/remi/internal/server/jobs"
	"github.com/remi-kb/remi/internal/wire"
)

// errBatchAborted finalizes batch members whose mining phase exited before
// delivering them (phase failure, cancellation, panic).
var errBatchAborted = errors.New("batch mining phase aborted")

// batchPlan is one validated mine:batch request decomposed into per-set
// outcomes: validation failures and cache hits are answered in place,
// repeats collapse onto their first occurrence, and the remainder becomes
// member jobs in the unified registry — joinable by (and joining) every
// other mining path — mined together by one pool-executed phase job.
type batchPlan struct {
	e      *kbEntry
	shared MineRequest
	opts   []remi.MineOption
	reqID  string

	items      []BatchMineItem
	agg        BatchMineStats
	keyOf      []string
	firstOfKey map[string]int
	runIdx     []int      // first-occurrence indexes that need mining
	runSets    [][]string // their normalized target sets

	waits  map[int]*jobs.Job // member job per runnable index
	joined map[int]bool      // member joined a foreign in-flight run
	phase  *jobs.Job         // pool job mining the new members (nil if none)
}

// fill records one per-set outcome into its slot and aggregate bucket.
func (p *batchPlan) fill(i int, item BatchMineItem) {
	p.items[i] = item
	switch {
	case item.Response == nil:
		p.agg.Errors++
	case item.Response.Deduplicated:
		p.agg.Deduplicated++
	case item.Response.Cached:
		p.agg.Cached++
	default:
		p.agg.Mined++
		p.agg.QueueBuildMS += item.Response.Stats.QueueBuildMS
		p.agg.SearchMS += item.Response.Stats.SearchMS
	}
}

// buildBatchPlan validates the request and runs pass 1: normalize each set,
// collapse in-batch repeats onto the first occurrence of their key, serve
// cache hits, and collect the sets that actually need mining. On error the
// returned status is the HTTP code to answer with.
func (s *Server) buildBatchPlan(r *http.Request, sets [][]string, shared MineRequest) (*batchPlan, int, error) {
	e, err := s.kbFromRequest(r, shared.KB)
	if err != nil {
		return nil, errStatus(err), err
	}
	if len(sets) == 0 {
		return nil, http.StatusBadRequest, errors.New("sets is required")
	}
	if len(sets) > s.opts.MaxBatchSets {
		return nil, http.StatusBadRequest,
			fmt.Errorf("%d sets exceed the batch limit of %d", len(sets), s.opts.MaxBatchSets)
	}
	// Validate and canonicalize the shared options once; the canonical
	// fields then feed every per-set dedup/cache key.
	shared.KB = e.name
	opts, err := s.mineOptions(&shared)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	p := &batchPlan{
		e:          e,
		shared:     shared,
		opts:       opts,
		reqID:      requestIDOf(r),
		items:      make([]BatchMineItem, len(sets)),
		agg:        BatchMineStats{Sets: len(sets)},
		keyOf:      make([]string, len(sets)),
		firstOfKey: make(map[string]int, len(sets)),
		waits:      make(map[int]*jobs.Job),
		joined:     make(map[int]bool),
	}
	for i, targets := range sets {
		qi := shared
		qi.Targets = targets
		qi.normalize()
		if len(qi.Targets) == 0 {
			p.fill(i, BatchMineItem{Error: "targets is required", Status: http.StatusBadRequest})
			continue
		}
		if len(qi.Targets) > s.opts.MaxTargets {
			p.fill(i, BatchMineItem{
				Error:  fmt.Sprintf("%d targets exceed the limit of %d", len(qi.Targets), s.opts.MaxTargets),
				Status: http.StatusBadRequest,
			})
			continue
		}
		key := s.cacheKey(e, qi.key())
		p.keyOf[i] = key
		if _, ok := p.firstOfKey[key]; ok {
			continue // filled from the first occurrence in the repeats pass
		}
		p.firstOfKey[key] = i
		if res, ok := s.cachedResult(key); ok {
			p.fill(i, BatchMineItem{Response: wireResult(res, false, true)})
			continue
		}
		p.runIdx = append(p.runIdx, i)
		p.runSets = append(p.runSets, qi.Targets)
	}
	return p, 0, nil
}

// submitBatchJobs registers the plan's runnable sets in the unified
// registry: each becomes an externally-executed member job under the same
// flight key single /v1/mine requests use — so a batch entry joins a mine
// already in flight, and a later single request joins a batch entry — and
// the genuinely new members are mined by one pool-executed phase job they
// are bound to. On error nothing is left running and every planned member
// reference is released.
func (s *Server) submitBatchJobs(p *batchPlan) error {
	var newIdx []int
	var newSets [][]string
	var members []*jobs.Job
	// The watchdog bound covers the whole phase: per-set budgets overlap
	// under concurrency, so serial execution of every new set is the worst
	// honest case — anything past that is a wedged evaluator. Members share
	// the phase bound (a member may legitimately finish last in the batch).
	phaseDeadline := s.jobDeadline(time.Duration(p.shared.TimeoutMS) * time.Millisecond * time.Duration(len(p.runIdx)))
	for pos, i := range p.runIdx {
		j, joined := s.jobs.External(jobs.SubmitOpts{
			Key:      p.keyOf[i],
			Kind:     jobKindMine,
			Meta:     jobMeta{kb: p.e.name, requestID: p.reqID},
			Deadline: phaseDeadline,
		})
		p.waits[i] = j
		if joined {
			p.joined[i] = true
			s.dedupedHits.Add(1)
			continue
		}
		newIdx = append(newIdx, i)
		newSets = append(newSets, p.runSets[pos])
		members = append(members, j)
	}
	if len(members) == 0 {
		return nil
	}
	phase, _, err := s.jobs.Submit(jobs.SubmitOpts{
		Kind:     jobKindBatchPhase,
		Meta:     jobMeta{kb: p.e.name, requestID: p.reqID},
		Run:      s.batchPhaseRun(p, newIdx, newSets, members),
		Priority: jobs.PriorityBatch,
		Deadline: phaseDeadline,
	})
	if err != nil {
		for _, m := range members {
			m.Complete(nil, err)
		}
		s.releaseBatch(p)
		return err
	}
	for _, m := range members {
		s.jobs.Bind(m, phase)
	}
	p.phase = phase
	return nil
}

// releaseBatch drops the plan's job references without waiting (error paths
// that answer before collecting).
func (s *Server) releaseBatch(p *batchPlan) {
	for _, j := range p.waits {
		s.jobs.Release(j)
	}
	p.waits = make(map[int]*jobs.Job)
	if p.phase != nil {
		s.jobs.Release(p.phase)
		p.phase = nil
	}
}

// batchPhaseRun mines the plan's new member sets in one facade pass — one
// miner whose evaluator cache stays warm across the sets, fanned across as
// many goroutines as the job pool has workers — and completes each member as
// its set finishes, so waiters (this batch's collector, joined single
// requests, other batches) unblock per set rather than per batch.
func (s *Server) batchPhaseRun(p *batchPlan, idx []int, sets [][]string, members []*jobs.Job) jobs.RunFunc {
	return func(ctx context.Context, phase *jobs.Job) (any, error) {
		defer func() {
			// Whatever ends this run — error, cancellation, panic — no member
			// may dangle unfinished. Complete is a no-op on delivered ones.
			cause := errBatchAborted
			if err := ctx.Err(); err != nil {
				cause = fmt.Errorf("%w: %v", errBatchAborted, err)
			}
			for _, m := range members {
				m.Complete(nil, cause)
			}
		}()
		// Chaos hooks after the containment defer: an injected panic or wedge
		// must exercise the same member cleanup a real evaluator bug would.
		if err := faults.Fire(ctx, faults.JobStuck); err != nil {
			return nil, err
		}
		if err := faults.Fire(ctx, faults.MinePanic); err != nil {
			return nil, err
		}
		bopts := append(p.opts[:len(p.opts):len(p.opts)], remi.WithBatchConcurrency(s.jobs.Snapshot().Workers))
		br, err := s.mineBatchContext(p.e, ctx, sets, func(bi int, entry remi.BatchEntry) {
			m := members[bi]
			if entry.Err != nil {
				m.Complete(nil, entry.Err)
				return
			}
			res := entry.Result
			s.mineRuns.Add(1)
			s.recordRun(res, false)
			if s.results != nil && !res.Stats.TimedOut {
				s.results.Put(p.keyOf[idx[bi]], res)
			}
			m.Complete(res, nil)
		}, bopts...)
		if err != nil {
			return nil, err
		}
		// Cache traffic is folded once from the exact whole-batch totals
		// (per-entry counters can attribute a concurrent neighbor's lookups
		// and would overcount).
		s.recordBatchCache(br.CacheHits, br.CacheMisses)
		return br, nil
	}
}

// collectBatch waits for every member job and delivers outcomes in
// completion order through deliver (never concurrently). It returns
// ctx.Err() when the caller's context ended first; member references are
// dropped either way, so undelivered runs are abandoned per the registry's
// interest rules.
func (s *Server) collectBatch(ctx context.Context, p *batchPlan, deliver func(i int, item BatchMineItem)) error {
	type outcome struct {
		i    int
		item BatchMineItem
	}
	ch := make(chan outcome)
	var wg sync.WaitGroup
	for i, j := range p.waits {
		wg.Add(1)
		go func(i int, j *jobs.Job) {
			defer wg.Done()
			v, err := s.jobs.Wait(ctx, j)
			var item BatchMineItem
			if err != nil {
				item = BatchMineItem{Error: err.Error(), Status: errStatus(err)}
			} else {
				item = BatchMineItem{Response: wireResult(v.(*remi.Result), p.joined[i], false)}
			}
			select {
			case ch <- outcome{i, item}:
			case <-ctx.Done():
			}
		}(i, j)
	}
	go func() { wg.Wait(); close(ch) }()
	for o := range ch {
		deliver(o.i, o.item)
	}
	return ctx.Err()
}

// finishBatch waits out the phase job for the exact whole-batch evaluator
// totals and fills the repeat entries: duplicates of an earlier set share
// its outcome, flagged as deduplicated (error outcomes are shared
// verbatim). Safe with a nil phase or an already-ended context.
func (s *Server) finishBatch(ctx context.Context, p *batchPlan) {
	if p.phase != nil {
		if v, err := s.jobs.Wait(ctx, p.phase); err == nil {
			if br, ok := v.(*remi.BatchResult); ok && br != nil {
				p.agg.CacheHits, p.agg.CacheMisses = br.CacheHits, br.CacheMisses
			}
		}
		p.phase = nil
	}
	for i := range p.items {
		key := p.keyOf[i]
		if key == "" {
			continue // per-set validation error, already filled
		}
		first := p.firstOfKey[key]
		if first == i {
			continue
		}
		src := p.items[first]
		if src.Response != nil {
			dup := *src.Response
			dup.Deduplicated = true
			p.fill(i, BatchMineItem{Response: &dup})
		} else {
			p.fill(i, src)
		}
	}
}

// handleMineBatch is POST /v1/mine:batch: many target sets, one KB, one
// shared mining pass, one JSON document with one entry per input set,
// order-preserving. Per-set failures (empty set, oversized set, unknown
// entity) occupy their own entry and never fail the batch. Each runnable
// set is a member job in the unified registry, so identical work in flight
// anywhere — a single mine, another batch, an async job — is joined rather
// than repeated; the new sets share one mining phase on the worker pool.
func (s *Server) handleMineBatch(w http.ResponseWriter, r *http.Request) {
	s.cMineBatch.requests.Add(1)
	var q BatchMineRequest
	if !s.decode(w, r, &s.cMineBatch, &q) {
		return
	}
	if !s.admitMining(w, r, &s.cMineBatch, len(q.Sets)) {
		return
	}
	p, status, err := s.buildBatchPlan(r, q.Sets, q.shared())
	if err != nil {
		s.writeError(w, &s.cMineBatch, status, err)
		return
	}
	if err := s.submitBatchJobs(p); err != nil {
		s.submitFailed(w, &s.cMineBatch, err)
		return
	}
	ctxErr := s.collectBatch(r.Context(), p, p.fill)
	s.finishBatch(r.Context(), p)
	if ctxErr != nil {
		// The client went away (or its deadline passed) mid-batch: the
		// per-set results are partial at best, and nobody is reading.
		s.writeError(w, &s.cMineBatch, errStatus(ctxErr), ctxErr)
		return
	}
	wire.WriteJSON(w, http.StatusOK, BatchMineResponse{KB: p.e.name, Results: p.items, Stats: p.agg})
}
