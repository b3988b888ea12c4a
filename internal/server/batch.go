package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"

	remi "github.com/remi-kb/remi"
	"github.com/remi-kb/remi/internal/server/jobs"
	"github.com/remi-kb/remi/internal/wire"
)

// batchPlan is one validated mine:batch request decomposed into per-set
// outcomes: validation failures and cache hits are answered in place,
// repeats collapse onto their first occurrence, and the remainder becomes
// ordinary mine jobs in the unified registry — joinable by (and joining)
// every other mining path.
type batchPlan struct {
	e      *kbEntry
	shared wire.MineRequest
	opts   []remi.MineOption
	reqID  string

	items      []BatchMineItem
	agg        BatchMineStats
	keyOf      []string
	firstOfKey map[string]int
	runIdx     []int      // first-occurrence indexes that need mining
	runSets    [][]string // their normalized target sets

	waits  map[int]*jobs.Job // mine job per admitted runnable index
	joined map[int]bool      // the set joined a foreign in-flight run
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
		p.agg.CacheHits += item.Response.Stats.CacheHits
		p.agg.CacheMisses += item.Response.Stats.CacheMisses
	}
}

// buildBatchPlan validates the request and runs pass 1 over its sets:
// normalize each set, collapse in-batch repeats onto the first occurrence
// of their key, serve cache hits, and collect the sets that actually need
// mining. On error the returned status is the HTTP code to answer with.
func (s *Server) buildBatchPlan(r *http.Request, shared wire.MineRequest) (*batchPlan, int, error) {
	sets := shared.Sets
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
		qi.Normalize()
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
		key := s.cacheKey(e, qi.Key())
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

// submitBatchJobs submits each runnable set as an ordinary mine job under
// the flight key single /v1/mine requests use — so a batch set joins a mine
// already in flight, and a later single request joins a batch set. A set
// the queue refuses gets its own error entry; only when no new set was
// admitted does the whole request fail, with every planned reference
// released.
func (s *Server) submitBatchJobs(p *batchPlan) error {
	var refused error
	admitted := false
	for pos, i := range p.runIdx {
		q := p.shared
		q.Targets = p.runSets[pos]
		j, joined, err := s.submitMine(&mineQuery{e: p.e, q: q, opts: p.opts,
			key: p.keyOf[i], reqID: p.reqID, batch: true}, false)
		if err != nil {
			refused = err
			p.fill(i, BatchMineItem{Error: err.Error(), Status: errStatus(err)})
			continue
		}
		p.waits[i] = j
		if joined {
			p.joined[i] = true
			s.dedupedHits.Add(1)
		} else {
			admitted = true
		}
	}
	if refused != nil && !admitted {
		s.releaseBatch(p)
		return refused
	}
	return nil
}

// releaseBatch drops the plan's job references without waiting (error paths
// that answer before collecting).
func (s *Server) releaseBatch(p *batchPlan) {
	for _, j := range p.waits {
		s.jobs.Release(j)
	}
	p.waits = make(map[int]*jobs.Job)
}

// entryEvent wires one batch entry as a stream event.
func entryEvent(i int, item BatchMineItem) StreamEvent {
	idx := i
	return StreamEvent{Event: streamEntry, Index: &idx,
		Response: item.Response, Error: item.Error, Status: item.Status}
}

// streamEntries runs a submitted batch plan to the end, filling p.items and
// emitting one entry event per input set (never concurrently): the entries
// known before mining (validation failures, cache hits, refused sets)
// first, then mine completions in finish order, then the in-batch repeats
// of finished sets. It returns ctx.Err() when the caller's context ended
// first; job references are dropped either way, so undelivered runs are
// abandoned per the registry's interest rules.
func (s *Server) streamEntries(ctx context.Context, p *batchPlan, emit func(StreamEvent)) error {
	for i := range p.items {
		if p.items[i].Response != nil || p.items[i].Error != "" {
			emit(entryEvent(i, p.items[i]))
		}
	}
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
		p.fill(o.i, o.item)
		emit(entryEvent(o.i, o.item))
	}
	p.fillRepeats()
	if err := ctx.Err(); err != nil {
		return err
	}
	for i := range p.items {
		if key := p.keyOf[i]; key != "" && p.firstOfKey[key] != i {
			emit(entryEvent(i, p.items[i]))
		}
	}
	return nil
}

// fillRepeats fills the repeat entries: duplicates of an earlier set share
// its outcome, flagged as deduplicated (error outcomes are shared
// verbatim).
func (p *batchPlan) fillRepeats() {
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
// JSON document with one entry per input set, order-preserving. Per-set
// failures (empty set, oversized set, unknown entity, a set the queue
// refused) occupy their own entry and never fail the batch. Each runnable
// set is an ordinary mine job in the unified registry, so identical work in
// flight anywhere — a single mine, another batch, an async job — is joined
// rather than repeated.
func (s *Server) handleMineBatch(w http.ResponseWriter, r *http.Request) {
	s.cMineBatch.requests.Add(1)
	var q wire.MineRequest
	if !s.decode(w, r, &s.cMineBatch, &q) {
		return
	}
	if !s.admitMining(w, r, &s.cMineBatch, len(q.Sets)) {
		return
	}
	p, status, err := s.buildBatchPlan(r, q)
	if err != nil {
		s.writeError(w, &s.cMineBatch, status, err)
		return
	}
	if err := s.submitBatchJobs(p); err != nil {
		s.submitFailed(w, &s.cMineBatch, err)
		return
	}
	if err := s.streamEntries(r.Context(), p, func(StreamEvent) {}); err != nil {
		// The client went away (or its deadline passed) mid-batch: the
		// per-set results are partial at best, and nobody is reading.
		s.writeError(w, &s.cMineBatch, errStatus(err), err)
		return
	}
	wire.WriteJSON(w, http.StatusOK, BatchMineResponse{KB: p.e.name, Results: p.items, Stats: p.agg})
}
