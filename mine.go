package remi

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/remi-kb/remi/internal/complexity"
	"github.com/remi-kb/remi/internal/core"
	"github.com/remi-kb/remi/internal/expr"
	"github.com/remi-kb/remi/internal/kb"
	"github.com/remi-kb/remi/internal/rdf"
	"github.com/remi-kb/remi/internal/summarize"
)

// ErrUnknownEntity is wrapped by Mine, Summarize and Describe when a target
// IRI does not name an entity of the loaded KB; test with errors.Is.
var ErrUnknownEntity = errors.New("remi: unknown entity")

// ErrEmptyTargetSet marks a target set with no entities inside a MineBatch
// call (the per-set analogue of the error Mine returns for empty input).
var ErrEmptyTargetSet = errors.New("remi: empty target set")

// ErrMinePanicked marks a per-set mining panic recovered inside MineBatch:
// the failing set carries this error while the rest of the batch completes.
var ErrMinePanicked = errors.New("remi: mining run panicked")

// MineOption customizes one Mine or Summarize call.
type MineOption func(*mineConfig)

type mineConfig struct {
	metric     Metric
	language   Language
	workers    int
	timeout    time.Duration
	topK       int
	exact      bool
	exceptions int
	batchConc  int
	progress   func(Progress)
}

func defaultMineConfig() mineConfig {
	return mineConfig{metric: MetricFr, language: LanguageExtended, workers: 1}
}

// WithMetric selects Ĉfr (default) or Ĉpr.
func WithMetric(m Metric) MineOption { return func(c *mineConfig) { c.metric = m } }

// WithLanguage selects REMI's extended bias (default) or the standard bias.
func WithLanguage(l Language) MineOption { return func(c *mineConfig) { c.language = l } }

// WithWorkers enables P-REMI with n parallel exploration threads.
func WithWorkers(n int) MineOption { return func(c *mineConfig) { c.workers = n } }

// WithTimeout bounds the mining call (0 = unlimited). Inside MineBatch the
// budget applies per target set, not to the batch as a whole.
func WithTimeout(d time.Duration) MineOption { return func(c *mineConfig) { c.timeout = d } }

// WithBatchConcurrency bounds the worker pool MineBatch fans its target sets
// across (0 = GOMAXPROCS, 1 = serial). Ignored by Mine and MineContext.
func WithBatchConcurrency(n int) MineOption { return func(c *mineConfig) { c.batchConc = n } }

// WithTopK also returns the k-1 next-best referring expressions.
func WithTopK(k int) MineOption { return func(c *mineConfig) { c.topK = k } }

// WithExactRanks disables the Eq. 1 power-law rank compression and uses the
// exact conditional rankings (slower to build, slightly sharper Ĉ).
func WithExactRanks() MineOption { return func(c *mineConfig) { c.exact = true } }

// Progress is one coarse search-progress notification delivered to a
// WithProgress subscriber while a mine is still running.
type Progress struct {
	// Kind currently is always "new_best": the search's incumbent solution
	// improved. More kinds may be added; subscribers should ignore unknown
	// ones.
	Kind string
	// Expression is the formal rendering of the new incumbent.
	Expression string
	// Bits is its estimated complexity Ĉ.
	Bits float64
}

// WithProgress streams coarse search progress (currently: each improvement
// of the incumbent solution) to fn while the mine runs. Delivery is
// synchronous from the search loop, so fn must be fast; it is driven by the
// sequential miner only (WithWorkers > 1 mines without progress events).
// The subscription is mask-narrowed inside the core, so it adds no per-node
// allocations to the search hot path. Within MineBatch, sets may run
// concurrently and share fn, which must then be safe for concurrent use.
func WithProgress(fn func(Progress)) MineOption { return func(c *mineConfig) { c.progress = fn } }

// Solution is one referring expression with its complexity and renderings.
type Solution struct {
	// Expression is the formal rendering, e.g.
	// "cityIn(x, France) ∧ mayor(x, y) ∧ party(y, Socialist)".
	Expression string
	// Subgraphs lists the component subgraph expressions.
	Subgraphs []string
	// NL is an automatic English verbalization.
	NL string
	// SPARQL is an equivalent SELECT query over the original data (inverse
	// predicates are folded back into base triple patterns).
	SPARQL string
	// Bits is the estimated Kolmogorov complexity Ĉ.
	Bits float64
	// Atoms counts atoms across the expression.
	Atoms int
}

// MineStats summarizes the search effort.
type MineStats struct {
	Candidates  int
	QueueBuild  time.Duration
	Search      time.Duration
	Visited     uint64
	RETests     uint64
	TimedOut    bool
	CacheHits   uint64
	CacheMisses uint64
}

// Result is the outcome of one Mine call.
type Result struct {
	// Found is false when no referring expression exists for the targets.
	Found bool
	// Solution is the least complex RE (zero value when Found is false).
	Solution
	// Alternatives holds the next-best REs when WithTopK was used.
	Alternatives []Solution
	// Exceptions lists the extra entities matched when WithExceptions
	// allowed a relaxed RE (empty for strict REs).
	Exceptions []string
	Stats      MineStats
}

// Mine returns the most intuitive referring expression for the target
// entities, identified by their IRIs.
func (s *System) Mine(targetIRIs []string, opts ...MineOption) (*Result, error) {
	return s.MineContext(context.Background(), targetIRIs, opts...)
}

// MineContext is Mine under a caller-controlled context: cancellation or a
// context deadline stops the underlying search promptly (the partial result
// is returned with Stats.TimedOut set), so servers can tie a mining run to
// the lifetime of an HTTP request. WithTimeout still applies on top of ctx;
// whichever limit fires first ends the run.
func (s *System) MineContext(ctx context.Context, targetIRIs []string, opts ...MineOption) (*Result, error) {
	cfg := defaultMineConfig()
	for _, o := range opts {
		o(&cfg)
	}
	targets := make([]kb.EntID, 0, len(targetIRIs))
	for _, iri := range targetIRIs {
		id, ok := s.kb.EntityID(rdf.NewIRI(iri))
		if !ok {
			return nil, fmt.Errorf("%w %q", ErrUnknownEntity, iri)
		}
		targets = append(targets, id)
	}

	est, err := s.estimator(cfg)
	if err != nil {
		return nil, err
	}
	miner := core.NewMiner(s.kb, est, s.coreConfig(cfg))
	res, err := miner.MineContext(ctx, targets)
	if err != nil {
		return nil, err
	}
	return s.resultOf(res, cfg, targets), nil
}

// resultOf converts a core result to the facade form (renderings, SPARQL,
// exceptions) — the single conversion shared by MineContext and MineBatch,
// so batch responses are byte-identical to sequential ones.
func (s *System) resultOf(res *core.Result, cfg mineConfig, targets []kb.EntID) *Result {
	out := &Result{
		Found: res.Found(),
		Stats: MineStats{
			Candidates:  res.Stats.Candidates,
			QueueBuild:  res.Stats.QueueBuild,
			Search:      res.Stats.Search,
			Visited:     res.Stats.Visited,
			RETests:     res.Stats.RETests,
			TimedOut:    res.Stats.TimedOut,
			CacheHits:   res.Stats.CacheHits,
			CacheMisses: res.Stats.CacheMisses,
		},
	}
	if res.Found() {
		out.Solution = s.solution(res.Expression, res.Bits)
		for _, alt := range res.Solutions[1:] {
			out.Alternatives = append(out.Alternatives, s.solution(alt.Expression, alt.Bits))
		}
		if cfg.exceptions > 0 {
			out.Exceptions = s.exceptionsOf(res.Expression, targets)
		}
	}
	return out
}

// BatchEntry is the outcome of one target set of a MineBatch call.
type BatchEntry struct {
	// Result is set when the set was mined (or shared a search with an
	// identical set); nil when Err is set.
	Result *Result
	// Err isolates per-set failures: an unknown target IRI
	// (ErrUnknownEntity) or an empty set (ErrEmptyTargetSet). Other sets of
	// the batch are unaffected.
	Err error
	// Deduplicated marks a set served by an identical earlier set of the
	// same batch.
	Deduplicated bool
}

// BatchResult is the outcome of MineBatch: one entry per input set, in
// input order, plus batch-level aggregates.
type BatchResult struct {
	Entries []BatchEntry
	// Deduped counts entries served by an identical earlier set.
	Deduped int
	// QueueBuild and Search sum the per-set phase times of the searches the
	// batch actually executed (deduplicated sets add nothing).
	QueueBuild time.Duration
	Search     time.Duration
	// CacheHits and CacheMisses are the exact evaluator totals across the
	// whole batch. Per-entry stats carry per-set deltas, which may
	// attribute a concurrent neighbor's lookups; these totals never
	// double-count.
	CacheHits   uint64
	CacheMisses uint64
}

// MineBatch mines a referring expression for every target set in one call.
// A single miner serves the whole batch, so the per-KB work that repeated
// MineContext calls would redo is shared: the evaluator's binding-set cache
// stays warm across sets (striped with miss coalescing when sets run
// concurrently — see WithBatchConcurrency), identical sets collapse onto one
// search, and sets sharing their first target share the candidate
// enumeration behind the queue build. Per-set results are byte-identical to
// sequential MineContext calls.
//
// Failures are isolated per set (BatchEntry.Err); MineBatch itself errors
// only on invalid options. Cancelling ctx stops every set; WithTimeout
// budgets each set separately.
func (s *System) MineBatch(ctx context.Context, targetSets [][]string, opts ...MineOption) (*BatchResult, error) {
	return s.MineBatchEach(ctx, targetSets, nil, opts...)
}

// MineBatchEach is MineBatch with per-set streaming delivery: each is
// invoked once per input set, as soon as that set's entry is known, while
// later sets may still be mining. Invocations are serialized — never
// concurrent with each other — so the callback may write shared state
// without locking; entries for invalid sets (unknown IRI, empty set) are
// delivered before any search starts. The returned BatchResult still holds
// every entry in input order. A nil each makes it exactly MineBatch.
func (s *System) MineBatchEach(ctx context.Context, targetSets [][]string, each func(i int, e BatchEntry), opts ...MineOption) (*BatchResult, error) {
	cfg := defaultMineConfig()
	for _, o := range opts {
		o(&cfg)
	}
	est, err := s.estimator(cfg)
	if err != nil {
		return nil, err
	}
	miner := core.NewMiner(s.kb, est, s.coreConfig(cfg))

	idSets := make([][]kb.EntID, len(targetSets))
	resolveErrs := make([]error, len(targetSets))
	for i, iris := range targetSets {
		ids := make([]kb.EntID, 0, len(iris))
		for _, iri := range iris {
			id, ok := s.kb.EntityID(rdf.NewIRI(iri))
			if !ok {
				resolveErrs[i] = fmt.Errorf("%w %q", ErrUnknownEntity, iri)
				ids = nil
				break
			}
			ids = append(ids, id)
		}
		idSets[i] = ids // nil/empty sets come back as ErrNoTargets outcomes
	}

	// entryOf maps one core outcome to the facade entry. Result conversion
	// is cached per *core.Result (in-batch repeats share it), so calling it
	// twice for a slot — once for streaming, once for the returned slice —
	// does the expensive rendering work only once. The core serializes each
	// callbacks, so convMu only guards against the final assembly loop.
	var convMu sync.Mutex
	conv := make(map[*core.Result]*Result, len(targetSets))
	entryOf := func(i int, o core.BatchOutcome) BatchEntry {
		switch {
		case resolveErrs[i] != nil:
			return BatchEntry{Err: resolveErrs[i]}
		case errors.Is(o.Err, core.ErrNoTargets):
			return BatchEntry{Err: ErrEmptyTargetSet}
		case errors.Is(o.Err, core.ErrMinePanic):
			return BatchEntry{Err: fmt.Errorf("%w: %v", ErrMinePanicked, o.Err)}
		case o.Err != nil:
			return BatchEntry{Err: fmt.Errorf("remi: %w", o.Err)}
		default:
			convMu.Lock()
			res, seen := conv[o.Result]
			if !seen {
				res = s.resultOf(o.Result, cfg, idSets[i])
				conv[o.Result] = res
			}
			convMu.Unlock()
			return BatchEntry{Result: res, Deduplicated: o.Deduplicated}
		}
	}
	var coreEach func(int, core.BatchOutcome)
	if each != nil {
		coreEach = func(slot int, o core.BatchOutcome) { each(slot, entryOf(slot, o)) }
	}

	outs := miner.MineBatchEach(ctx, idSets, cfg.batchConc, coreEach)
	// The miner is exclusive to this call, so the evaluator delta across it
	// is the batch's exact cache traffic.
	_, brHits, brMisses := miner.Ev.Stats()
	br := &BatchResult{Entries: make([]BatchEntry, len(targetSets))}
	br.CacheHits, br.CacheMisses = brHits, brMisses
	aggSeen := make(map[*core.Result]bool, len(outs))
	for i, o := range outs {
		e := entryOf(i, o)
		br.Entries[i] = e
		if e.Err != nil {
			continue
		}
		if !aggSeen[o.Result] {
			aggSeen[o.Result] = true
			br.QueueBuild += e.Result.Stats.QueueBuild
			br.Search += e.Result.Stats.Search
		}
		if e.Deduplicated {
			br.Deduped++
		}
	}
	return br, nil
}

// exceptionsOf lists the entities matched by e beyond the targets.
func (s *System) exceptionsOf(e expr.Expression, targets []kb.EntID) []string {
	bound := expr.NewEvaluator(s.kb, 256).ExpressionBindings(e)
	inT := make(map[kb.EntID]bool, len(targets))
	for _, t := range targets {
		inT[t] = true
	}
	var out []string
	bound.Iterate(func(b kb.EntID) bool {
		if !inT[b] {
			out = append(out, s.kb.Term(b).Value)
		}
		return true
	})
	return out
}

func (s *System) solution(e expr.Expression, bits float64) Solution {
	subs := make([]string, len(e))
	for i, g := range e {
		subs[i] = g.Format(s.kb)
	}
	return Solution{
		Expression: e.Format(s.kb),
		Subgraphs:  subs,
		NL:         s.verb.Expression(e),
		SPARQL:     s.sparqlOf(e),
		Bits:       bits,
		Atoms:      e.Atoms(),
	}
}

func (s *System) estimator(cfg mineConfig) (*complexity.Estimator, error) {
	var est *complexity.Estimator
	switch cfg.metric {
	case MetricPr:
		est = s.prEstimator()
	case MetricCustom:
		if s.estCustom == nil {
			return nil, fmt.Errorf("remi: WithMetric(MetricCustom) requires a prior SetProminence call to install the custom scores")
		}
		est = s.estCustom
	default:
		est = s.estFr
	}
	if cfg.exact {
		est = complexity.New(est.K, est.Prom, complexity.Exact)
	}
	return est, nil
}

func (s *System) coreConfig(cfg mineConfig) core.Config {
	c := core.DefaultConfig()
	if cfg.language == LanguageStandard {
		c.Language = core.StandardLanguage
	}
	c.Workers = cfg.workers
	c.Timeout = cfg.timeout
	c.TopK = cfg.topK
	c.MaxExceptions = cfg.exceptions
	if cfg.progress != nil {
		fn := cfg.progress
		// Narrow the mask so the miner skips the per-node expression Clone
		// for every kind the subscriber does not want.
		c.TraceMask = core.MaskOf(core.EventNewBest)
		c.Trace = func(ev core.Event) {
			fn(Progress{Kind: "new_best", Expression: ev.Expression.Format(s.kb), Bits: ev.Cost})
		}
	}
	return c
}

// SummaryEntry is one predicate–object feature in an entity summary.
type SummaryEntry struct {
	Predicate string
	Object    string
}

// Summarize returns the size most intuitive single-atom features of an
// entity — REMI as an entity summarizer, the Section 4.1.4 usage (standard
// bias, rdf:type and inverse predicates excluded).
func (s *System) Summarize(entityIRI string, size int, opts ...MineOption) ([]SummaryEntry, error) {
	return s.SummarizeContext(context.Background(), entityIRI, size, opts...)
}

// SummarizeContext is Summarize under a caller-controlled context. Feature
// ranking is a single pass over the entity's facts, so the context is
// checked once up front (a cancelled request never starts the work) rather
// than threaded through the ranking itself.
func (s *System) SummarizeContext(ctx context.Context, entityIRI string, size int, opts ...MineOption) ([]SummaryEntry, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg := defaultMineConfig()
	for _, o := range opts {
		o(&cfg)
	}
	id, ok := s.kb.EntityID(rdf.NewIRI(entityIRI))
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownEntity, entityIRI)
	}
	est, err := s.estimator(cfg)
	if err != nil {
		return nil, err
	}
	sum := summarize.REMITop(s.kb, est, id, size)
	out := make([]SummaryEntry, len(sum))
	for i, pair := range sum {
		out[i] = SummaryEntry{
			Predicate: s.kb.PredicateName(pair.P),
			Object:    s.kb.Term(pair.O).LocalName(),
		}
	}
	return out, nil
}

// Describe verbalizes the facts of an entity (a convenience for examples
// and CLIs).
func (s *System) Describe(entityIRI string) (string, error) {
	id, ok := s.kb.EntityID(rdf.NewIRI(entityIRI))
	if !ok {
		return "", fmt.Errorf("%w %q", ErrUnknownEntity, entityIRI)
	}
	return s.kb.Label(id), nil
}
