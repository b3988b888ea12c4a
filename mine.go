package remi

import (
	"context"
	"errors"
	"fmt"
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

// WithTimeout bounds the mining call (0 = unlimited).
func WithTimeout(d time.Duration) MineOption { return func(c *mineConfig) { c.timeout = d } }

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
// synchronous from the search loop, so fn must be fast. The subscription is
// mask-narrowed inside the core, so it adds no per-node allocations to the
// search hot path. The search pops conjunctions in cost order, so its first
// RE is its answer: a sequential top-1 run emits at most one "new_best", and
// none when it times out before the answer. With WithWorkers > 1 each P-REMI
// worker searches the roots it claims in cost order; a worker's RE may beat
// another's, so a run may emit several improving incumbents, and the
// workers all deliver to fn, so fn must be safe for concurrent use.
func WithProgress(fn func(Progress)) MineOption { return func(c *mineConfig) { c.progress = fn } }

// Solution is one referring expression with its complexity and renderings.
// The tags are its JSON form, as the HTTP service answers it.
type Solution struct {
	// Expression is the formal rendering, e.g.
	// "cityIn(x, France) ∧ mayor(x, y) ∧ party(y, Socialist)".
	Expression string `json:"expression"`
	// Subgraphs lists the component subgraph expressions.
	Subgraphs []string `json:"subgraphs,omitempty"`
	// NL is an automatic English verbalization.
	NL string `json:"nl"`
	// SPARQL is an equivalent SELECT query over the original data (inverse
	// predicates are folded back into base triple patterns).
	SPARQL string `json:"sparql"`
	// Bits is the estimated Kolmogorov complexity Ĉ.
	Bits float64 `json:"bits"`
	// Atoms counts atoms across the expression.
	Atoms int `json:"atoms"`
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
// whichever limit fires first ends the run. A sequential run that stops
// before its answer has found no RE yet (it searches in cost order, and its
// first RE is the answer), so its partial result has no expression. A P-REMI
// run (WithWorkers > 1) that stops early returns the best RE among the roots
// its workers finished, if any. A run whose search frontier outgrows its
// 64 MiB memory budget, shared by P-REMI's workers, stops the same way, with
// Stats.TimedOut set.
func (s *System) MineContext(ctx context.Context, targetIRIs []string, opts ...MineOption) (*Result, error) {
	cfg := defaultMineConfig()
	for _, o := range opts {
		o(&cfg)
	}
	est, err := s.estimator(cfg)
	if err != nil {
		return nil, err
	}
	targets, err := s.entityIDs(targetIRIs)
	if err != nil {
		return nil, err
	}
	res, err := core.NewMiner(s.kb, est, s.coreConfig(cfg)).MineContext(ctx, targets)
	if err != nil {
		return nil, err
	}
	return s.resultOf(res, cfg, targets), nil
}

// entityIDs resolves target IRIs to entity ids (ErrUnknownEntity for an
// IRI the KB does not name).
func (s *System) entityIDs(iris []string) ([]kb.EntID, error) {
	ids := make([]kb.EntID, 0, len(iris))
	for _, iri := range iris {
		id, ok := s.kb.EntityID(rdf.NewIRI(iri))
		if !ok {
			return nil, fmt.Errorf("%w %q", ErrUnknownEntity, iri)
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// resultOf converts a core result to the facade form (renderings, SPARQL,
// exceptions).
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

// exceptionsOf lists the entities matched by e beyond the targets.
func (s *System) exceptionsOf(e expr.Expression, targets []kb.EntID) []string {
	bound := expr.ExpressionBindings(s.kb, e)
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
	store := s.promFr
	switch cfg.metric {
	case MetricPr:
		store = s.prStore()
	case MetricCustom:
		if store = s.promCustom.Load(); store == nil {
			return nil, fmt.Errorf("remi: WithMetric(MetricCustom) requires a prior SetProminence call to install the custom scores")
		}
	}
	mode := complexity.Compressed
	if cfg.exact {
		mode = complexity.Exact
	}
	return complexity.New(s.kb, store, mode), nil
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
	Predicate string `json:"predicate"`
	Object    string `json:"object"`
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
