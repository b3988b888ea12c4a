package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/remi-kb/remi/internal/complexity"
	"github.com/remi-kb/remi/internal/expr"
	"github.com/remi-kb/remi/internal/kb"
)

// ErrNoTargets is returned when Mine is called with an empty target set.
var ErrNoTargets = errors.New("core: no target entities")

// Config tunes the miner. Start from DefaultConfig.
type Config struct {
	Language Language
	// ProminentCutoff is the fraction of top-frequency entities whose atoms
	// are not expanded (Section 3.5.2; the paper uses 5%).
	ProminentCutoff float64
	// Timeout bounds one Mine call; zero means no limit. It composes with
	// the context passed to MineContext: the search stops at whichever of
	// the two ends first, and both are reported as Stats.TimedOut.
	Timeout time.Duration
	// Workers is the number of P-REMI threads; values <= 1 select the
	// sequential REMI.
	Workers int
	// MaxCandidates caps the priority queue as a safety valve (0 = no cap;
	// candidates are cost-sorted first, so the cheapest survive).
	MaxCandidates int
	// MaxExceptions relaxes the unambiguity constraint (the paper's §6
	// future work: "relax the unambiguity constraint to mine REs with
	// exceptions"): a returned expression must still match every target but
	// may match up to MaxExceptions extra entities. Zero mines strict REs.
	MaxExceptions int
	// TopK asks the miner to keep the K least complex REs instead of only
	// the best one (Result.Solutions). Values <= 1 mine a single solution;
	// with K > 1 a search stops at the K-th RE it pops (used by the Section
	// 4.1.2 study, which shows users several REs encountered during
	// search-space traversal).
	TopK int
	// Trace receives search events when non-nil (used by the Figure 1
	// walk-through). P-REMI workers call it concurrently.
	Trace TraceFunc
	// TraceMask narrows which event kinds Trace receives; the zero mask
	// delivers everything. Progress-only subscribers (e.g. streaming
	// clients that just want EventNewBest) should set a narrow mask: the
	// miner skips the per-event expression Clone for masked-out kinds, so
	// a narrow mask keeps the per-node hot path allocation-free.
	TraceMask EventMask
}

// DefaultConfig mirrors the paper's setup.
func DefaultConfig() Config {
	return Config{
		Language:        ExtendedLanguage,
		ProminentCutoff: 0.05,
		Workers:         1,
	}
}

// Stats describes one Mine run.
type Stats struct {
	Candidates int           // size of the priority queue (line 2, Alg. 1)
	QueueBuild time.Duration // phase 1: enumeration + sorting
	Search     time.Duration // phase 2: the search of the conjunctions
	RETests    uint64        // expression evaluations against the KB
	Visited    uint64        // search-tree nodes visited
	// PrunedDepth counts the REs visited: none is expanded. PrunedCost
	// counts the heap entries left when a search stopped: the cheapest node
	// of each subtree the answer's cost (or the stop) excluded.
	PrunedDepth uint64
	PrunedCost  uint64
	// PeakRetainedBytes is the most binding-set memory the search kept for
	// the parents of its pending heap entries, summed over P-REMI's workers.
	PeakRetainedBytes uint64
	// FrontierBytes is the most bytes of heap entries and arena nodes the
	// search held at once, summed over P-REMI's workers, at most 64 MiB in
	// all. It counts this run's entries only, whatever capacity a pooled
	// scratch brought from an earlier run.
	FrontierBytes uint64
	// TimedOut reports that the search stopped early: Config.Timeout
	// elapsed, the caller's context was cancelled, or the heaps and node
	// arenas reached their 64 MiB budget.
	TimedOut bool
	// CacheHits and CacheMisses count the lookups of the run's memo of the
	// queue's binding sets: a miss computed the set, a hit found it
	// computed, or under P-REMI waited while another worker computed it. A
	// run computes each queue element's set at most once, so CacheMisses
	// is at most Candidates. No cache outlives a run.
	CacheHits   uint64
	CacheMisses uint64
}

// add merges a P-REMI worker's stats into the run's.
func (s *Stats) add(o *Stats) {
	s.RETests += o.RETests
	s.Visited += o.Visited
	s.PrunedDepth += o.PrunedDepth
	s.PrunedCost += o.PrunedCost
	s.PeakRetainedBytes += o.PeakRetainedBytes
	s.FrontierBytes += o.FrontierBytes
	s.TimedOut = s.TimedOut || o.TimedOut
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
}

// Result is the outcome of a Mine call.
type Result struct {
	// Expression is the least complex RE found, or nil when no RE exists
	// for the targets in the KB (the ⊤ outcome of Algorithm 1).
	Expression expr.Expression
	// Bits is Ĉ(Expression) (infinite when Expression is nil).
	Bits float64
	// Solutions holds the Config.TopK least complex REs found, best first
	// (Solutions[0] corresponds to Expression).
	Solutions []Solution
	Stats     Stats
}

// Found reports whether an RE was found.
func (r *Result) Found() bool { return len(r.Expression) > 0 }

// Solution pairs a found RE with its complexity.
type Solution struct {
	Expression expr.Expression
	Bits       float64
}

// bound is the set of best solutions found so far, shared by every
// exploration thread in P-REMI ("the least complex solution e can be read
// and written by all threads", Section 3.4). With k > 1 it keeps the k
// cheapest distinct REs.
type bound struct {
	mu   sync.Mutex
	k    int
	sols []Solution
	keys map[string]bool
	// cost holds the bits of Cost(), written under mu and read without it:
	// a search reads it once per pop.
	cost atomic.Uint64
}

func newBound(k int) *bound {
	if k < 1 {
		k = 1
	}
	b := &bound{k: k} // keys is made lazily on the first insert
	b.cost.Store(math.Float64bits(complexity.Infinite))
	return b
}

// Cost returns the pruning threshold: the cost of the k-th best solution,
// or +Inf while fewer than k solutions are known.
func (b *bound) Cost() float64 { return math.Float64frombits(b.cost.Load()) }

// Offer inserts e when it improves the solution set; duplicates (same set of
// subgraph expressions) are ignored. The expression is cloned only when it
// is actually inserted, so callers can pass a reused buffer without paying
// an allocation for offers that lose on cost or are duplicates.
func (b *bound) Offer(e expr.Expression, cost float64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.sols) >= b.k && cost >= b.sols[len(b.sols)-1].Bits {
		return false
	}
	if b.k == 1 {
		// Single-solution fast path: the cost gate above already rejected
		// everything not strictly better than the incumbent, so a duplicate
		// expression (same set, same cost) can never get here — no need to
		// compute and store canonical keys at all.
		if len(b.sols) == 0 {
			b.sols = append(b.sols, Solution{})
		}
		b.sols[0] = Solution{Expression: e.Clone(), Bits: cost}
		b.cost.Store(math.Float64bits(cost))
		return true
	}
	key := e.Key()
	if b.keys[key] {
		return false
	}
	if b.keys == nil {
		b.keys = make(map[string]bool)
	}
	b.keys[key] = true
	pos := sort.Search(len(b.sols), func(i int) bool { return b.sols[i].Bits > cost })
	b.sols = append(b.sols, Solution{})
	copy(b.sols[pos+1:], b.sols[pos:])
	b.sols[pos] = Solution{Expression: e.Clone(), Bits: cost}
	if len(b.sols) > b.k {
		drop := b.sols[len(b.sols)-1]
		delete(b.keys, drop.Expression.Key())
		b.sols = b.sols[:len(b.sols)-1]
	}
	if len(b.sols) == b.k {
		b.cost.Store(math.Float64bits(b.sols[b.k-1].Bits))
	}
	return pos == 0
}

func (b *bound) Get() (expr.Expression, float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.sols) == 0 {
		return nil, complexity.Infinite
	}
	return b.sols[0].Expression, b.sols[0].Bits
}

// All returns the solution set, best first.
func (b *bound) All() []Solution {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Solution(nil), b.sols...)
}

// Miner mines referring expressions over one KB with one complexity
// estimator. Construct with NewMiner; safe for concurrent Mine calls.
type Miner struct {
	K   *kb.KB
	Est *complexity.Estimator
	cfg Config

	prominent *kb.EntSet
}

// NewMiner assembles a miner from its parts.
func NewMiner(k *kb.KB, est *complexity.Estimator, cfg Config) *Miner {
	m := &Miner{K: k, Est: est, cfg: cfg}
	if cfg.ProminentCutoff > 0 {
		m.prominent = k.ProminentSet(cfg.ProminentCutoff)
	}
	return m
}

// scored pairs a candidate subgraph expression with its Ĉ cost.
type scored struct {
	g    expr.Subgraph
	cost float64
}

// queueBlock is the number of candidate indices a queue-build worker claims
// per round. parallelQueueMinProbes is the floor on candidate·extra-target
// HoldsFor probes below which the goroutine fan-out costs more than it
// saves; parallelQueueMinCands additionally lets giant single-target queues
// fan out their Ĉ scoring, the only work they have. Tame sets reach neither
// (the 4,096 canonical mining sets probe at most 736 times); hub sets do,
// and there the fan-out cuts the queue build of the DBpedia-like Settlement
// {0, 13, 57} at scale 4 from 45–52 to 29–30 ms (best of five, GOMAXPROCS
// 1 against 2, on a 2-vCPU box).
const (
	queueBlock             = 256
	parallelQueueMinProbes = 4096
	parallelQueueMinCands  = 1 << 16
)

// queueBufs holds one run's queue storage: the enumerated candidate slice,
// the scored queue and the memo of its binding sets. All die with the Mine
// call that produced them, so they are pooled — on a warm miner the queue
// build's only steady-state allocations are table growth inside the pooled
// structures.
type queueBufs struct {
	cands []expr.Subgraph
	out   []scored
	costs []float64
	keep  []bool
	memo  memo
}

var queueBufPool = sync.Pool{New: func() any { return &queueBufs{} }}

func getQueueBufs() *queueBufs { return queueBufPool.Get().(*queueBufs) }

func putQueueBufs(qb *queueBufs) {
	qb.memo.release()
	queueBufPool.Put(qb)
}

// buildQueue computes and cost-sorts the common subgraph expressions
// (lines 1–2 of Algorithm 1). The candidate set comes from one SubgraphsOf
// enumeration of the first target; the common-ness filter and Ĉ scoring of
// each candidate are independent, so on large queues they are fanned across
// a worker pool in index blocks. Results are written into position-aligned
// arrays and compacted in enumeration order, so the queue is byte-identical
// to the sequential build regardless of scheduling.
func (m *Miner) buildQueue(ctx context.Context, targets []kb.EntID, qb *queueBufs) ([]scored, bool) {
	qb.cands = appendSubgraphsOf(qb.cands[:0], m.K, targets[0], EnumerateOptions{
		Language:  m.cfg.Language,
		Prominent: m.prominent,
		// Labels are names, not descriptions: an RE built on rdfs:label
		// would be circular ("the entity labelled Paris"), so the label
		// predicate never enters the language.
		SkipPredID: m.K.LabelPredicate(),
	})
	out, timedOut := m.scoreQueue(ctx, qb.cands, targets[1:], qb)
	if timedOut {
		return nil, true
	}
	// The MaxCandidates safety valve: the queue is cost-sorted first, so the
	// cheapest survive.
	if m.cfg.MaxCandidates > 0 && len(out) > m.cfg.MaxCandidates {
		out = out[:m.cfg.MaxCandidates]
	}
	return out, false
}

// scoreQueue filters the enumerated candidates down to those common to the
// extra targets and scores the survivors, fanning large queues across a
// worker pool, then cost-sorts the result. The returned slice aliases qb's
// pooled storage.
func (m *Miner) scoreQueue(ctx context.Context, cands []expr.Subgraph, rest []kb.EntID, qb *queueBufs) ([]scored, bool) {
	var out []scored
	probes := len(cands) * len(rest)
	if workers := runtime.GOMAXPROCS(0); workers > 1 &&
		(probes >= parallelQueueMinProbes || len(cands) >= parallelQueueMinCands) {
		var timedOut bool
		if out, timedOut = m.scoreQueueParallel(ctx, cands, rest, workers, qb); timedOut {
			return nil, true
		}
	} else {
		out = qb.out[:0]
		for i, g := range cands {
			if i%1024 == 0 && expired(ctx) {
				return nil, true
			}
			if !holdsForAll(m.K, g, rest) {
				continue
			}
			out = append(out, scored{g: g, cost: m.Est.Subgraph(g)})
		}
		qb.out = out
	}
	slices.SortFunc(out, func(a, b scored) int {
		// Ĉ values are non-negative (log2 of 1-based ranks), so their
		// IEEE-754 bit patterns order identically to the floats — one
		// integer compare instead of two float branches.
		ca, cb := math.Float64bits(a.cost), math.Float64bits(b.cost)
		if ca != cb {
			if ca < cb {
				return -1
			}
			return 1
		}
		return expr.Compare(a.g, b.g)
	})
	return out, false
}

// scoreQueueParallel filters and scores the enumerated candidates across a
// worker pool. Workers claim fixed-size index blocks off an atomic cursor
// and write cost/keep into arrays aligned with cands, so the compacted
// result preserves enumeration order exactly — the queue is deterministic
// for any GOMAXPROCS.
func (m *Miner) scoreQueueParallel(ctx context.Context, cands []expr.Subgraph, rest []kb.EntID, workers int, qb *queueBufs) ([]scored, bool) {
	if max := (len(cands) + queueBlock - 1) / queueBlock; workers > max {
		workers = max
	}
	if cap(qb.costs) < len(cands) {
		qb.costs = make([]float64, len(cands))
		qb.keep = make([]bool, len(cands))
	}
	costs := qb.costs[:len(cands)]
	keep := qb.keep[:len(cands)]
	for i := range keep {
		keep[i] = false
	}
	var next int64
	var bail atomic.Bool
	var wg workerGroup
	for w := 0; w < workers; w++ {
		wg.Go(func() {
			for {
				lo := int(atomic.AddInt64(&next, queueBlock)) - queueBlock
				if lo >= len(cands) || bail.Load() {
					return
				}
				if expired(ctx) {
					bail.Store(true)
					return
				}
				hi := lo + queueBlock
				if hi > len(cands) {
					hi = len(cands)
				}
				for i := lo; i < hi; i++ {
					g := cands[i]
					if !holdsForAll(m.K, g, rest) {
						continue
					}
					costs[i] = m.Est.Subgraph(g)
					keep[i] = true
				}
			}
		})
	}
	wg.Wait()
	if bail.Load() {
		return nil, true
	}
	out := qb.out[:0]
	for i, g := range cands {
		if keep[i] {
			out = append(out, scored{g: g, cost: costs[i]})
		}
	}
	qb.out = out
	return out, false
}

// workerGroup runs the goroutines one search fans out (queue scoring,
// P-REMI workers) and carries the first panic among them back to the
// goroutine that waits for them. Left on the spawned goroutine, a panic
// bypasses every recover above the miner's caller — MineBatch's per-set
// one, the job pool's — and kills the process.
type workerGroup struct {
	wg    sync.WaitGroup
	once  sync.Once
	cause any
}

// Go runs f on a new goroutine, capturing a panic instead of crashing.
func (g *workerGroup) Go(f func()) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		defer func() {
			if p := recover(); p != nil {
				g.once.Do(func() { g.cause = p })
			}
		}()
		f()
	}()
}

// Wait waits for every goroutine started by Go, then re-raises the first
// captured panic on the calling goroutine.
func (g *workerGroup) Wait() {
	g.wg.Wait()
	if g.cause != nil {
		panic(g.cause)
	}
}

// expired reports whether the search context has ended — by cancellation
// (client disconnect) or by deadline (Config.Timeout, a caller deadline, or
// both); the miner treats the two identically. The deadline is also checked
// against the wall clock directly: ctx.Err() turns non-nil only once the
// runtime timer has fired, which can lag a sub-millisecond timeout.
func expired(ctx context.Context) bool {
	if ctx.Err() != nil {
		return true
	}
	d, ok := ctx.Deadline()
	return ok && time.Now().After(d)
}

// RankedCandidates exposes lines 1–2 of Algorithm 1: the subgraph
// expressions common to the targets in ascending Ĉ order together with
// their costs. The qualitative evaluation (Table 2) ranks these directly.
func (m *Miner) RankedCandidates(targets []kb.EntID) ([]expr.Subgraph, []float64) {
	tgt := expr.SortIDs(append([]kb.EntID(nil), targets...))
	qb := getQueueBufs()
	defer putQueueBufs(qb)
	queue, _ := m.buildQueue(context.Background(), tgt, qb)
	gs := make([]expr.Subgraph, len(queue))
	costs := make([]float64, len(queue))
	for i, s := range queue {
		gs[i] = s.g
		costs[i] = s.cost
	}
	return gs, costs
}

// Mine returns the least complex RE for the targets, running REMI
// (Algorithm 1) or P-REMI (Section 3.4) depending on Config.Workers.
// Duplicate targets are allowed and collapse into a set.
func (m *Miner) Mine(targets []kb.EntID) (*Result, error) {
	return m.MineContext(context.Background(), targets)
}

// MineContext is Mine with a caller-controlled context: when ctx is
// cancelled or its deadline passes, the search (queue build, sequential
// search and every P-REMI worker alike) stops at its next periodic check and
// the solutions found so far are returned with Stats.TimedOut set, exactly as
// if Config.Timeout had elapsed. A non-zero Config.Timeout still applies,
// layered onto ctx, so whichever limit fires first stops the run.
//
// Both miners pop conjunctions in cost order, so a search's first RE is the
// best of the roots it searches. A sequential run that times out before its
// answer returns no expression at all. A P-REMI run that times out returns
// the best RE among the roots its workers finished, if any, which a root
// left unsearched may beat. A run whose heaps and node arenas would outgrow
// their 64 MiB budget, shared by P-REMI's workers, stops the same way, with
// Stats.TimedOut set: a hub set that needs millions of expansions costs a
// bounded amount of memory, not an answer.
func (m *Miner) MineContext(ctx context.Context, targets []kb.EntID) (*Result, error) {
	if len(targets) == 0 {
		return nil, ErrNoTargets
	}
	tgt := normalizeTargets(targets)
	// Config.Timeout is applied per call, so each set of a batch gets its
	// own budget.
	if m.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, m.cfg.Timeout)
		defer cancel()
	}
	res := &Result{Bits: complexity.Infinite}
	// The queue, its candidate buffer and its memo are pooled: they die with
	// this call (everything escaping into res is cloned), so the search
	// borrows them and returns them on exit.
	qb := getQueueBufs()
	defer putQueueBufs(qb)
	t0 := time.Now()
	queue, timedOut := m.buildQueue(ctx, tgt, qb)
	res.Stats.QueueBuild = time.Since(t0)
	res.Stats.Candidates = len(queue)
	if timedOut {
		res.Stats.TimedOut = true
		return res, nil
	}

	t1 := time.Now()
	m.search(ctx, qb.newMemo(m.K, queue), tgt, res)
	res.Stats.Search = time.Since(t1)
	if res.Found() {
		res.Bits = m.Est.Expression(res.Expression)
	}
	return res, nil
}

// search runs the second phase of Algorithm 1 on the sorted queue: the
// solvable-root chain, then REMI's one cost-ordered search over the roots
// that can hold an RE, on the chain's scratch, or P-REMI's workers, each
// searching the roots it claims in cost order.
func (m *Miner) search(ctx context.Context, mm *memo, targets []kb.EntID, res *Result) {
	bnd := newBound(m.topK())
	sc := getCostScratch(1)
	n, timedOut := m.solvableRoots(ctx, mm, targets, &res.Stats, sc)
	res.Stats.TimedOut = timedOut
	if n > 0 && m.cfg.Workers <= 1 {
		m.searchCostOrder(ctx, mm, 0, n, targets, bnd, &res.Stats, sc)
	}
	// Pooled before P-REMI's workers start, so one of them can take it.
	putCostScratch(sc)
	if n > 0 && m.cfg.Workers > 1 {
		m.mineParallel(ctx, mm, n, targets, bnd, res)
	}
	res.Expression, _ = bnd.Get()
	res.Solutions = bnd.All()
}

// normalizeTargets sorts a copy of targets and collapses duplicates, the
// canonical form every search runs on.
func normalizeTargets(targets []kb.EntID) []kb.EntID {
	tgt := expr.SortIDs(append([]kb.EntID(nil), targets...))
	w := 1
	for i := 1; i < len(tgt); i++ {
		if tgt[i] != tgt[i-1] {
			tgt[w] = tgt[i]
			w++
		}
	}
	return tgt[:w]
}

// solvableRoots implements line 8 of Algorithm 1 for the roots, ahead of
// the search. The most specific conjunction in the subtree rooted at
// queue[i] is all of queue[i:], whose binding set is the suffix floor: the
// intersection of the binding sets of queue[i:]. Every candidate's bindings
// contain T, so the subtree holds an RE iff its floor has at most
// len(targets)+MaxExceptions elements. Floors shrink as i falls, so the
// roots that can hold an RE are a prefix of the queue: root queue[i] can
// iff i < n. The chain walks the memo's sets right to left, keeps its floor
// alternately in the two sets of sc.rebuilt, and returns at the first floor
// within the limit, so it computes no binding set left of that root.
func (m *Miner) solvableRoots(ctx context.Context, mm *memo, targets []kb.EntID, st *Stats, sc *costScratch) (int32, bool) {
	n := int32(len(mm.queue))
	if n == 0 {
		return 0, false
	}
	limit := len(targets) + m.cfg.MaxExceptions
	floor := mm.bindings(n-1, st)
	for i := n - 1; ; i-- {
		if floor.Card() <= limit {
			return i + 1, false
		}
		if i == 0 {
			return 0, false
		}
		if expired(ctx) {
			return 0, true
		}
		dst := &sc.rebuilt[i%2]
		dst.IntersectInto(floor, mm.bindings(i-1, st))
		floor = *dst
	}
}

func (m *Miner) topK() int {
	if m.cfg.TopK < 1 {
		return 1
	}
	return m.cfg.TopK
}

// traceWants reports whether a trace event of this kind would be delivered.
// Call sites that must allocate to build the traced expression (the prune
// events clone the prefix themselves) check it before paying that cost.
func (m *Miner) traceWants(kind EventKind) bool {
	return m.cfg.Trace != nil && m.cfg.TraceMask.Wants(kind)
}

func (m *Miner) trace(kind EventKind, e expr.Expression, cost float64) {
	if !m.traceWants(kind) {
		return
	}
	m.cfg.Trace(Event{Kind: kind, Expression: e.Clone(), Cost: cost})
}
