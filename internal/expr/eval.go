package expr

import (
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/remi-kb/remi/internal/bindset"
	"github.com/remi-kb/remi/internal/kb"
	"github.com/remi-kb/remi/internal/lru"
)

// HoldsFor reports whether the subgraph expression g has a match in k with
// its root variable bound to t (the membership test used when intersecting
// candidate subgraph expressions across target entities).
func HoldsFor(k *kb.KB, g Subgraph, t kb.EntID) bool {
	switch g.Shape {
	case Atom1:
		return k.HasFact(g.P0, t, g.I0)
	case Path:
		return HasIntersection(k.Objects(g.P0, t), k.Subjects(g.P1, g.I1))
	case PathStar:
		return HasIntersection3(k.Objects(g.P0, t), k.Subjects(g.P1, g.I1), k.Subjects(g.P2, g.I2))
	case Closed2:
		return HasIntersection(k.Objects(g.P0, t), k.Objects(g.P1, t))
	case Closed3:
		return HasIntersection3(k.Objects(g.P0, t), k.Objects(g.P1, t), k.Objects(g.P2, t))
	default:
		return false
	}
}

// BindingSet computes the full set of root-variable bindings of g in k as an
// adaptive bindset.Set (sparse slice or dense bitmap, chosen by density
// against the entity universe).
func BindingSet(k *kb.KB, g Subgraph) bindset.Set {
	universe := k.NumEntities()
	switch g.Shape {
	case Atom1:
		return bindset.FromSorted(k.Subjects(g.P0, g.I0), universe)
	case Path, PathStar:
		sc := pathScratchPool.Get().(*pathScratch)
		defer pathScratchPool.Put(sc)
		ys := k.Subjects(g.P1, g.I1)
		if g.Shape == PathStar {
			sc.ys = bindset.AppendIntersection(sc.ys[:0], ys, k.Subjects(g.P2, g.I2))
			ys = sc.ys
		}
		return pathBindings(k, g.P0, ys, sc, universe)
	case Closed2:
		return bindset.FromSorted(closedSubjects(k, g.P0, g.P1, 0), universe)
	case Closed3:
		return bindset.FromSorted(closedSubjects(k, g.P0, g.P1, g.P2), universe)
	default:
		return bindset.FromSorted(nil, universe)
	}
}

// pathScratch is the working memory of one path evaluation, pooled: the ys
// of a hub and the runs they select run to thousands of entries, and
// allocating them per evaluation cost more than the walk over them.
type pathScratch struct {
	ys   []kb.EntID
	runs [][]kb.EntID
}

var pathScratchPool = sync.Pool{New: func() any { return new(pathScratch) }}

// pathBindings returns the union of the runs Subjects(p, y) over the
// ascending ys, selected in one pass over p's ascending object keys: the
// cursor gallops to each y instead of binary-searching all keys per y.
func pathBindings(k *kb.KB, p kb.PredID, ys []kb.EntID, sc *pathScratch, universe int) bindset.Set {
	keys, off := k.ObjectRuns(p)
	col := k.SubjectColumn(p)
	runs := sc.runs[:0]
	j := 0
	for _, y := range ys {
		j += bindset.Gallop(keys[j:], y)
		if j == len(keys) {
			break
		}
		if keys[j] == y {
			runs = append(runs, col[off[j]:off[j+1]])
			j++
		}
	}
	set := bindset.UnionSlices(runs, universe)
	clear(runs) // the pool must not pin a KB's arrays
	sc.runs = runs[:0]
	return set
}

// closedSubjects returns, ascending, the subjects s with an object o such
// that a(s,o), b(s,o) and, unless c is 0, c(s,o) hold. It walks the
// sparsest predicate's subject runs, gallops the others' subject keys in
// step and tests the object runs of each shared subject for a common
// element.
func closedSubjects(k *kb.KB, a, b, c kb.PredID) []kb.EntID {
	if k.PredFreq(b) < k.PredFreq(a) {
		a, b = b, a
	}
	if c != 0 && k.PredFreq(c) < k.PredFreq(a) {
		a, c = c, a
	}
	aKeys, aOff := k.SubjectRuns(a)
	bKeys, bOff := k.SubjectRuns(b)
	aCol, bCol := k.ObjectColumn(a), k.ObjectColumn(b)
	var cKeys, cCol []kb.EntID
	var cOff []uint32
	if c != 0 {
		cKeys, cOff = k.SubjectRuns(c)
		cCol = k.ObjectColumn(c)
	}
	var out []kb.EntID
	j, l := 0, 0
	for i, s := range aKeys {
		j += bindset.Gallop(bKeys[j:], s)
		if j == len(bKeys) {
			break
		}
		if bKeys[j] != s {
			continue
		}
		as, bs := aCol[aOff[i]:aOff[i+1]], bCol[bOff[j]:bOff[j+1]]
		if c == 0 {
			if HasIntersection(as, bs) {
				out = append(out, s)
			}
			continue
		}
		l += bindset.Gallop(cKeys[l:], s)
		if l == len(cKeys) {
			break
		}
		if cKeys[l] == s && HasIntersection3(as, bs, cCol[cOff[l]:cOff[l+1]]) {
			out = append(out, s)
		}
	}
	return out
}

// Bindings computes the bindings of g as an ascending slice. The slice may
// share storage with the KB's indexes; callers must not modify it.
func Bindings(k *kb.KB, g Subgraph) []kb.EntID {
	return BindingSet(k, g).Slice()
}

// inflightCall coalesces concurrent cache misses on one subgraph expression:
// the first caller computes, everyone else waits on done and shares val.
type inflightCall struct {
	done chan struct{}
	val  bindset.Set
}

// evalStripes caps the number of independent cache/coalescing shards of a
// shared Evaluator (a power of two; the stripe is picked from the subgraph
// hash). 16 stripes keep the worst case — every P-REMI worker missing at
// once — at a sixteenth of the old single-mutex contention while staying
// small enough that per-stripe LRU capacity remains meaningful. The actual
// stripe count adapts to GOMAXPROCS: lock contention only exists between
// threads that run in parallel, so a box with fewer cores gets fewer
// stripes and a 1-CPU container (where the old global mutex was never
// contended) keeps a single stripe and pays no fan-out cost at all.
const evalStripes = 16

// evalStripe is one shard: its slice of the LRU capacity plus its own
// coalescing state. Hot Bindings calls touch exactly one stripe, so workers
// evaluating different subgraphs no longer serialize on a global mutex.
// The cache is embedded by value and its index map is lazy, so a miner
// construction (one evaluator) costs one allocation regardless of the
// stripe count — only stripes that see traffic allocate.
type evalStripe struct {
	cache    lru.Cache[Subgraph, bindset.Set]
	mu       sync.Mutex
	inflight map[Subgraph]*inflightCall // created lazily on the first coalesced miss
}

// Evaluator evaluates subgraph expressions and expressions against a KB with
// an LRU cache of subgraph binding sets (Section 3.5.2: "query results are
// cached in a least-recently-used fashion"). It is safe for concurrent use;
// P-REMI threads share one Evaluator. In shared mode (EnableCoalescing) the
// cache and its lock are striped by subgraph hash, so concurrent Bindings
// calls on different subgraphs touch disjoint mutexes instead of
// serializing on one global cache lock, and concurrent misses on the same
// subgraph expression are coalesced onto a single computation — a cold
// cache under P-REMI multiplies neither the evaluation work nor the lock
// contention (and the hit/miss counters keep describing cache lookups, not
// redundant recomputations). A sequential evaluator keeps a single stripe:
// with one thread there is nothing to contend with, so it pays neither the
// stripe fan-out at construction nor the hash-based stripe pick per call.
type Evaluator struct {
	K *kb.KB
	// stripes has length 1 (sequential) or evalStripes (shared mode).
	stripes   []evalStripe
	cacheSize int

	evals    uint64 // total subgraph evaluations requested
	computes uint64 // evaluations actually executed against the KB

	coalesce bool
}

// NewEvaluator wraps k with a cache of the given capacity (entries).
func NewEvaluator(k *kb.KB, cacheSize int) *Evaluator {
	ev := &Evaluator{K: k, cacheSize: cacheSize, stripes: make([]evalStripe, 1)}
	ev.stripes[0].cache.Init(cacheSize)
	return ev
}

// stripe returns the shard responsible for g.
func (ev *Evaluator) stripe(g Subgraph) *evalStripe {
	if len(ev.stripes) == 1 {
		return &ev.stripes[0]
	}
	return &ev.stripes[g.Hash()&uint64(len(ev.stripes)-1)]
}

// EnableCoalescing switches the evaluator to shared mode: the cache is
// striped by subgraph hash (capacity divided evenly, stripe count adapted
// to GOMAXPROCS up to evalStripes) and cache misses coalesce per key. It
// costs one small allocation per cache miss, which only buys anything when
// several goroutines share the evaluator — the miner enables it for P-REMI
// and leaves sequential REMI on the zero-overhead single-stripe path. Call
// before the first Bindings call; it must not race with evaluations.
// (Per-stripe inflight maps and cache index maps are created lazily, so
// only stripes that see traffic allocate.)
func (ev *Evaluator) EnableCoalescing() {
	ev.coalesce = true
	n := 1
	for n < evalStripes && n < runtime.GOMAXPROCS(0) {
		n <<= 1
	}
	ev.restripe(n)
}

// restripe resets the evaluator to n shards (n must be a power of two).
// Any cached entries are discarded; callers only invoke it before the
// first evaluation.
func (ev *Evaluator) restripe(n int) {
	if len(ev.stripes) == n {
		return
	}
	per := ev.cacheSize
	if per > 0 {
		// Ceiling division: total capacity is preserved or slightly rounded
		// up, and small positive capacities still cache at least one entry
		// per stripe.
		per = (ev.cacheSize + n - 1) / n
	}
	ev.stripes = make([]evalStripe, n)
	for i := range ev.stripes {
		ev.stripes[i].cache.Init(per)
	}
}

// Bindings returns the (possibly cached) binding set of g. The returned set
// is shared: callers must treat it as immutable (only *Into operations on
// caller-owned scratch sets may mutate, and never an operand).
func (ev *Evaluator) Bindings(g Subgraph) bindset.Set {
	atomic.AddUint64(&ev.evals, 1)
	s := ev.stripe(g)
	if v, ok := s.cache.Get(g); ok {
		return v
	}
	if !ev.coalesce {
		atomic.AddUint64(&ev.computes, 1)
		v := BindingSet(ev.K, g)
		s.cache.Put(g, v)
		return v
	}
	s.mu.Lock()
	if c, ok := s.inflight[g]; ok {
		s.mu.Unlock()
		<-c.done
		return c.val
	}
	// Double-check under the stripe's coalescing lock without touching the
	// cache stats: a leader that finished between our miss and this lock has
	// already published the value (Put happens before the inflight delete,
	// which happens before we could get here), so a duplicate computation is
	// impossible — at most one evaluation runs per subgraph expression.
	if v, ok := s.cache.Peek(g); ok {
		s.mu.Unlock()
		return v
	}
	c := &inflightCall{done: make(chan struct{})}
	if s.inflight == nil {
		s.inflight = make(map[Subgraph]*inflightCall)
	}
	s.inflight[g] = c
	s.mu.Unlock()

	atomic.AddUint64(&ev.computes, 1)
	c.val = BindingSet(ev.K, g)
	s.cache.Put(g, c.val)
	s.mu.Lock()
	delete(s.inflight, g)
	s.mu.Unlock()
	close(c.done)
	return c.val
}

// ExpressionBindings intersects the binding sets of all subgraph expressions
// of e, i.e. computes e(K) as defined in Section 2.2.2.
func (ev *Evaluator) ExpressionBindings(e Expression) bindset.Set {
	if len(e) == 0 {
		return bindset.FromSorted(nil, ev.K.NumEntities())
	}
	cur := ev.Bindings(e[0])
	for _, g := range e[1:] {
		if cur.IsEmpty() {
			return cur
		}
		cur = bindset.Intersect(cur, ev.Bindings(g))
	}
	return cur
}

// IsRE reports whether e(K) equals exactly the target set T (conditions (1)
// and (2) of the RE definition in Section 2.2.2). Targets may be passed in
// any order; unsorted inputs are sorted on a copy.
func (ev *Evaluator) IsRE(e Expression, targets []kb.EntID) bool {
	for i := 1; i < len(targets); i++ {
		if targets[i-1] >= targets[i] {
			targets = SortIDs(append([]kb.EntID(nil), targets...))
			break
		}
	}
	return ev.ExpressionBindings(e).EqualSorted(targets)
}

// Stats returns the number of evaluation requests plus cache hit/miss
// counters, summed across the stripes.
func (ev *Evaluator) Stats() (evals, hits, misses uint64) {
	for i := range ev.stripes {
		h, m := ev.stripes[i].cache.Stats()
		hits += h
		misses += m
	}
	return atomic.LoadUint64(&ev.evals), hits, misses
}

// Computes returns the number of binding-set evaluations actually executed
// against the KB. With miss coalescing it can be lower than the miss count:
// concurrent misses on one subgraph expression share a single computation.
func (ev *Evaluator) Computes() uint64 { return atomic.LoadUint64(&ev.computes) }
