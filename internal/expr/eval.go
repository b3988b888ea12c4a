package expr

import (
	"sync"

	"github.com/remi-kb/remi/internal/bindset"
	"github.com/remi-kb/remi/internal/kb"
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

// ExpressionBindings intersects the binding sets of all subgraph expressions
// of e, i.e. computes e(K) as defined in Section 2.2.2.
func ExpressionBindings(k *kb.KB, e Expression) bindset.Set {
	if len(e) == 0 {
		return bindset.FromSorted(nil, k.NumEntities())
	}
	cur := BindingSet(k, e[0])
	for _, g := range e[1:] {
		if cur.IsEmpty() {
			return cur
		}
		cur = bindset.Intersect(cur, BindingSet(k, g))
	}
	return cur
}
