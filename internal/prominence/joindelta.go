package prominence

import (
	"cmp"
	"slices"

	"github.com/remi-kb/remi/internal/kb"
)

// Join ranks from deltas: a live KB's next generation differs from its
// predecessor in the few predicates a write batch touched, and its join
// strengths are integer sums over entities, so Rebuild corrects the
// predecessor's strengths by the contributions of the entities the edit
// moved instead of summing every entity again (rebuildJoinRanks).

// shortRuns lists, per predicate p, the objects o whose runs(p,o) falls
// short of their in-degree, with the shortfall. Two facts carrying o fall
// into one run only where one subject's last object of p is the next
// subject's first, so few objects are listed (499 of 149,612 object runs of
// the DBpedia-like KB at scale 4); every other object's runs(p,o) is its
// in-degree.
type shortRuns struct {
	off []uint32   // p's entries are [off[p-1], off[p])
	obj []kb.EntID // ascending within a predicate
	gap []uint32   // in-degree minus runs(p, obj[i]); never 0
}

// runs returns runs(p,o) in k, the KB x lists the short runs of.
func (x *shortRuns) runs(k *kb.KB, p kb.PredID, o kb.EntID) int {
	n := k.ObjFreq(p, o)
	if n == 0 {
		return 0
	}
	lo, hi := x.off[p-1], x.off[p]
	if i, ok := slices.BinarySearch(x.obj[lo:hi], o); ok {
		n -= int(x.gap[int(lo)+i])
	}
	return n
}

// copyPred appends y's entries of p as x's: the two KBs share p's runs.
func (x *shortRuns) copyPred(y *shortRuns, p kb.PredID) {
	lo, hi := y.off[p-1], y.off[p]
	x.obj = append(x.obj, y.obj[lo:hi]...)
	x.gap = append(x.gap, y.gap[lo:hi]...)
	x.off[p] = uint32(len(x.obj))
}

// appendPred appends the short runs of p in k, found at its subject
// boundaries; buf is scratch, returned for reuse.
func (x *shortRuns) appendPred(k *kb.KB, p kb.PredID, buf []kb.EntID) []kb.EntID {
	keys, off := k.SubjectRuns(p)
	col := k.ObjectColumn(p)
	joined := buf[:0] // the object of each boundary inside a run, once per boundary
	for i := 1; i < len(keys); i++ {
		if o := col[off[i]]; o == col[off[i]-1] {
			joined = append(joined, o)
		}
	}
	slices.Sort(joined)
	for i := 0; i < len(joined); {
		j := i + 1
		for j < len(joined) && joined[j] == joined[i] {
			j++
		}
		x.obj = append(x.obj, joined[i])
		x.gap = append(x.gap, uint32(j-i))
		i = j
	}
	x.off[p] = uint32(len(x.obj))
	return joined
}

// subjectRuns is one predicate's (S,O)-sorted facts as SubjectRuns and
// ObjectColumn give them.
type subjectRuns struct {
	keys []kb.EntID
	off  []uint32
	col  []kb.EntID
}

func subjectRunsOf(k *kb.KB, p kb.PredID) subjectRuns {
	keys, off := k.SubjectRuns(p)
	return subjectRuns{keys, off, k.ObjectColumn(p)}
}

func (r subjectRuns) run(i int) []kb.EntID { return r.col[r.off[i]:r.off[i+1]] }

// sameRuns reports whether a and b hold p's facts in the very same arrays.
func sameRuns(a, b *kb.KB, p kb.PredID) bool {
	ra, rb := subjectRunsOf(a, p), subjectRunsOf(b, p)
	aObjs, aOff := a.ObjectRuns(p)
	bObjs, bOff := b.ObjectRuns(p)
	return sameArray(ra.keys, rb.keys) && sameArray(ra.off, rb.off) && sameArray(ra.col, rb.col) &&
		sameArray(aObjs, bObjs) && sameArray(aOff, bOff)
}

// joinEdit adds n to the join strength of p1 in p0's row.
type joinEdit struct {
	p0, p1 kb.PredID
	n      int
}

// entityTerms is what one entity puts into the join sums through predicate
// p, in the old KB and in the new: its out-degree under p and runs(p, e).
type entityTerms struct {
	p                kb.PredID
	degOld, degNew   int
	runsOld, runsNew int
}

// joinDelta finds the edits that turn old's join strengths into k's.
type joinDelta struct {
	old, k          *kb.KB
	oldShort, short *shortRuns
	touched         []bool     // touched[p]: old and k do not share p's runs
	moved           []kb.EntID // entities whose terms may differ
	so, ss          []joinEdit
	terms           []entityTerms // scratch of entity
}

// diffStretch is how many subject runs diff compares at a time: a write
// batch changes a handful of a touched predicate's runs, so almost every
// stretch is equal and passes in three flat comparisons.
const diffStretch = 32

// diff compares p's subject runs in the two KBs (old has none when p is
// new). A subject whose run differs has changed, so its terms may have;
// and an object whose runs(p,·) differs has moved SO. runs(p,o) moves only
// with o's in-degree, which only the objects added to or removed from a
// run can have moved, or with its shortfall, so those objects and the
// short runs of p in either KB are the candidates. buf is scratch,
// returned for reuse.
func (d *joinDelta) diff(p kb.PredID, buf []kb.EntID) []kb.EntID {
	var was subjectRuns
	if int(p) <= d.old.NumPredicates() {
		was = subjectRunsOf(d.old, p)
	}
	is := subjectRunsOf(d.k, p)
	cands := buf[:0]
	i, j := 0, 0
	for i < len(was.keys) || j < len(is.keys) {
		if equalStretch(was, is, i, j) {
			i, j = i+diffStretch, j+diffStretch
			continue
		}
		for n := 0; n < diffStretch && (i < len(was.keys) || j < len(is.keys)); n++ {
			switch {
			case j == len(is.keys) || i < len(was.keys) && was.keys[i] < is.keys[j]:
				d.moved = append(d.moved, was.keys[i])
				cands = append(cands, was.run(i)...)
				i++
			case i == len(was.keys) || is.keys[j] < was.keys[i]:
				d.moved = append(d.moved, is.keys[j])
				cands = append(cands, is.run(j)...)
				j++
			default:
				if a, b := was.run(i), is.run(j); !slices.Equal(a, b) {
					d.moved = append(d.moved, is.keys[j])
					cands = appendSymDiff(cands, a, b)
				}
				i++
				j++
			}
		}
	}
	if int(p) <= d.old.NumPredicates() {
		cands = append(cands, d.oldShort.obj[d.oldShort.off[p-1]:d.oldShort.off[p]]...)
	}
	cands = append(cands, d.short.obj[d.short.off[p-1]:d.short.off[p]]...)
	slices.Sort(cands)
	cands = slices.Compact(cands)
	for _, o := range cands {
		if d.oldRuns(p, o) != d.short.runs(d.k, p, o) {
			d.moved = append(d.moved, o)
		}
	}
	return cands
}

// appendSymDiff appends the objects in exactly one of the ascending runs a
// and b: an inverse predicate's run can hold thousands of subjects, of
// which a write adds or removes one.
func appendSymDiff(dst, a, b []kb.EntID) []kb.EntID {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case b[j] < a[i]:
			dst = append(dst, b[j])
			j++
		default:
			i++
			j++
		}
	}
	return append(append(dst, a[i:]...), b[j:]...)
}

// equalStretch reports whether the diffStretch subject runs from was's i-th
// and is's j-th are equal: same subjects, same run lengths, same objects.
func equalStretch(was, is subjectRuns, i, j int) bool {
	if i+diffStretch > len(was.keys) || j+diffStretch > len(is.keys) ||
		!slices.Equal(was.keys[i:i+diffStretch], is.keys[j:j+diffStretch]) {
		return false
	}
	a, b := was.off[i:i+diffStretch+1], is.off[j:j+diffStretch+1]
	for t := range a {
		if a[t]-a[0] != b[t]-b[0] {
			return false
		}
	}
	return slices.Equal(was.col[a[0]:a[diffStretch]], is.col[b[0]:b[diffStretch]])
}

// oldRuns is runs(p,o) in old; 0 when p is new.
func (d *joinDelta) oldRuns(p kb.PredID, o kb.EntID) int {
	if int(p) > d.old.NumPredicates() {
		return 0
	}
	return d.oldShort.runs(d.old, p, o)
}

// entity adds to the edits the difference between e's terms of the SS and
// SO sums in k and in old. Only touched predicates are looked up twice.
func (d *joinDelta) entity(e kb.EntID) {
	d.terms = d.terms[:0]
	for _, p := range d.k.Predicates() {
		t := entityTerms{p: p, degNew: len(d.k.Objects(p, e)), runsNew: d.short.runs(d.k, p, e)}
		if !d.touched[p] {
			t.degOld, t.runsOld = t.degNew, t.runsNew
		} else if int(p) <= d.old.NumPredicates() {
			t.degOld, t.runsOld = len(d.old.Objects(p, e)), d.oldRuns(p, e)
		}
		if t != (entityTerms{p: p}) {
			d.terms = append(d.terms, t)
		}
	}
	for _, a := range d.terms {
		for _, b := range d.terms {
			if a.p != b.p {
				if n := subject(a.degNew)*b.degNew - subject(a.degOld)*b.degOld; n != 0 {
					d.ss = append(d.ss, joinEdit{a.p, b.p, n})
				}
			}
			if n := a.runsNew*b.degNew - a.runsOld*b.degOld; n != 0 {
				d.so = append(d.so, joinEdit{a.p, b.p, n})
			}
		}
	}
}

// subject is 1 for an entity with out-degree deg > 0 under a predicate (a
// subject of it), else 0.
func subject(deg int) int {
	if deg > 0 {
		return 1
	}
	return 0
}

// rebuildJoinRanks makes s.K's join ranks from prev's, whose KB has no more
// predicates. The strengths are integer sums of per-entity terms, so they
// move only by the terms of the entities the edit between prev.K and s.K
// moved. A predicate is touched when the two KBs do not hold its facts in
// the very same arrays (ApplyPatch shares an untouched predicate's), and a
// subject is changed when its run in some touched predicate differs between
// them (diff). Then:
//
//   - SS: each changed subject's terms under prev.K are taken out and its
//     terms under s.K put in;
//   - SO: the same for each changed subject. Any other entity e keeps its
//     out-degrees, so it moves SO only where runs(p0,e) changed in a touched
//     p0, by Δruns(p0,e)·deg(p1,e).
//
// entity computes both as one difference of terms. Only the rows with a
// nonzero delta are ranked again; every other row is copied. The
// arithmetic is integer, so the result is buildJoinRanks'.
func (s *Store) rebuildJoinRanks(prev *Store) {
	nP := s.K.NumPredicates()
	d := joinDelta{old: prev.K, k: s.K, oldShort: &prev.short, short: &s.short, touched: make([]bool, nP+1)}
	s.short.off = make([]uint32, nP+1)
	s.short.obj = make([]kb.EntID, 0, len(prev.short.obj))
	s.short.gap = make([]uint32, 0, len(prev.short.gap))
	var buf []kb.EntID
	for _, p := range s.K.Predicates() {
		if int(p) <= prev.K.NumPredicates() && sameRuns(s.K, prev.K, p) {
			s.short.copyPred(&prev.short, p)
			continue
		}
		d.touched[p] = true
		buf = s.short.appendPred(s.K, p, buf)
		buf = d.diff(p, buf)
	}
	slices.Sort(d.moved)
	for _, e := range slices.Compact(d.moved) {
		d.entity(e)
	}
	row := newRowScratch(nP)
	s.joinSO.rebuild(&prev.joinSO, nP, d.so, row)
	s.joinSS.rebuild(&prev.joinSS, nP, d.ss, row)
}

// rebuild makes j's nP rows from prev's with edits folded in: a row no
// edit moves is copied, and the others are ranked again by appendRow.
func (j *joinRanks) rebuild(prev *joinRanks, nP int, edits []joinEdit, r *rowScratch) {
	edits = sumEdits(edits)
	j.off = make([]uint32, nP+1)
	j.pred = make([]kb.PredID, 0, len(prev.pred)+len(edits))
	j.str = make([]int, 0, cap(j.pred))
	j.rank = make([]uint32, 0, cap(j.pred))
	for p0 := kb.PredID(1); int(p0) <= nP; p0++ {
		var lo, hi uint32 // a new predicate has no row in prev
		if int(p0) < len(prev.off) {
			lo, hi = prev.off[p0-1], prev.off[p0]
		}
		if len(edits) == 0 || edits[0].p0 != p0 {
			j.pred = append(j.pred, prev.pred[lo:hi]...)
			j.str = append(j.str, prev.str[lo:hi]...)
			j.rank = append(j.rank, prev.rank[lo:hi]...)
			j.off[p0] = uint32(len(j.pred))
			continue
		}
		for i := lo; i < hi; i++ {
			r.add(prev.pred[i], prev.str[i])
		}
		for ; len(edits) > 0 && edits[0].p0 == p0; edits = edits[1:] {
			r.add(edits[0].p1, edits[0].n)
		}
		r.partners = slices.DeleteFunc(r.partners, func(p1 kb.PredID) bool { return r.acc[p1] == 0 })
		j.appendRow(p0, r)
	}
}

// sumEdits sorts edits by (p0, p1) and sums each pair's, dropping the pairs
// whose edits cancel.
func sumEdits(edits []joinEdit) []joinEdit {
	slices.SortFunc(edits, func(a, b joinEdit) int { return cmp.Or(cmp.Compare(a.p0, b.p0), cmp.Compare(a.p1, b.p1)) })
	out := edits[:0]
	for i := 0; i < len(edits); {
		e := edits[i]
		for i++; i < len(edits) && edits[i].p0 == e.p0 && edits[i].p1 == e.p1; i++ {
			e.n += edits[i].n
		}
		if e.n != 0 {
			out = append(out, e)
		}
	}
	return out
}
