// Package delta implements the mutable overlay of the live-KB layer: a
// per-predicate add/retract edit set over an immutable base KB. The overlay
// is the in-memory twin of the write-ahead log — the server replays WAL
// records into an Overlay at boot and applies acked mutations to it at
// runtime — and materializes into a queryable *kb.KB through
// kb.(*KB).ApplyPatch, so mining over a mutated KB runs against the same
// CSR machinery (and produces the same answers) as mining over a freshly
// parsed KB holding the same facts.
//
// # Semantics
//
// Mutations are idempotent upserts and retracts: upserting a fact that is
// already present, or retracting one that is absent, is a no-op rather than
// an error. Idempotence is what makes at-least-once WAL replay safe — a
// crash between fsync and the in-memory apply means the record is replayed
// on the next boot, and replaying an already-applied batch changes nothing.
//
// # Inverse predicates
//
// The base KB materializes inverse predicates p⁻¹ for prominent objects
// (Section 4 of the paper). The overlay keeps that structure coherent under
// a frozen-prominence policy: an added or retracted fact p(s,o) is mirrored
// into p⁻¹(o,s) exactly when the base has an inverse for p, o is not a
// literal, and o already appears as the subject of some inverse fact in the
// base (i.e. o was in the prominent set when the base was built). Entities
// that only become prominent through live mutations gain their inverses at
// the next full rebuild, not incrementally — prominence is a global ranking
// and recomputing it per mutation would defeat the point of a delta layer.
// New predicates introduced through the overlay get no inverse until a
// rebuild for the same reason.
//
// # Concurrency
//
// An Overlay is not safe for concurrent use. The server serializes all
// mutations per KB and serves reads from materialized (immutable) KBs, so
// the overlay itself is only ever touched under the mutation lock.
package delta

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"github.com/remi-kb/remi/internal/kb"
	"github.com/remi-kb/remi/internal/rdf"
)

// ErrInvalidOp wraps every Validate rejection, so callers (the HTTP admin
// plane) can distinguish a caller error from an infrastructure failure.
var ErrInvalidOp = errors.New("invalid mutation")

// Op is a single mutation: an upsert (Retract=false) or retract
// (Retract=true) of the fact P(S,O).
type Op struct {
	Retract bool
	S, P, O rdf.Term
}

// String renders the op for error messages and logs.
func (op Op) String() string {
	verb := "upsert"
	if op.Retract {
		verb = "retract"
	}
	return fmt.Sprintf("%s %s %s %s", verb, op.S, op.P, op.O)
}

// Overlay is a mutable edit set over an immutable base KB. The zero value
// is not usable; construct with New.
type Overlay struct {
	base      *kb.KB
	baseEnts  int
	basePreds int

	// Terms and predicates minted by the overlay, in id order: newTerms[i]
	// has id baseEnts+i+1, newPreds[i] has id basePreds+i+1.
	newTerms  []rdf.Term
	newTermID map[rdf.Term]kb.EntID
	newPreds  []string
	newPredID map[string]kb.PredID

	// adds[p] and dels[p] are (S,O)-sorted and disjoint: a pair is never in
	// both, adds are absent from the base, dels are present in it.
	adds map[kb.PredID][]kb.Pair
	dels map[kb.PredID][]kb.Pair

	// inv maps each base predicate to its materialized inverse (when one
	// exists); invSubj holds the entities appearing as subject of at least
	// one inverse fact in the base — the frozen prominent-set proxy that
	// gates mirroring.
	inv     map[kb.PredID]kb.PredID
	invSubj map[kb.EntID]bool
}

// New returns an empty overlay over base. The base must stay reachable and
// unchanged for the overlay's lifetime.
func New(base *kb.KB) *Overlay {
	ov := &Overlay{
		base:      base,
		baseEnts:  base.NumEntities(),
		basePreds: base.NumPredicates(),
		newTermID: make(map[rdf.Term]kb.EntID),
		newPredID: make(map[string]kb.PredID),
		adds:      make(map[kb.PredID][]kb.Pair),
		dels:      make(map[kb.PredID][]kb.Pair),
		inv:       make(map[kb.PredID]kb.PredID),
		invSubj:   make(map[kb.EntID]bool),
	}
	for _, p := range base.Predicates() {
		bp := base.BaseOf(p)
		if bp == 0 {
			continue
		}
		ov.inv[bp] = p
		subjects, _ := base.SubjectRuns(p)
		for _, s := range subjects {
			ov.invSubj[s] = true
		}
	}
	return ov
}

// PendingAdds returns the number of facts added over the base (inverse
// mirrors included); PendingDels the number retracted from it.
func (ov *Overlay) PendingAdds() int { return pairCount(ov.adds) }

// PendingDels returns the number of base facts retracted by the overlay.
func (ov *Overlay) PendingDels() int { return pairCount(ov.dels) }

// NewTerms returns the number of terms minted by the overlay.
func (ov *Overlay) NewTerms() int { return len(ov.newTerms) }

// NewPreds returns the number of predicates minted by the overlay.
func (ov *Overlay) NewPreds() int { return len(ov.newPreds) }

func pairCount(m map[kb.PredID][]kb.Pair) int {
	n := 0
	for _, prs := range m {
		n += len(prs)
	}
	return n
}

// Validate checks a batch of ops against the rules of the data model
// without mutating the overlay: P must be an IRI and must not name (or
// look like) an inverse predicate — inverse facts are derived, never
// asserted — and S must not be a literal. It returns the first violation.
// A batch that validates cleanly is guaranteed to apply without error,
// which is what lets the server ack a WAL record before applying it.
func (ov *Overlay) Validate(ops []Op) error {
	for i, op := range ops {
		if op.P.Kind != rdf.IRI {
			return fmt.Errorf("%w: op %d (%s): predicate must be an IRI", ErrInvalidOp, i, op)
		}
		if strings.Contains(op.P.Value, kb.InverseMarker) {
			return fmt.Errorf("%w: op %d (%s): predicate names an inverse; mutate the base predicate instead", ErrInvalidOp, i, op)
		}
		if p, ok := ov.predID(op.P.Value, false); ok && int(p) <= ov.basePreds && ov.base.IsInverse(p) {
			return fmt.Errorf("%w: op %d (%s): predicate is a materialized inverse; mutate the base predicate instead", ErrInvalidOp, i, op)
		}
		if op.S.Kind == rdf.Literal {
			return fmt.Errorf("%w: op %d (%s): subject must not be a literal", ErrInvalidOp, i, op)
		}
	}
	return nil
}

// Apply validates ops and folds them into the overlay. It returns the
// number of ops that changed state (idempotent re-applications are counted
// as applied but change nothing). On a validation error the overlay is
// untouched: validation is a pure pre-pass and mutation is infallible.
func (ov *Overlay) Apply(ops []Op) (changed int, err error) {
	if err := ov.Validate(ops); err != nil {
		return 0, err
	}
	for _, op := range ops {
		if ov.applyOne(op) {
			changed++
		}
	}
	return changed, nil
}

func (ov *Overlay) applyOne(op Op) bool {
	if op.Retract {
		s, ok1 := ov.entID(op.S, false)
		p, ok2 := ov.predID(op.P.Value, false)
		o, ok3 := ov.entID(op.O, false)
		if !ok1 || !ok2 || !ok3 || !ov.HasFact(p, s, o) {
			return false // unknown term or absent fact: retract is a no-op
		}
		ov.delFact(p, s, o)
		if ip, ok := ov.inv[p]; ok && op.O.Kind != rdf.Literal && ov.invSubj[o] && ov.HasFact(ip, o, s) {
			ov.delFact(ip, o, s)
		}
		return true
	}
	s, _ := ov.entID(op.S, true)
	p, _ := ov.predID(op.P.Value, true)
	o, _ := ov.entID(op.O, true)
	if ov.HasFact(p, s, o) {
		return false
	}
	ov.addFact(p, s, o)
	if ip, ok := ov.inv[p]; ok && op.O.Kind != rdf.Literal && ov.invSubj[o] && !ov.HasFact(ip, o, s) {
		ov.addFact(ip, o, s)
	}
	return true
}

// entID resolves a term against base dictionary then overlay-minted terms,
// minting a new id when alloc is set.
func (ov *Overlay) entID(t rdf.Term, alloc bool) (kb.EntID, bool) {
	if id, ok := ov.base.EntityID(t); ok {
		return id, true
	}
	if id, ok := ov.newTermID[t]; ok {
		return id, true
	}
	if !alloc {
		return 0, false
	}
	ov.newTerms = append(ov.newTerms, t)
	id := kb.EntID(ov.baseEnts + len(ov.newTerms))
	ov.newTermID[t] = id
	return id, true
}

func (ov *Overlay) predID(name string, alloc bool) (kb.PredID, bool) {
	if p, ok := ov.base.PredicateID(name); ok {
		return p, true
	}
	if p, ok := ov.newPredID[name]; ok {
		return p, true
	}
	if !alloc {
		return 0, false
	}
	ov.newPreds = append(ov.newPreds, name)
	p := kb.PredID(ov.basePreds + len(ov.newPreds))
	ov.newPredID[name] = p
	return p, true
}

// addFact records p(s,o) as present: a pending retract is cancelled,
// otherwise the pair joins the add set. Caller guarantees the fact is
// currently absent from the merged view.
func (ov *Overlay) addFact(p kb.PredID, s, o kb.EntID) {
	if i, ok := searchPair(ov.dels[p], s, o); ok {
		ov.dels[p] = slices.Delete(ov.dels[p], i, i+1)
		if len(ov.dels[p]) == 0 {
			delete(ov.dels, p)
		}
		return
	}
	i, _ := searchPair(ov.adds[p], s, o)
	ov.adds[p] = slices.Insert(ov.adds[p], i, kb.Pair{S: s, O: o})
}

// delFact records p(s,o) as absent: a pending add is cancelled, otherwise
// the pair (a base fact) joins the del set. Caller guarantees the fact is
// currently present in the merged view.
func (ov *Overlay) delFact(p kb.PredID, s, o kb.EntID) {
	if i, ok := searchPair(ov.adds[p], s, o); ok {
		ov.adds[p] = slices.Delete(ov.adds[p], i, i+1)
		if len(ov.adds[p]) == 0 {
			delete(ov.adds, p)
		}
		return
	}
	i, _ := searchPair(ov.dels[p], s, o)
	ov.dels[p] = slices.Insert(ov.dels[p], i, kb.Pair{S: s, O: o})
}

// searchPair binary-searches a (S,O)-sorted pair list.
func searchPair(ps []kb.Pair, s, o kb.EntID) (int, bool) {
	return slices.BinarySearchFunc(ps, kb.Pair{S: s, O: o}, func(a, b kb.Pair) int {
		if a.S != b.S {
			return int(a.S) - int(b.S)
		}
		return int(a.O) - int(b.O)
	})
}

// inBase reports whether (p, s, o) all fall inside the base id spaces —
// overlay-minted ids have no base index entries at all.
func (ov *Overlay) inBase(p kb.PredID, s, o kb.EntID) bool {
	return int(p) <= ov.basePreds && int(s) <= ov.baseEnts && int(o) <= ov.baseEnts
}

// HasFact reports whether p(s,o) holds in the merged base+delta view.
func (ov *Overlay) HasFact(p kb.PredID, s, o kb.EntID) bool {
	if _, ok := searchPair(ov.adds[p], s, o); ok {
		return true
	}
	if _, ok := searchPair(ov.dels[p], s, o); ok {
		return false
	}
	return ov.inBase(p, s, o) && ov.base.HasFact(p, s, o)
}

// Materialize folds the overlay into a new immutable KB via ApplyPatch.
// The base is untouched and both KBs are independently closeable; the
// returned KB answers every accessor exactly as a freshly built KB holding
// the merged fact set would (modulo the frozen-prominence inverse policy
// above). The overlay remains usable and may keep accumulating edits: the
// patch hands ApplyPatch the overlay's own lists, which it does not retain.
func (ov *Overlay) Materialize() (*kb.KB, error) {
	return ov.base.ApplyPatch(kb.Patch{ExtraTerms: ov.newTerms, ExtraPreds: ov.newPreds, Adds: ov.adds, Dels: ov.dels})
}
