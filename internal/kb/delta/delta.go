// Package delta implements the write half of the live-KB layer: it turns a
// batch of term-level mutations into one kb.Patch against the newest KB
// generation and folds it in through kb.(*KB).ApplyPatch, so a live KB is a
// chain of ordinary CSR KBs, each patched from the one before. Mining reads
// a generation exactly as it reads a freshly parsed KB holding the same
// facts. The overlay is the in-memory twin of the write-ahead log: the
// server replays WAL records through Apply at boot and applies acked
// mutations through it at runtime.
//
// # Semantics
//
// Mutations are idempotent upserts and retracts: upserting a fact that is
// already present, or retracting one that is absent, is a no-op rather than
// an error. Idempotence is what makes at-least-once WAL replay safe — a
// crash between fsync and the in-memory apply means the record is replayed
// on the next boot, and replaying an already-applied batch changes nothing.
// Within a batch, ops take effect in order: an upsert followed by a retract
// of the same fact nets out, though both count as changes.
//
// # Inverse predicates
//
// The base KB materializes inverse predicates p⁻¹ for prominent objects
// (Section 4 of the paper). The overlay keeps that structure coherent under
// a frozen-prominence policy: an added or retracted fact p(s,o) is mirrored
// into p⁻¹(o,s) exactly when the base has an inverse for p, o is not a
// literal, and o appears as the subject of some inverse fact in the base
// (i.e. o was in the prominent set when the base was built). The set is
// read from the compaction base, never from a later generation, so a
// retract cannot drop an entity out of it. Entities that only become
// prominent through live mutations gain their inverses at the next full
// rebuild, not incrementally — prominence is a global ranking and
// recomputing it per mutation would defeat the point of a delta layer. New
// predicates introduced through the overlay get no inverse until a rebuild
// for the same reason.
//
// # Concurrency
//
// An Overlay is not safe for concurrent use. The server serializes all
// mutations per KB and serves reads from generations handed out by
// Materialize, so the overlay itself is only ever touched under the
// mutation lock.
package delta

import (
	"cmp"
	"encoding/json"
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
// (Retract=true) of the fact P(S,O). Its JSON form is the one a facts
// request carries and a WAL record stores: {"op":"upsert"|"retract",
// "s","p","o"} with the terms in N-Triples syntax; "op" may be left out on
// input, and then the op is an upsert.
type Op struct {
	Retract bool
	S, P, O rdf.Term
}

// opJSON is the JSON form of an Op.
type opJSON struct {
	Op string `json:"op"`
	S  string `json:"s"`
	P  string `json:"p"`
	O  string `json:"o"`
}

func (op Op) verb() string {
	if op.Retract {
		return "retract"
	}
	return "upsert"
}

// String renders the op for error messages and logs.
func (op Op) String() string {
	return fmt.Sprintf("%s %s %s %s", op.verb(), op.S, op.P, op.O)
}

// MarshalJSON writes the op's JSON form, "op" always present.
func (op Op) MarshalJSON() ([]byte, error) {
	return json.Marshal(opJSON{Op: op.verb(), S: op.S.String(), P: op.P.String(), O: op.O.String()})
}

// UnmarshalJSON reads the op's JSON form: a missing or empty "op" is an
// upsert, and each term must parse as N-Triples.
func (op *Op) UnmarshalJSON(b []byte) error {
	var j opJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	if j.Op != "" && j.Op != "upsert" && j.Op != "retract" {
		return fmt.Errorf("unknown op %q (upsert|retract)", j.Op)
	}
	op.Retract = j.Op == "retract"
	var err error
	if op.S, err = rdf.ParseTerm(j.S); err != nil {
		return fmt.Errorf("subject: %w", err)
	}
	if op.P, err = rdf.ParseTerm(j.P); err != nil {
		return fmt.Errorf("predicate: %w", err)
	}
	if op.O, err = rdf.ParseTerm(j.O); err != nil {
		return fmt.Errorf("object: %w", err)
	}
	return nil
}

// Overlay is the newest generation of a live KB plus what it needs to
// derive the next one. The zero value is not usable; construct with New.
type Overlay struct {
	// base is the compaction base: the mirroring rule and the pending
	// counters are relative to it. cur is the newest generation. The
	// overlay holds one reference on each.
	base, cur *kb.KB

	// inv maps each base predicate to its materialized inverse (when one
	// exists); invSubj holds the entities appearing as subject of at least
	// one inverse fact in the base — the frozen prominent-set proxy that
	// gates mirroring.
	inv     map[kb.PredID]kb.PredID
	invSubj map[kb.EntID]bool

	// pendingAdds and pendingDels count the facts (mirrors included) that
	// cur holds and base lacks, and the reverse.
	pendingAdds, pendingDels int
}

// New returns an overlay whose first generation is base. The overlay takes
// over the caller's reference on base, released by Close.
func New(base *kb.KB) *Overlay {
	ov := &Overlay{cur: base}
	ov.Rebase()
	return ov
}

// Rebase makes the newest generation the base, as a compaction that wrote
// it out does: the mirroring rule's prominent set and the pending counters
// restart from it, and the overlay's reference on the old base is
// released. The base is a bare copy: it is read for its facts alone, and
// must not keep the adjacency arena that the newest generation shares with
// its readers alive after later writes replace it.
func (ov *Overlay) Rebase() {
	ov.base.Close()
	ov.base = ov.cur.Bare()
	ov.inv, ov.invSubj = make(map[kb.PredID]kb.PredID), make(map[kb.EntID]bool)
	ov.pendingAdds, ov.pendingDels = 0, 0
	for _, p := range ov.base.Predicates() {
		bp := ov.base.BaseOf(p)
		if bp == 0 {
			continue
		}
		ov.inv[bp] = p
		subjects, _ := ov.base.SubjectRuns(p)
		for _, s := range subjects {
			ov.invSubj[s] = true
		}
	}
}

// PendingAdds returns the number of facts the newest generation holds over
// the base (inverse mirrors included).
func (ov *Overlay) PendingAdds() int { return ov.pendingAdds }

// PendingDels returns the number of base facts the newest generation lacks.
func (ov *Overlay) PendingDels() int { return ov.pendingDels }

// NewTerms returns the number of terms minted since the base.
func (ov *Overlay) NewTerms() int { return ov.cur.NumEntities() - ov.base.NumEntities() }

// NewPreds returns the number of predicates minted since the base.
func (ov *Overlay) NewPreds() int { return ov.cur.NumPredicates() - ov.base.NumPredicates() }

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
		if p, ok := ov.cur.PredicateID(op.P.Value); ok && ov.cur.IsInverse(p) {
			return fmt.Errorf("%w: op %d (%s): predicate is a materialized inverse; mutate the base predicate instead", ErrInvalidOp, i, op)
		}
		if op.S.Kind == rdf.Literal {
			return fmt.Errorf("%w: op %d (%s): subject must not be a literal", ErrInvalidOp, i, op)
		}
	}
	return nil
}

// fact is one encoded triple p(s,o).
type fact struct {
	p    kb.PredID
	s, o kb.EntID
}

// batch folds one Apply's ops against the newest generation: ids minted by
// the batch, and the state each touched fact ends the batch in.
type batch struct {
	cur     *kb.KB
	terms   []rdf.Term
	termIDs map[rdf.Term]kb.EntID // every term resolved so far, minted or not
	preds   []string
	predIDs map[string]kb.PredID
	state   map[fact]bool
}

// Apply validates ops, folds them into one patch against the newest
// generation and makes the patched KB the newest. It returns the number of
// ops that changed state (idempotent re-applications are counted as applied
// but change nothing). On error the overlay is untouched: validation is a
// pure pre-pass, and the generation is swapped only once the patch applied.
func (ov *Overlay) Apply(ops []Op) (changed int, err error) {
	if err := ov.Validate(ops); err != nil {
		return 0, err
	}
	b := &batch{cur: ov.cur, termIDs: map[rdf.Term]kb.EntID{}, predIDs: map[string]kb.PredID{}, state: map[fact]bool{}}
	for _, op := range ops {
		if ov.applyOne(b, op) {
			changed++
		}
	}
	patch := kb.Patch{ExtraTerms: b.terms, ExtraPreds: b.preds, Adds: map[kb.PredID][]kb.Pair{}, Dels: map[kb.PredID][]kb.Pair{}}
	adds, dels := ov.pendingAdds, ov.pendingDels
	for f, present := range b.state {
		if present == holds(ov.cur, f) {
			continue // the batch netted out on f
		}
		edits, step := patch.Adds, 1
		if !present {
			edits, step = patch.Dels, -1
		}
		edits[f.p] = append(edits[f.p], kb.Pair{S: f.s, O: f.o})
		// A base fact coming back closes a pending retract; any other
		// change opens or closes a pending add.
		if holds(ov.base, f) {
			dels -= step
		} else {
			adds += step
		}
	}
	for _, m := range []map[kb.PredID][]kb.Pair{patch.Adds, patch.Dels} {
		for _, prs := range m {
			slices.SortFunc(prs, func(a, b kb.Pair) int { return cmp.Or(cmp.Compare(a.S, b.S), cmp.Compare(a.O, b.O)) })
		}
	}
	next, err := ov.cur.ApplyPatch(patch)
	if err != nil {
		return 0, err
	}
	ov.cur.Close()
	ov.cur, ov.pendingAdds, ov.pendingDels = next, adds, dels
	return changed, nil
}

// applyOne folds op into the batch and reports whether it changed a fact.
// An upsert mints ids for its unknown terms; a retract naming one is a
// no-op.
func (ov *Overlay) applyOne(b *batch, op Op) bool {
	present := !op.Retract
	s, ok1 := b.entID(op.S, present)
	p, ok2 := b.predID(op.P.Value, present)
	o, ok3 := b.entID(op.O, present)
	if !ok1 || !ok2 || !ok3 || !b.set(fact{p, s, o}, present) {
		return false
	}
	if ip, ok := ov.inv[p]; ok && op.O.Kind != rdf.Literal && ov.invSubj[o] {
		b.set(fact{ip, o, s}, present)
	}
	return true
}

// set records that f ends up present or absent and reports whether that
// changed its state.
func (b *batch) set(f fact, present bool) bool {
	was, ok := b.state[f]
	if !ok {
		was = holds(b.cur, f)
	}
	b.state[f] = present
	return was != present
}

// holds reports whether k has fact f; ids minted after k have no facts in it.
func holds(k *kb.KB, f fact) bool {
	return int(f.p) <= k.NumPredicates() && k.HasFact(f.p, f.s, f.o)
}

// entID resolves a term against the batch's resolved and minted terms then
// the newest generation, minting a new id when alloc is set. A term found
// in the generation is remembered, so a batch searches the dictionary once
// per distinct term however many ops name it.
func (b *batch) entID(t rdf.Term, alloc bool) (kb.EntID, bool) {
	if id, ok := b.termIDs[t]; ok {
		return id, true
	}
	if id, ok := b.cur.EntityID(t); ok {
		b.termIDs[t] = id
		return id, true
	}
	if !alloc {
		return 0, false
	}
	b.terms = append(b.terms, t)
	id := kb.EntID(b.cur.NumEntities() + len(b.terms))
	b.termIDs[t] = id
	return id, true
}

func (b *batch) predID(name string, alloc bool) (kb.PredID, bool) {
	if p, ok := b.cur.PredicateID(name); ok {
		return p, true
	}
	if p, ok := b.predIDs[name]; ok {
		return p, true
	}
	if !alloc {
		return 0, false
	}
	b.preds = append(b.preds, name)
	p := kb.PredID(b.cur.NumPredicates() + len(b.preds))
	b.predIDs[name] = p
	return p, true
}

// Materialize returns the newest generation as a KB of its own: a shallow
// copy holding its own reference on any backing snapshot, so the caller
// closes it independently of the overlay and of later generations.
func (ov *Overlay) Materialize() (*kb.KB, error) {
	return ov.cur.ApplyPatch(kb.Patch{})
}

// Close releases the overlay's references on its base and newest
// generation.
func (ov *Overlay) Close() error { return errors.Join(ov.base.Close(), ov.cur.Close()) }
