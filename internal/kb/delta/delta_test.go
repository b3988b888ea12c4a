package delta

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/remi-kb/remi/internal/kb"
	"github.com/remi-kb/remi/internal/rdf"
)

func iri(s string) rdf.Term { return rdf.NewIRI("http://e/" + s) }
func lit(s string) rdf.Term { return rdf.NewLiteral(s) }

func tr(s, p string, o rdf.Term) rdf.Triple {
	return rdf.Triple{S: iri(s), P: iri(p), O: o}
}

func build(t *testing.T, frac float64, trs []rdf.Triple) *kb.KB {
	t.Helper()
	k, err := kb.FromTriples(trs, kb.Options{InverseTopFraction: frac})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// tripleKey is a term-level fact identity, independent of dictionary ids.
func tripleKey(t rdf.Triple) string {
	return t.S.String() + " " + t.P.String() + " " + t.O.String()
}

// dumpBaseFacts decodes every non-inverse fact of k back to terms.
func dumpBaseFacts(k *kb.KB) []string {
	var out []string
	for _, p := range k.Predicates() {
		if k.IsInverse(p) {
			continue
		}
		name := rdf.NewIRI(k.PredicateName(p))
		for _, pr := range k.Facts(p) {
			out = append(out, tripleKey(rdf.Triple{S: k.Term(pr.S), P: name, O: k.Term(pr.O)}))
		}
	}
	sort.Strings(out)
	return out
}

// allTriples decodes every fact of k, materialized inverse facts included
// with the inverse predicate's display name as the predicate term.
func allTriples(k *kb.KB) []rdf.Triple {
	var out []rdf.Triple
	for _, p := range k.Predicates() {
		name := rdf.NewIRI(k.PredicateName(p))
		for _, pr := range k.Facts(p) {
			out = append(out, rdf.Triple{S: k.Term(pr.S), P: name, O: k.Term(pr.O)})
		}
	}
	return out
}

// dumpAllFacts is allTriples as sorted keys.
func dumpAllFacts(k *kb.KB) []string {
	var out []string
	for _, x := range allTriples(k) {
		out = append(out, tripleKey(x))
	}
	sort.Strings(out)
	return out
}

// assertGoldenEquivalent checks that got answers every accessor the way the
// freshly built want does, comparing term-wise so dictionary id layouts are
// free to differ.
func assertGoldenEquivalent(t *testing.T, got, want *kb.KB) {
	t.Helper()
	if g, w := dumpAllFacts(got), dumpAllFacts(want); !slices.Equal(g, w) {
		t.Fatalf("fact sets differ:\n got: %v\nwant: %v", g, w)
	}
	if got.NumBaseFacts() != want.NumBaseFacts() {
		t.Fatalf("NumBaseFacts = %d, want %d", got.NumBaseFacts(), want.NumBaseFacts())
	}
	// Per-entity statistics and adjacency, keyed by term.
	for _, e := range want.Entities(nil) {
		term := want.Term(e)
		ge, ok := got.EntityID(term)
		if !ok {
			t.Fatalf("entity %s missing from mutated KB", term)
		}
		if got.EntityFreq(ge) != want.EntityFreq(e) {
			t.Fatalf("EntityFreq(%s) = %d, want %d", term, got.EntityFreq(ge), want.EntityFreq(e))
		}
		gAdj, wAdj := decodeAdj(got, ge), decodeAdj(want, e)
		if !slices.Equal(gAdj, wAdj) {
			t.Fatalf("AdjacencyOf(%s):\n got %v\nwant %v", term, gAdj, wAdj)
		}
	}
	// Entities only the mutated KB knows (minted then fully retracted) must
	// be inert: no facts, no frequency.
	for _, e := range got.Entities(nil) {
		if _, ok := want.EntityID(got.Term(e)); !ok {
			if got.EntityFreq(e) != 0 || len(got.AdjacencyOf(e)) != 0 {
				t.Fatalf("orphan entity %s has facts", got.Term(e))
			}
		}
	}
	// Per-predicate reverse index agreement on every (p, o) seen in want.
	for _, p := range want.Predicates() {
		name := want.PredicateName(p)
		gp, ok := got.PredicateID(name)
		if !ok {
			t.Fatalf("predicate %s missing from mutated KB", name)
		}
		for _, pr := range want.Facts(p) {
			oTerm := want.Term(pr.O)
			gO, _ := got.EntityID(oTerm)
			if got.ObjFreq(gp, gO) != want.ObjFreq(p, pr.O) {
				t.Fatalf("ObjFreq(%s, %s) = %d, want %d", name, oTerm, got.ObjFreq(gp, gO), want.ObjFreq(p, pr.O))
			}
			gS := decodeEnts(got, got.Subjects(gp, gO))
			wS := decodeEnts(want, want.Subjects(p, pr.O))
			if !slices.Equal(gS, wS) {
				t.Fatalf("Subjects(%s, %s):\n got %v\nwant %v", name, oTerm, gS, wS)
			}
		}
	}
}

func decodeAdj(k *kb.KB, e kb.EntID) []string {
	out := make([]string, 0, len(k.AdjacencyOf(e)))
	for _, po := range k.AdjacencyOf(e) {
		out = append(out, k.PredicateName(po.P)+" "+k.Term(po.O).String())
	}
	sort.Strings(out)
	return out
}

func decodeEnts(k *kb.KB, es []kb.EntID) []string {
	out := make([]string, 0, len(es))
	for _, e := range es {
		out = append(out, k.Term(e).String())
	}
	sort.Strings(out)
	return out
}

func baseTriples() []rdf.Triple {
	return []rdf.Triple{
		tr("paris", "capitalOf", iri("france")),
		tr("paris", "cityIn", iri("france")),
		tr("lyon", "cityIn", iri("france")),
		tr("berlin", "capitalOf", iri("germany")),
		tr("berlin", "cityIn", iri("germany")),
		tr("paris", "label", lit("Paris")),
	}
}

func TestOverlayGoldenEquivalence(t *testing.T) {
	base := build(t, 0, baseTriples())
	ov := New(base)

	ops := []Op{
		// Plain add, add minting a new entity, add minting a new predicate.
		{S: iri("lyon"), P: iri("capitalOf"), O: iri("gaul")},
		{S: iri("seine"), P: iri("riverOf"), O: iri("paris")},
		// Literal object.
		{S: iri("lyon"), P: iri("label"), O: lit("Lyon")},
		// Retract a base fact.
		{Retract: true, S: iri("berlin"), P: iri("cityIn"), O: iri("germany")},
		// Idempotent duplicate upsert and retract of an absent fact.
		{S: iri("paris"), P: iri("cityIn"), O: iri("france")},
		{Retract: true, S: iri("madrid"), P: iri("cityIn"), O: iri("spain")},
		// Add then retract within the same delta (net no-op).
		{S: iri("oslo"), P: iri("cityIn"), O: iri("norway")},
		{Retract: true, S: iri("oslo"), P: iri("cityIn"), O: iri("norway")},
		// Retract then re-add a base fact (net no-op).
		{Retract: true, S: iri("paris"), P: iri("capitalOf"), O: iri("france")},
		{S: iri("paris"), P: iri("capitalOf"), O: iri("france")},
	}
	changed, err := ov.Apply(ops)
	if err != nil {
		t.Fatal(err)
	}
	if changed != 8 { // all but the duplicate upsert and the absent retract
		t.Fatalf("changed = %d, want 8", changed)
	}

	mutated, err := ov.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	wantTriples := append(baseTriples()[:4:4], // drops berlin-cityIn-germany
		baseTriples()[5],
		tr("lyon", "capitalOf", iri("gaul")),
		tr("seine", "riverOf", iri("paris")),
		tr("lyon", "label", lit("Lyon")),
	)
	want := build(t, 0, wantTriples)
	assertGoldenEquivalent(t, mutated, want)

	if g, w := dumpBaseFacts(mutated), dumpBaseFacts(want); !slices.Equal(g, w) {
		t.Fatalf("base fact sets differ:\n got %v\nwant %v", g, w)
	}
}

// chainModel is the naive triple model a live KB must track: the fact set
// by term-level key, inverse facts included, under the frozen mirroring
// rule (a fact p(s,o) is mirrored when the base has p's inverse and o was a
// subject of some inverse fact in the base), plus the terms and predicates
// minted since the base, in id order.
type chainModel struct {
	facts      map[string]rdf.Triple
	baseFacts  map[string]bool
	invName    map[string]string // base predicate name → its inverse's name
	prominent  map[rdf.Term]bool
	known      map[rdf.Term]bool
	knownPreds map[string]bool
	terms      []rdf.Term
	preds      []string
}

func newChainModel(base *kb.KB) *chainModel {
	m := &chainModel{facts: map[string]rdf.Triple{}, baseFacts: map[string]bool{}, invName: map[string]string{},
		prominent: map[rdf.Term]bool{}, known: map[rdf.Term]bool{}, knownPreds: map[string]bool{}}
	for _, x := range allTriples(base) {
		m.facts[tripleKey(x)] = x
		m.baseFacts[tripleKey(x)] = true
	}
	for _, e := range base.Entities(nil) {
		m.known[base.Term(e)] = true
	}
	for _, p := range base.Predicates() {
		m.knownPreds[base.PredicateName(p)] = true
		if bp := base.BaseOf(p); bp != 0 {
			m.invName[base.PredicateName(bp)] = base.PredicateName(p)
			subjects, _ := base.SubjectRuns(p)
			for _, s := range subjects {
				m.prominent[base.Term(s)] = true
			}
		}
	}
	return m
}

// apply folds one op into the model and reports whether it changed the
// fact set. An upsert mints its unknown terms and predicate even when a
// later op of the batch retracts the fact again.
func (m *chainModel) apply(op Op) bool {
	if !op.Retract {
		for _, t := range []rdf.Term{op.S, op.O} {
			if !m.known[t] {
				m.known[t] = true
				m.terms = append(m.terms, t)
			}
		}
		if !m.knownPreds[op.P.Value] {
			m.knownPreds[op.P.Value] = true
			m.preds = append(m.preds, op.P.Value)
		}
	}
	set := func(x rdf.Triple) {
		if op.Retract {
			delete(m.facts, tripleKey(x))
		} else {
			m.facts[tripleKey(x)] = x
		}
	}
	x := rdf.Triple{S: op.S, P: op.P, O: op.O}
	if _, has := m.facts[tripleKey(x)]; has != op.Retract {
		return false
	}
	set(x)
	if inv, ok := m.invName[op.P.Value]; ok && op.O.Kind != rdf.Literal && m.prominent[op.O] {
		set(rdf.Triple{S: op.O, P: rdf.NewIRI(inv), O: op.S})
	}
	return true
}

// dump returns the model's sorted fact keys, its base (non-inverse) fact
// count, and the facts it holds over and lacks from the base.
func (m *chainModel) dump() (all []string, base, adds, dels int) {
	for key, x := range m.facts {
		all = append(all, key)
		if !strings.Contains(x.P.Value, kb.InverseMarker) {
			base++
		}
		if !m.baseFacts[key] {
			adds++
		}
	}
	for key := range m.baseFacts {
		if _, ok := m.facts[key]; !ok {
			dels++
		}
	}
	sort.Strings(all)
	return all, base, adds, dels
}

// TestOverlayRandomizedEquivalence drives random histories through the
// chain of generations and checks every generation against the naive
// model: the decoded facts, the id spaces, changed and the stats. Without
// inverses it also checks every accessor against a fresh build of the same
// facts. The histories mix literal objects, new terms and predicates,
// upsert-then-retract inside one batch, and a retract-all of a predicate
// followed by its re-add.
func TestOverlayRandomizedEquivalence(t *testing.T) {
	for _, frac := range []float64{0, 0.4} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("frac=%v/seed=%d", frac, seed), func(t *testing.T) {
				checkRandomHistory(t, frac, seed)
			})
		}
	}
}

func checkRandomHistory(t *testing.T, frac float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	ents := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	newEnts := []string{"n1", "n2", "n3", "n4"}
	preds := []string{"p", "q", "r"}
	newPreds := []string{"s", "t"}
	obj := func(pool []string) rdf.Term {
		if rng.Intn(5) == 0 {
			return lit(fmt.Sprintf("L%d", rng.Intn(3)))
		}
		return iri(pool[rng.Intn(len(pool))])
	}

	var baseTrs []rdf.Triple
	for i := 0; i < 40; i++ {
		baseTrs = append(baseTrs, tr(ents[rng.Intn(len(ents))], preds[rng.Intn(len(preds))], obj(ents)))
	}
	base := build(t, frac, baseTrs)
	model := newChainModel(base)
	if frac > 0 && len(model.invName) == 0 {
		t.Fatal("test setup: the base materialized no inverses")
	}
	ov := New(base)
	defer ov.Close()

	allEnts, allPreds := append(slices.Clone(ents), newEnts...), append(slices.Clone(preds), newPreds...)
	randomOp := func() Op {
		x := tr(allEnts[rng.Intn(len(allEnts))], allPreds[rng.Intn(len(allPreds))], obj(allEnts))
		return Op{Retract: rng.Intn(3) == 0, S: x.S, P: x.P, O: x.O}
	}
	// retractAll retracts every current fact of base predicate q; the next
	// batch re-adds them.
	var qFacts []Op
	retractAll := func() []Op {
		qFacts = nil
		var ops []Op
		for _, x := range model.facts {
			if x.P == iri("q") {
				qFacts = append(qFacts, Op{S: x.S, P: x.P, O: x.O})
				ops = append(ops, Op{Retract: true, S: x.S, P: x.P, O: x.O})
			}
		}
		return ops
	}

	var prev *kb.KB
	var prevDump []string
	for round := 0; round < 12; round++ {
		var ops []Op
		switch round {
		case 4:
			ops = retractAll()
		case 5:
			ops = qFacts
		default:
			for i := 0; i < 15; i++ {
				op := randomOp()
				ops = append(ops, op)
				if !op.Retract && rng.Intn(4) == 0 {
					op.Retract = true
					ops = append(ops, op)
				}
			}
		}
		wantChanged := 0
		for _, op := range ops {
			if model.apply(op) {
				wantChanged++
			}
		}
		changed, err := ov.Apply(ops)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if changed != wantChanged {
			t.Fatalf("round %d: changed = %d, want %d", round, changed, wantChanged)
		}
		if round == 4 && (len(ops) == 0 || len(ov.cur.Facts(base.MustPredicateID(iri("q").Value))) != 0) {
			t.Fatalf("round 4: retract-all of %d facts left q with facts", len(ops))
		}

		got, err := ov.Materialize()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		wantAll, wantBase, wantAdds, wantDels := model.dump()
		if g := dumpAllFacts(got); !slices.Equal(g, wantAll) {
			t.Fatalf("round %d: fact sets differ:\n got: %v\nwant: %v", round, g, wantAll)
		}
		if got.NumBaseFacts() != wantBase {
			t.Fatalf("round %d: NumBaseFacts = %d, want %d", round, got.NumBaseFacts(), wantBase)
		}
		if got.NumEntities() != base.NumEntities()+len(model.terms) || got.NumPredicates() != base.NumPredicates()+len(model.preds) {
			t.Fatalf("round %d: %d entities and %d predicates, want %d and %d", round,
				got.NumEntities(), got.NumPredicates(), base.NumEntities()+len(model.terms), base.NumPredicates()+len(model.preds))
		}
		for i, term := range model.terms {
			if g := got.Term(kb.EntID(base.NumEntities() + 1 + i)); g != term {
				t.Fatalf("round %d: new term %d is %v, want %v", round, i, g, term)
			}
		}
		for i, name := range model.preds {
			if g := got.PredicateName(kb.PredID(base.NumPredicates() + 1 + i)); g != name {
				t.Fatalf("round %d: new predicate %d is %s, want %s", round, i, g, name)
			}
		}
		if ov.PendingAdds() != wantAdds || ov.PendingDels() != wantDels || ov.NewTerms() != len(model.terms) || ov.NewPreds() != len(model.preds) {
			t.Fatalf("round %d: stats adds=%d dels=%d terms=%d preds=%d, want %d %d %d %d", round,
				ov.PendingAdds(), ov.PendingDels(), ov.NewTerms(), ov.NewPreds(), wantAdds, wantDels, len(model.terms), len(model.preds))
		}
		if frac == 0 {
			assertGoldenEquivalent(t, got, build(t, 0, slices.Collect(maps.Values(model.facts))))
		}
		// A generation handed out earlier is untouched by later patches.
		if prev != nil {
			if g := dumpAllFacts(prev); !slices.Equal(g, prevDump) {
				t.Fatalf("round %d: the previous generation changed under a later patch", round)
			}
			prev.Close()
		}
		prev, prevDump = got, wantAll
	}
	prev.Close()
}

func TestOverlayInverseMirroring(t *testing.T) {
	// InverseTopFraction 1.0: every entity is prominent, so every non-literal
	// object gets a materialized inverse fact in the base.
	base := build(t, 1.0, baseTriples())
	capOf := base.MustPredicateID("http://e/capitalOf")
	invCapOf, ok := base.PredicateID("http://e/capitalOf" + kb.InverseMarker)
	if !ok {
		t.Fatal("base has no inverse for capitalOf")
	}
	ov := New(base)

	// france appears as an inverse subject in the base, so a new fact with
	// it as object must be mirrored.
	if _, err := ov.Apply([]Op{{S: iri("lyon"), P: iri("capitalOf"), O: iri("france")}}); err != nil {
		t.Fatal(err)
	}
	lyon := base.MustEntityID("http://e/lyon")
	france := base.MustEntityID("http://e/france")
	mutated, err := ov.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if !mutated.HasFact(capOf, lyon, france) || !mutated.HasFact(invCapOf, france, lyon) {
		t.Fatal("mirror fact missing from materialized KB")
	}
	if ov.PendingAdds() != 2 {
		t.Fatalf("PendingAdds = %d, want the fact and its mirror", ov.PendingAdds())
	}

	// Retract removes both directions.
	if _, err := ov.Apply([]Op{{Retract: true, S: iri("lyon"), P: iri("capitalOf"), O: iri("france")}}); err != nil {
		t.Fatal(err)
	}
	if m, _ := ov.Materialize(); m.HasFact(capOf, lyon, france) || m.HasFact(invCapOf, france, lyon) {
		t.Fatal("retract left a direction behind")
	}
	if ov.PendingAdds()+ov.PendingDels() != 0 {
		t.Fatal("overlay not back to empty after symmetric ops")
	}

	// A brand-new object entity was not prominent at build time: no mirror
	// under the frozen-prominence policy.
	if _, err := ov.Apply([]Op{{S: iri("lyon"), P: iri("capitalOf"), O: iri("atlantis")}}); err != nil {
		t.Fatal(err)
	}
	m2, err := ov.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	atlantis := m2.MustEntityID("http://e/atlantis")
	if m2.Subjects(invCapOf, atlantis) != nil && len(m2.Subjects(invCapOf, atlantis)) != 0 {
		t.Fatal("unexpected mirror for non-prominent new entity")
	}
	gl, _ := m2.EntityID(rdf.NewIRI("http://e/lyon"))
	if len(m2.Subjects(invCapOf, atlantis)) != 0 || !m2.HasFact(capOf, gl, atlantis) {
		t.Fatal("frozen-prominence policy violated")
	}
}

func TestOverlayValidation(t *testing.T) {
	base := build(t, 1.0, baseTriples())
	ov := New(base)

	cases := []struct {
		name string
		op   Op
	}{
		{"literal subject", Op{S: lit("x"), P: iri("p"), O: iri("y")}},
		{"literal predicate", Op{S: iri("x"), P: lit("p"), O: iri("y")}},
		{"blank predicate", Op{S: iri("x"), P: rdf.NewBlank("b"), O: iri("y")}},
		{"existing inverse predicate", Op{S: iri("france"), P: iri("capitalOf" + kb.InverseMarker), O: iri("paris")}},
		{"inverse-looking new predicate", Op{S: iri("x"), P: iri("nope" + kb.InverseMarker), O: iri("y")}},
	}
	for _, tc := range cases {
		if _, err := ov.Apply([]Op{tc.op}); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	if ov.PendingAdds()+ov.PendingDels() != 0 || ov.NewTerms() != 0 || ov.NewPreds() != 0 {
		t.Fatal("rejected batch left state behind")
	}

	// A batch with one bad op applies nothing.
	batch := []Op{
		{S: iri("lyon"), P: iri("capitalOf"), O: iri("gaul")},
		{S: lit("bad"), P: iri("p"), O: iri("y")},
	}
	if _, err := ov.Apply(batch); err == nil {
		t.Fatal("mixed batch accepted")
	}
	if ov.PendingAdds()+ov.PendingDels() != 0 {
		t.Fatal("mixed batch partially applied")
	}
}

func TestOverlayReplayIdempotence(t *testing.T) {
	// Applying the same batch twice — the at-least-once WAL replay case —
	// must be equivalent to applying it once.
	base := build(t, 0, baseTriples())
	batch := []Op{
		{S: iri("lyon"), P: iri("capitalOf"), O: iri("gaul")},
		{Retract: true, S: iri("berlin"), P: iri("cityIn"), O: iri("germany")},
		{S: iri("paris"), P: iri("label"), O: lit("Ville Lumière")},
	}

	once := New(base)
	if _, err := once.Apply(batch); err != nil {
		t.Fatal(err)
	}
	twice := New(base)
	for i := 0; i < 2; i++ {
		if _, err := twice.Apply(batch); err != nil {
			t.Fatal(err)
		}
	}
	m1, err := once.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := twice.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if g, w := dumpAllFacts(m2), dumpAllFacts(m1); !slices.Equal(g, w) {
		t.Fatalf("replayed overlay diverged:\n got %v\nwant %v", g, w)
	}
	if twice.PendingAdds() != once.PendingAdds() || twice.PendingDels() != once.PendingDels() {
		t.Fatal("pending counts diverged under replay")
	}
}

func TestOverlayStatsCounters(t *testing.T) {
	base := build(t, 0, baseTriples())
	ov := New(base)
	if ov.PendingAdds()+ov.PendingDels() != 0 {
		t.Fatal("fresh overlay not empty")
	}
	ops := []Op{
		{S: iri("x1"), P: iri("newp"), O: iri("x2")},
		{Retract: true, S: iri("paris"), P: iri("cityIn"), O: iri("france")},
	}
	changed, err := ov.Apply(ops)
	if err != nil {
		t.Fatal(err)
	}
	if changed != 2 {
		t.Fatalf("changed = %d", changed)
	}
	if ov.PendingAdds() != 1 || ov.PendingDels() != 1 || ov.NewTerms() != 2 || ov.NewPreds() != 1 {
		t.Fatalf("stats: adds=%d dels=%d terms=%d preds=%d",
			ov.PendingAdds(), ov.PendingDels(), ov.NewTerms(), ov.NewPreds())
	}
	if fmt.Sprint(ops[0]) == "" {
		t.Fatal("op string empty")
	}
}
