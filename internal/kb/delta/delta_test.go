package delta

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
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

// dumpAllFacts includes materialized inverse facts, with the inverse
// predicate's display name as the predicate term.
func dumpAllFacts(k *kb.KB) []string {
	var out []string
	for _, p := range k.Predicates() {
		name := rdf.NewIRI(k.PredicateName(p))
		for _, pr := range k.Facts(p) {
			out = append(out, tripleKey(rdf.Triple{S: k.Term(pr.S), P: name, O: k.Term(pr.O)}))
		}
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

func TestOverlayRandomizedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ents := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	preds := []string{"p", "q", "r"}

	var baseTrs []rdf.Triple
	seen := map[string]rdf.Triple{}
	for i := 0; i < 40; i++ {
		x := tr(ents[rng.Intn(len(ents))], preds[rng.Intn(len(preds))], iri(ents[rng.Intn(len(ents))]))
		if _, dup := seen[tripleKey(x)]; !dup {
			seen[tripleKey(x)] = x
			baseTrs = append(baseTrs, x)
		}
	}
	base := build(t, 0, baseTrs)
	ov := New(base)

	// effective mirrors what the overlay should hold.
	effective := map[string]rdf.Triple{}
	for k, v := range seen {
		effective[k] = v
	}

	for round := 0; round < 6; round++ {
		var ops []Op
		for i := 0; i < 15; i++ {
			x := tr(ents[rng.Intn(len(ents))], preds[rng.Intn(len(preds))], iri(ents[rng.Intn(len(ents))]))
			retract := rng.Intn(2) == 0
			ops = append(ops, Op{Retract: retract, S: x.S, P: x.P, O: x.O})
			if retract {
				delete(effective, tripleKey(x))
			} else {
				effective[tripleKey(x)] = x
			}
		}
		if _, err := ov.Apply(ops); err != nil {
			t.Fatal(err)
		}

		mutated, err := ov.Materialize()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		wantTrs := make([]rdf.Triple, 0, len(effective))
		for _, x := range effective {
			wantTrs = append(wantTrs, x)
		}
		want := build(t, 0, wantTrs)
		assertGoldenEquivalent(t, mutated, want)
	}
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
	if !ov.HasFact(capOf, lyon, france) || !ov.HasFact(invCapOf, france, lyon) {
		t.Fatal("mirror fact missing from overlay view")
	}
	mutated, err := ov.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if !mutated.HasFact(invCapOf, france, lyon) {
		t.Fatal("mirror fact missing from materialized KB")
	}

	// Retract removes both directions.
	if _, err := ov.Apply([]Op{{Retract: true, S: iri("lyon"), P: iri("capitalOf"), O: iri("france")}}); err != nil {
		t.Fatal(err)
	}
	if ov.HasFact(capOf, lyon, france) || ov.HasFact(invCapOf, france, lyon) {
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

func TestOverlayMergedAccessorsMatchMaterialized(t *testing.T) {
	base := build(t, 0, baseTriples())
	ov := New(base)
	ops := []Op{
		{S: iri("lyon"), P: iri("capitalOf"), O: iri("gaul")},
		{S: iri("seine"), P: iri("riverOf"), O: iri("paris")},
		{Retract: true, S: iri("paris"), P: iri("cityIn"), O: iri("france")},
		{S: iri("marseille"), P: iri("cityIn"), O: iri("france")},
	}
	if _, err := ov.Apply(ops); err != nil {
		t.Fatal(err)
	}
	m, err := ov.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	// Overlay ids and materialized ids coincide by construction (same
	// allocation order), so the views can be compared directly.
	for _, p := range m.Predicates() {
		for _, pr := range m.Facts(p) {
			if !ov.HasFact(p, pr.S, pr.O) {
				t.Fatalf("overlay missing fact %d(%d,%d)", p, pr.S, pr.O)
			}
		}
	}
	// The retracted base fact must be absent from both views.
	cityIn := base.MustPredicateID("http://e/cityIn")
	paris := base.MustEntityID("http://e/paris")
	france := base.MustEntityID("http://e/france")
	if ov.HasFact(cityIn, paris, france) || m.HasFact(cityIn, paris, france) {
		t.Fatal("retracted fact still visible")
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
