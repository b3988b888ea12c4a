package kb

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/remi-kb/remi/internal/rdf"
)

// patchTestKB builds a small KB with two predicates and no inverses.
func patchTestKB(t *testing.T) *KB {
	t.Helper()
	return buildTest(t, Options{},
		[3]string{"paris", "capitalOf", "france"},
		[3]string{"paris", "cityIn", "france"},
		[3]string{"lyon", "cityIn", "france"},
		[3]string{"berlin", "capitalOf", "germany"},
	)
}

func TestApplyPatchEmptyReturnsIndependentCopy(t *testing.T) {
	k := patchTestKB(t)
	k2, err := k.ApplyPatch(Patch{})
	if err != nil {
		t.Fatal(err)
	}
	if k2 == k {
		t.Fatal("empty patch returned the base KB itself")
	}
	if k2.NumBaseFacts() != k.NumBaseFacts() || k2.NumEntities() != k.NumEntities() {
		t.Fatalf("empty patch changed counts: %d/%d vs %d/%d",
			k2.NumBaseFacts(), k2.NumEntities(), k.NumBaseFacts(), k.NumEntities())
	}
	// The copy shares the arena, whichever KB derives it; a bare copy does
	// not.
	k2.AdjacencyOf(1)
	if _, _, ok := k.adj.derived(); !ok {
		t.Fatal("the copy derived an arena its base does not see")
	}
	if _, _, ok := k.Bare().adj.derived(); ok {
		t.Fatal("a bare copy shares its base's arena")
	}
	if err := k2.Close(); err != nil {
		t.Fatal(err)
	}
	// The base must still answer queries after the copy is closed.
	if !k.HasFact(k.MustPredicateID("http://e/cityIn"), k.MustEntityID("http://e/lyon"), k.MustEntityID("http://e/france")) {
		t.Fatal("base KB broken after closing derived copy")
	}
}

func TestApplyPatchAddAndRetract(t *testing.T) {
	k := patchTestKB(t)
	cityIn := k.MustPredicateID("http://e/cityIn")
	lyon := k.MustEntityID("http://e/lyon")
	france := k.MustEntityID("http://e/france")
	germany := k.MustEntityID("http://e/germany")

	k2, err := k.ApplyPatch(Patch{
		Adds: map[PredID][]Pair{cityIn: {{S: lyon, O: germany}}},
		Dels: map[PredID][]Pair{cityIn: {{S: lyon, O: france}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !k2.HasFact(cityIn, lyon, germany) || k2.HasFact(cityIn, lyon, france) {
		t.Fatal("patch edits not reflected")
	}
	// Base untouched.
	if k.HasFact(cityIn, lyon, germany) || !k.HasFact(cityIn, lyon, france) {
		t.Fatal("base KB mutated by ApplyPatch")
	}
	if k2.NumBaseFacts() != k.NumBaseFacts() {
		t.Fatalf("nBase = %d, want %d", k2.NumBaseFacts(), k.NumBaseFacts())
	}
	// Frequencies moved with the facts: france lost one occurrence, germany
	// gained one, lyon is unchanged (one del, one add).
	if got := k2.EntityFreq(france); got != k.EntityFreq(france)-1 {
		t.Fatalf("EntityFreq(france) = %d", got)
	}
	if got := k2.EntityFreq(germany); got != k.EntityFreq(germany)+1 {
		t.Fatalf("EntityFreq(germany) = %d", got)
	}
	if got := k2.EntityFreq(lyon); got != k.EntityFreq(lyon) {
		t.Fatalf("EntityFreq(lyon) = %d", got)
	}
	// Adjacency and reverse index track the change.
	if subj := k2.Subjects(cityIn, germany); len(subj) != 1 || subj[0] != lyon {
		t.Fatalf("Subjects(cityIn, germany) = %v", subj)
	}
	adj := k2.AdjacencyOf(lyon)
	if len(adj) != 1 || adj[0] != (PO{P: cityIn, O: germany}) {
		t.Fatalf("AdjacencyOf(lyon) = %v", adj)
	}
}

func TestApplyPatchNewTermsAndPredicates(t *testing.T) {
	k := patchTestKB(t)
	nEnt := EntID(k.NumEntities())
	nPred := PredID(k.NumPredicates())
	paris := k.MustEntityID("http://e/paris")

	k2, err := k.ApplyPatch(Patch{
		ExtraTerms: []rdf.Term{rdf.NewIRI("http://e/seine"), rdf.NewLiteral("2.2M")},
		ExtraPreds: []string{"http://e/population", "http://e/riverOf"},
		Adds: map[PredID][]Pair{
			nPred + 1: {{S: paris, O: nEnt + 2}}, // population(paris, "2.2M")
			nPred + 2: {{S: nEnt + 1, O: paris}}, // riverOf(seine, paris)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	seine := k2.MustEntityID("http://e/seine")
	if seine != nEnt+1 {
		t.Fatalf("seine id = %d, want %d", seine, nEnt+1)
	}
	pop := k2.MustPredicateID("http://e/population")
	riv := k2.MustPredicateID("http://e/riverOf")
	lit, ok := k2.EntityID(rdf.NewLiteral("2.2M"))
	if !ok || !k2.IsLiteral(lit) {
		t.Fatalf("literal term missing or wrong kind (id %d)", lit)
	}
	if !k2.HasFact(pop, paris, lit) || !k2.HasFact(riv, seine, paris) {
		t.Fatal("facts on new predicates missing")
	}
	if got := k2.NumBaseFacts(); got != k.NumBaseFacts()+2 {
		t.Fatalf("NumBaseFacts = %d, want %d", got, k.NumBaseFacts()+2)
	}
	if got := k2.EntityFreq(seine); got != 1 {
		t.Fatalf("EntityFreq(seine) = %d", got)
	}
	adj := k2.AdjacencyOf(seine)
	if len(adj) != 1 || adj[0] != (PO{P: riv, O: paris}) {
		t.Fatalf("AdjacencyOf(seine) = %v", adj)
	}
	// The base dictionary must not resolve the new term.
	if _, ok := k.EntityID(rdf.NewIRI("http://e/seine")); ok {
		t.Fatal("base dictionary grew")
	}
}

func TestApplyPatchRejectsInvariantViolations(t *testing.T) {
	k := patchTestKB(t)
	cityIn := k.MustPredicateID("http://e/cityIn")
	lyon := k.MustEntityID("http://e/lyon")
	france := k.MustEntityID("http://e/france")
	germany := k.MustEntityID("http://e/germany")

	cases := []struct {
		name string
		p    Patch
	}{
		{"add of existing fact", Patch{Adds: map[PredID][]Pair{cityIn: {{S: lyon, O: france}}}}},
		{"retract of absent fact", Patch{Dels: map[PredID][]Pair{cityIn: {{S: lyon, O: germany}}}}},
		{"retract past end of run", Patch{Dels: map[PredID][]Pair{cityIn: {{S: 1 << 20, O: 1}}}}},
		// Predicate 1 has two facts: more retracts than facts and adds.
		{"more retracts than facts", Patch{Dels: map[PredID][]Pair{1: {{S: 1, O: 1}, {S: 1, O: 2}, {S: 1, O: 3}}}}},
		{"predicate id out of range", Patch{Adds: map[PredID][]Pair{PredID(99): {{S: lyon, O: france}}}}},
		{"del on new predicate", Patch{ExtraPreds: []string{"http://e/x"}, Dels: map[PredID][]Pair{PredID(k.NumPredicates() + 1): {{S: lyon, O: france}}}}},
		{"entity id out of range", Patch{Adds: map[PredID][]Pair{cityIn: {{S: lyon, O: EntID(99)}}}}},
		{"duplicate new predicate name", Patch{ExtraPreds: []string{"http://e/cityIn"}}},
		{"duplicate new term", Patch{ExtraTerms: []rdf.Term{rdf.NewIRI("http://e/lyon")}}},
	}
	for _, tc := range cases {
		if _, err := k.ApplyPatch(tc.p); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	cityOk := k.HasFact(cityIn, lyon, france)
	if !cityOk {
		t.Fatal("base KB damaged by rejected patches")
	}
}

func TestApplyPatchSharesUntouchedIndexes(t *testing.T) {
	k := patchTestKB(t)
	capOf := k.MustPredicateID("http://e/capitalOf")
	cityIn := k.MustPredicateID("http://e/cityIn")
	lyon := k.MustEntityID("http://e/lyon")
	germany := k.MustEntityID("http://e/germany")

	k2, err := k.ApplyPatch(Patch{Adds: map[PredID][]Pair{cityIn: {{S: lyon, O: germany}}}})
	if err != nil {
		t.Fatal(err)
	}
	// capitalOf was untouched: its index arrays must be shared, not copied.
	if &k.preds[capOf-1].psoVal[0] != &k2.preds[capOf-1].psoVal[0] {
		t.Fatal("untouched predicate index was copied")
	}
	// cityIn was touched: it must have been rebuilt.
	if &k.preds[cityIn-1].psoVal[0] == &k2.preds[cityIn-1].psoVal[0] {
		t.Fatal("touched predicate index still shared with base")
	}
}

func TestApplyPatchSnapshotRefCounting(t *testing.T) {
	k := patchTestKB(t)
	path := filepath.Join(t.TempDir(), "kb.snap")
	if err := k.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	base, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := base.MappingRefs(); got != 1 {
		t.Fatalf("MappingRefs after open = %d", got)
	}
	cityIn := base.MustPredicateID("http://e/cityIn")
	lyon := base.MustEntityID("http://e/lyon")
	germany := base.MustEntityID("http://e/germany")
	derived, err := base.ApplyPatch(Patch{Adds: map[PredID][]Pair{cityIn: {{S: lyon, O: germany}}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := derived.MappingRefs(); got != 2 {
		t.Fatalf("MappingRefs after derive = %d", got)
	}
	// Closing the base must not invalidate the derived KB: it holds its own
	// reference on the image its shared index slices alias.
	if err := base.Close(); err != nil {
		t.Fatal(err)
	}
	if !derived.HasFact(cityIn, lyon, germany) {
		t.Fatal("derived KB broken after base close")
	}
	if got := derived.MappingRefs(); got != 1 {
		t.Fatalf("MappingRefs after base close = %d", got)
	}
	if err := derived.Close(); err != nil {
		t.Fatal(err)
	}
	if got := derived.MappingRefs(); got != 0 {
		t.Fatalf("MappingRefs after final close = %d", got)
	}
	// Double close is a no-op.
	if err := derived.Close(); err != nil {
		t.Fatal(err)
	}
}

// dumpDerived renders k's adjacency arena and its facts by name, one line
// per adjacency entry and one per fact, sorted. adjFirst picks which of the
// two is read first.
func dumpDerived(k *KB, adjFirst bool) []string {
	name := func(e EntID) string { return k.Term(e).String() }
	var out []string
	adj := func() {
		for e := EntID(1); int(e) <= k.NumEntities(); e++ {
			for _, po := range k.AdjacencyOf(e) {
				out = append(out, "adj "+name(e)+" "+k.PredicateName(po.P)+" "+name(po.O))
			}
		}
	}
	facts := func() {
		for _, p := range k.Predicates() {
			for _, pr := range k.Facts(p) {
				out = append(out, "fact "+name(pr.S)+" "+k.PredicateName(p)+" "+name(pr.O))
			}
		}
	}
	if adjFirst {
		adj()
		facts()
	} else {
		facts()
		adj()
	}
	slices.Sort(out)
	return out
}

// TestPatchedKBConcurrentFirstTouch: ApplyPatch over a base that never
// derived its adjacency arena leaves the patched KB's to first touch, and a
// fresh generation's first touch is concurrent mining traffic. Eight
// goroutines race for it; each must read what a flat rebuild holds.
func TestPatchedKBConcurrentFirstTouch(t *testing.T) {
	trs := genStreamTriples(800, 5)
	build := func(trs []rdf.Triple) *KB {
		k, err := FromTriples(trs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	base := build(trs)
	nEnt, nPred := EntID(base.NumEntities()), PredID(base.NumPredicates())
	newTerm, newPred := rdf.NewIRI("http://ex.org/new"), "http://ex.org/pNew"

	// Retract one fact of each of predicate 1's first three subjects; give
	// the first two subjects of predicate 2 the new term as an object; state
	// one fact of a new predicate. Subject-ascending, so (S,O)-sorted.
	subj1, _ := base.SubjectRuns(1)
	var dels []Pair
	for _, s := range subj1[:3] {
		dels = append(dels, Pair{S: s, O: base.Objects(1, s)[0]})
	}
	subj2, _ := base.SubjectRuns(2)
	adds := []Pair{{S: subj2[0], O: nEnt + 1}, {S: subj2[1], O: nEnt + 1}}
	patch := Patch{
		ExtraTerms: []rdf.Term{newTerm},
		ExtraPreds: []string{newPred},
		Adds:       map[PredID][]Pair{2: adds, nPred + 1: {{S: subj2[0], O: nEnt + 1}}},
		Dels:       map[PredID][]Pair{1: dels},
	}

	// The same edits on the triple list, for the flat rebuild.
	term := func(e EntID) rdf.Term {
		if e == nEnt+1 {
			return newTerm
		}
		return base.Term(e)
	}
	gone := make(map[rdf.Triple]bool)
	for _, pr := range dels {
		gone[rdf.Triple{S: term(pr.S), P: rdf.NewIRI(base.PredicateName(1)), O: term(pr.O)}] = true
	}
	var edited []rdf.Triple
	for _, tr := range trs {
		if !gone[tr] {
			edited = append(edited, tr)
		}
	}
	for _, pr := range adds {
		edited = append(edited, rdf.Triple{S: term(pr.S), P: rdf.NewIRI(base.PredicateName(2)), O: newTerm})
	}
	edited = append(edited, rdf.Triple{S: term(subj2[0]), P: rdf.NewIRI(newPred), O: newTerm})

	for _, tc := range []struct {
		name  string
		patch Patch
		flat  []rdf.Triple
	}{
		{"edits", patch, edited},
		{"edit-free", Patch{}, trs},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := dumpDerived(build(tc.flat), true)
			// A base nothing has touched, so the patch meets an underived
			// adjacency arena.
			k2, err := build(trs).ApplyPatch(tc.patch)
			if err != nil {
				t.Fatal(err)
			}
			// The readers touch a copy that shares k2's arena while a writer
			// patches k2 itself, as a live KB mines one copy of a generation
			// and patches another: a patch that finds the arena derived
			// carries it over, and must never see it half made.
			view, err := k2.ApplyPatch(Patch{})
			if err != nil {
				t.Fatal(err)
			}
			next := Patch{Dels: map[PredID][]Pair{1: k2.Facts(1)[:1]}}
			start := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					if got := dumpDerived(view, g%2 == 0); !slices.Equal(got, want) {
						t.Errorf("goroutine %d: %d derived entries differ from the flat rebuild's %d", g, len(got), len(want))
					}
				}()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for range 20 {
					k3, err := k2.ApplyPatch(next)
					if err != nil {
						t.Error(err)
						return
					}
					if k3.adj.carry == nil {
						continue
					}
					a := k3.adjacency()
					if wantOff, wantArena := k3.deriveAdjacency(); !slices.Equal(a.off, wantOff) || !slices.Equal(a.arena, wantArena) {
						t.Error("a patch carried over an arena that differs from the derived one")
					}
				}
			}()
			close(start)
			wg.Wait()
		})
	}
}

// randomPatch draws an edit set against k: three new terms, two new
// predicates with random facts, and for every existing predicate (inverses
// included) either nothing, a full retraction, or a random mix of retracts
// and adds. It returns the patch, each predicate's merged fact list computed
// from sets rather than by ApplyPatch's merges, and the touched predicates.
func randomPatch(rng *rand.Rand, k *KB) (Patch, [][]Pair, []PredID) {
	nEnt, nPred := k.NumEntities(), k.NumPredicates()
	p := Patch{Adds: map[PredID][]Pair{}, Dels: map[PredID][]Pair{}}
	for i := 0; i < 3; i++ {
		p.ExtraTerms = append(p.ExtraTerms, rdf.NewIRI(fmt.Sprintf("http://ex.org/new%d-%d", nEnt, i)))
	}
	p.ExtraPreds = []string{fmt.Sprintf("http://ex.org/pNew%d-0", nPred), fmt.Sprintf("http://ex.org/pNew%d-1", nPred)}
	nEnt2, nPred2 := nEnt+len(p.ExtraTerms), nPred+len(p.ExtraPreds)
	merged := make([][]Pair, nPred2)
	var touched []PredID
	for pid := PredID(1); int(pid) <= nPred2; pid++ {
		var facts []Pair
		if int(pid) <= nPred {
			facts = k.Facts(pid)
		}
		mode := 2 // a new predicate only gets adds
		if int(pid) <= nPred {
			mode = rng.Intn(3)
		}
		if mode == 0 {
			merged[pid-1] = facts
			continue
		}
		touched = append(touched, pid)
		have := make(map[Pair]bool, len(facts))
		for _, f := range facts {
			if mode == 1 || rng.Intn(3) == 0 {
				p.Dels[pid] = append(p.Dels[pid], f)
			} else {
				have[f] = true
			}
		}
		if mode == 2 {
			for range 1 + rng.Intn(12) {
				f := Pair{S: EntID(1 + rng.Intn(nEnt2)), O: EntID(1 + rng.Intn(nEnt2))}
				if !have[f] && !slices.Contains(facts, f) {
					have[f] = true
					p.Adds[pid] = append(p.Adds[pid], f)
				}
			}
		}
		slices.SortFunc(p.Adds[pid], cmpPairSO)
		for f := range have {
			merged[pid-1] = append(merged[pid-1], f)
		}
		slices.SortFunc(merged[pid-1], cmpPairSO)
	}
	return p, merged, touched
}

// cmpPairSO orders pairs by (S,O): the order of a CSR orientation.
func cmpPairSO(a, b Pair) int {
	if a.S != b.S {
		return int(a.S) - int(b.S)
	}
	return int(a.O) - int(b.O)
}

// TestPatchedIndexMatchesPacked: a patched base predicate's object runs are
// merged from the base's rather than sorted; the result must be exactly what
// the builder's packRun packs from the merged facts, for built and snapshot-opened
// bases, inverse predicates, full retractions and new predicates, and for a
// patch applied to a patched KB.
func TestPatchedIndexMatchesPacked(t *testing.T) {
	var sawInverse, sawEmptied, sawNew bool
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		built, err := FromTriples(genStreamTriples(600, seed), Options{InverseTopFraction: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "kb.snap")
		if err := built.WriteSnapshotFile(path); err != nil {
			t.Fatal(err)
		}
		opened, err := OpenSnapshot(path)
		if err != nil {
			t.Fatal(err)
		}
		defer opened.Close()
		for _, k := range []*KB{built, opened} {
			for round := 0; round < 2; round++ { // the second round patches the first's result
				// An odd seed's base derives its arena, so both rounds carry
				// it over; an even seed's never does.
				if seed%2 == 1 && round == 0 {
					k.AdjacencyOf(1)
				}
				patch, merged, touched := randomPatch(rng, k)
				k2, err := k.ApplyPatch(patch)
				if err != nil {
					t.Fatalf("seed %d round %d: %v", seed, round, err)
				}
				defer k2.Close()
				if carried := k2.adj.carry != nil; carried != (seed%2 == 1) {
					t.Fatalf("seed %d round %d: arena to carry over %v", seed, round, carried)
				} else if carried {
					a := k2.adjacency() // carries it, so the next round's base has one
					if wantOff, wantArena := k2.deriveAdjacency(); !slices.Equal(a.off, wantOff) || !slices.Equal(a.arena, wantArena) {
						t.Fatalf("seed %d round %d: the carried arena differs from the derived one", seed, round)
					}
				}
				for _, pid := range touched {
					if !slices.Equal(k2.Facts(pid), merged[pid-1]) {
						t.Fatalf("seed %d round %d predicate %d: merged facts differ", seed, round, pid)
					}
					got := k2.preds[pid-1]
					if want := packRun(runOf(merged[pid-1])); !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d round %d predicate %d: index\n got %+v\nwant %+v", seed, round, pid, got, want)
					}
					sawInverse = sawInverse || (int(pid) <= k.NumPredicates() && k.IsInverse(pid))
					sawEmptied = sawEmptied || (len(merged[pid-1]) == 0 && int(pid) <= k.NumPredicates() && k.PredFreq(pid) > 0)
					sawNew = sawNew || int(pid) > k.NumPredicates()
				}
				k = k2
			}
		}
	}
	if !sawInverse || !sawEmptied || !sawNew {
		t.Fatalf("cases not covered: inverse %v, fully retracted %v, new predicate %v", sawInverse, sawEmptied, sawNew)
	}
}

// mergeRunsPerKey is mergeRuns as one key at a time, the reference
// FuzzMergeRuns holds the stretch-copying merge to.
func mergeRunsPerKey(keys []EntID, off []uint32, vals []EntID, adds, dels []Pair) (keys2 []EntID, off2 []uint32, vals2 []EntID, err error) {
	emit := func(key EntID, vs ...EntID) {
		if len(keys2) == 0 || keys2[len(keys2)-1] != key {
			keys2 = append(keys2, key)
			off2 = append(off2, uint32(len(vals2)))
		}
		vals2 = append(vals2, vs...)
	}
	a, d := 0, 0
	for i, key := range keys {
		for ; a < len(adds) && adds[a].S < key; a++ {
			emit(adds[a].S, adds[a].O)
		}
		for _, v := range vals[off[i]:off[i+1]] {
			for ; a < len(adds) && adds[a].S == key && adds[a].O < v; a++ {
				emit(key, adds[a].O)
			}
			if a < len(adds) && adds[a] == (Pair{S: key, O: v}) {
				return nil, nil, nil, fmt.Errorf("add of existing fact (%d,%d)", key, v)
			}
			if d < len(dels) && dels[d] == (Pair{S: key, O: v}) {
				d++
			} else {
				emit(key, v)
			}
		}
	}
	for ; a < len(adds); a++ {
		emit(adds[a].S, adds[a].O)
	}
	if d != len(dels) {
		return nil, nil, nil, fmt.Errorf("retract of absent fact (%d,%d)", dels[d].S, dels[d].O)
	}
	return keys2, append(off2, uint32(len(vals2))), vals2, nil
}

// fuzzEdit is one edit of a FuzzMergeRuns input.
type fuzzEdit struct {
	f   Pair
	add bool
}

// encodeMergeInput writes facts and edits over ids 1..16 as FuzzMergeRuns
// reads them: a 32-byte bitmap of the facts, then two bytes per edit.
func encodeMergeInput(facts []Pair, edits []fuzzEdit) []byte {
	b := make([]byte, 32)
	for _, f := range facts {
		bit := int(f.S-1)*16 + int(f.O-1)
		b[bit/8] |= 1 << (bit % 8)
	}
	for _, e := range edits {
		kind := byte(1) // a retract
		if e.add {
			kind = 0
		}
		b = append(b, byte(f4(e.f.S)<<4|f4(e.f.O)), kind)
	}
	return b
}

func f4(e EntID) byte { return byte(e-1) & 15 }

// FuzzMergeRuns: on any base run and any sorted edits, mergeRuns returns
// what the per-key merge returns, or, when that rejects the edits, errors
// on an existing add or an absent retract. The seeds put edits at the first
// key, at the last and in the middle of a stretch, valid and not.
func FuzzMergeRuns(f *testing.F) {
	var base []Pair // keys 2, 4, …, 14, two or three objects each
	for s := EntID(2); s <= 14; s += 2 {
		for o := EntID(1); o <= 16; o += 5 + EntID(s%3) {
			base = append(base, Pair{S: s, O: o})
		}
	}
	first, last, mid := base[0], base[len(base)-1], base[len(base)/2]
	for _, edits := range [][]fuzzEdit{
		{{Pair{2, 3}, true}, {mid, false}, {Pair{16, 1}, true}}, // valid: first key, mid-stretch, past the last key
		{{first, false}, {Pair{9, 9}, true}, {last, false}},     // valid: retract at the first and the last key
		{{Pair{1, 1}, true}, {Pair{15, 2}, true}},               // valid: new keys around every base key
		{{first, true}},              // existing add at the first key
		{{last, true}},               // existing add at the last key
		{{mid, true}},                // existing add mid-stretch
		{{Pair{first.S, 16}, false}}, // absent retract at the first key
		{{Pair{last.S, 2}, false}},   // absent retract at the last key
		{{Pair{mid.S, 16}, false}, {Pair{16, 16}, true}},             // absent retract mid-stretch
		{{Pair{3, 3}, false}},                                        // absent retract of a key with no run
		{{Pair{4, 2}, true}, {Pair{mid.S, 14}, false}, {last, true}}, // an absent retract before an existing add
	} {
		f.Add(encodeMergeInput(base, edits))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 32 {
			return
		}
		var facts []Pair
		for bit := 0; bit < 256; bit++ {
			if data[bit/8]&(1<<(bit%8)) != 0 {
				facts = append(facts, Pair{S: EntID(bit/16 + 1), O: EntID(bit%16 + 1)})
			}
		}
		var adds, dels []Pair
		seen := map[Pair]bool{}
		for i := 32; i+1 < len(data); i += 2 {
			pr := Pair{S: EntID(data[i]>>4 + 1), O: EntID(data[i]&15 + 1)}
			if seen[pr] {
				continue
			}
			seen[pr] = true
			if data[i+1]&1 == 0 {
				adds = append(adds, pr)
			} else {
				dels = append(dels, pr)
			}
		}
		slices.SortFunc(adds, cmpPairSO)
		slices.SortFunc(dels, cmpPairSO)
		ix := packRun(runOf(facts))
		wantKeys, wantOff, wantVals, wantErr := mergeRunsPerKey(ix.psoKey, ix.psoOff, ix.psoVal, adds, dels)
		keys, off, vals, err := mergeRuns(ix.psoKey, ix.psoOff, ix.psoVal, adds, dels, "p")
		switch {
		case wantErr != nil && err == nil:
			t.Fatalf("merged edits the per-key merge rejects (%v)", wantErr)
		case wantErr == nil && err != nil:
			t.Fatalf("rejected edits the per-key merge takes: %v", err)
		case err != nil:
			if msg := err.Error(); !strings.Contains(msg, "add of existing fact") && !strings.Contains(msg, "retract of absent fact") {
				t.Fatalf("error %q names neither an existing add nor an absent retract", msg)
			}
		case !slices.Equal(keys, wantKeys) || !slices.Equal(off, wantOff) || !slices.Equal(vals, wantVals):
			t.Fatalf("merge\n got %v %v %v\nwant %v %v %v", keys, off, vals, wantKeys, wantOff, wantVals)
		}
	})
}

// runOf returns (S,O)-sorted pairs as the builder's run of runKeys.
func runOf(pairs []Pair) []uint64 {
	run := make([]uint64, len(pairs))
	for i, p := range pairs {
		run[i] = runKey(p.S, p.O)
	}
	return run
}
