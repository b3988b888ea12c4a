package remi

import (
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"
)

const tinyNS = "http://tiny.demo/resource/"

func tinySystem(t *testing.T) *System {
	t.Helper()
	sys, err := GenerateDemo("tiny", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestGenerateDemoVariants(t *testing.T) {
	for _, name := range []string{"tiny", "dbpedia", "wikidata"} {
		sys, err := GenerateDemo(name, 3, 0.05)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sys.NumFacts() == 0 || sys.NumEntities() == 0 {
			t.Fatalf("%s: empty KB", name)
		}
	}
	if _, err := GenerateDemo("nope", 1, 0); err == nil {
		t.Fatal("unknown demo accepted")
	}
}

func TestMineParis(t *testing.T) {
	sys := tinySystem(t)
	res, err := sys.Mine([]string{tinyNS + "Paris"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("no RE for Paris")
	}
	if !strings.Contains(res.Expression, "capital") {
		t.Errorf("expected the capital RE, got %s", res.Expression)
	}
	if res.NL == "" || res.Bits <= 0 || res.Atoms == 0 {
		t.Fatalf("incomplete solution: %+v", res.Solution)
	}
}

func TestMineUnknownEntity(t *testing.T) {
	sys := tinySystem(t)
	if _, err := sys.Mine([]string{"http://nowhere/x"}); err == nil {
		t.Fatal("unknown entity accepted")
	}
}

func TestMineOptions(t *testing.T) {
	sys := tinySystem(t)
	res, err := sys.Mine([]string{tinyNS + "Guyana", tinyNS + "Suriname"},
		WithWorkers(4),
		WithTimeout(30*time.Second),
		WithTopK(3),
		WithMetric(MetricPr),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("no RE found")
	}
	// TopK may or may not yield alternatives on the tiny KB, but must not
	// duplicate the main solution.
	for _, alt := range res.Alternatives {
		if alt.Expression == res.Expression {
			t.Fatal("alternative duplicates the solution")
		}
	}
}

// TestMinePrConcurrentFirstUse: the pr estimator is built lazily on the first
// MetricPr request, and several requests may be that first one (remi-serve
// reaches this when two metric=pr requests overlap on a fresh generation).
// Under -race this failed on the unguarded lazy assignment.
func TestMinePrConcurrentFirstUse(t *testing.T) {
	sys := tinySystem(t)
	targets := []string{tinyNS + "Guyana", tinyNS + "Suriname"}
	exprs := make([]string, 4)
	var wg sync.WaitGroup
	for i := range exprs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := sys.Mine(targets, WithMetric(MetricPr))
			if err != nil {
				t.Error(err)
				return
			}
			exprs[i] = res.Expression
		}()
	}
	wg.Wait()
	for _, e := range exprs {
		if e == "" || e != exprs[0] {
			t.Fatalf("concurrent pr answers differ: %q", exprs)
		}
	}
}

func TestMineStandardLanguage(t *testing.T) {
	sys := tinySystem(t)
	res, err := sys.Mine([]string{tinyNS + "Paris"}, WithLanguage(LanguageStandard))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("standard language found nothing for Paris")
	}
	if strings.Contains(res.Expression, "(x, y)") {
		t.Fatalf("standard language produced an existential variable: %s", res.Expression)
	}
}

func TestMineExactRanks(t *testing.T) {
	sys := tinySystem(t)
	res, err := sys.Mine([]string{tinyNS + "Paris"}, WithExactRanks())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("exact ranks found nothing")
	}
}

func TestSummarize(t *testing.T) {
	sys, err := GenerateDemo("dbpedia", 5, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := sys.Summarize("http://dbpedia.demo/resource/Person_1", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum) == 0 {
		t.Fatal("empty summary")
	}
	for _, e := range sum {
		if strings.Contains(e.Predicate, "rdf-syntax-ns#type") {
			t.Fatal("summary contains rdf:type")
		}
		if strings.Contains(e.Predicate, "⁻¹") {
			t.Fatal("summary contains an inverse predicate")
		}
	}
}

func TestFromNTriples(t *testing.T) {
	sys, err := FromNTriples(`
<http://e/paris> <http://e/capitalOf> <http://e/france> .
<http://e/lyon> <http://e/cityIn> <http://e/france> .
<http://e/paris> <http://e/cityIn> <http://e/france> .
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Mine([]string{"http://e/paris"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || !strings.Contains(res.Expression, "capitalOf") {
		t.Fatalf("got %+v", res)
	}
}

func TestLoadAndSaveRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sys := tinySystem(t)

	snapPath := filepath.Join(dir, "tiny.snap")
	if err := sys.SaveSnapshot(snapPath); err != nil {
		t.Fatal(err)
	}
	sys2, err := Load(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if sys2.NumEntities() != sys.NumEntities() {
		t.Fatalf("entity count changed: %d vs %d", sys2.NumEntities(), sys.NumEntities())
	}
	res, err := sys2.Mine([]string{tinyNS + "Guyana", tinyNS + "Suriname"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("mining after snapshot round trip failed")
	}
}

// sink keeps the byte reads of TestAnswersOutliveClose observable.
var sink byte

// TestAnswersOutliveClose: the strings Mine, Summarize and Describe return
// belong to the caller, not to the snapshot image: every byte still reads
// once the System is closed and its image unmapped.
func TestAnswersOutliveClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tiny.snap")
	if err := tinySystem(t).SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	sys, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Mine([]string{tinyNS + "Guyana", tinyNS + "Suriname"}, WithTopK(3))
	if err != nil || !res.Found {
		t.Fatalf("mine: %+v, %v", res, err)
	}
	sum, err := sys.Summarize(tinyNS+"Paris", 5)
	if err != nil || len(sum) == 0 {
		t.Fatalf("summarize: %v, %v", sum, err)
	}
	label, err := sys.Describe(tinyNS + "Paris")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	read := func(what string, strs ...string) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s reads unmapped memory: %v", what, r)
			}
		}()
		for _, s := range strs {
			for i := 0; i < len(s); i++ {
				sink ^= s[i]
			}
		}
	}
	for _, sol := range append([]Solution{res.Solution}, res.Alternatives...) {
		read("mined solution", append([]string{sol.Expression, sol.NL, sol.SPARQL}, sol.Subgraphs...)...)
	}
	read("mine exceptions", res.Exceptions...)
	for _, e := range sum {
		read("summary predicate", e.Predicate)
		read("summary object", e.Object)
	}
	read("description", label)
}

func TestLoadNTriplesFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "mini.nt")
	content := "<http://e/a> <http://e/p> <http://e/b> .\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	sys, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if sys.NumFacts() == 0 {
		t.Fatal("no facts loaded")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load("/does/not/exist.nt"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestMineNoSolutionResult(t *testing.T) {
	sys, err := FromNTriples(`
<http://e/a> <http://e/p> <http://e/v> .
<http://e/b> <http://e/p> <http://e/v> .
<http://e/c> <http://e/p> <http://e/v> .
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Mine([]string{"http://e/a", "http://e/b"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatalf("impossible RE found: %+v", res.Solution)
	}
}

func TestDescribe(t *testing.T) {
	sys := tinySystem(t)
	label, err := sys.Describe(tinyNS + "Paris")
	if err != nil {
		t.Fatal(err)
	}
	if label != "Paris" {
		t.Fatalf("label = %q", label)
	}
}
