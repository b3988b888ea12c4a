package experiments

import (
	"testing"
	"time"

	"github.com/remi-kb/remi/internal/datagen"
	"github.com/remi-kb/remi/internal/kb"
	"github.com/remi-kb/remi/internal/rdf"
)

// testLab returns a small lab shared by the tests in this file.
func testLab() *Lab { return NewLab(42, 0.08) }

func TestTable2Small(t *testing.T) {
	lab := testLab()
	cfg := Table2Config{Sets: 6, UsersPerSet: 2, Seed: 202, CandidateCap: 2048}
	rows := Table2With(lab, cfg)
	if len(rows) != 2 {
		t.Fatalf("expected 2 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.Responses == 0 {
			t.Fatalf("%s: no responses", r.Metric)
		}
		for _, p := range []float64{r.P1, r.P2, r.P3} {
			if p < 0 || p > 1 {
				t.Fatalf("%s: precision out of range: %+v", r.Metric, r)
			}
		}
		// The paper's headline shape: p@3 ≥ p@1 (users and Ĉ agree more on
		// the top-3 set than on the single best).
		if r.P3 < r.P1-0.3 {
			t.Errorf("%s: p@3 (%f) unexpectedly below p@1 (%f)", r.Metric, r.P3, r.P1)
		}
	}
}

func TestSection412Small(t *testing.T) {
	lab := testLab()
	cfg := MAPConfig{Sets: 5, UsersPerSet: 2, Seed: 412, MaxAlts: 4}
	res := Section412With(lab, cfg)
	if res.Answers == 0 {
		t.Fatal("no answers collected")
	}
	if res.MAP < 0 || res.MAP > 1 {
		t.Fatalf("MAP out of range: %+v", res)
	}
}

func TestSection413Small(t *testing.T) {
	lab := testLab()
	cfg := ScoreConfig{PerClass: 2, UsersPerRE: 2, Seed: 413}
	res := Section413With(lab, cfg)
	if res.REs == 0 || res.Answers == 0 {
		t.Fatalf("no REs graded: %+v", res)
	}
	if res.Mean < 1 || res.Mean > 5 {
		t.Fatalf("mean grade out of scale: %+v", res)
	}
}

func TestTable3Small(t *testing.T) {
	lab := testLab()
	cfg := Table3Config{Entities: 10, Experts: 3, Seed: 303}
	rows, merged := Table3With(lab, cfg)
	if len(rows) != 4 {
		t.Fatalf("expected 4 method rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.Top5PO < 0 || r.Top5PO > 5 || r.Top10PO < 0 || r.Top10PO > 10 {
			t.Fatalf("quality out of range: %+v", r)
		}
		if r.Top10O < r.Top5O-0.01 {
			t.Errorf("%s: top-10 quality below top-5 (%f < %f)", r.Method, r.Top10O, r.Top5O)
		}
	}
	if len(merged) != 2 {
		t.Fatalf("expected merged rows for both metrics")
	}
	for _, m := range merged {
		for _, v := range []float64{m.P, m.O, m.PO} {
			if v < 0 || v > 1 {
				t.Fatalf("merged precision out of range: %+v", m)
			}
		}
	}
}

func TestTable4Small(t *testing.T) {
	if testing.Short() {
		t.Skip("runtime comparison in -short mode")
	}
	lab := testLab()
	cfg := Table4Config{Sets: 4, Timeout: 3 * time.Second, Workers: 4, Seed: 404}
	rows := Table4With(lab, cfg)
	if len(rows) != 4 {
		t.Fatalf("expected 4 rows (2 KBs × 2 languages), got %d", len(rows))
	}
	for _, r := range rows {
		if r.RemiSec <= 0 || r.PRemiSec <= 0 {
			t.Fatalf("missing runtimes: %+v", r)
		}
		if r.AmieSec <= 0 {
			t.Fatalf("missing AMIE runtime: %+v", r)
		}
	}
}

func TestEq1Fits(t *testing.T) {
	lab := testLab()
	rows := Eq1Fits(lab, 10)
	if len(rows) != 4 {
		t.Fatalf("expected 4 fit rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.Predicates == 0 {
			t.Fatalf("%s/%s: no predicates fitted", r.Dataset, r.Metric)
		}
		if r.AvgR2 < 0.5 || r.AvgR2 > 1.0 {
			t.Errorf("%s/%s: avg R² = %f outside the power-law regime", r.Dataset, r.Metric, r.AvgR2)
		}
	}
}

func TestSearchSpaceCensus(t *testing.T) {
	lab := testLab()
	rows := SearchSpaceCensus(lab, 6, 32)
	if len(rows) != 3 {
		t.Fatalf("expected 3 census rows, got %d", len(rows))
	}
	if rows[0].Subgraphs == 0 {
		t.Fatal("empty census")
	}
	// Growth must be positive in both steps; the 2-variable step must
	// dominate the 3-atom step (the paper: +270% vs +40%).
	if rows[1].GrowthPct <= 0 || rows[2].GrowthPct <= 0 {
		t.Fatalf("expected positive growth: %+v", rows)
	}
	if rows[2].GrowthPct < rows[1].GrowthPct {
		t.Errorf("second variable (+%.0f%%) should outgrow third atom (+%.0f%%)",
			rows[2].GrowthPct, rows[1].GrowthPct)
	}
}

func TestSampleSetsProportions(t *testing.T) {
	lab := testLab()
	env := lab.DBpedia()
	sets := SampleSets(env, 200, 99, 0)
	count := map[int]int{}
	for _, s := range sets {
		count[len(s.IDs)]++
		if len(s.IDs) == 0 || len(s.IDs) > 3 {
			t.Fatalf("bad set size %d", len(s.IDs))
		}
	}
	if count[1] < count[2] || count[2] < count[3] {
		t.Errorf("size proportions off: %v (want 50/30/20 shape)", count)
	}
}

// TestCensusMonotone: widening the bias never shrinks the census.
func TestCensusMonotone(t *testing.T) {
	d := datagen.TinyGeo()
	k, err := d.BuildKB(kb.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	paris, _ := k.EntityID(rdf.NewIRI("http://tiny.demo/resource/Paris"))
	c2 := Census(k, paris, CensusBias{MaxAtoms: 2, MaxExtraVars: 1}, nil)
	c3 := Census(k, paris, CensusBias{MaxAtoms: 3, MaxExtraVars: 1}, nil)
	c3v2 := Census(k, paris, CensusBias{MaxAtoms: 3, MaxExtraVars: 2}, nil)
	if !(c2 <= c3 && c3 <= c3v2) {
		t.Fatalf("census not monotone: %d %d %d", c2, c3, c3v2)
	}
}
