package experiments

import "github.com/remi-kb/remi/internal/kb"

// FitRow reports the Eq. 1 power-law fit quality for one (dataset, metric)
// pair; the paper reports average R² of 0.85 (DBpedia, fr), 0.88 (Wikidata,
// fr) and 0.91 (DBpedia, pr).
type FitRow struct {
	Dataset    string
	Metric     string
	AvgR2      float64
	Predicates int // predicates with enough distinct objects to fit
}

// Eq1Fits measures how well log-rank correlates with log-frequency across
// predicates, the correlation REMI exploits to compress its conditional
// rankings (Section 3.5.3). minPoints filters predicates with too few
// distinct ranked objects for a meaningful fit.
func Eq1Fits(lab *Lab, minPoints int) []FitRow {
	if minPoints <= 0 {
		minPoints = 20
	}
	var rows []FitRow
	db, wd := lab.DBpedia(), lab.Wikidata()
	for _, x := range []struct {
		env    *Env
		metric string
		avgFn  func() (float64, int)
	}{
		{db, "fr", func() (float64, int) { return db.PromFr.AverageFitR2(minPoints) }},
		{db, "pr", func() (float64, int) { return db.PromPr.AverageFitR2(minPoints) }},
		{wd, "fr", func() (float64, int) { return wd.PromFr.AverageFitR2(minPoints) }},
		{wd, "pr", func() (float64, int) { return wd.PromPr.AverageFitR2(minPoints) }},
	} {
		avg, n := x.avgFn()
		rows = append(rows, FitRow{Dataset: x.env.Data.Name, Metric: x.metric, AvgR2: avg, Predicates: n})
	}
	return rows
}

// CensusRow is one language-bias census line for the Section 3.2
// observations.
type CensusRow struct {
	Label        string
	MaxAtoms     int
	MaxExtraVars int
	Subgraphs    int
	// GrowthPct is the growth relative to the previous row (the paper
	// reports +40% for the third atom and +270% for the second variable).
	GrowthPct float64
}

// SearchSpaceCensus counts the subgraph expressions REMI must handle under
// increasingly permissive biases over a sample of entities.
func SearchSpaceCensus(lab *Lab, entities int, seed int64) []CensusRow {
	env := lab.DBpedia()
	sets := SampleSets(env, entities, seed, 0.05)
	var ids []kb.EntID
	for _, s := range sets {
		ids = append(ids, s.IDs[0])
	}
	biases := []CensusBias{
		{MaxAtoms: 2, MaxExtraVars: 1},
		{MaxAtoms: 3, MaxExtraVars: 1},
		{MaxAtoms: 3, MaxExtraVars: 2},
	}
	reports := RunCensus(env.KB, ids, biases, 0.05)
	labels := []string{"≤2 atoms, 1 var", "≤3 atoms, 1 var (REMI)", "≤3 atoms, 2 vars"}
	rows := make([]CensusRow, len(reports))
	for i, r := range reports {
		rows[i] = CensusRow{
			Label:        labels[i],
			MaxAtoms:     r.Bias.MaxAtoms,
			MaxExtraVars: r.Bias.MaxExtraVars,
			Subgraphs:    r.Total,
		}
		if i > 0 && rows[i-1].Subgraphs > 0 {
			rows[i].GrowthPct = 100 * (float64(r.Total) - float64(rows[i-1].Subgraphs)) / float64(rows[i-1].Subgraphs)
		}
	}
	return rows
}
