// Package experiments wires the full reproduction pipeline: it materializes
// the synthetic DBpedia-like and Wikidata-like datasets, builds their
// prominence stores and estimators, and implements one entry point per
// table/figure of the paper. Both the remi-bench command and the
// repository-level benchmarks call into this package so that printed tables
// and testing.B benchmarks share one implementation.
package experiments

import (
	"fmt"
	"math/rand"
	"sync"

	"github.com/remi-kb/remi/internal/complexity"
	"github.com/remi-kb/remi/internal/datagen"
	"github.com/remi-kb/remi/internal/kb"
	"github.com/remi-kb/remi/internal/prominence"
)

// Lab owns lazily-built datasets and derived structures.
type Lab struct {
	Seed  int64
	Scale float64

	dbOnce sync.Once
	db     *Env
	wdOnce sync.Once
	wd     *Env
}

// Env bundles one dataset with its indexed KB, prominence stores and
// estimators for both metrics.
type Env struct {
	Data   *datagen.Dataset
	KB     *kb.KB
	PromFr *prominence.Store
	PromPr *prominence.Store
	EstFr  *complexity.Estimator
	EstPr  *complexity.Estimator
}

// NewLab creates a lab; Scale <= 0 defaults to 0.25, which keeps every
// experiment laptop-sized while exercising all code paths.
func NewLab(seed int64, scale float64) *Lab {
	if scale <= 0 {
		scale = 0.25
	}
	return &Lab{Seed: seed, Scale: scale}
}

func buildEnv(d *datagen.Dataset) *Env {
	k, err := d.BuildKB(kb.DefaultOptions())
	if err != nil {
		panic(fmt.Sprintf("experiments: building %s: %v", d.Name, err))
	}
	promFr := prominence.Build(k, prominence.Fr)
	promPr := prominence.Build(k, prominence.Pr)
	return &Env{
		Data:   d,
		KB:     k,
		PromFr: promFr,
		PromPr: promPr,
		EstFr:  complexity.New(k, promFr, complexity.Compressed),
		EstPr:  complexity.New(k, promPr, complexity.Compressed),
	}
}

// DBpedia returns the DBpedia-like environment, building it on first use.
func (l *Lab) DBpedia() *Env {
	l.dbOnce.Do(func() {
		l.db = buildEnv(datagen.DBpediaLike(datagen.Config{Seed: l.Seed, Scale: l.Scale}))
	})
	return l.db
}

// Wikidata returns the Wikidata-like environment.
func (l *Lab) Wikidata() *Env {
	l.wdOnce.Do(func() {
		l.wd = buildEnv(datagen.WikidataLike(datagen.Config{Seed: l.Seed + 1, Scale: l.Scale}))
	})
	return l.wd
}

// EvalClasses returns the short class names used by the qualitative
// evaluation for each dataset (Section 4.1: Person, Settlement, Album∪Film
// and Organization on DBpedia; Company, City, Film and Human on Wikidata).
func EvalClasses(datasetName string) []string {
	if datasetName == "wikidata-like" {
		return []string{"Company", "City", "Film", "Human"}
	}
	return []string{"Person", "Settlement", "Album", "Film", "Organization"}
}

// EntitySet is one mining task: entities of the same class.
type EntitySet struct {
	Class string
	IRIs  []string
	IDs   []kb.EntID
}

// SampleSets draws entity sets from the evaluation classes following the
// paper's Table 4 proportions: 50% singletons, 30% pairs, 20% triples, all
// members sharing a class. popularityBias > 0 restricts sampling to the top
// fraction of each class ranking (Table 2 uses the top 5%).
func SampleSets(env *Env, n int, seed int64, popularityBias float64) []EntitySet {
	rng := rand.New(rand.NewSource(seed))
	classes := EvalClasses(env.Data.Name)
	var sets []EntitySet
	for i := 0; i < n; i++ {
		size := 1
		switch r := rng.Float64(); {
		case r < 0.5:
			size = 1
		case r < 0.8:
			size = 2
		default:
			size = 3
		}
		class := classes[rng.Intn(len(classes))]
		members := env.Data.Members[class]
		pool := len(members)
		if popularityBias > 0 {
			pool = int(float64(len(members)) * popularityBias)
			if pool < size+2 {
				pool = size + 2
			}
			if pool > len(members) {
				pool = len(members)
			}
		}
		seen := map[int]bool{}
		set := EntitySet{Class: class}
		for len(set.IRIs) < size && len(seen) < pool {
			j := rng.Intn(pool)
			if seen[j] {
				continue
			}
			seen[j] = true
			iri := members[j]
			id, ok := env.KB.EntityID(rdfIRI(iri))
			if !ok {
				continue
			}
			set.IRIs = append(set.IRIs, iri)
			set.IDs = append(set.IDs, id)
		}
		if len(set.IDs) == size {
			sets = append(sets, set)
		} else {
			i-- // resample
		}
	}
	return sets
}

// TopOfClass returns the n most frequent entities of a class (generator
// order is popularity order).
func TopOfClass(env *Env, class string, n int) []kb.EntID {
	members := env.Data.Members[class]
	if n > len(members) {
		n = len(members)
	}
	out := make([]kb.EntID, 0, n)
	for _, iri := range members[:n] {
		if id, ok := env.KB.EntityID(rdfIRI(iri)); ok {
			out = append(out, id)
		}
	}
	return out
}
