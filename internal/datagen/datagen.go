// Package datagen produces the seeded synthetic datasets that substitute
// for DBpedia 2016-10 and the Wikidata dump in the paper's evaluation. The
// generators preserve the statistical shape the algorithms are sensitive
// to: Zipfian entity and predicate frequencies (the regime behind Eq. 1),
// the evaluation classes, literal attributes, type assertions, blank nodes,
// and dense cross-class links.
package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/remi-kb/remi/internal/kb"
	"github.com/remi-kb/remi/internal/rdf"
	"github.com/remi-kb/remi/internal/zipf"
)

// RDF vocabulary shared by the generators.
const (
	TypeIRI  = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
	LabelIRI = "http://www.w3.org/2000/01/rdf-schema#label"
)

// Config seeds and scales a generator.
type Config struct {
	// Seed makes the dataset fully reproducible.
	Seed int64
	// Scale multiplies every class population (1.0 ≈ tens of thousands of
	// facts; tests use ~0.1).
	Scale float64
}

// Dataset is a generated KB plus the generator's hidden ground truth, used
// by the simulated user studies.
type Dataset struct {
	Name    string
	Triples []rdf.Triple
	// TruePop maps entity IRIs to the latent popularity weight the
	// generator sampled them with; the study simulator treats it as the
	// users' true familiarity with the concept.
	TruePop map[string]float64
	// Classes maps a short class name (e.g. "Person") to its class IRI.
	Classes map[string]string
	// Members lists the entity IRIs of each short class name, most popular
	// first.
	Members map[string][]string
}

// BuildKB indexes the dataset with the paper's KB options.
func (d *Dataset) BuildKB(opts kb.Options) (*kb.KB, error) {
	return kb.FromTriples(d.Triples, opts)
}

// schema machinery -----------------------------------------------------------

type classSpec struct {
	name string
	n    int // population at Scale = 1
	pop  float64
	zipf float64 // exponent for within-class popularity
}

// rangeKind describes what a predicate points at.
type rangeKind int

const (
	toClass rangeKind = iota
	toYear
	toNumber
	toBlankStation // blank node with its own sub-facts
)

type predSpec struct {
	name   string
	domain []string
	rng    string // class name when kind == toClass
	kind   rangeKind
	avg    float64 // expected out-degree per domain entity
	zipf   float64 // object-choice exponent (bigger = more skewed)
}

type generator struct {
	rng      *rand.Rand
	ns       string
	ont      string
	ds       *Dataset
	classIDs map[string][]string // class -> entity IRIs (index = rank)
	samplers map[string]*zipf.Sampler
}

func newGenerator(name, ns, ont string, cfg Config) *generator {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	return &generator{
		rng: rand.New(rand.NewSource(cfg.Seed)),
		ns:  ns,
		ont: ont,
		ds: &Dataset{
			Name:    name,
			TruePop: make(map[string]float64),
			Classes: make(map[string]string),
			Members: make(map[string][]string),
		},
		classIDs: make(map[string][]string),
		samplers: make(map[string]*zipf.Sampler),
	}
}

func (g *generator) add(s, p, o rdf.Term) {
	g.ds.Triples = append(g.ds.Triples, rdf.Triple{S: s, P: p, O: o})
}

func (g *generator) iri(local string) rdf.Term  { return rdf.NewIRI(g.ns + local) }
func (g *generator) prop(local string) rdf.Term { return rdf.NewIRI(g.ont + local) }

// makeClasses mints the entities of each class with Zipfian latent
// popularity, plus type and label facts.
func (g *generator) makeClasses(classes []classSpec, scale float64) {
	typeP := rdf.NewIRI(TypeIRI)
	labelP := rdf.NewIRI(LabelIRI)
	for _, c := range classes {
		n := int(float64(c.n) * scale)
		if n < 4 {
			n = 4
		}
		classIRI := g.ont + c.name
		g.ds.Classes[c.name] = classIRI
		classTerm := rdf.NewIRI(classIRI)
		ids := make([]string, n)
		for i := 0; i < n; i++ {
			local := fmt.Sprintf("%s_%d", c.name, i+1)
			e := g.iri(local)
			ids[i] = e.Value
			g.add(e, typeP, classTerm)
			g.add(e, labelP, rdf.NewLiteral(fmt.Sprintf("%s %d", c.name, i+1)))
			g.ds.TruePop[e.Value] = c.pop * zipf.Weight(c.zipf, i)
		}
		g.classIDs[c.name] = ids
		g.ds.Members[c.name] = ids
		g.samplers[c.name] = zipf.NewSampler(g.rng, c.zipf, n)
	}
}

// pick draws an object entity of the class with the predicate's skew; the
// class sampler is reused when exponents match, otherwise re-skewed by
// rejection toward the requested exponent.
func (g *generator) pick(class string, skew float64) rdf.Term {
	ids := g.classIDs[class]
	var idx int
	if skew <= 0 {
		idx = g.rng.Intn(len(ids))
	} else {
		s, ok := g.samplers[class+fmt.Sprintf("|%.2f", skew)]
		if !ok {
			s = zipf.NewSampler(g.rng, skew, len(ids))
			g.samplers[class+fmt.Sprintf("|%.2f", skew)] = s
		}
		idx = s.Next()
	}
	return rdf.NewIRI(ids[idx])
}

// outDegree samples the per-entity fact count for a predicate.
func (g *generator) outDegree(avg float64) int {
	n := int(avg)
	if g.rng.Float64() < avg-float64(n) {
		n++
	}
	return n
}

// makeFacts generates the relational facts of the schema.
func (g *generator) makeFacts(preds []predSpec, scale float64) {
	blankSeq := 0
	for _, p := range preds {
		prop := g.prop(p.name)
		for _, dom := range p.domain {
			for si, sIRI := range g.classIDs[dom] {
				// More popular subjects are better described, as in DBpedia,
				// where prominent entities carry dozens of facts while the
				// long tail has a handful. The graded boost keeps head
				// entities summarizable (Table 3 needs ≥ 10 candidate
				// features for the top-10 gold standard to be selective).
				boost := 1.0
				switch n := len(g.classIDs[dom]); {
				case si < n/50+1:
					boost = 8.0
				case si < n/10+1:
					boost = 2.5
				}
				nFacts := g.outDegree(p.avg * boost)
				subject := rdf.NewIRI(sIRI)
				for f := 0; f < nFacts; f++ {
					switch p.kind {
					case toClass:
						o := g.pick(p.rng, p.zipf)
						if o.Value == sIRI {
							continue // no self loops
						}
						g.add(subject, prop, o)
					case toYear:
						year := 1850 + g.rng.Intn(170)
						g.add(subject, prop, rdf.NewLiteral(fmt.Sprintf("%d\"^^<http://www.w3.org/2001/XMLSchema#gYear>", year)))
					case toNumber:
						// Log-uniform magnitudes (populations, revenues).
						mag := int(math.Pow(10, 3+4*g.rng.Float64()))
						g.add(subject, prop, rdf.NewLiteral(fmt.Sprintf("%d", mag)))
					case toBlankStation:
						blankSeq++
						b := rdf.NewBlank(fmt.Sprintf("b%d", blankSeq))
						g.add(subject, prop, b)
						g.add(b, g.prop("of"), g.pick(p.rng, p.zipf))
						year := 1950 + g.rng.Intn(70)
						g.add(b, g.prop("since"), rdf.NewLiteral(fmt.Sprintf("%d", year)))
					}
				}
			}
		}
	}
}
