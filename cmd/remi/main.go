// Command remi mines intuitive referring expressions for a set of target
// entities on an RDF knowledge base.
//
// Usage:
//
//	remi -kb data.nt -targets http://e/Paris
//	remi -kb data.snap -targets http://e/Guyana,http://e/Suriname -workers 8
//	remi -demo tiny -targets http://tiny.demo/resource/Rennes,http://tiny.demo/resource/Nantes
//
// Flags select the prominence metric (fr|pr), the language bias
// (standard|remi), P-REMI parallelism, a timeout and the number of
// alternative solutions to report.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	remi "github.com/remi-kb/remi"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("remi: ")

	var (
		kbPath   = flag.String("kb", "", "knowledge base file (N-Triples or compiled snapshot)")
		demo     = flag.String("demo", "", "use a bundled demo dataset instead of -kb (tiny|dbpedia|wikidata)")
		seed     = flag.Int64("seed", 42, "seed for -demo datasets")
		scale    = flag.Float64("scale", 0, "scale for -demo datasets (0 = default)")
		targets  = flag.String("targets", "", "comma-separated entity IRIs to describe (required)")
		metric   = flag.String("metric", "fr", "prominence metric: fr | pr")
		language = flag.String("language", "remi", "language bias: remi | standard")
		workers  = flag.Int("workers", 1, "P-REMI workers (1 = sequential REMI)")
		timeout  = flag.Duration("timeout", 2*time.Minute, "mining timeout (0 = none)")
		topK     = flag.Int("top", 1, "number of solutions to report")
		exact    = flag.Bool("exact", false, "use exact conditional rankings instead of the Eq. 1 compression")
		verbose  = flag.Bool("v", false, "print search statistics")
	)
	flag.Parse()

	if *targets == "" {
		flag.Usage()
		os.Exit(2)
	}

	var sys *remi.System
	var err error
	switch {
	case *demo != "":
		sys, err = remi.GenerateDemo(*demo, *seed, *scale)
	case *kbPath != "":
		sys, err = remi.Load(*kbPath)
	default:
		log.Fatal("one of -kb or -demo is required")
	}
	if err != nil {
		log.Fatal(err)
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "KB: %d facts, %d entities, %d predicates\n",
			sys.NumFacts(), sys.NumEntities(), sys.NumPredicates())
	}

	opts := []remi.MineOption{
		remi.WithWorkers(*workers),
		remi.WithTimeout(*timeout),
		remi.WithTopK(*topK),
	}
	if *metric == "pr" {
		opts = append(opts, remi.WithMetric(remi.MetricPr))
	}
	if *language == "standard" {
		opts = append(opts, remi.WithLanguage(remi.LanguageStandard))
	}
	if *exact {
		opts = append(opts, remi.WithExactRanks())
	}

	res, err := sys.Mine(strings.Split(*targets, ","), opts...)
	if err != nil {
		log.Fatal(err)
	}
	if !res.Found {
		if res.Stats.TimedOut {
			fmt.Println("timeout: no referring expression found within the limit")
			os.Exit(3)
		}
		fmt.Println("no referring expression exists for the target set")
		os.Exit(1)
	}
	fmt.Printf("RE : %s\n", res.Expression)
	fmt.Printf("NL : %s\n", res.NL)
	fmt.Printf("Ĉ  : %.2f bits\n", res.Bits)
	for i, alt := range res.Alternatives {
		fmt.Printf("alt %d: %s  (%.2f bits)\n", i+1, alt.Expression, alt.Bits)
	}
	if *verbose {
		st := res.Stats
		fmt.Fprintf(os.Stderr, "queue: %d candidates in %v; search: %v, %d nodes, %d RE tests, cache %d/%d hits\n",
			st.Candidates, st.QueueBuild, st.Search, st.Visited, st.RETests, st.CacheHits, st.CacheHits+st.CacheMisses)
	}
}
