// Command kbgen generates the synthetic datasets used by the reproduction
// (Zipf-shaped stand-ins for the paper's DBpedia and Wikidata dumps) and
// writes them as N-Triples or a compiled KB snapshot.
//
// Usage:
//
//	kbgen -dataset dbpedia -scale 0.5 -seed 42 -out dbpedia.nt
//	kbgen -dataset wikidata -out wikidata.nt
//	kbgen -dataset tiny -out tiny.nt
//	kbgen -dataset dbpedia -snapshot dbpedia.snap        # compiled, mmap-able
//	kbgen -dataset tiny -out tiny.nt -snapshot tiny.snap # both forms
//	kbgen -in dump.nt -snapshot dump.snap                # compile an existing dump
//
// -out writes raw triples (indexes are rebuilt at every load); -snapshot
// compiles the dataset once — dictionary, CSR indexes, inverse
// materializations — into the zero-copy snapshot that remi.Load and
// remi-serve -kb reopen in O(page-in) time.
//
// Note on tiny: the snapshot is compiled with the demo's inverse fraction
// (top 10%, matching `remi.GenerateDemo("tiny", ...)` and `remi-serve
// -demo tiny`), while a tiny .nt reloaded through remi.Load gets the
// paper's top-1% default — on ~100 entities that materializes no inverses,
// so the two forms are deliberately NOT equivalent for this dataset. The
// dbpedia/wikidata datasets use the default fraction in both forms.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"github.com/remi-kb/remi/internal/datagen"
	"github.com/remi-kb/remi/internal/kb"
	"github.com/remi-kb/remi/internal/rdf"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("kbgen: ")

	var (
		dataset  = flag.String("dataset", "dbpedia", "dataset to generate: dbpedia | wikidata | tiny")
		seed     = flag.Int64("seed", 42, "generator seed")
		scale    = flag.Float64("scale", 1.0, "class-population multiplier")
		out      = flag.String("out", "", "N-Triples output file")
		snapPath = flag.String("snapshot", "", "compiled KB snapshot output file (indexes packed once, opened zero-copy)")
		in       = flag.String("in", "", "compile an existing N-Triples file instead of generating a dataset (requires -snapshot; always streamed)")
	)
	flag.Parse()
	if *out == "" && *snapPath == "" {
		flag.Usage()
		fmt.Fprintln(os.Stderr, "\none of -out or -snapshot is required")
		os.Exit(2)
	}
	if *in != "" && (*snapPath == "" || *out != "") {
		log.Fatal("-in compiles an N-Triples file to a snapshot: it requires -snapshot and excludes -out")
	}

	var d *datagen.Dataset
	opts := kb.DefaultOptions()
	if *in == "" {
		var err error
		if d, opts, err = datagen.Named(*dataset, datagen.Config{Seed: *seed, Scale: *scale}); err != nil {
			log.Fatal(err)
		}
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		if err := rdf.WriteAll(f, d.Triples); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %d triples → %s\n", d.Name, len(d.Triples), *out)
	}

	if *snapPath != "" {
		var k *kb.KB
		var err error
		name := *in
		if name != "" {
			k, err = compileFile(name, opts)
		} else {
			name = d.Name
			k, err = d.BuildKB(opts)
		}
		if err != nil {
			log.Fatal(err)
		}
		if err := k.WriteSnapshotFile(*snapPath); err != nil {
			log.Fatal(err)
		}
		st, err := os.Stat(*snapPath)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %d facts (%d entities, %d predicates) compiled → %s (%d bytes)\n",
			name, k.NumFacts(), k.NumEntities(), k.NumPredicates(), *snapPath, st.Size())
	}
}

// compileFile streams an N-Triples file through the bounded-memory builder.
func compileFile(path string, opts kb.Options) (*kb.KB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return kb.BuildStreaming(rdf.NewReader(f), opts)
}
