// Command tables regenerates Tables I–XII of Kruskal, Snir & Weiss,
// "The Distribution of Waiting Times in Clocked Multistage Interconnection
// Networks", printing each in the paper's layout (per-stage simulation
// rows plus ANALYSIS and ESTIMATE rows, or simulation-vs-prediction rows
// for the total-delay tables).
//
// Usage:
//
//	tables [-quick] [-only TableIX] [-seed N] [-parallelism N] [-progress]
//	       [-timeout D] [-point-budget D] [-max-retries N]
//	       [-checkpoint FILE] [-resume]
//
// With -checkpoint, completed simulation points are journaled as they
// finish; after a Ctrl-C (or a -timeout), rerunning with -resume picks up
// where the run stopped and produces byte-identical output.
package main

import (
	"flag"
	"log"
	"os"

	"banyan/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tables: ")
	only := flag.String("only", "", "regenerate a single table (e.g. \"Table IX\" or \"IX\")")
	f := experiments.RegisterFlags(flag.CommandLine)
	flag.Parse()

	secs, err := experiments.Select(experiments.TableKind, *only)
	if err != nil {
		log.Fatal(err)
	}
	sc, cleanup, err := f.Scale()
	if err != nil {
		log.Fatal(err)
	}
	defer cleanup()
	if err := experiments.Print(os.Stdout, sc, secs, ""); err != nil {
		log.Fatal(err)
	}
}
