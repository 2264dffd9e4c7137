// Command figures regenerates Figures 3–8 of the paper: the distribution
// of the total waiting time through networks of 3, 6, 9 and 12 stages,
// with the fitted gamma approximation overlaid. Figures render as ASCII
// histograms on stdout; -csv DIR additionally writes one CSV per figure
// for external plotting.
//
// Usage:
//
//	figures [-quick] [-only "Figure 5"] [-csv DIR] [-seed N] [-parallelism N] [-progress]
//	        [-timeout D] [-point-budget D] [-max-retries N]
//	        [-checkpoint FILE] [-resume]
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
	log.SetPrefix("figures: ")
	only := flag.String("only", "", "regenerate a single figure (e.g. \"Figure 5\" or \"5\")")
	csvDir := flag.String("csv", "", "also write figure data as CSV files into this directory")
	f := experiments.RegisterFlags(flag.CommandLine)
	flag.Parse()

	secs, err := experiments.Select(experiments.FigureKind, *only)
	if err != nil {
		log.Fatal(err)
	}
	sc, cleanup, err := f.Scale()
	if err != nil {
		log.Fatal(err)
	}
	defer cleanup()
	if err := experiments.Print(os.Stdout, sc, secs, *csvDir); err != nil {
		log.Fatal(err)
	}
}
