// Command report regenerates the complete reproduction in one shot and
// writes a self-contained Markdown report: every section that cmd/tables,
// cmd/figures and cmd/extensions print — Tables I–XII, Figures 3–8 (as
// fenced ASCII histograms, plus CSV files with -csv) and every
// beyond-paper extension — in that order. It is the "make reproduction"
// entry point; EXPERIMENTS.md is the curated interpretation of one such
// run.
//
// Usage:
//
//	report [-o report.md] [-csv DIR] [-quick] [-seed N] [-parallelism N] [-progress]
//	       [-timeout D] [-point-budget D] [-max-retries N]
//	       [-checkpoint FILE] [-resume]
//	       [-events FILE] [-debug-addr :6060] [-sim-stats]
//
// A full regeneration is the longest-running entry point in the repo, so
// it carries the whole shared sweep surface: -checkpoint/-resume journal
// completed points across interruptions, -progress logs windowed
// throughput and ETA, and -events/-debug-addr/-sim-stats expose the
// structured event log, live metrics+pprof, and engine internals.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"banyan/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("report: ")
	out := flag.String("o", "report.md", "output Markdown file")
	csvDir := flag.String("csv", "", "also write figure CSVs into this directory")
	fl := experiments.RegisterFlags(flag.CommandLine)
	flag.Parse()

	sc, cleanup, err := fl.Scale()
	if err != nil {
		log.Fatal(err)
	}
	defer cleanup()

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}()

	fmt.Fprintf(f, "# Reproduction report — Kruskal, Snir & Weiss (ICPP'86 / IEEE ToC '88)\n\n")
	fmt.Fprintf(f, "Generated %s at scale TargetMessages=%d WarmupCycles=%d Seed=%d.\n\n",
		time.Now().Format(time.RFC3339), sc.TargetMessages, sc.WarmupCycles, sc.Seed)
	for _, s := range experiments.Sections() {
		start := time.Now()
		fmt.Fprintf(f, "## %s\n\n```\n", s.Name)
		if err := s.Run(sc, f, *csvDir); err != nil {
			log.Fatalf("%s: %v", s.Name, err)
		}
		fmt.Fprintf(f, "```\n\n")
		log.Printf("%s done in %v", s.Name, time.Since(start).Round(time.Millisecond))
	}
	log.Printf("wrote %s", *out)
}
