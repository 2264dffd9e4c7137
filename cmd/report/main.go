// Command report regenerates the complete reproduction in one shot and
// writes a self-contained Markdown report: every table (I–XII), every
// figure (3–8, as fenced ASCII histograms plus CSV files), and the
// beyond-paper extension experiments. It is the "make reproduction"
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
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"banyan/internal/experiments"
	"banyan/internal/sweep"
)

type section struct {
	title string
	run   func(experiments.Scale, io.Writer) error
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("report: ")
	out := flag.String("o", "report.md", "output Markdown file")
	csvDir := flag.String("csv", "", "also write figure CSVs into this directory")
	quick := flag.Bool("quick", false, "use the small test-sized simulation scale")
	seed := flag.Uint64("seed", 0, "override the base random seed")
	parallelism := flag.Int("parallelism", 0, "simulation worker count (0 = all cores); results are identical at every setting")
	progress := flag.Bool("progress", false, "log per-point sweep progress to stderr")
	var opts sweep.RunOptions
	opts.RegisterFlags(flag.CommandLine)
	flag.Parse()

	sc := experiments.Full()
	if *quick {
		sc = experiments.Quick()
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	sc.Parallelism = *parallelism
	// One shared runner across every section: the total tables and their
	// figures sweep identical operating points, so the cache halves the
	// simulation work, and the counters/events span the whole report.
	sc.Runner = sc.NewRunner()
	if *progress {
		sc.Runner.Reporter = sweep.NewLogReporter(os.Stderr)
	}
	ctx, cleanup, err := opts.Apply(sc.Runner)
	if err != nil {
		log.Fatal(err)
	}
	defer cleanup()
	sc.Ctx = ctx

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
	fmt.Fprintf(f, "Generated %s at scale %+v.\n\n", time.Now().Format(time.RFC3339), sc)

	sections := []section{
		{"Table I", wrapTable(experiments.TableI)},
		{"Table II", wrapTable(experiments.TableII)},
		{"Table III", wrapTable(experiments.TableIII)},
		{"Table IV", wrapTable(experiments.TableIV)},
		{"Table V", wrapTable(experiments.TableV)},
		{"Table VI", func(sc experiments.Scale, w io.Writer) error {
			t, err := experiments.TableVI(sc)
			if err != nil {
				return err
			}
			return t.Render(w)
		}},
		{"Table VII", wrapTotal(experiments.TableVII)},
		{"Table VIII", wrapTotal(experiments.TableVIII)},
		{"Table IX", wrapTotal(experiments.TableIX)},
		{"Table X", wrapTotal(experiments.TableX)},
		{"Table XI", wrapTotal(experiments.TableXI)},
		{"Table XII", wrapTotal(experiments.TableXII)},
	}
	for _, tc := range experiments.TotalCases() {
		tc := tc
		sections = append(sections, section{tc.Fig, func(sc experiments.Scale, w io.Writer) error {
			fig, err := experiments.FigureFor(sc, tc)
			if err != nil {
				return err
			}
			if err := fig.Render(w); err != nil {
				return err
			}
			if *csvDir != "" {
				if err := os.MkdirAll(*csvDir, 0o755); err != nil {
					return err
				}
				name := filepath.Join(*csvDir, strings.ReplaceAll(strings.ToLower(tc.Fig), " ", "_")+".csv")
				cf, err := os.Create(name)
				if err != nil {
					return err
				}
				if err := fig.RenderCSV(cf); err != nil {
					cf.Close() //nolint:errcheck // best-effort cleanup; the render failure being reported matters more
					return err
				}
				return cf.Close()
			}
			return nil
		}})
	}
	sections = append(sections,
		section{"Extension: stage-1 distribution check", func(sc experiments.Scale, w io.Writer) error {
			chk, err := experiments.DistributionCheck(sc)
			if err != nil {
				return err
			}
			return chk.Render(w)
		}},
		section{"Extension: finite buffers", func(sc experiments.Scale, w io.Writer) error {
			sw, err := experiments.BufferExperiment(sc, 2, 0.6, 1, 4, []int{1, 2, 4, 8, 16})
			if err != nil {
				return err
			}
			return sw.Render(w)
		}},
		section{"Extension: heavy traffic", func(sc experiments.Scale, w io.Writer) error {
			ht, err := experiments.HeavyTrafficExperiment(sc, 2, nil)
			if err != nil {
				return err
			}
			return ht.Render(w)
		}},
		section{"Extension: bursty sources", func(sc experiments.Scale, w io.Writer) error {
			bu, err := experiments.BurstyExperiment(sc, 2, 0.4, nil)
			if err != nil {
				return err
			}
			return bu.Render(w)
		}},
	)

	for _, s := range sections {
		start := time.Now()
		fmt.Fprintf(f, "## %s\n\n```\n", s.title)
		if err := s.run(sc, f); err != nil {
			log.Fatalf("%s: %v", s.title, err)
		}
		fmt.Fprintf(f, "```\n\n")
		log.Printf("%s done in %v", s.title, time.Since(start).Round(time.Millisecond))
	}
	log.Printf("wrote %s", *out)
}

func wrapTable(fn func(experiments.Scale) (*experiments.StageTable, error)) func(experiments.Scale, io.Writer) error {
	return func(sc experiments.Scale, w io.Writer) error {
		t, err := fn(sc)
		if err != nil {
			return err
		}
		return t.Render(w)
	}
}

func wrapTotal(fn func(experiments.Scale) (*experiments.TotalTable, error)) func(experiments.Scale, io.Writer) error {
	return func(sc experiments.Scale, w io.Writer) error {
		t, err := fn(sc)
		if err != nil {
			return err
		}
		return t.Render(w)
	}
}
