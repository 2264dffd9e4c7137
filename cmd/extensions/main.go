// Command extensions runs everything this reproduction adds beyond the
// paper's own tables and figures:
//
//   - the stage-1 distribution check (KS/χ² tests of the full Theorem 1
//     waiting-time distribution against simulation);
//   - the exact second-stage Markov-chain analysis vs the Section IV
//     interpolation (the paper's "we do not know how to analyze the later
//     stages exactly", answered numerically for k=2, m=1), and the same
//     chain for message size m=2 vs the Section IV-B scaled model;
//   - the finite-buffer sweep (exact chain + simulated drops + tail
//     estimates — the paper's Conclusion future work);
//   - the heavy-traffic probe ((1-p)·w∞ toward saturation — the paper's
//     conjectured limit);
//   - the bursty-source sweep (Markov-modulated inputs at a fixed mean
//     load, against the i.i.d. model);
//   - the rare-event tail table (importance-split p99/p99.99/p99.9999
//     waiting-time quantiles at ρ = 0.9, with honest CIs at depths
//     plain simulation cannot reach).
//
// Usage:
//
//	extensions [-quick] [-seed N] [-parallelism N] [-progress]
//	           [-timeout D] [-point-budget D] [-max-retries N]
//	           [-checkpoint FILE] [-resume]
//	           [-events FILE] [-debug-addr :6060] [-sim-stats]
//
// The simulation-backed extensions (distribution check, finite buffers,
// heavy traffic, bursty sources) run on one shared sweep runner, so the
// usual fault-tolerance and observability flags apply; the exact
// Markov-chain and tail sections are purely numeric and run inline.
package main

import (
	"flag"
	"log"
	"os"

	"banyan/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("extensions: ")
	f := experiments.RegisterFlags(flag.CommandLine)
	flag.Parse()

	secs, err := experiments.Select(experiments.ExtensionKind, "")
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
