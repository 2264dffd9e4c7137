// Command designer explores interconnect design alternatives for a
// shared-memory machine using the paper's formulas — the kind of study
// they were originally built for (Ultracomputer and RP3 sizing): pick a
// switch radix, a maximum message size and a buffer depth for a machine
// of N processors under a tail-latency objective.
//
// Usage:
//
//	designer -pes 256 -p 0.5 [-m 1] [-slo 30] [-radices 2,4,8]
//
// designer is purely analytic (no simulation).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"banyan/internal/design"
	"banyan/internal/textplot"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("designer: ")
	pes := flag.Int("pes", 256, "processors to interconnect")
	p := flag.Float64("p", 0.5, "per-PE request probability per cycle")
	m := flag.Int("m", 1, "message size in packets")
	slo := flag.Float64("slo", 30, "p99 transit objective, cycles")
	radixList := flag.String("radices", "2,4,8", "candidate switch radices")
	flag.Parse()

	var radices []int
	for _, s := range strings.Split(*radixList, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			log.Fatalf("bad radix %q: %v", s, err)
		}
		radices = append(radices, v)
	}

	cands, err := design.RecommendRadix(*pes, *m, *p, *slo, radices)
	if err != nil {
		log.Fatal(err)
	}
	header := []string{"k", "stages", "size", "ρ", "E[transit]", "p99", "xpoints", "buf@1e-3", "feasible"}
	var rows [][]string
	for _, c := range cands {
		if !c.Feasible && c.Metrics.Stages == 0 {
			rows = append(rows, []string{
				fmt.Sprintf("%d", c.Point.K), "-", "-",
				fmt.Sprintf("%.2f", float64(c.Point.M)*c.Point.P),
				"-", "-", "-", "-", "unstable",
			})
			continue
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", c.Point.K),
			fmt.Sprintf("%d", c.Metrics.Stages),
			fmt.Sprintf("%d", c.Metrics.Endpoints),
			fmt.Sprintf("%.2f", c.Metrics.Rho),
			fmt.Sprintf("%.2f", c.Metrics.MeanTransit),
			fmt.Sprintf("%.1f", c.Metrics.P99Transit),
			fmt.Sprintf("%d", c.Metrics.Crosspoints),
			fmt.Sprintf("%d", c.Metrics.BufferFor1e3),
			fmt.Sprintf("%v", c.Feasible),
		})
	}
	title := fmt.Sprintf("interconnect candidates for %d PEs, p=%g, m=%d, p99 SLO %g cycles (cheapest feasible first)",
		*pes, *p, *m, *slo)
	if err := textplot.Table(os.Stdout, title, header, rows); err != nil {
		log.Fatal(err)
	}

	// Message-size headroom at the chosen operating intensity.
	rho := float64(*m) * (*p)
	if rho > 0 && rho < 1 && len(cands) > 0 && cands[0].Feasible {
		k := cands[0].Point.K
		if maxM, err := design.MaxMessageSize(*pes, k, rho, *slo, 64); err == nil {
			fmt.Printf("\nat fixed intensity ρ=%.2f on the k=%d design, messages up to %d packets still meet the SLO\n",
				rho, k, maxM)
		}
		if slowest, err := design.SlowestOfN(cands[0].Point, *pes); err == nil {
			fmt.Printf("barrier proxy: expected slowest-of-%d transit ≈ %.1f cycles\n", *pes, slowest)
		}
	}
}
