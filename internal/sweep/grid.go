package sweep

import (
	"fmt"
	"strings"

	"banyan/internal/simnet"
	"banyan/internal/traffic"
)

// Grid describes a cartesian parameter grid in the paper's coordinates:
// switch radix k, stage count n, arrival probability p, constant message
// size m, bulk size, favorite-output probability q, and buffer capacity.
// Leaving an axis nil pins it at its default (a single zero/unit value).
type Grid struct {
	Ks    []int     // switch radix; nil = {2}
	Ns    []int     // stages; nil = {1}
	Ps    []float64 // arrival probability per input per cycle
	Ms    []int     // constant service size; nil = {1} (unit service)
	Bulks []int     // messages per arrival batch; nil = {1}
	Qs    []float64 // favorite-output probability; nil = {0} (uniform)
	Caps  []int     // buffer capacity; nil = {0} (infinite)

	// Cycles and Warmup apply to every point. Reps is the replication
	// count per point (0 = 1) and Engine the simulator (points with a
	// finite Cap are forced onto the literal engine: the finite-buffer
	// cycle loop under its drop policy).
	Cycles int
	Warmup int
	Reps   int
	Engine Engine
}

func orInts(v []int, def int) []int {
	if len(v) == 0 {
		return []int{def}
	}
	return v
}

func orFloats(v []float64, def float64) []float64 {
	if len(v) == 0 {
		return []float64{def}
	}
	return v
}

// Points expands the grid into labelled sweep points in row-major order
// (k outermost, cap innermost). Labels spell out only the axes the grid
// actually varies, e.g. "k=2/n=6/p=0.4".
func (g Grid) Points() ([]Point, error) {
	ks := orInts(g.Ks, 2)
	ns := orInts(g.Ns, 1)
	ps := orFloats(g.Ps, 0.5)
	ms := orInts(g.Ms, 1)
	bulks := orInts(g.Bulks, 1)
	qs := orFloats(g.Qs, 0)
	caps := orInts(g.Caps, 0)

	services := make(map[int]traffic.Service, len(ms))
	for _, m := range ms {
		if _, ok := services[m]; ok {
			continue
		}
		sv, err := traffic.ConstService(m)
		if err != nil {
			return nil, fmt.Errorf("sweep: grid service size %d: %w", m, err)
		}
		services[m] = sv
	}

	var pts []Point
	for _, k := range ks {
		for _, n := range ns {
			for _, p := range ps {
				for _, m := range ms {
					for _, b := range bulks {
						for _, q := range qs {
							for _, cap := range caps {
								// k, n, p always appear; the optional axes
								// only when varied or non-default.
								lbl := []string{
									fmt.Sprintf("k=%d", k),
									fmt.Sprintf("n=%d", n),
									fmt.Sprintf("p=%g", p),
								}
								if len(ms) > 1 || m != 1 {
									lbl = append(lbl, fmt.Sprintf("m=%d", m))
								}
								if len(bulks) > 1 || b != 1 {
									lbl = append(lbl, fmt.Sprintf("bulk=%d", b))
								}
								if len(qs) > 1 || q != 0 {
									lbl = append(lbl, fmt.Sprintf("q=%g", q))
								}
								if len(caps) > 1 || cap != 0 {
									lbl = append(lbl, fmt.Sprintf("cap=%d", cap))
								}
								eng := g.Engine
								if cap > 0 {
									eng = Literal
								}
								pts = append(pts, Point{
									Label: strings.Join(lbl, "/"),
									Cfg: simnet.Config{
										K: k, Stages: n, P: p,
										Service:   services[m],
										Bulk:      b,
										Q:         q,
										BufferCap: cap,
										Cycles:    g.Cycles,
										Warmup:    g.Warmup,
									},
									Engine: eng,
									Reps:   g.Reps,
								})
							}
						}
					}
				}
			}
		}
	}
	return pts, nil
}
