package experiments

import (
	"fmt"
	"io"

	"banyan/internal/core"
	"banyan/internal/simnet"
	"banyan/internal/sweep"
	"banyan/internal/textplot"
)

// BurstyRow is one burst-length point of the burstiness sweep.
type BurstyRow struct {
	MeanBurst float64 // mean ON period, cycles (∞ burst = i.i.d. limit not included)
	SimW1     float64 // simulated stage-1 mean wait
	SimWDeep  float64 // simulated deep-stage mean wait
	SimV1     float64
	IIDW1     float64 // Theorem 1 prediction under the i.i.d. assumption
	Inflation float64 // SimW1 / IIDW1
}

// Bursty measures what source burstiness costs beyond the paper's
// i.i.d.-per-cycle model (the extension its reference [3], Burman &
// Smith, analyzes for a single queue): two-state Markov-modulated inputs
// with the mean load held fixed while the mean burst length grows. The
// i.i.d. formulas increasingly underpredict the waiting time.
type Bursty struct {
	Name    string
	Caption string
	K       int
	P       float64
	Rows    []BurstyRow
}

// BurstyExperiment sweeps the mean burst length at k=2, m=1, fixed mean
// load p with 50% duty cycle.
func BurstyExperiment(sc Scale, k int, p float64, burstLens []float64) (*Bursty, error) {
	if len(burstLens) == 0 {
		burstLens = []float64{2, 4, 8, 16, 32}
	}
	b := &Bursty{
		Name:    "Bursty sources",
		Caption: fmt.Sprintf("Markov-modulated inputs at fixed mean load (k=%d, p=%g, 50%% duty)", k, p),
		K:       k,
		P:       p,
	}
	iid := core.UniformServiceOneMeanWait(k, k, p)
	const n = 6
	var pts []sweep.Point
	for _, L := range burstLens {
		if L < 1 {
			return nil, fmt.Errorf("experiments: burst length %g must be ≥ 1", L)
		}
		cfg := simnet.Config{
			K: k, Stages: n, P: p,
			Burst: &simnet.BurstParams{POnRate: 1 / L, POffRate: 1 / L},
		}
		pts = append(pts, sc.point(fmt.Sprintf("bursty/L=%g", L), cfg))
	}
	results, err := sc.runBatch(pts)
	if err != nil {
		return nil, err
	}
	for i, L := range burstLens {
		res := results[i]
		b.Rows = append(b.Rows, BurstyRow{
			MeanBurst: L,
			SimW1:     res.StageWait[0].Mean(),
			SimV1:     res.StageWait[0].Variance(),
			SimWDeep:  res.StageWait[n-1].Mean(),
			IIDW1:     iid,
			Inflation: res.StageWait[0].Mean() / iid,
		})
	}
	return b, nil
}

// Render writes the sweep as a table.
func (b *Bursty) Render(w io.Writer) error {
	header := []string{"mean burst", "sim w1", "sim v1", "sim w-deep", "iid w1 (Thm 1)", "inflation"}
	var rows [][]string
	for _, r := range b.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f", r.MeanBurst),
			fmt.Sprintf("%.4f", r.SimW1),
			fmt.Sprintf("%.4f", r.SimV1),
			fmt.Sprintf("%.4f", r.SimWDeep),
			fmt.Sprintf("%.4f", r.IIDW1),
			fmt.Sprintf("%.2f×", r.Inflation),
		})
	}
	return textplot.Table(w, fmt.Sprintf("%s — %s", b.Name, b.Caption), header, rows)
}
