package experiments

import (
	"fmt"
	"io"

	"banyan/internal/core"
	"banyan/internal/dist"
	"banyan/internal/simnet"
	"banyan/internal/textplot"
	"banyan/internal/traffic"
)

// DistRow is one traffic/service class of the distribution check.
type DistRow struct {
	Model    string
	Messages int64
	KS       float64 // Kolmogorov–Smirnov distance sim vs exact
	Critical float64 // 1% KS critical value for the sample size
	TV       float64 // total-variation distance
	ChiP     float64 // chi-square p-value (pooled cells)
	Pass     bool    // KS below critical value
}

// DistCheck validates Theorem 1 at the distribution level: for each
// traffic/service class the full simulated stage-1 waiting-time histogram
// is tested against the exact transform-derived distribution with a
// Kolmogorov–Smirnov test at the 1% level. This is the strongest form of
// the paper's first-stage claim — not just the mean and variance but
// every lattice probability.
type DistCheck struct {
	Name string
	Rows []DistRow
}

// DistributionCheck runs the check over the paper's traffic classes.
func DistributionCheck(sc Scale) (*DistCheck, error) {
	mix, err := traffic.MultiService([]traffic.SizeMix{{Size: 4, Prob: 0.75}, {Size: 8, Prob: 0.25}})
	if err != nil {
		return nil, err
	}
	geo, err := traffic.GeomService(0.5, 512)
	if err != nil {
		return nil, err
	}
	// Each class's arrival and service laws are the ones Theorem 1 holds
	// its configuration to (simnet.Config.Stage1Law).
	classes := []struct {
		name string
		cfg  simnet.Config
	}{
		{"uniform k=2 p=0.5 m=1", simnet.Config{K: 2, Stages: 1, P: 0.5}},
		{"uniform k=4 p=0.8 m=1", simnet.Config{K: 4, Stages: 1, P: 0.8}},
		{"bulk b=3 p=0.15", simnet.Config{K: 2, Stages: 1, P: 0.15, Bulk: 3}},
		{"hot-spot q=0.4 (exclusive)", simnet.Config{K: 2, Stages: 1, P: 0.5, Q: 0.4}},
		{"constant m=4 ρ=0.5", simnet.Config{K: 2, Stages: 1, P: 0.125, Service: mustConst(4)}},
		{"multi-size {4:.75, 8:.25}", simnet.Config{K: 2, Stages: 1, P: 0.08, Service: mix}},
		{"geometric μ=0.5 p=0.25", simnet.Config{K: 2, Stages: 1, P: 0.25, Service: geo}},
	}

	chk := &DistCheck{Name: "Stage-1 distribution check (Theorem 1)"}
	for _, c := range classes {
		arr, svc, err := c.cfg.Stage1Law()
		if err != nil {
			return nil, err
		}
		cfg := c.cfg
		cfg.Service = svc
		res, err := sc.run("distcheck/"+c.name, cfg)
		if err != nil {
			return nil, err
		}
		an, err := core.New(arr, svc)
		if err != nil {
			return nil, err
		}
		maxV := res.TotalWait.Max()
		order := maxV + 64
		if order < 256 {
			order = 256
		}
		exact, _, err := an.WaitDistribution(order)
		if err != nil {
			return nil, err
		}
		// OneSampleKS applies the autocorrelation-corrected effective
		// sample size N·(1-ρ)/(1+ρ): successive waits at a queue share
		// busy periods, so the i.i.d. critical value would be too tight.
		kr, err := dist.OneSampleKS(res.TotalWait.Counts(), exact, 0.01, arr.Rate()*svc.Mean())
		if err != nil {
			return nil, err
		}
		emp, err := dist.EmpiricalPMF(res.TotalWait.Counts())
		if err != nil {
			return nil, err
		}
		chiP := 0.0
		if stat, dof, cerr := dist.ChiSquare(res.TotalWait.Counts(), exact.Probs(), 5); cerr == nil {
			if pv, perr := dist.ChiSquarePValue(stat, dof); perr == nil {
				chiP = pv
			}
		}
		chk.Rows = append(chk.Rows, DistRow{
			Model:    c.name,
			Messages: res.Messages,
			KS:       kr.KS,
			Critical: kr.Critical,
			TV:       dist.TotalVariation(emp, exact),
			ChiP:     chiP,
			Pass:     kr.Pass,
		})
	}
	return chk, nil
}

// Render writes the check as a table.
func (chk *DistCheck) Render(w io.Writer) error {
	header := []string{"model", "messages", "KS", "KS 1% crit", "TV", "χ² p", "pass"}
	var rows [][]string
	for _, r := range chk.Rows {
		rows = append(rows, []string{
			r.Model,
			fmt.Sprintf("%d", r.Messages),
			fmt.Sprintf("%.5f", r.KS),
			fmt.Sprintf("%.5f", r.Critical),
			fmt.Sprintf("%.5f", r.TV),
			fmt.Sprintf("%.3f", r.ChiP),
			fmt.Sprintf("%v", r.Pass),
		})
	}
	return textplot.Table(w, chk.Name, header, rows)
}
