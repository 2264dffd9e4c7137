package experiments

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"banyan/internal/stages"
	"banyan/internal/sweep"
	"banyan/internal/tandem"
	"banyan/internal/textplot"
	"banyan/internal/traffic"
	"banyan/internal/vr"
)

// Kind says which command prints a section: cmd/tables prints the
// tables, cmd/figures the figures, cmd/extensions the extensions, and
// cmd/report every section.
type Kind int

// The kinds, in report order.
const (
	TableKind Kind = iota
	FigureKind
	ExtensionKind
)

func (k Kind) String() string {
	switch k {
	case TableKind:
		return "table"
	case FigureKind:
		return "figure"
	}
	return "extension"
}

// Section is one table, figure or extension of the reproduction. Run
// computes it at scale sc and renders it to w; a figure also writes its
// data as CSV into csvDir when csvDir is not empty.
type Section struct {
	Name string
	Kind Kind
	Run  func(sc Scale, w io.Writer, csvDir string) error
}

// Sections returns the whole reproduction in report order: Tables I–XII,
// Figures 3–8, then the extensions beyond the paper.
func Sections() []Section {
	secs := []Section{
		{"Table I", TableKind, render(TableI)},
		{"Table II", TableKind, render(TableII)},
		{"Table III", TableKind, render(TableIII)},
		{"Table IV", TableKind, render(TableIV)},
		{"Table V", TableKind, render(TableV)},
		{"Table VI", TableKind, render(TableVI)},
		{"Table VII", TableKind, render(TableVII)},
		{"Table VIII", TableKind, render(TableVIII)},
		{"Table IX", TableKind, render(TableIX)},
		{"Table X", TableKind, render(TableX)},
		{"Table XI", TableKind, render(TableXI)},
		{"Table XII", TableKind, render(TableXII)},
	}
	for _, tc := range TotalCases() {
		secs = append(secs, Section{tc.Fig, FigureKind, figureSection(tc)})
	}
	return append(secs,
		Section{"Extension: stage-1 distribution check", ExtensionKind, render(DistributionCheck)},
		Section{"Extension: exact stage 2", ExtensionKind, exactStage2},
		Section{"Extension: exact stage 2, m=2", ExtensionKind, exactStage2M2},
		Section{"Extension: finite buffers", ExtensionKind, render(func(sc Scale) (*BufferSweep, error) {
			return BufferExperiment(sc, 2, 0.6, 1, 4, []int{1, 2, 4, 8, 16})
		})},
		Section{"Extension: heavy traffic", ExtensionKind, render(func(sc Scale) (*HeavyTraffic, error) {
			return HeavyTrafficExperiment(sc, 2, nil)
		})},
		Section{"Extension: bursty sources", ExtensionKind, render(func(sc Scale) (*Bursty, error) {
			return BurstyExperiment(sc, 2, 0.4, nil)
		})},
		Section{"Extension: rare-event tails", ExtensionKind, rareEventTails},
	)
}

// Select returns the sections of one kind in list order. A non-empty
// only keeps the one section it names, compared without case against
// the full name or its numeral ("Table IX" or "IX", "Figure 5" or "5"),
// so that "IX" does not match "Table XII". A selector that matches
// nothing is an error.
func Select(kind Kind, only string) ([]Section, error) {
	only = strings.TrimSpace(only)
	var out []Section
	for _, s := range Sections() {
		if s.Kind != kind {
			continue
		}
		_, numeral, _ := strings.Cut(s.Name, " ")
		if only == "" || strings.EqualFold(s.Name, only) || strings.EqualFold(numeral, only) {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no %s matches %q", kind, only)
	}
	return out, nil
}

// Print runs secs in order and writes each to w, followed by its timing
// line and a blank line.
func Print(w io.Writer, sc Scale, secs []Section, csvDir string) error {
	for _, s := range secs {
		start := time.Now()
		if err := s.Run(sc, w, csvDir); err != nil {
			return fmt.Errorf("%s: %w", s.Name, err)
		}
		if _, err := fmt.Fprintf(w, "(%s regenerated in %v)\n\n", s.Name, time.Since(start).Round(time.Millisecond)); err != nil {
			return err
		}
	}
	return nil
}

// Flags are the command-line flags every reproduction command shares.
type Flags struct {
	quick, progress *bool
	seed            *uint64
	parallelism     *int
	opts            sweep.RunOptions
}

// RegisterFlags installs -quick, -seed, -parallelism, -progress and the
// sweep.RunOptions flags on fs.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{
		quick:       fs.Bool("quick", false, "use the small test-sized simulation scale"),
		seed:        fs.Uint64("seed", 0, "override the base random seed"),
		parallelism: fs.Int("parallelism", 0, "simulation worker count (0 = all cores); results are identical at every setting"),
		progress:    fs.Bool("progress", false, "log per-point sweep progress to stderr"),
	}
	f.opts.RegisterFlags(fs)
	return f
}

// Scale builds the scale the parsed flags select, with one shared
// runner: its cache dedupes the operating points that sections share
// (the total tables and their figures run identical points), and its
// counters span the whole run. Call cleanup when the run is over.
func (f *Flags) Scale() (sc Scale, cleanup func(), err error) {
	sc = Full()
	if *f.quick {
		sc = Quick()
	}
	if *f.seed != 0 {
		sc.Seed = *f.seed
	}
	sc.Parallelism = *f.parallelism
	sc.Runner = sc.NewRunner()
	if *f.progress {
		sc.Runner.Reporter = sweep.NewLogReporter(os.Stderr)
	}
	sc.Ctx, cleanup, err = f.opts.Apply(sc.Runner)
	return sc, cleanup, err
}

// quick reports whether sc is below full scale. The purely numeric
// extensions size their truncations and excursion counts by it.
func (sc Scale) quick() bool { return sc.TargetMessages < Full().TargetMessages }

// render adapts an experiment constructor to a section body.
func render[T interface{ Render(io.Writer) error }](f func(Scale) (T, error)) func(Scale, io.Writer, string) error {
	return func(sc Scale, w io.Writer, _ string) error {
		v, err := f(sc)
		if err != nil {
			return err
		}
		return v.Render(w)
	}
}

// figureSection renders the figure of tc and, with a csvDir, writes its
// data to csvDir/figure_N.csv.
func figureSection(tc TotalCase) func(Scale, io.Writer, string) error {
	return func(sc Scale, w io.Writer, csvDir string) error {
		f, err := FigureFor(sc, tc)
		if err != nil {
			return err
		}
		if err := f.Render(w); err != nil || csvDir == "" {
			return err
		}
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
		name := filepath.Join(csvDir, strings.ReplaceAll(strings.ToLower(tc.Fig), " ", "_")+".csv")
		out, err := os.Create(name)
		if err != nil {
			return err
		}
		if err := f.RenderCSV(out); err != nil {
			out.Close() //nolint:errcheck // best-effort cleanup; the render failure being reported matters more
			return fmt.Errorf("csv: %w", err)
		}
		if err := out.Close(); err != nil {
			return fmt.Errorf("csv: %w", err)
		}
		_, err = fmt.Fprintf(w, "(wrote %s)\n", name)
		return err
	}
}

// exactStage2 compares the exact stage-2 Markov chain (internal/tandem)
// with the Section IV interpolation at k=2, m=1 — the paper's "we do not
// know how to analyze the later stages exactly", answered numerically.
func exactStage2(sc Scale, w io.Writer, _ string) error {
	t2, sweeps := 56, 12000
	if sc.quick() {
		t2, sweeps = 40, 4000
	}
	var rows [][]string
	for _, p := range []float64{0.2, 0.35, 0.5, 0.65, 0.8} {
		r, err := tandem.Solve(p, 1, 40, t2, sweeps, 1e-13)
		if err != nil {
			return err
		}
		approx := model().StageMeanWait(stages.Params{K: 2, M: 1, P: p}, 2)
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", p),
			fmt.Sprintf("%.5f", r.MeanWait2),
			fmt.Sprintf("%.5f", approx),
			fmt.Sprintf("%+.2f%%", 100*(approx-r.MeanWait2)/r.MeanWait2),
			fmt.Sprintf("%.5f", r.VarWait2),
		})
	}
	return textplot.Table(w, "Exact stage-2 Markov chain vs Section IV interpolation (k=2, m=1)",
		[]string{"p", "exact w2", "approx w2", "rel err", "exact v2"}, rows)
}

// exactStage2M2 compares the exact stage-2 chain for message size m=2
// with the Section IV-B scaled model.
func exactStage2M2(_ Scale, w io.Writer, _ string) error {
	var rows [][]string
	for _, rho := range []float64{0.3, 0.5, 0.7} {
		p := rho / 2
		r, err := tandem.Solve(p, 2, 28, 36, 9000, 1e-13)
		if err != nil {
			return err
		}
		approx := model().StageMeanWait(stages.Params{K: 2, M: 2, P: p}, 2)
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", rho),
			fmt.Sprintf("%.5f", r.MeanWait2),
			fmt.Sprintf("%.5f", approx),
			fmt.Sprintf("%+.2f%%", 100*(approx-r.MeanWait2)/r.MeanWait2),
			fmt.Sprintf("%.5f", r.MeanWait1),
		})
	}
	return textplot.Table(w, "Exact stage-2 chain for message size m=2 vs the scaled model (Section IV-B)",
		[]string{"ρ", "exact w2 (m=2)", "scaled model", "rel err", "exact w1"}, rows)
}

// rareEventTails estimates deep stage-1 waiting-time quantiles at ρ=0.9
// by Siegmund-tilted importance splitting on the unfinished-work walk
// (internal/vr), with CIs at depths plain simulation cannot reach. It
// is deterministic for a fixed seed.
func rareEventTails(sc Scale, w io.Writer, _ string) error {
	arr, err := traffic.Uniform(4, 4, 0.9)
	if err != nil {
		return err
	}
	te, err := vr.NewTailEstimator(arr, traffic.UnitService(), sc.Seed)
	if err != nil {
		return err
	}
	excursions := 6000
	if sc.quick() {
		excursions = 1500
	}
	curve, err := te.WaitTailCurve(300, excursions)
	if err != nil {
		return err
	}
	var rows [][]string
	for _, q := range []struct {
		name string
		eps  float64
	}{
		{"p99", 1e-2},
		{"p99.99", 1e-4},
		{"p99.9999", 1e-6},
	} {
		level, p, hw, ok := curve.Quantile(q.eps)
		if !ok {
			return fmt.Errorf("tail curve did not reach %g", q.eps)
		}
		rows = append(rows, []string{
			q.name,
			fmt.Sprintf("%.0e", q.eps),
			fmt.Sprintf("%d", level),
			fmt.Sprintf("%.3g", p),
			fmt.Sprintf("%.2g", hw),
		})
	}
	return textplot.Table(w, fmt.Sprintf(
		"Deep waiting-time quantiles at ρ=0.9 (k=4, stage 1; tilted splitting, %d excursions, z0=%.5f)",
		excursions, te.Z0()), []string{"quantile", "eps", "wait ≥", "P(W ≥ level)", "95% CI ±"}, rows)
}
