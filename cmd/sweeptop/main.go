// Command sweeptop is a live terminal dashboard for a running sweep (or
// any banyan binary serving -debug-addr): it polls the debug endpoint's
// /metrics (OpenMetrics), /debug/ts (sampled metric history) and
// /debug/hist (live waiting-time histograms) and renders throughput,
// progress, ETA, backlog high-water marks, wait quantiles and fault
// counters as refreshing sparkline panels.
//
// Usage:
//
//	sweeptop -addr localhost:6060 [-interval 2s] [-width 48] [-once]
//	sweeptop -validate http://localhost:6060/metrics
//	sweeptop -validate -            # validate OpenMetrics read from stdin
//
// -once renders a single frame and exits (useful for captures and CI);
// -validate parses the given OpenMetrics source with the repo's strict
// parser and exits non-zero on any syntax or structure error — CI uses
// it to prove a live scrape really is OpenMetrics without external
// tooling.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"banyan/internal/obs"
	"banyan/internal/textplot"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweeptop: ")
	var (
		addr     = flag.String("addr", "localhost:6060", "debug endpoint to poll (host:port or URL)")
		interval = flag.Duration("interval", 2*time.Second, "refresh cadence")
		width    = flag.Int("width", 48, "sparkline width in cells")
		once     = flag.Bool("once", false, "render one frame and exit")
		validate = flag.String("validate", "", "validate an OpenMetrics source (URL or \"-\" for stdin) and exit")
	)
	flag.Parse()

	if *validate != "" {
		if err := runValidate(*validate); err != nil {
			log.Fatal(err)
		}
		fmt.Println("openmetrics: valid")
		return
	}

	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	client := &http.Client{Timeout: 10 * time.Second}

	for {
		frame, err := render(client, base, *width)
		if err != nil {
			frame = fmt.Sprintf("sweeptop: %v\n", err)
		}
		if *once {
			fmt.Print(frame)
			if err != nil {
				os.Exit(1)
			}
			return
		}
		// Clear + home, then the frame: a plain ANSI refresh keeps the
		// dashboard dependency-free.
		fmt.Print("\x1b[2J\x1b[H" + frame)
		time.Sleep(*interval)
	}
}

// runValidate parses an OpenMetrics source — a URL or stdin — with the
// strict parser and reports the family count on success.
func runValidate(src string) error {
	var r io.Reader
	if src == "-" {
		r = os.Stdin
	} else {
		if !strings.Contains(src, "://") {
			src = "http://" + src
		}
		resp, err := http.Get(src)
		if err != nil {
			return err
		}
		defer resp.Body.Close() //nolint:errcheck // read-only response body
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: %s", src, resp.Status)
		}
		r = resp.Body
	}
	fams, err := obs.ParseOpenMetrics(r)
	if err != nil {
		return err
	}
	hists := 0
	for _, f := range fams {
		if f.Type == "histogram" {
			hists++
		}
	}
	fmt.Printf("openmetrics: %d families (%d histograms)\n", len(fams), hists)
	return nil
}

// metricsState is one scrape of /metrics, flattened for panel lookups.
type metricsState struct {
	values map[string]float64 // sample name (incl. _total) -> value
	hists  []obs.OMFamily
}

func scrapeMetrics(client *http.Client, base string) (*metricsState, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close() //nolint:errcheck // read-only response body
	fams, err := obs.ParseOpenMetrics(resp.Body)
	if err != nil {
		return nil, err
	}
	st := &metricsState{values: map[string]float64{}}
	for _, f := range fams {
		if f.Type == "histogram" {
			st.hists = append(st.hists, f)
			continue
		}
		for _, s := range f.Samples {
			st.values[s.Name] = s.Value
		}
	}
	return st, nil
}

// tsSeries is one /debug/ts series.
type tsSeries struct {
	Name   string     `json:"name"`
	Values []*float64 `json:"values"` // null = gap
}

func scrapeTS(client *http.Client, base string) (map[string][]float64, error) {
	resp, err := client.Get(base + "/debug/ts?buckets=120")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close() //nolint:errcheck // read-only response body
	if resp.StatusCode == http.StatusNotFound {
		return nil, nil // endpoint not served; panels degrade gracefully
	}
	var series []tsSeries
	if err := json.NewDecoder(resp.Body).Decode(&series); err != nil {
		return nil, err
	}
	out := make(map[string][]float64, len(series))
	for _, s := range series {
		vals := make([]float64, len(s.Values))
		for i, v := range s.Values {
			if v == nil {
				vals[i] = math.NaN()
			} else {
				vals[i] = *v
			}
		}
		out[s.Name] = vals
	}
	return out, nil
}

// render builds one dashboard frame.
func render(client *http.Client, base string, width int) (string, error) {
	ms, err := scrapeMetrics(client, base)
	if err != nil {
		return "", fmt.Errorf("scrape %s/metrics: %w", base, err)
	}
	ts, err := scrapeTS(client, base)
	if err != nil {
		return "", fmt.Errorf("scrape %s/debug/ts: %w", base, err)
	}

	var b strings.Builder
	// A metric may be exposed as a gauge (bare name) or a counter
	// (name_total) depending on how the serving binary registered it;
	// accept either so the dashboard survives kind changes.
	v := func(name string) float64 {
		if val, ok := ms.values[name]; ok {
			return val
		}
		return ms.values[name+"_total"]
	}
	spark := func(series string) string {
		if vals, ok := ts[series]; ok && len(vals) > 0 {
			return textplot.Sparkline(vals, width)
		}
		return strings.Repeat("·", width)
	}

	fmt.Fprintf(&b, "sweeptop — %s — %s\n\n", base, time.Now().Format("15:04:05"))

	// Progress panel.
	done, total := v("banyan_sweep_points_done"), v("banyan_sweep_points_total")
	failed := v("banyan_sweep_points_failed")
	eta := time.Duration(v("banyan_sweep_eta_seconds") * float64(time.Second)).Round(time.Second)
	elapsed := time.Duration(v("banyan_sweep_elapsed_seconds") * float64(time.Second)).Round(time.Second)
	if total > 0 {
		pct := 100 * done / total
		fmt.Fprintf(&b, "points   %.0f/%.0f (%.0f%%)  failed %.0f  elapsed %s  eta %s\n",
			done, total, pct, failed, elapsed, eta)
	}

	// Throughput panel: live sparkline history of the windowed rates.
	fmt.Fprintf(&b, "reps/s   %s %8.1f\n", spark("sweep.reps.per_sec"), v("banyan_sweep_reps_per_sec"))
	fmt.Fprintf(&b, "msgs/s   %s %8.0f\n", spark("sweep.messages.per_sec"), v("banyan_sweep_messages_per_sec"))

	// Backlog high-water marks (engine probe, when attached).
	var backlog []string
	for name := range ts {
		if strings.HasPrefix(name, "sim.") && strings.Contains(name, "backlog") {
			backlog = append(backlog, name)
		}
	}
	sort.Strings(backlog)
	for _, name := range backlog {
		fmt.Fprintf(&b, "%-8s %s\n", strings.TrimPrefix(name, "sim."), spark(name))
	}

	// Wait-quantile panel from the live histogram families.
	for _, f := range ms.hists {
		rows := summarizeHist(f)
		if len(rows) > 0 {
			fmt.Fprintf(&b, "\n%s (live)\n", f.Name)
			for _, r := range rows {
				fmt.Fprint(&b, r)
			}
		}
	}

	// Fault counters.
	fmt.Fprintf(&b, "\nretries %.0f  watchdog %.0f  truncated %.0f  dropped %.0f\n",
		v("banyan_sweep_retries"), v("banyan_sweep_watchdog_fired"),
		v("banyan_sweep_truncated"), v("banyan_sweep_dropped"))
	return b.String(), nil
}

// summarizeHist renders one line per histogram series: count, mean, and
// the p50/p90/p99 read off the cumulative le buckets.
func summarizeHist(f obs.OMFamily) []string {
	type series struct {
		labels string
		les    []float64
		cums   []float64
		sum    float64
		count  float64
	}
	byKey := map[string]*series{}
	var order []string
	get := func(s obs.OMSample) *series {
		parts := make([]string, 0, len(s.Labels))
		for k, val := range s.Labels {
			if k != "le" {
				parts = append(parts, k+"="+val)
			}
		}
		sort.Strings(parts)
		key := strings.Join(parts, ",")
		sr, ok := byKey[key]
		if !ok {
			sr = &series{labels: key}
			byKey[key] = sr
			order = append(order, key)
		}
		return sr
	}
	for _, s := range f.Samples {
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			sr := get(s)
			le := s.Labels["le"]
			if le == "+Inf" {
				continue
			}
			var lv float64
			fmt.Sscanf(le, "%g", &lv) //nolint:errcheck // parser already validated le
			sr.les = append(sr.les, lv)
			sr.cums = append(sr.cums, s.Value)
		case strings.HasSuffix(s.Name, "_sum"):
			get(s).sum = s.Value
		case strings.HasSuffix(s.Name, "_count"):
			get(s).count = s.Value
		}
	}
	q := func(sr *series, p float64) float64 {
		rank := p * sr.count
		for i, c := range sr.cums {
			if c >= rank {
				return sr.les[i]
			}
		}
		if n := len(sr.les); n > 0 {
			return sr.les[n-1]
		}
		return 0
	}
	var out []string
	for _, key := range order {
		sr := byKey[key]
		if sr.count == 0 {
			continue
		}
		mean := sr.sum / sr.count
		out = append(out, fmt.Sprintf("  %-14s n %-10.0f mean %-8.2f p50 %-6.0f p90 %-6.0f p99 %-6.0f\n",
			sr.labels, sr.count, mean, q(sr, 0.50), q(sr, 0.90), q(sr, 0.99)))
	}
	return out
}
