package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"banyan/internal/textplot"
)

// DebugServer serves live observability over HTTP while a sweep runs:
//
//	/metrics        OpenMetrics exposition (counters, gauges, le-bucketed
//	                histograms)
//	/debug/events   the RingSink's recent events as JSONL
//	/debug/hist     live waiting-time histograms as JSON (with sparklines;
//	                ?width= sets the sparkline width, 8…512)
//	/debug/ts       the TSDB's retained series as JSON (?name=, ?window=,
//	                ?buckets=) or text sparklines (?format=spark)
//	/debug/trace    the Tracer's retained message spans as JSONL
//	/debug/pprof/   the standard pprof index (profile, heap, trace, …)
//
// It binds immediately (so a bad address fails fast) and serves in the
// background until Close.
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
}

// DebugOptions selects what a DebugServer serves. Any field may be nil;
// its endpoint then answers 404.
type DebugOptions struct {
	Registry *Registry
	Events   *RingSink
	Hists    *HistSet
	Tracer   *Tracer
	TSDB     *TSDB
	// Probe, when set, adds the graph engine's per-switch telemetry
	// (backlog high-water marks, blocked cycles, and the saturation
	// verdicts the engine decided) to the /debug/hist response as a
	// "switches" section.
	Probe *SimProbe
}

// Query-parameter bounds: values outside these are a client error, and
// the handlers answer 400 instead of silently misrendering.
const (
	sparkWidthDefault = 48
	sparkWidthMin     = 8
	sparkWidthMax     = 512
	tsBucketsDefault  = 60
	tsBucketsMax      = 2048
	tsWindowMax       = 24 * time.Hour
)

// intParam parses an optional positive-int query parameter within
// [lo, hi]; a missing/empty parameter yields def. The bool reports
// whether the value was acceptable.
func intParam(r *http.Request, name string, def, lo, hi int) (int, bool) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return def, true
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < lo || v > hi {
		return 0, false
	}
	return v, true
}

// histJSON is one histogram in the /debug/hist response: the snapshot
// plus a sparkline of the occupied buckets' counts in ascending value
// order (bucket widths grow logarithmically, so the x-axis is roughly
// log-scaled).
type histJSON struct {
	HistSnapshot
	Spark string `json:"spark,omitempty"`
}

func histToJSON(h *Hist, width int) histJSON {
	s := h.Snapshot()
	out := histJSON{HistSnapshot: s}
	if len(s.Buckets) > 0 {
		vals := make([]float64, len(s.Buckets))
		for i, b := range s.Buckets {
			vals[i] = float64(b.Count)
		}
		out.Spark = textplot.Sparkline(vals, width)
	}
	return out
}

// histFamilies renders the live waiting-time histograms as OpenMetrics
// histogram families: one family, banyan_wait_cycles, with a stage
// label ("total", "1", "2", …).
func histFamilies(hists *HistSet) []HistFamily {
	if hists == nil {
		return nil
	}
	const help = "waiting time per measured message, in cycles"
	fams := []HistFamily{{
		Name: "wait_cycles", Help: help,
		Labels: map[string]string{"stage": "total"},
		Hist:   hists.Total(),
	}}
	for i, h := range hists.Stages(hists.NumStages()) {
		fams = append(fams, HistFamily{
			Name: "wait_cycles", Help: help,
			Labels: map[string]string{"stage": strconv.Itoa(i + 1)},
			Hist:   h,
		})
	}
	return fams
}

// switchJSON is one switch's graph-engine telemetry in the /debug/hist
// response: aggregate backlog high-water mark and blocked-cycle count
// across the probe's runs, plus the saturation verdict (saturated in
// some run, at that run's configured depth).
type switchJSON struct {
	Stage     int   `json:"stage"`  // 1-based
	Switch    int   `json:"switch"` // 0-based within the stage
	HighWater int64 `json:"high_water"`
	Blocked   int64 `json:"blocked"`
	Saturated bool  `json:"saturated"`
}

func switchesToJSON(snap *ProbeSnapshot) []switchJSON {
	var out []switchJSON
	for s, hws := range snap.SwitchHighWater {
		for id, hw := range hws {
			out = append(out, switchJSON{
				Stage: s + 1, Switch: id, HighWater: hw,
				Blocked:   snap.SwitchBlocked[s][id],
				Saturated: snap.SwitchSaturated[s][id],
			})
		}
	}
	return out
}

// StartDebugServer listens on addr and serves the configured surfaces.
func StartDebugServer(addr string, opts DebugOptions) (*DebugServer, error) {
	mux := http.NewServeMux()
	if opts.Registry != nil {
		reg, hists := opts.Registry, opts.Hists
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
			WriteOpenMetrics(w, reg, histFamilies(hists))
		})
	}
	if opts.Events != nil {
		events := opts.Events
		mux.HandleFunc("/debug/events", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/x-ndjson")
			events.WriteJSONL(w)
		})
	}
	if opts.Hists != nil {
		hists, probe := opts.Hists, opts.Probe
		mux.HandleFunc("/debug/hist", func(w http.ResponseWriter, r *http.Request) {
			width, ok := intParam(r, "width", sparkWidthDefault, sparkWidthMin, sparkWidthMax)
			if !ok {
				http.Error(w, fmt.Sprintf("bad width: want integer in [%d,%d]", sparkWidthMin, sparkWidthMax), http.StatusBadRequest)
				return
			}
			resp := struct {
				Total  histJSON   `json:"total"`
				Stages []histJSON `json:"stages"`
				// Per-switch graph-engine telemetry; absent unless a probe
				// with graph runs is attached.
				Switches      []switchJSON `json:"switches,omitempty"`
				BlockedCycles int64        `json:"blocked_cycles,omitempty"`
			}{
				Total:  histToJSON(hists.Total(), width),
				Stages: []histJSON{},
			}
			for _, h := range hists.Stages(hists.NumStages()) {
				resp.Stages = append(resp.Stages, histToJSON(h, width))
			}
			if probe != nil {
				snap := probe.Snapshot()
				resp.Switches = switchesToJSON(&snap)
				resp.BlockedCycles = snap.BlockedCycles
			}
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(resp)
		})
	}
	if opts.TSDB != nil {
		tsdb := opts.TSDB
		mux.HandleFunc("/debug/ts", func(w http.ResponseWriter, r *http.Request) {
			handleTS(w, r, tsdb)
		})
	}
	if opts.Tracer != nil {
		tracer := opts.Tracer
		mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/x-ndjson")
			tracer.WriteJSONL(w)
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &DebugServer{ln: ln, srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}}
	go s.srv.Serve(ln)
	return s, nil
}

// tsSeriesJSON is one series in the /debug/ts JSON response. Values are
// encoded via []any so NaN gaps become JSON null.
type tsSeriesJSON struct {
	Name   string  `json:"name"`
	Times  []int64 `json:"unix_ms"`
	Values []any   `json:"values"`
}

// handleTS answers /debug/ts: windowed downsampled queries over the
// store's series, as JSON (default) or text sparklines (?format=spark).
// ?name= restricts to one series; ?window= (a Go duration, e.g. 2m)
// and ?buckets= control the downsampling.
func handleTS(w http.ResponseWriter, r *http.Request, tsdb *TSDB) {
	q := r.URL.Query()
	buckets, ok := intParam(r, "buckets", tsBucketsDefault, 1, tsBucketsMax)
	if !ok {
		http.Error(w, fmt.Sprintf("bad buckets: want integer in [1,%d]", tsBucketsMax), http.StatusBadRequest)
		return
	}
	var window time.Duration
	if s := q.Get("window"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil || d < 0 || d > tsWindowMax {
			http.Error(w, fmt.Sprintf("bad window: want duration in (0,%s]", tsWindowMax), http.StatusBadRequest)
			return
		}
		window = d
	}
	names := tsdb.SeriesNames()
	if want := q.Get("name"); want != "" {
		found := false
		for _, n := range names {
			if n == want {
				found = true
				break
			}
		}
		if !found {
			http.Error(w, "unknown series", http.StatusNotFound)
			return
		}
		names = []string{want}
	}

	if q.Get("format") == "spark" {
		width, ok := intParam(r, "width", sparkWidthDefault, sparkWidthMin, sparkWidthMax)
		if !ok {
			http.Error(w, fmt.Sprintf("bad width: want integer in [%d,%d]", sparkWidthMin, sparkWidthMax), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, n := range names {
			pts := tsdb.Query(n, window, buckets)
			vals := make([]float64, 0, len(pts))
			last := math.NaN()
			for _, p := range pts {
				if !math.IsNaN(p.Value) {
					last = p.Value
				}
				vals = append(vals, p.Value)
			}
			fmt.Fprintf(w, "%-32s %s %v\n", n, textplot.Sparkline(vals, width), last)
		}
		return
	}

	resp := make([]tsSeriesJSON, 0, len(names))
	for _, n := range names {
		pts := tsdb.Query(n, window, buckets)
		s := tsSeriesJSON{Name: n, Times: make([]int64, 0, len(pts)), Values: make([]any, 0, len(pts))}
		for _, p := range pts {
			s.Times = append(s.Times, p.UnixMilli)
			if math.IsNaN(p.Value) {
				s.Values = append(s.Values, nil)
			} else {
				s.Values = append(s.Values, p.Value)
			}
		}
		resp = append(resp, s)
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}

// Addr returns the bound address (useful with ":0").
func (s *DebugServer) Addr() string { return s.ln.Addr().String() }

// Close stops the server and releases the listener.
func (s *DebugServer) Close() error { return s.srv.Close() }
