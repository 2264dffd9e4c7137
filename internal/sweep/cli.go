package sweep

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"banyan/internal/faultinject"
	"banyan/internal/obs"
	"banyan/internal/vr"
)

// RunOptions bundles the fault-tolerance and observability command-line
// flags shared by the repo's binaries (tables, figures, calibrate,
// report, extensions): overall and per-point wall-clock budgets,
// retries, the checkpoint journal, the structured event log, the live
// debug endpoint, and engine instrumentation.
type RunOptions struct {
	// Timeout bounds the whole invocation (0 = none).
	Timeout time.Duration
	// PointBudget bounds each replication's wall-clock time (0 = none).
	PointBudget time.Duration
	// Checkpoint is the path of the resume journal ("" = no journal).
	Checkpoint string
	// Resume opts in to reusing a non-empty checkpoint journal. Setting
	// it without Checkpoint is an error: there is nothing to resume
	// from, and silently ignoring the request is how half a sweep gets
	// recomputed unnoticed.
	Resume bool
	// MaxRetries is the per-replication retry budget.
	MaxRetries int
	// VR is the comma-separated variance-reduction technique list:
	// "crn", "cv" ("" or "off" = none). See vr.Parse.
	VR string
	// TargetCI, when positive, runs each point until the 95% CI
	// half-width of its mean-wait estimate is at most this (sequential
	// stopping on the vr.Plan checkpoint cadence).
	TargetCI float64
	// VRMaxReps caps adaptive growth under -target-ci (0 = the point's
	// configured replication count).
	VRMaxReps int
	// Chaos arms deterministic fault injection from a schedule spec —
	// "seed=N" for a derived schedule or explicit classes like
	// "rep.panic:prob=1;journal.torn:record=2" ("" = off). The armed
	// schedule is printed to stderr so any chaos run can be reproduced
	// verbatim. See faultinject.Parse.
	Chaos string
	// Watchdog arms the stalled-replication watchdog with this initial
	// per-attempt budget (0 = off); once replications complete, the
	// budget follows their recent wall times. See Watchdog.
	Watchdog time.Duration
	// CheckpointFsync is the journal durability cadence: fsync after
	// every N-th appended point (0 = only at close/compaction).
	CheckpointFsync int

	// EventsPath appends one JSON line per point lifecycle event
	// (started, retried, truncated, journaled, done, failed, cached,
	// resumed, aliased) to this file; "-" means stderr, "" disables.
	EventsPath string
	// LedgerOut writes the end-of-run accounting ledger (see RunLedger)
	// as JSON to this file at cleanup, and prints its text-table
	// rendition to stderr ("" = off). "-" writes the JSON to stdout.
	LedgerOut string
	// DebugAddr serves live observability over HTTP while the run
	// executes — /metrics (OpenMetrics), /debug/events (recent event
	// ring), /debug/hist (live waiting-time histograms), /debug/ts
	// (sampled metric history), /debug/trace and /debug/pprof — on this
	// address ("" = off).
	DebugAddr string
	// TSInterval is the metric-history sampling cadence for /debug/ts
	// (0 = 1s). Only meaningful with DebugAddr.
	TSInterval time.Duration
	// SimStats attaches an engine probe to every simulation (free-list
	// hit rates, block pulls, cycles/sec, per-stage backlog high-water
	// marks) and prints its summary to stderr at cleanup.
	SimStats bool
	// TraceOut enables per-message trace sampling and dumps the
	// retained spans as JSON lines to this file at cleanup ("" = off).
	TraceOut string
	// TraceSample is the 1-in-N sampling rate for TraceOut (≤ 0 = 64).
	TraceSample int
	// DriftCheck compares each completed point's empirical per-stage
	// waiting-time distributions against the analytic model and emits a
	// drift event (plus per-stage KS gauges) when they diverge.
	DriftCheck bool
	// DriftThreshold overrides the drift monitor's KS trigger floor
	// (0 = the monitor's default).
	DriftThreshold float64

	srv *obs.DebugServer // started by Apply when DebugAddr is set
}

// DebugServer returns the live debug server started by Apply, or nil
// when -debug-addr was not set. Useful for discovering the bound
// address when the flag used port 0.
func (o *RunOptions) DebugServer() *obs.DebugServer { return o.srv }

// RegisterFlags installs the shared fault-tolerance and observability
// flags on fs.
func (o *RunOptions) RegisterFlags(fs *flag.FlagSet) {
	fs.DurationVar(&o.Timeout, "timeout", 0, "stop the whole run after this wall-clock duration (e.g. 10m); partial work is checkpointed when -checkpoint is set")
	fs.DurationVar(&o.PointBudget, "point-budget", 0, "wall-clock budget per simulation replication (e.g. 30s); an over-budget point fails without aborting the batch")
	fs.StringVar(&o.Checkpoint, "checkpoint", "", "journal completed points to this file so an interrupted run can be resumed with -resume")
	fs.BoolVar(&o.Resume, "resume", false, "reuse the completed points already in the -checkpoint journal")
	fs.IntVar(&o.MaxRetries, "max-retries", 1, "retries per replication after a panic or simulation error")
	fs.StringVar(&o.VR, "vr", "", "variance-reduction techniques, comma-separated: crn (common random numbers across points), cv (control variates)")
	fs.Float64Var(&o.TargetCI, "target-ci", 0, "run each point until the 95% CI half-width of its mean wait is at most this many cycles (0 = fixed replication count)")
	fs.IntVar(&o.VRMaxReps, "vr-max-reps", 0, "replication cap per point for -target-ci (0 = the point's configured count)")
	fs.StringVar(&o.Chaos, "chaos", "", "arm deterministic fault injection: \"seed=N\" or explicit classes like \"rep.panic:prob=1;journal.torn:record=2\"")
	fs.DurationVar(&o.Watchdog, "watchdog", 0, "arm the stalled-replication watchdog with this initial per-attempt budget (e.g. 30s); stalls convert to retryable errors")
	fs.IntVar(&o.CheckpointFsync, "checkpoint-fsync", 0, "fsync the -checkpoint journal after every N appended points (0 = only at close)")
	fs.StringVar(&o.EventsPath, "events", "", "append structured sweep events as JSON lines to this file (\"-\" = stderr)")
	fs.StringVar(&o.LedgerOut, "ledger-out", "", "write the end-of-run accounting ledger as JSON to this file (\"-\" = stdout) and print its text table to stderr")
	fs.StringVar(&o.DebugAddr, "debug-addr", "", "serve live /metrics (OpenMetrics), /debug/events, /debug/hist, /debug/ts, /debug/trace and /debug/pprof on this address (e.g. :6060) while the run executes")
	fs.DurationVar(&o.TSInterval, "ts-interval", 0, "with -debug-addr: sampling cadence of the /debug/ts metric history (0 = 1s)")
	fs.BoolVar(&o.SimStats, "sim-stats", false, "collect simulator-internal statistics (free-list hit rate, per-stage backlog high water) and print a summary at exit")
	fs.StringVar(&o.TraceOut, "trace-out", "", "sample per-message trace spans and dump them as JSON lines to this file at exit")
	fs.IntVar(&o.TraceSample, "trace-sample", 64, "with -trace-out: trace one in N measured messages")
	fs.BoolVar(&o.DriftCheck, "drift-check", false, "compare each point's per-stage waiting times against the analytic model and emit drift events when they diverge")
	fs.Float64Var(&o.DriftThreshold, "drift-threshold", 0, "KS-distance trigger floor for -drift-check (0 = default)")
}

// Apply configures the runner from the options and returns the run
// context — cancelled by SIGINT/SIGTERM or the -timeout — plus a cleanup
// function that releases the signal handler, stops the debug server,
// flushes the event log, prints the -sim-stats summary, and closes the
// journal.
func (o *RunOptions) Apply(r *Runner) (context.Context, func(), error) {
	if o.Resume && o.Checkpoint == "" {
		return nil, nil, fmt.Errorf("sweep: -resume requires -checkpoint; there is no journal to resume from")
	}
	r.PointBudget = o.PointBudget
	r.MaxRetries = o.MaxRetries
	plan, err := vr.Parse(o.VR)
	if err != nil {
		return nil, nil, fmt.Errorf("sweep: -vr: %w", err)
	}
	if o.TargetCI > 0 {
		if plan == nil {
			plan = &vr.Plan{}
		}
		plan.TargetCI = o.TargetCI
		plan.MaxReps = o.VRMaxReps
	} else if o.VRMaxReps > 0 {
		return nil, nil, fmt.Errorf("sweep: -vr-max-reps requires -target-ci")
	}
	r.VR = plan
	if o.Chaos != "" {
		sched, err := faultinject.Parse(o.Chaos)
		if err != nil {
			return nil, nil, fmt.Errorf("sweep: -chaos: %w", err)
		}
		r.Fault = faultinject.New(sched)
		// The canonical spelling reproduces this exact schedule even when
		// the flag only named a seed.
		fmt.Fprintf(os.Stderr, "chaos: fault injection armed; reproduce with -chaos %q\n", sched.String())
	}
	if o.Watchdog > 0 {
		r.Watchdog = &Watchdog{Initial: o.Watchdog}
	}
	if o.Checkpoint != "" {
		j, err := SetupJournal(o.Checkpoint, o.Resume)
		if err != nil {
			return nil, nil, err
		}
		if o.CheckpointFsync > 0 {
			j.SetFsync(o.CheckpointFsync)
		}
		r.Journal = j
	}
	fail := func(err error) (context.Context, func(), error) {
		if r.Journal != nil {
			r.Journal.Close() //nolint:errcheck // best-effort cleanup; the failure being reported matters more
		}
		return nil, nil, err
	}

	var sinks obs.MultiSink
	var eventsFile *os.File
	if o.EventsPath != "" {
		w := io.Writer(os.Stderr)
		if o.EventsPath != "-" {
			f, err := os.Create(o.EventsPath)
			if err != nil {
				return fail(fmt.Errorf("sweep: open events log: %w", err))
			}
			eventsFile, w = f, f
		}
		sinks = append(sinks, obs.NewJSONLSink(w))
	}
	reg := obs.NewRegistry()
	r.Counters().Register(reg)
	if r.Fault != nil {
		reg.Func("fault.injected", func() float64 { return float64(r.Fault.Injected()) })
	}
	if o.SimStats || o.TraceOut != "" || o.DebugAddr != "" {
		r.Probe = obs.NewSimProbe()
		r.Probe.Register(reg)
	}
	if o.DebugAddr != "" {
		// Live waiting-time histograms back the /debug/hist endpoint and
		// the wait.* quantile gauges in /metrics.
		r.Probe.Hists = obs.NewHistSet()
		r.Probe.Hists.Register(reg, "wait")
	}
	if o.TraceOut != "" {
		r.Probe.Tracer = obs.NewTracer(o.TraceSample, 1<<16)
	}
	if o.DriftCheck {
		r.Drift = &DriftMonitor{Threshold: o.DriftThreshold}
		r.Drift.Register(reg)
	}
	if o.LedgerOut != "" {
		r.Ledger = NewLedgerCollector()
	}
	var srv *obs.DebugServer
	var tsdb *obs.TSDB
	if o.DebugAddr != "" {
		ring := obs.NewRingSink(256)
		sinks = append(sinks, ring)
		// Process-level read-outs (goroutines, heap, GC, CPU) and metric
		// history ride along with the live endpoint; both are
		// hash-excluded and result-neutral.
		obs.RegisterRuntimeMetrics(reg)
		interval := o.TSInterval
		if interval <= 0 {
			interval = time.Second
		}
		// Two minutes of history at a 1s cadence; coarser cadences retain
		// proportionally more.
		tsdb = obs.NewTSDB(reg, 120)
		tsdb.Start(interval)
		s, err := obs.StartDebugServer(o.DebugAddr, obs.DebugOptions{
			Registry: reg,
			Events:   ring,
			Hists:    r.Probe.Hists,
			Tracer:   r.Probe.Tracer,
			TSDB:     tsdb,
			Probe:    r.Probe,
		})
		if err != nil {
			tsdb.Stop()
			if eventsFile != nil {
				eventsFile.Close() //nolint:errcheck // best-effort cleanup; the failure being reported matters more
			}
			return fail(fmt.Errorf("sweep: debug server: %w", err))
		}
		srv, o.srv = s, s
		fmt.Fprintf(os.Stderr, "debug: serving /metrics, /debug/events, /debug/hist, /debug/ts, /debug/trace and /debug/pprof on http://%s\n", s.Addr())
	} else if o.TSInterval > 0 {
		return fail(fmt.Errorf("sweep: -ts-interval requires -debug-addr"))
	}
	if len(sinks) > 0 {
		r.Events = sinks
	}
	if r.Fault != nil && r.Events != nil {
		r.Fault.OnInject = func(e faultinject.Error) {
			r.emit(obs.Event{
				Event:  obs.EventFaultInjected,
				Fault:  string(e.Class),
				Cycles: e.Cycle,
				Record: e.Record,
				Err:    e.Error(),
			})
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	cancelTimeout := context.CancelFunc(func() {})
	if o.Timeout > 0 {
		ctx, cancelTimeout = context.WithTimeout(ctx, o.Timeout)
	}
	cleanup := func() {
		cancelTimeout()
		stop()
		if tsdb != nil {
			tsdb.Stop()
		}
		if srv != nil {
			srv.Close() //nolint:errcheck // best-effort cleanup; the failure being reported matters more
		}
		if o.LedgerOut != "" {
			led := r.BuildLedger()
			w := io.Writer(os.Stdout)
			var f *os.File
			if o.LedgerOut != "-" {
				var err error
				if f, err = os.Create(o.LedgerOut); err != nil {
					fmt.Fprintf(os.Stderr, "sweep: ledger out: %v\n", err)
				} else {
					w = f
				}
			}
			if f != nil || o.LedgerOut == "-" {
				if err := led.WriteJSON(w); err != nil {
					fmt.Fprintf(os.Stderr, "sweep: ledger out: %v\n", err)
				}
			}
			if f != nil {
				f.Close() //nolint:errcheck // best-effort cleanup; the write error above is the one that matters
			}
			if err := led.WriteText(os.Stderr); err != nil {
				fmt.Fprintf(os.Stderr, "sweep: ledger: %v\n", err)
			}
		}
		if o.SimStats && r.Probe != nil {
			r.Probe.WriteSummary(os.Stderr)
		}
		if o.TraceOut != "" && r.Probe != nil && r.Probe.Tracer != nil {
			if f, err := os.Create(o.TraceOut); err != nil {
				fmt.Fprintf(os.Stderr, "sweep: trace out: %v\n", err)
			} else {
				if err := r.Probe.Tracer.WriteJSONL(f); err != nil {
					fmt.Fprintf(os.Stderr, "sweep: trace out: %v\n", err)
				}
				f.Close() //nolint:errcheck // best-effort cleanup; the failure being reported matters more
			}
		}
		if eventsFile != nil {
			eventsFile.Close() //nolint:errcheck // best-effort cleanup; the failure being reported matters more
		}
		if r.Journal != nil {
			// Compact through the atomic tmp+rename path: the final journal
			// is rewritten in one piece, repairing any torn tail a faulted
			// or interrupted append left behind.
			if err := r.Journal.Checkpoint(); err != nil {
				fmt.Fprintf(os.Stderr, "sweep: checkpoint: %v\n", err)
			}
			r.Journal.Close() //nolint:errcheck // best-effort cleanup; the failure being reported matters more
		}
	}
	return ctx, cleanup, nil
}
