// Package obs is the repo's zero-dependency observability layer: it
// tells you where a long Monte-Carlo sweep spends its time and memory
// while the sweep is still running, without perturbing a single
// simulated number.
//
// Five building blocks (standard library plus internal/textplot for
// sparkline rendering):
//
//   - Structured events (events.go): every sweep-point lifecycle
//     transition (started, retried, truncated, journaled, done, failed,
//     cached, resumed, aliased) is emitted as one JSON line through a
//     Sink — to a file, to stderr, or into a bounded in-memory ring
//     served over HTTP. Events carry the canonical config key, seed,
//     attempt number, wall time, cycles simulated, message and drop
//     counts.
//
//   - Metrics (metrics.go): a small registry of named read-out
//     functions backed by Counter, Gauge and windowed-rate Meter
//     primitives. The registry renders as OpenMetrics text (the /metrics
//     endpoint, openmetrics.go) and feeds the metric-history ring
//     (tsdb.go).
//
//   - Engine instrumentation (probe.go): a SimProbe accumulates cheap
//     per-run simulator internals — cycles, schedule-block pulls,
//     free-list hit rates, per-stage backlog high-water marks — that
//     the simnet engines flush when a probe is attached to their
//     Config. The probe never feeds back into the simulation: results
//     are byte-identical with and without it.
//
//   - Streaming histograms (hist.go): Hist is a log-bucketed,
//     allocation-free-in-steady-state histogram with bounded-error
//     quantiles (p50/p90/p99/p999) and bucket-wise merging; HistSet
//     groups a run's live waiting-time distributions (total plus one
//     per stage), attached to engines through SimProbe.Hists. Engines
//     record through a run-local HistBuf and flush it on their
//     1024-cycle context-poll tick and when the run ends, so a live
//     histogram lags its run by at most one tick and is exact once the
//     run has finished.
//
//   - Trace spans (trace.go): Tracer is a flight recorder of sampled
//     per-message journeys — per-stage enqueue/start/depart cycles that
//     decompose a message's end-to-end delay into the per-stage waits
//     the paper analyzes — attached through SimProbe.Tracer and dumped
//     as JSONL.
//
// debug.go ties the pieces to a live HTTP endpoint (the -debug-addr
// flag of the sweep binaries): net/http/pprof for CPU/heap profiling of
// an in-flight sweep, /metrics for the registry, /debug/events for the recent event ring, /debug/hist for
// live waiting-time quantiles and sparklines, /debug/ts for the metric
// history, /debug/trace for the retained spans.
//
// Everything here is observational. Nothing in this package is hashed
// into sweep point keys, journaled, or allowed to influence engine
// scheduling, so enabling any of it cannot change experiment output.
package obs
