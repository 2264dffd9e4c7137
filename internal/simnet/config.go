// Package simnet simulates clocked, buffered, multistage banyan networks —
// the experimental apparatus of the paper. Three simulation loops are
// provided:
//
//   - the batch kernel (kernel.go), which exploits the infinite-buffer
//     FIFO structure to propagate messages stage by stage without
//     simulating idle cycles, with the wiring optionally passed in as
//     data (the graph engine's committed mode, graph.go);
//   - the scalar reference engine (fastsim.go), the kernel's
//     independent oracle;
//   - the finite-buffer cycle loop (cycle.go), which models every queue
//     each cycle and drops (the literal engine) or blocks (the graph
//     engine's blocking mode) on overflow — the paper's future-work
//     extension.
//
// RunEngine is the one entry point: it selects the loop by Engine
// (Fast, Literal, Reference or Graph), validates the configuration and
// either generates the arrival schedule or checks a given one against
// the configured network. Every loop consumes the same arrival
// schedule, so they can be cross-validated against each other, and
// their first-stage statistics against the exact analysis in
// internal/core.
//
// Timing conventions (identical in every loop): a message arriving at a
// queue at cycle t may begin service no earlier than cycle t; consecutive
// messages at one output port begin service at least m cycles apart
// (m = the earlier message's service time); a message beginning service at
// cycle s arrives at its next-stage queue at cycle s+1 (cut-through: the
// head packet moves on while the tail may still be transmitting). The
// waiting time at a stage is s - t, which is zero for a message finding
// its output port free.
package simnet

import (
	"errors"
	"fmt"
	"strings"

	"banyan/internal/dist"
	"banyan/internal/faultinject"
	"banyan/internal/obs"
	"banyan/internal/stats"
	"banyan/internal/topology"
	"banyan/internal/traffic"
)

// Config describes one simulation run.
type Config struct {
	K      int // switch radix (k×k switches)
	Stages int // number of stages n

	// P is the probability that an input port receives an arrival
	// (a batch of Bulk messages) at each cycle.
	P float64

	// Bulk is the number of messages per arrival batch (Section
	// III-A-2); 0 means 1.
	Bulk int

	// Q is the probability an arrival is addressed to the input's
	// favorite output (its own index; Section III-A-3); 0 = uniform.
	Q float64

	// HotModule is the probability an arrival is addressed to the
	// single shared output 0 (the RP3-style hot memory module); 0 =
	// uniform. Mutually exclusive with Q. Hot traffic aggregates
	// geometrically along the tree to output 0 and saturates it (tree
	// saturation); Result.HotWait tracks the hot messages separately.
	HotModule float64

	// Service is the message service-time law; the zero value means
	// unit service. A message keeps its sampled size at every stage
	// (message length is physical), unless ResampleService is set.
	Service traffic.Service

	// ResampleService redraws each message's service time independently
	// at every stage — the "i.i.d. service per queue" reading of the
	// model, useful for studying how much length persistence (the
	// default) matters at the later stages.
	ResampleService bool

	// Cycles is the number of measured cycles; Warmup cycles are
	// simulated first and excluded from statistics.
	Cycles int
	Warmup int

	// Burst, when non-nil, replaces the i.i.d.-per-cycle arrival process
	// with a two-state Markov-modulated Bernoulli process per input:
	// while ON the input generates with probability Burst.POn per cycle
	// (OFF generates nothing); the state flips ON→OFF with probability
	// Burst.POffRate and OFF→ON with Burst.POnRate per cycle. The mean
	// rate is POn·POnRate/(POnRate+POffRate); P still selects the
	// *target* mean rate and POn is derived, so sweeps hold the load
	// fixed while varying burstiness. The paper's analysis assumes
	// i.i.d. cycles (its reference [3], Burman & Smith, is exactly the
	// bursty-traffic extension); this knob measures what burstiness
	// costs beyond the paper's model.
	Burst *BurstParams

	// Seed seeds the deterministic PCG random stream.
	Seed uint64

	// SyncDraws makes trace generation consume the same number of random
	// draws per (cycle, input) slot whether or not a message is generated
	// there. Without it, destination and service uniforms are drawn only
	// for generated messages, so two runs at the same Seed but different
	// P desynchronize at the first slot where exactly one of them
	// generates — from then on their destinations are independent and
	// common-random-numbers coupling collapses to the arrival indicators
	// alone. With SyncDraws every slot consumes its full draw budget and
	// equal-seed runs across neighboring sweep points stay coupled
	// end-to-end. The marginal law is unchanged (the extra draws are
	// discarded, and each message's destination/service remain i.i.d.);
	// the realization at a given seed differs from the default stream,
	// which is why the variance-reduction layer salts its artifact keys.
	// Runner-managed and excluded from sweep config hashing, like Seed.
	SyncDraws bool

	// MaxRows caps the number of rows per stage. A full k-ary n-stage
	// banyan has k^n rows; when that exceeds MaxRows the simulator uses
	// the largest power of k not exceeding it and wraps the shuffle
	// (statistically equivalent for uniform traffic; favorite-output
	// traffic requires the full network and is rejected when wrapped).
	// 0 means 4096.
	MaxRows int

	// TrackStageWaits records each measured message's per-stage waiting
	// times for covariance analysis (Table VI). Costs memory
	// proportional to messages × stages.
	TrackStageWaits bool

	// TrackOccupancy, for the cycle loop only, samples every output
	// queue's occupancy each cycle after warmup (mean and maximum per
	// stage) — the statistic used to validate analytic buffer sizing.
	// Costs time proportional to stages × rows per cycle.
	TrackOccupancy bool

	// BufferCap, for the literal engine only, bounds every output queue
	// to the given number of queued messages (0 = infinite). It is the
	// uniform per-stage cap of the finite-buffer cycle loop under its
	// drop policy: arrivals to a full queue are dropped and counted.
	BufferCap int

	// AllowUnstable permits configurations at or beyond the stability
	// boundary (utilization m·λ ≥ 1 with infinite buffers), which
	// Validate otherwise rejects. Such runs rely on the saturation
	// guards below: when a guard fires the engine stops at a clean cycle
	// boundary and returns a Result flagged Truncated/Unstable, with the
	// statistics of the messages that did complete.
	AllowUnstable bool

	// MaxInFlight caps the number of messages concurrently inside the
	// network (0 = 1<<22). In-flight occupancy growing past this bound
	// is the divergence signal for saturated configurations — at
	// m·λ ≥ 1 the backlog grows linearly in time — and trips the
	// Truncated/Unstable guard instead of exhausting memory.
	MaxInFlight int

	// DrainCycles bounds the number of cycles an engine keeps running
	// after the arrival horizon to drain in-flight messages
	// (0 = 1000×horizon + 1000, the literal engine's historical bound).
	// A network still holding messages when the budget expires is
	// saturated; the run is truncated and flagged rather than left to
	// crawl through an unbounded backlog.
	DrainCycles int

	// Probe, when non-nil, receives engine instrumentation: cycles
	// simulated, schedule-block pulls, free-list hit rates, in-network
	// and per-stage backlog high-water marks. Purely observational — it
	// is deliberately excluded from sweep config hashing and never
	// influences the random streams or the statistics, so runs are
	// bit-identical with and without it.
	Probe *obs.SimProbe

	// WaitHists, when non-nil, receives each measured message's
	// per-stage waiting time: WaitHists[i] accumulates stage i+1 as an
	// exact dense lattice histogram (it must have at least Stages
	// entries, all non-nil). This is the drift monitor's data path:
	// unlike Probe.Hists — log-bucketed, aggregated across every run
	// sharing a probe — these are exact and local to one run, so they
	// can be compared against the analytic per-stage distributions with
	// goodness-of-fit tests. Purely observational: excluded from sweep
	// config hashing, never touches the random streams, results are
	// bit-identical with and without it.
	WaitHists []*stats.Hist

	// Fault, when non-nil, arms this replication's chaos injection points
	// (see internal/faultinject): the engines consult it once per executed
	// cycle and at every fresh slot allocation, and it may panic, stall,
	// or fail the run with a typed injected error. Like Probe and
	// WaitHists it is excluded from sweep config hashing and — because
	// every armed fault fires at most once per plan — a retried
	// replication converges back to the fault-free result bit for bit.
	Fault *faultinject.RepFault

	// Topology selects the explicit inter-stage wiring for the graph
	// engine (RunEngine with Graph): omega, butterfly or flip. Empty
	// means the graph engine defaults to omega; the stage-model engines
	// reject a non-empty Topology because they hard-code the omega
	// arithmetic — use the graph engine for anything topology-true.
	// Graph configurations always simulate the full k^n-row network (the
	// wiring tables have no wrapped form), so k^n must fit MaxRows.
	// Hash-included in sweeps: the wiring changes which queue every
	// message joins.
	Topology topology.Kind

	// StageBuffers caps the per-port output-queue depth of each stage for
	// the graph engine: StageBuffers[j] bounds stage j+1 (0 = infinite;
	// a short slice leaves the remaining stages infinite). Any finite
	// entry switches the graph engine from its committed (stage-model
	// equivalent) dynamics into blocking dynamics: a message that finds
	// its next queue full stays where it is, its output port stalls
	// (head-of-line blocking) and the attempt repeats every cycle until
	// the queue drains — backpressure, not loss. Hash-included.
	StageBuffers []int

	// FailLinks lists failed switch-output links for the graph engine;
	// each entry names the output row of one stage. Messages routed onto
	// a failed link follow FailPolicy. Hash-included.
	FailLinks []LinkFail

	// FailPolicy selects what happens to a message routed onto a failed
	// link: "drop" (count it in Result.Dropped and discard it) or
	// "reroute" (deflect to the next healthy sister port of the same
	// switch, counting Result.Deflected; a deflected message keeps
	// routing by its original digits, so it may exit at the wrong output
	// — counted in Result.Misrouted). Empty defaults to "drop".
	// Hash-included.
	FailPolicy string

	// TrackSwitches makes the graph engine publish per-switch telemetry
	// in Result.SwitchSat: backlog high-water marks, blocked-cycle
	// counts and the saturation verdict (blocked at least once, or
	// backlog reaching SatDepth). Hash-included because it changes the
	// Result shape; the statistics themselves are unchanged.
	TrackSwitches bool

	// SatDepth is the backlog high-water threshold at which a switch
	// output port is declared saturated (0 = 32). Hash-included (it
	// changes SwitchSat verdicts).
	SatDepth int

	// SwitchWaitHists, when non-nil, receives each measured message's
	// waiting time split by the switch that served it:
	// SwitchWaitHists[j][s] accumulates stage j+1, switch s. It must
	// have at least Stages rows of at least k^(n-1) non-nil histograms.
	// This is the per-switch drift monitor's data path — under uniform
	// traffic every switch of a stage sees the same analytic waiting
	// time law, so each histogram can be KS-tested against the stage
	// model. Purely observational, excluded from sweep config hashing
	// like WaitHists.
	SwitchWaitHists [][]*stats.Hist
}

// LinkFail names one failed switch-output link of the graph engine:
// output row Row of stage Stage (1-based).
type LinkFail struct {
	Stage int
	Row   int
}

func (c *Config) bulk() int {
	if c.Bulk <= 0 {
		return 1
	}
	return c.Bulk
}

func (c *Config) service() traffic.Service {
	if c.Service.PMF().Support() == 0 {
		return traffic.UnitService()
	}
	return c.Service
}

// Utilization returns the offered load m·λ of every output queue:
// bulk × p × mean service.
func (c *Config) Utilization() float64 {
	return float64(c.bulk()) * c.P * c.service().Mean()
}

// Stage1Law returns the stage-1 arrival and service laws under which
// Theorem 1 gives the configuration's exact stage-1 waiting-time
// distribution, or an error saying why the theorem does not describe
// it. The theorem assumes i.i.d. batch arrivals and i.i.d. service into
// the infinite FIFO buffers of an intact network, so bursty sources,
// hot-module routing, per-stage resampling, finite buffers (dropping or
// blocking) and failed links each rule it out. The drift monitor and
// the stage-1 control variate both decide eligibility here.
func (c *Config) Stage1Law() (traffic.Arrivals, traffic.Service, error) {
	var reason string
	switch {
	case c.Burst != nil:
		reason = "bursty arrivals have no analytic waiting-time model"
	case c.HotModule > 0:
		reason = "hot-module traffic has no analytic waiting-time model"
	case c.ResampleService:
		reason = "per-stage service resampling has no analytic waiting-time model"
	case c.BufferCap > 0:
		reason = "finite buffers that drop messages have no analytic waiting-time model"
	case c.graphBlocking():
		reason = "finite buffers that block messages have no analytic waiting-time model"
	case len(c.FailLinks) > 0:
		reason = "failed links have no analytic waiting-time model"
	}
	if reason != "" {
		return traffic.Arrivals{}, traffic.Service{}, errors.New(reason)
	}
	var arr traffic.Arrivals
	var err error
	switch b := c.bulk(); {
	case c.Q != 0:
		arr, err = traffic.NonuniformExclusive(c.K, c.P, c.Q, b)
	case b > 1:
		arr, err = traffic.Bulk(c.K, c.K, c.P, b)
	default:
		arr, err = traffic.Uniform(c.K, c.K, c.P)
	}
	return arr, c.service(), err
}

// serviceSampler returns the alias sampler used for per-stage service
// redraws, or nil when resampling is off or the law is a single atom
// (redrawing a constant is a no-op).
func (c *Config) serviceSampler() *dist.Sampler {
	if !c.ResampleService {
		return nil
	}
	svc := c.service()
	if len(svc.PMF().SortedSupport(0)) == 1 {
		return nil
	}
	return svc.Sampler()
}

// maxInFlight returns the in-flight message cap (saturation guard).
func (c *Config) maxInFlight() int64 {
	if c.MaxInFlight > 0 {
		return int64(c.MaxInFlight)
	}
	return 1 << 22
}

// drainLimit returns the last cycle index the engines will simulate: the
// arrival horizon plus the drain budget.
func (c *Config) drainLimit(horizon int) int64 {
	if c.DrainCycles > 0 {
		return int64(horizon) + int64(c.DrainCycles)
	}
	return int64(horizon)*1000 + 1000
}

func (c *Config) maxRows() int {
	if c.MaxRows <= 0 {
		return 4096
	}
	return c.MaxRows
}

// Rows returns the number of rows per stage the simulator runs and
// whether the shuffle wraps: k^n, or the largest power of k not
// exceeding MaxRows when k^n does not fit. Anything that sizes a run by
// messages per cycle must count rows here, not as k^n.
func (c *Config) Rows() (rows int, wrapped bool, err error) {
	if c.K < 2 || c.Stages < 1 {
		return 0, false, fmt.Errorf("simnet: no %d-stage network of radix %d", c.Stages, c.K)
	}
	full := 1
	for i := 0; i < c.Stages; i++ {
		if full > c.maxRows()/c.K {
			// Full network too large: wrap at the largest power of k
			// that fits.
			r := 1
			for r*c.K <= c.maxRows() {
				r *= c.K
			}
			if c.Q != 0 || c.HotModule != 0 {
				return 0, false, fmt.Errorf("simnet: favorite-output and hot-module traffic need the full k^n=%d-row network (MaxRows=%d)",
					intPow(c.K, c.Stages), c.maxRows())
			}
			return r, true, nil
		}
		full *= c.K
	}
	return full, false, nil
}

func intPow(b, e int) int {
	r := 1
	for i := 0; i < e; i++ {
		r *= b
	}
	return r
}

// bitsFor returns an upper bound on log2(k), used to bound k^n.
func bitsFor(k int) int {
	b := 0
	for v := k - 1; v > 0; v >>= 1 {
		b++
	}
	if b == 0 {
		b = 1
	}
	return b
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.K < 2 {
		return fmt.Errorf("simnet: switch radix k = %d must be at least 2", c.K)
	}
	if c.Stages < 1 {
		return fmt.Errorf("simnet: stage count %d must be at least 1", c.Stages)
	}
	if c.P < 0 || c.P > 1 {
		return fmt.Errorf("simnet: arrival probability p = %g out of [0,1]", c.P)
	}
	if c.Q < 0 || c.Q > 1 {
		return fmt.Errorf("simnet: favorite probability q = %g out of [0,1]", c.Q)
	}
	if c.HotModule < 0 || c.HotModule > 1 {
		return fmt.Errorf("simnet: hot-module probability h = %g out of [0,1]", c.HotModule)
	}
	if c.HotModule > 0 && c.Q > 0 {
		return fmt.Errorf("simnet: HotModule and Q are mutually exclusive")
	}
	if c.Cycles < 1 {
		return fmt.Errorf("simnet: cycle count %d must be at least 1", c.Cycles)
	}
	if c.Warmup < 0 {
		return fmt.Errorf("simnet: negative warmup %d", c.Warmup)
	}
	if c.BufferCap < 0 {
		return fmt.Errorf("simnet: negative buffer capacity %d", c.BufferCap)
	}
	if c.Stages*bitsFor(c.K) > 31 {
		return fmt.Errorf("simnet: destination space k^n = %d^%d exceeds 2^31", c.K, c.Stages)
	}
	// Arrival cycles are carried as int32 in traces and engine state; an
	// unchecked Warmup+Cycles horizon would silently wrap.
	if int64(c.Warmup)+int64(c.Cycles) >= 1<<31 {
		return fmt.Errorf("simnet: horizon %d+%d cycles exceeds the int32 arrival-cycle range 2^31",
			c.Warmup, c.Cycles)
	}
	if c.Burst != nil {
		if _, err := c.Burst.validate(c.P); err != nil {
			return err
		}
	}
	if c.MaxInFlight < 0 {
		return fmt.Errorf("simnet: negative in-flight cap %d", c.MaxInFlight)
	}
	if c.DrainCycles < 0 {
		return fmt.Errorf("simnet: negative drain budget %d", c.DrainCycles)
	}
	if c.WaitHists != nil {
		if len(c.WaitHists) < c.Stages {
			return fmt.Errorf("simnet: WaitHists has %d entries for %d stages", len(c.WaitHists), c.Stages)
		}
		for i, h := range c.WaitHists[:c.Stages] {
			if h == nil {
				return fmt.Errorf("simnet: WaitHists[%d] is nil", i)
			}
		}
	}
	if err := c.validateGraph(); err != nil {
		return err
	}
	rho := c.Utilization()
	if c.BufferCap == 0 && rho >= 1 && !c.AllowUnstable {
		return fmt.Errorf("simnet: unstable load m·λ = %g ≥ 1 (bulk %d × p %g × mean service %g) with infinite buffers; "+
			"set AllowUnstable (plus MaxInFlight/DrainCycles budgets) to probe saturation with truncated runs",
			rho, c.bulk(), c.P, c.service().Mean())
	}
	if _, _, err := c.Rows(); err != nil {
		return err
	}
	return nil
}

// graphKnobs names the configuration fields only the graph engine
// interprets, in the order they are validated and reported.
func (c *Config) graphKnobs() []string {
	var set []string
	if c.StageBuffers != nil {
		set = append(set, "StageBuffers")
	}
	if c.FailLinks != nil {
		set = append(set, "FailLinks")
	}
	if c.FailPolicy != "" {
		set = append(set, "FailPolicy")
	}
	if c.TrackSwitches {
		set = append(set, "TrackSwitches")
	}
	if c.SatDepth != 0 {
		set = append(set, "SatDepth")
	}
	if c.SwitchWaitHists != nil {
		set = append(set, "SwitchWaitHists")
	}
	return set
}

// requireStageModel rejects graph-only configuration on the stage-model
// engines, which hard-code the omega arithmetic and have no per-switch
// state. Every stage-model entry point calls it so a topology-true
// configuration cannot silently run with its knobs ignored.
func (c *Config) requireStageModel(engine string) error {
	if c.Topology != "" {
		return fmt.Errorf("simnet: Topology %q requires the graph engine (RunEngine with Graph); the %s engine models one representative queue per stage", c.Topology, engine)
	}
	if set := c.graphKnobs(); len(set) > 0 {
		return fmt.Errorf("simnet: %s require the graph engine (RunEngine with Graph); the %s engine models one representative queue per stage", strings.Join(set, ", "), engine)
	}
	return nil
}

// requireInfiniteBuffers rejects the cycle loop's knobs on the
// message-level engines, which model infinite buffers and keep no
// per-cycle queue state, so neither knob can be silently ignored.
func (c *Config) requireInfiniteBuffers(engine string) error {
	if c.BufferCap > 0 {
		return fmt.Errorf("simnet: BufferCap requires the literal engine (RunEngine with Literal); the %s engine models infinite buffers", engine)
	}
	if c.TrackOccupancy {
		return fmt.Errorf("simnet: TrackOccupancy requires the literal engine (RunEngine with Literal); the %s engine keeps no per-cycle queue state", engine)
	}
	return nil
}

// validateGraph checks the graph-engine knobs. They are legal only
// alongside an explicit Topology (the graph engine fills in the omega
// default itself before validating).
func (c *Config) validateGraph() error {
	if c.Topology == "" {
		if set := c.graphKnobs(); len(set) > 0 {
			return fmt.Errorf("simnet: %s need Config.Topology (graph engine only)", strings.Join(set, ", "))
		}
		return nil
	}
	if _, err := topology.ParseKind(string(c.Topology)); err != nil {
		return err
	}
	if intPow(c.K, c.Stages) > c.maxRows() {
		return fmt.Errorf("simnet: Topology %q needs the full k^n=%d-row network (MaxRows=%d); the wiring tables have no wrapped form",
			c.Topology, intPow(c.K, c.Stages), c.maxRows())
	}
	if c.BufferCap != 0 {
		return fmt.Errorf("simnet: BufferCap is the literal engine's knob; use StageBuffers with Topology %q", c.Topology)
	}
	if len(c.StageBuffers) > c.Stages {
		return fmt.Errorf("simnet: StageBuffers has %d entries for %d stages", len(c.StageBuffers), c.Stages)
	}
	for i, b := range c.StageBuffers {
		if b < 0 {
			return fmt.Errorf("simnet: StageBuffers[%d] = %d is negative", i, b)
		}
	}
	rows := intPow(c.K, c.Stages)
	for i, f := range c.FailLinks {
		if f.Stage < 1 || f.Stage > c.Stages {
			return fmt.Errorf("simnet: FailLinks[%d] stage %d out of 1..%d", i, f.Stage, c.Stages)
		}
		if f.Row < 0 || f.Row >= rows {
			return fmt.Errorf("simnet: FailLinks[%d] row %d out of 0..%d", i, f.Row, rows-1)
		}
	}
	switch c.FailPolicy {
	case "", "drop", "reroute":
	default:
		return fmt.Errorf("simnet: FailPolicy %q (want drop or reroute)", c.FailPolicy)
	}
	if c.FailPolicy != "" && len(c.FailLinks) == 0 {
		return fmt.Errorf("simnet: FailPolicy %q without FailLinks", c.FailPolicy)
	}
	if c.SatDepth < 0 {
		return fmt.Errorf("simnet: negative SatDepth %d", c.SatDepth)
	}
	if c.SwitchWaitHists != nil {
		if len(c.SwitchWaitHists) < c.Stages {
			return fmt.Errorf("simnet: SwitchWaitHists has %d rows for %d stages", len(c.SwitchWaitHists), c.Stages)
		}
		sw := rows / c.K
		for j, row := range c.SwitchWaitHists[:c.Stages] {
			if len(row) < sw {
				return fmt.Errorf("simnet: SwitchWaitHists[%d] has %d entries for %d switches", j, len(row), sw)
			}
			for s, h := range row[:sw] {
				if h == nil {
					return fmt.Errorf("simnet: SwitchWaitHists[%d][%d] is nil", j, s)
				}
			}
		}
	}
	return nil
}

// satDepth returns the saturation high-water threshold.
func (c *Config) satDepth() int {
	if c.SatDepth > 0 {
		return c.SatDepth
	}
	return 32
}

// graphBlocking reports whether any stage has a finite buffer bound,
// which switches the graph engine into blocking dynamics.
func (c *Config) graphBlocking() bool {
	for _, b := range c.StageBuffers {
		if b > 0 {
			return true
		}
	}
	return false
}

// BurstParams configures the two-state Markov-modulated source; see
// Config.Burst.
type BurstParams struct {
	// POnRate is P(OFF→ON) per cycle; POffRate is P(ON→OFF) per cycle.
	// The mean burst length is 1/POffRate cycles and the fraction of
	// time ON is POnRate/(POnRate+POffRate).
	POnRate  float64
	POffRate float64
}

// onFraction returns the stationary fraction of time an input is ON.
func (b *BurstParams) onFraction() float64 {
	return b.POnRate / (b.POnRate + b.POffRate)
}

// validate checks the parameters and derives the ON-state generation
// probability for a target mean rate p.
func (b *BurstParams) validate(p float64) (pOn float64, err error) {
	if b.POnRate <= 0 || b.POnRate > 1 || b.POffRate <= 0 || b.POffRate > 1 {
		return 0, fmt.Errorf("simnet: burst rates (%g, %g) out of (0,1]", b.POnRate, b.POffRate)
	}
	frac := b.onFraction()
	pOn = p / frac
	if pOn > 1 {
		return 0, fmt.Errorf("simnet: target rate p=%g unreachable with ON fraction %g (needs POn=%g > 1)",
			p, frac, pOn)
	}
	return pOn, nil
}

// Trace is a pre-generated first-stage arrival schedule shared by every
// engine. Messages are ordered by arrival cycle.
type Trace struct {
	TraceMeta

	T    []int32  // arrival cycle at stage 1
	In   []int32  // input row
	Dest []uint32 // destination address in [0, k^Stages) (digits used mod Rows when wrapped)
	Svc  []int16  // message service time, cycles
	Meas []bool   // generated after warmup → counts toward statistics
}

// Len returns the number of messages in the trace.
func (tr *Trace) Len() int { return len(tr.T) }

// Digit returns the routing digit consumed by message i at the given
// stage (1-based).
func (tr *Trace) Digit(i, stage int) int {
	return tr.DigitOf(tr.Dest[i], stage)
}

// GenerateTrace draws the stage-1 arrival schedule for cfg, materialized
// in memory. It is the accumulate-everything wrapper over NewTraceStream:
// the chunked generator and this function draw from identical random
// streams, so at the same seed they produce byte-identical schedules.
// Long runs that do not need the whole trace at once should prefer the
// streaming path (RunEngine with a nil source), whose peak
// memory is bounded by the in-flight message count instead of the
// schedule length.
func GenerateTrace(cfg *Config) (*Trace, error) {
	s, err := NewTraceStream(cfg, 0)
	if err != nil {
		return nil, err
	}
	m := s.Meta()
	expected := int(float64(m.Rows) * cfg.P * float64(cfg.bulk()) * float64(m.Horizon) * 1.05)
	tr := &Trace{
		TraceMeta: *m,
		T:         make([]int32, 0, expected),
		In:        make([]int32, 0, expected),
		Dest:      make([]uint32, 0, expected),
		Svc:       make([]int16, 0, expected),
		Meas:      make([]bool, 0, expected),
	}
	for {
		blk, err := s.Next()
		if err != nil {
			return nil, err
		}
		if blk == nil {
			return tr, nil
		}
		tr.T = append(tr.T, blk.T...)
		tr.In = append(tr.In, blk.In...)
		tr.Dest = append(tr.Dest, blk.Dest...)
		tr.Svc = append(tr.Svc, blk.Svc...)
		tr.Meas = append(tr.Meas, blk.Meas...)
	}
}
