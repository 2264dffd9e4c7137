// Package banyan analyzes and simulates the waiting times of messages in
// clocked, buffered, multistage banyan interconnection networks, after
// Kruskal, Snir and Weiss, "The Distribution of Waiting Times in Clocked
// Multistage Interconnection Networks" (ICPP 1986 / IEEE ToC 1988).
//
// The package is a facade over the implementation packages:
//
//   - exact first-stage queueing analysis (Theorem 1): the full
//     waiting-time distribution, mean and variance for general batch
//     arrivals and discrete service times;
//   - the paper's traffic classes: uniform, bulk and favorite-output
//     (hot-spot) arrivals; unit, constant, multi-size and geometric
//     service;
//   - Section IV approximations for the later stages of a network and
//     Section V predictions for the total delay, including the gamma
//     approximation of the total waiting-time distribution;
//   - three cross-validated network simulators on one entry point: a
//     fast message-level engine, a literal cycle-driven engine with
//     optional finite buffers, and a topology-true graph engine
//     (explicit wirings, per-stage buffers, failed links);
//   - runnable reproductions of every table and figure in the paper's
//     evaluation.
//
// # Quick start
//
//	arr, _ := banyan.UniformTraffic(2, 2, 0.5)   // 2×2 switches, p = 0.5
//	an, _ := banyan.Analyze(arr, banyan.UnitService())
//	fmt.Println(an.MeanWait(), an.VarWait())      // first-stage exact
//
//	net, _ := banyan.Predict(banyan.OperatingPoint{K: 2, M: 1, P: 0.5}, 6)
//	fmt.Println(net.TotalMeanWait())              // 6-stage network
//
//	res, _ := banyan.Simulate(&banyan.SimConfig{K: 2, Stages: 6, P: 0.5,
//		Cycles: 20000, Warmup: 2000, Seed: 1})
//	fmt.Println(res.MeanTotalWait())
package banyan

import (
	"context"
	"fmt"

	"banyan/internal/core"
	"banyan/internal/delay"
	"banyan/internal/dist"
	"banyan/internal/experiments"
	"banyan/internal/simnet"
	"banyan/internal/stages"
	"banyan/internal/sweep"
	"banyan/internal/tandem"
	"banyan/internal/topology"
	"banyan/internal/traffic"
)

// Core model types.
type (
	// Arrivals is the per-cycle message-arrival law at an output queue.
	Arrivals = traffic.Arrivals
	// Service is the law of a message's per-stage service time.
	Service = traffic.Service
	// SizeMix is one component of a multi-size service distribution.
	SizeMix = traffic.SizeMix
	// Analysis is the exact first-stage waiting-time analysis.
	Analysis = core.Analysis
	// PMF is a probability mass function on the nonnegative integers.
	PMF = dist.PMF
	// Series is a truncated power series (probability generating function).
	Series = dist.Series
	// Gamma is the gamma distribution used to approximate total waits.
	Gamma = dist.Gamma
	// OperatingPoint fixes (k, m, p, q) for the later-stage approximations.
	OperatingPoint = stages.Params
	// ApproxModel holds the Section IV interpolation constants.
	ApproxModel = stages.Model
	// DelayPredictor predicts total waiting time through an n-stage network.
	DelayPredictor = delay.Network
	// Topology holds the routing tables of a k-ary n-stage network.
	Topology = topology.Wiring
	// SimConfig configures a simulation run.
	SimConfig = simnet.Config
	// SimResult carries simulation statistics.
	SimResult = simnet.Result
	// Trace is a pre-generated arrival schedule shared by both engines.
	Trace = simnet.Trace
	// TopologyKind selects the graph engine's inter-stage wiring.
	TopologyKind = topology.Kind
	// LinkFail names one failed switch-output link for the graph engine.
	LinkFail = simnet.LinkFail
	// BurstParams configures Markov-modulated (bursty) sources.
	BurstParams = simnet.BurstParams
	// Scale controls experiment simulation effort.
	Scale = experiments.Scale
)

// Traffic model constructors.

// UniformTraffic returns the uniform-traffic arrival law of a k×s switch
// with per-input arrival probability p (Binomial(k, p/s) per port).
func UniformTraffic(k, s int, p float64) (Arrivals, error) { return traffic.Uniform(k, s, p) }

// BulkTraffic returns uniform traffic arriving in batches of b messages.
func BulkTraffic(k, s int, p float64, b int) (Arrivals, error) { return traffic.Bulk(k, s, p, b) }

// HotSpotTraffic returns favorite-output traffic: probability q to the
// input's favorite port, uniform otherwise (k = s), batches of b. This is
// the physically exact (exclusive) law that a real switch — and the
// simulator — realizes; HotSpotPaperTraffic gives the paper's Section
// III-A-3 product-form idealization.
func HotSpotTraffic(k int, p, q float64, b int) (Arrivals, error) {
	return traffic.NonuniformExclusive(k, p, q, b)
}

// HotSpotPaperTraffic returns the paper's Section III-A-3 favorite-output
// model: an independent Bernoulli(pq) favored stream multiplied into the
// full Binomial(k, p(1-q)/k) normal stream. It double-counts the favorite
// input's cycle and therefore slightly overstates first-stage queueing
// relative to a physical switch.
func HotSpotPaperTraffic(k int, p, q float64, b int) (Arrivals, error) {
	return traffic.Nonuniform(k, p, q, b)
}

// HotModuleTraffic returns the first-stage law of a port on the path to a
// single shared hot output (probability h per request; RP3-style hot
// spot). Deeper stages aggregate hot traffic and exhibit tree saturation
// — see SimConfig.HotModule and examples/treesaturation.
func HotModuleTraffic(k int, p, h float64, b int) (Arrivals, error) {
	return traffic.HotModule(k, p, h, b)
}

// PoissonTraffic returns Poisson(λ) arrivals truncated at nTrunc terms.
func PoissonTraffic(lambda float64, nTrunc int) (Arrivals, error) {
	return traffic.Poisson(lambda, nTrunc)
}

// CustomTraffic wraps an arbitrary arrival-count PMF.
func CustomTraffic(p PMF) Arrivals { return traffic.CustomArrivals(p) }

// Service model constructors.

// UnitService returns deterministic one-cycle service.
func UnitService() Service { return traffic.UnitService() }

// ConstService returns deterministic m-cycle service (m-packet messages).
func ConstService(m int) (Service, error) { return traffic.ConstService(m) }

// MultiService returns a mixture of constant service times.
func MultiService(mix []SizeMix) (Service, error) { return traffic.MultiService(mix) }

// GeomService returns geometric service on {1,2,…} with parameter μ.
func GeomService(mu float64, nTrunc int) (Service, error) { return traffic.GeomService(mu, nTrunc) }

// Analyze returns the exact first-stage analysis of an arrival/service
// pair (Theorem 1). The queue must be stable (mλ < 1).
func Analyze(arr Arrivals, svc Service) (*Analysis, error) { return core.New(arr, svc) }

// DefaultApproxModel returns the Section IV interpolation constants
// reconstructed from the paper.
func DefaultApproxModel() ApproxModel { return stages.DefaultModel() }

// QuadraticApproxModel returns DefaultApproxModel with the concave
// quadratic r(p) refinement the paper suggests (better at heavy load;
// breaks the paper's round w∞ anchors by <0.1%).
func QuadraticApproxModel() ApproxModel { return stages.QuadraticWaitModel() }

// Predict returns a Section V total-delay predictor for an n-stage
// network at the given operating point, using the default approximation
// model.
func Predict(pt OperatingPoint, n int) (*DelayPredictor, error) {
	return delay.New(stages.DefaultModel(), pt, n)
}

// PredictWith is Predict with explicit interpolation constants.
func PredictWith(md ApproxModel, pt OperatingPoint, n int) (*DelayPredictor, error) {
	return delay.New(md, pt, n)
}

// NewTopology returns the wiring of a k-ary n-stage omega network.
func NewTopology(k, n int) (*Topology, error) { return topology.WiringFor(topology.Omega, k, n) }

// Simulate runs the fast message-level engine.
func Simulate(cfg *SimConfig) (*SimResult, error) { return simnet.Run(cfg) }

// GenerateTrace draws the stage-1 arrival schedule for a configuration,
// for runs that need both engines to see identical traffic.
func GenerateTrace(cfg *SimConfig) (*Trace, error) { return simnet.GenerateTrace(cfg) }

// SimulateTrace runs the fast engine on a prepared trace.
func SimulateTrace(cfg *SimConfig, tr *Trace) (*SimResult, error) {
	return simnet.RunEngine(context.Background(), simnet.Fast, cfg, tr.Source())
}

// SimulateLiteral runs the literal cycle-driven engine (supports finite
// buffers via SimConfig.BufferCap).
func SimulateLiteral(cfg *SimConfig, tr *Trace) (*SimResult, error) {
	return simnet.RunEngine(context.Background(), simnet.Literal, cfg, tr.Source())
}

// Graph-engine wirings (SimConfig.Topology).
const (
	// TopoOmega is the omega (perfect-shuffle) wiring — the same network
	// the stage-model engines assume.
	TopoOmega = topology.Omega
	// TopoButterfly is the indirect-binary-cube (butterfly) wiring.
	TopoButterfly = topology.Butterfly
	// TopoFlip is the flip (inverse-omega) wiring, consuming destination
	// digits least-significant first.
	TopoFlip = topology.Flip
)

// SimulateGraph runs the topology-true graph engine on a prepared trace:
// messages advance switch by switch through the explicit wiring selected
// by SimConfig.Topology (omega when empty), with optional per-stage
// buffer caps (StageBuffers), failed links (FailLinks/FailPolicy),
// hot-module traffic and per-switch telemetry (TrackSwitches). Under
// uniform traffic and infinite buffers it reproduces the fast engine's
// results exactly.
func SimulateGraph(cfg *SimConfig, tr *Trace) (*SimResult, error) {
	return simnet.RunEngine(context.Background(), simnet.Graph, cfg, tr.Source())
}

// Stage2Exact is the exact (truncated Markov chain) analysis of the
// second stage of a k=2 network with constant message size m — the
// noise-free benchmark for the later-stage approximations. See
// internal/tandem.
type Stage2Exact = tandem.Result

// AnalyzeStage2 solves the tagged stage-2 queue jointly with its two
// feeder stage-1 queues for constant message size m ≥ 1 (m = 1 is the
// paper's unit service; m ≥ 2 validates the Section IV-B scaled model).
// Truncations are in messages; keep m·p < 1. Reasonable settings for
// m = 1: t1=40, t2=48, maxSweeps=8000, tol=1e-13.
func AnalyzeStage2(p float64, m, t1, t2, maxSweeps int, tol float64) (*Stage2Exact, error) {
	return tandem.Solve(p, m, t1, t2, maxSweeps, tol)
}

// FiniteQueue is the exact Markov-chain analysis of a unit-service
// output queue with a finite waiting room (drop probability, admitted
// wait, queue-length distribution). Valid at any load, including ρ ≥ 1.
type FiniteQueue = core.FiniteQueue

// AnalyzeFiniteBuffer solves the finite-waiting-room chain for an arrival
// law and capacity B (unit service).
func AnalyzeFiniteBuffer(arr Arrivals, capacity int) (*FiniteQueue, error) {
	return core.NewFiniteQueue(arr, capacity)
}

// MinCapacityForLoss returns the smallest waiting room whose exact drop
// probability is at most eps (unit service), searching up to maxCap.
func MinCapacityForLoss(arr Arrivals, eps float64, maxCap int) (int, error) {
	return core.MinCapacityForLoss(arr, eps, maxCap)
}

// EmpiricalPMF builds a distribution from observation counts (e.g. a
// simulated total-wait histogram's Counts).
func EmpiricalPMF(counts []int64) (PMF, error) { return dist.EmpiricalPMF(counts) }

// TotalVariation returns the total-variation distance ½Σ|p-q| between two
// distributions — the figure-of-merit used when comparing predicted and
// simulated waiting-time distributions.
func TotalVariation(p, q PMF) float64 { return dist.TotalVariation(p, q) }

// GammaFromMoments returns the gamma distribution with the given mean and
// variance (the paper's moment-matching rule).
func GammaFromMoments(mean, variance float64) (Gamma, error) {
	return dist.GammaFromMoments(mean, variance)
}

// SimulateReplications runs r independent replications of cfg on the
// fast engine across up to parallelism workers (0 = GOMAXPROCS) and
// aggregates them with across-replication confidence intervals. It is a
// one-point sweep: cfg.Seed is the root seed, and the replications run
// at the seeds sweep.SeedFor derives from it, so the result is a pure
// function of cfg and r, whatever the parallelism.
func SimulateReplications(cfg *SimConfig, r, parallelism int) (*Replicated, error) {
	if r < 1 {
		return nil, fmt.Errorf("banyan: need at least one replication, got %d", r)
	}
	run := &sweep.Runner{Parallelism: parallelism, RootSeed: cfg.Seed}
	prs, err := run.Run([]sweep.Point{{Cfg: *cfg, Reps: r}})
	if err != nil {
		return nil, err
	}
	return prs[0].Agg, nil
}

// Replicated aggregates independent simulation replications.
type Replicated = simnet.Replicated

// Experiment scales.

// QuickScale sizes experiments for tests and benchmarks.
func QuickScale() Scale { return experiments.Quick() }

// FullScale sizes experiments for regenerating the paper's numbers.
func FullScale() Scale { return experiments.Full() }
