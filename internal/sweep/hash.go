package sweep

import (
	"encoding/binary"
	"hash/fnv"
	"math"

	"banyan/internal/simnet"
)

// pointKey hashes a point's complete configuration — every field that
// affects the simulated statistics, plus engine, replication count and
// the runner's root seed — into the 64-bit canonical key used both for
// caching and per-point seed derivation. Cfg.Seed is deliberately
// excluded (the runner overrides it); Label is excluded too, so
// identically-configured points dedupe even under different names; and
// the pure observers Probe and WaitHists are excluded because attaching
// instrumentation must never change a point's identity, seed, or cached
// result.
func pointKey(p *Point, rootSeed uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	wu := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wi := func(v int) { wu(uint64(int64(v))) }
	wf := func(v float64) { wu(math.Float64bits(v)) }
	wb := func(v bool) {
		if v {
			wu(1)
		} else {
			wu(0)
		}
	}

	wu(rootSeed)
	// Reference is byte-identical to Fast by construction (the kernel's
	// determinism contract), so the two share one identity: a result
	// cached under either engine is valid for the other, and both draw
	// the same per-point seed.
	eng := p.Engine
	if eng == Reference {
		eng = Fast
	}
	wi(int(eng))
	wi(p.reps())

	cfg := &p.Cfg
	wi(cfg.K)
	wi(cfg.Stages)
	wf(cfg.P)
	wi(cfg.Bulk)
	wf(cfg.Q)
	wf(cfg.HotModule)
	// The service law is identified by its PMF, so two Service values
	// built differently but describing the same distribution hash alike.
	probs := cfg.Service.PMF().Probs()
	wi(len(probs))
	for _, pr := range probs {
		wf(pr)
	}
	wb(cfg.ResampleService)
	wi(cfg.Cycles)
	wi(cfg.Warmup)
	if cfg.Burst != nil {
		wu(1)
		wf(cfg.Burst.POnRate)
		wf(cfg.Burst.POffRate)
	} else {
		wu(0)
	}
	wi(cfg.MaxRows)
	wb(cfg.TrackStageWaits)
	wb(cfg.TrackOccupancy)
	wi(cfg.BufferCap)
	// The saturation budgets determine where an unstable run truncates,
	// so they are part of the statistical identity of the point.
	wb(cfg.AllowUnstable)
	wi(cfg.MaxInFlight)
	wi(cfg.DrainCycles)
	// Graph-engine identity: wiring kind, per-stage buffer depths, link
	// failures and their policy all change the simulated numbers.
	// TrackSwitches and SatDepth only shape Result.SwitchSat, but a
	// cached result must carry the verdicts the point asked for, so they
	// are part of the identity too. SwitchWaitHists stays excluded —
	// attached instrumentation never changes what a point computes. The
	// whole block is appended only when some graph field is set: a
	// stage-model config hashes — and seeds — exactly as it did before
	// the graph engine existed, and a graph config always writes strictly
	// more bytes, so the two spaces cannot alias.
	if cfg.Topology != "" || len(cfg.StageBuffers) > 0 || len(cfg.FailLinks) > 0 ||
		cfg.FailPolicy != "" || cfg.TrackSwitches || cfg.SatDepth != 0 {
		ws := func(s string) {
			wi(len(s))
			h.Write([]byte(s))
		}
		ws(string(cfg.Topology))
		wi(len(cfg.StageBuffers))
		for _, b := range cfg.StageBuffers {
			wi(b)
		}
		wi(len(cfg.FailLinks))
		for _, f := range cfg.FailLinks {
			wi(f.Stage)
			wi(f.Row)
		}
		ws(cfg.FailPolicy)
		wb(cfg.TrackSwitches)
		wi(cfg.SatDepth)
	}
	return h.Sum64()
}

// Key exposes the canonical hash of a point under a given root seed —
// the value PointResult.Key reports and the Cache is addressed by.
func Key(p Point, rootSeed uint64) uint64 { return pointKey(&p, rootSeed) }

// SeedFor returns the base seed the runner would assign the point: the
// root seed split by the canonical key. Replication r then runs with
// simnet.SplitSeed(SeedFor(...), r).
func SeedFor(p Point, rootSeed uint64) uint64 {
	return simnet.SplitSeed(rootSeed, pointKey(&p, rootSeed))
}

// BatchKey hashes a whole batch's identity — every point's canonical
// key, in batch order, under the root seed. The journal binds itself to
// this hash (see Journal.bind): a resume whose flags hash differently
// is rejected with a typed error instead of silently re-running every
// point. Labels and probes are excluded for the same reason they are
// excluded from pointKey.
func BatchKey(points []Point, rootSeed uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	wu := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wu(rootSeed)
	for i := range points {
		wu(pointKey(&points[i], rootSeed))
	}
	return h.Sum64()
}
