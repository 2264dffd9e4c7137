package obs

import (
	"fmt"
	"io"
	"sync"
)

// RunSample is the end-of-run flush of one simulation's internal
// counters. The engines accumulate these locally (plain ints, no
// synchronization on the hot path) and hand them over once.
type RunSample struct {
	// Cycles not yet reported through AddCycles.
	Cycles int64
	// BlockPulls counts schedule blocks pulled from the arrival source.
	BlockPulls int64
	// FreeListHits / SlotAllocs split message-slot allocations into
	// free-list reuses and fresh appends; their ratio is the free-list
	// hit rate (how well slot recycling bounds memory).
	FreeListHits int64
	SlotAllocs   int64
	// Messages measured by the run.
	Messages int64
	// MaxInFlight is the run's in-network backlog high-water mark.
	MaxInFlight int64
	// StageHighWater[i] is the run's high-water mark of messages
	// queued at stage i+1.
	StageHighWater []int64
	// SwitchHW[i][s] / SwitchBlocked[i][s] are the graph engine's
	// per-switch backlog high-water marks and blocked-cycle counts
	// (stage i+1, switch s), and SwitchSat[i][s] the run's saturation
	// verdict, decided by the engine at the run's saturation depth; all
	// nil for the stage-model engines.
	SwitchHW      [][]int64
	SwitchBlocked [][]int64
	SwitchSat     [][]bool
	// BlockedCycles is the run's total count of (port, cycle) pairs the
	// graph engine spent blocked on a full downstream buffer.
	BlockedCycles int64
}

// SimProbe aggregates engine instrumentation across simulation runs.
// Engines attached to one probe (simnet.Config.Probe) flush a
// RunSample each as they finish, plus periodic AddCycles ticks so the
// cycles/sec meter tracks live throughput. Safe for concurrent use;
// the zero value is ready.
type SimProbe struct {
	cyclesMeter Meter

	// Hists, when non-nil, collects live waiting-time histograms: one
	// total-wait histogram plus one per stage, aggregated across every
	// run attached to this probe. Engines feed it only for measured
	// messages, so its distributions match the reported statistics.
	Hists *HistSet
	// Tracer, when non-nil, samples per-message trace spans from the
	// attached runs (deterministically, by measured-message ordinal —
	// never by consuming simulation randomness).
	Tracer *Tracer

	mu            sync.Mutex
	runs          int64
	cycles        int64
	blockPulls    int64
	freeHits      int64
	slotAllocs    int64
	messages      int64
	maxInFlight   int64
	stageHW       []int64
	switchHW      [][]int64
	switchBlocked [][]int64
	switchSat     [][]bool
	blockedCycles int64
}

// NewSimProbe returns an empty probe.
func NewSimProbe() *SimProbe { return &SimProbe{} }

// AddCycles reports n simulated cycles. Engines call it on their
// context-poll cadence (every ~1024 cycles), which keeps the rate
// meter live at negligible cost.
func (p *SimProbe) AddCycles(n int64) {
	p.cyclesMeter.Add(n)
	p.mu.Lock()
	p.cycles += n
	p.mu.Unlock()
}

// Record flushes one finished run's sample into the aggregate.
func (p *SimProbe) Record(s RunSample) {
	if s.Cycles > 0 {
		p.cyclesMeter.Add(s.Cycles)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.runs++
	p.cycles += s.Cycles
	p.blockPulls += s.BlockPulls
	p.freeHits += s.FreeListHits
	p.slotAllocs += s.SlotAllocs
	p.messages += s.Messages
	if s.MaxInFlight > p.maxInFlight {
		p.maxInFlight = s.MaxInFlight
	}
	for len(p.stageHW) < len(s.StageHighWater) {
		p.stageHW = append(p.stageHW, 0)
	}
	for i, hw := range s.StageHighWater {
		if hw > p.stageHW[i] {
			p.stageHW[i] = hw
		}
	}
	p.blockedCycles += s.BlockedCycles
	for len(p.switchHW) < len(s.SwitchHW) {
		p.switchHW = append(p.switchHW, nil)
		p.switchBlocked = append(p.switchBlocked, nil)
		p.switchSat = append(p.switchSat, nil)
	}
	for i, hws := range s.SwitchHW {
		for len(p.switchHW[i]) < len(hws) {
			p.switchHW[i] = append(p.switchHW[i], 0)
			p.switchBlocked[i] = append(p.switchBlocked[i], 0)
			p.switchSat[i] = append(p.switchSat[i], false)
		}
		for j, hw := range hws {
			if hw > p.switchHW[i][j] {
				p.switchHW[i][j] = hw
			}
		}
		if i < len(s.SwitchBlocked) {
			for j, b := range s.SwitchBlocked[i] {
				p.switchBlocked[i][j] += b
			}
		}
		// A switch saturated in any run is saturated in the aggregate:
		// the same verdict the rule gives on the max high-water mark and
		// the summed blocked count.
		if i < len(s.SwitchSat) {
			for j, sat := range s.SwitchSat[i] {
				p.switchSat[i][j] = p.switchSat[i][j] || sat
			}
		}
	}
}

// ProbeSnapshot is a point-in-time read of a SimProbe.
type ProbeSnapshot struct {
	Runs           int64
	Cycles         int64
	CyclesPerSec   float64 // windowed, see Meter.Rate
	BlockPulls     int64
	FreeListHits   int64
	SlotAllocs     int64
	FreeListRate   float64 // FreeListHits / (FreeListHits + SlotAllocs)
	Messages       int64
	MaxInFlight    int64
	StageHighWater []int64
	// SwitchHighWater / SwitchBlocked / SwitchSaturated carry the graph
	// engine's per-switch aggregates (max, sum and OR across runs
	// respectively); empty when no graph run flushed into this probe.
	// BlockedCycles is the summed blocked-(port, cycle) count.
	SwitchHighWater [][]int64
	SwitchBlocked   [][]int64
	SwitchSaturated [][]bool
	BlockedCycles   int64
}

// Snapshot returns the current aggregate.
func (p *SimProbe) Snapshot() ProbeSnapshot {
	rate := p.cyclesMeter.Rate()
	p.mu.Lock()
	defer p.mu.Unlock()
	s := ProbeSnapshot{
		Runs:           p.runs,
		Cycles:         p.cycles,
		CyclesPerSec:   rate,
		BlockPulls:     p.blockPulls,
		FreeListHits:   p.freeHits,
		SlotAllocs:     p.slotAllocs,
		Messages:       p.messages,
		MaxInFlight:    p.maxInFlight,
		StageHighWater: append([]int64(nil), p.stageHW...),
		BlockedCycles:  p.blockedCycles,
	}
	for i := range p.switchHW {
		s.SwitchHighWater = append(s.SwitchHighWater, append([]int64(nil), p.switchHW[i]...))
		s.SwitchBlocked = append(s.SwitchBlocked, append([]int64(nil), p.switchBlocked[i]...))
		s.SwitchSaturated = append(s.SwitchSaturated, append([]bool(nil), p.switchSat[i]...))
	}
	if n := s.FreeListHits + s.SlotAllocs; n > 0 {
		s.FreeListRate = float64(s.FreeListHits) / float64(n)
	}
	return s
}

// Register exposes the probe's scalars in a metrics registry under the
// sim.* namespace (per-stage high-water marks are reported as their
// maximum; the full vector is available via Snapshot and WriteSummary).
func (p *SimProbe) Register(reg *Registry) {
	reg.Func("sim.runs", func() float64 { return float64(p.Snapshot().Runs) })
	reg.Func("sim.cycles", func() float64 { return float64(p.Snapshot().Cycles) })
	reg.Func("sim.cycles.per_sec", func() float64 { return p.Snapshot().CyclesPerSec })
	reg.Func("sim.block_pulls", func() float64 { return float64(p.Snapshot().BlockPulls) })
	reg.Func("sim.free_list_hits", func() float64 { return float64(p.Snapshot().FreeListHits) })
	reg.Func("sim.slot_allocs", func() float64 { return float64(p.Snapshot().SlotAllocs) })
	reg.Func("sim.free_list_hit_rate", func() float64 { return p.Snapshot().FreeListRate })
	reg.Func("sim.messages", func() float64 { return float64(p.Snapshot().Messages) })
	reg.Func("sim.max_in_flight", func() float64 { return float64(p.Snapshot().MaxInFlight) })
	reg.Func("sim.blocked_cycles", func() float64 { return float64(p.Snapshot().BlockedCycles) })
	reg.Func("sim.stage_high_water_max", func() float64 {
		var m int64
		for _, hw := range p.Snapshot().StageHighWater {
			if hw > m {
				m = hw
			}
		}
		return float64(m)
	})
}

// WriteSummary renders a human-readable digest of the probe — the
// -sim-stats exit report of the sweep binaries.
func (p *SimProbe) WriteSummary(w io.Writer) error {
	s := p.Snapshot()
	if _, err := fmt.Fprintf(w,
		"sim stats: %d runs, %d cycles, %d messages, %d block pulls\n"+
			"sim stats: free-list hit rate %.1f%% (%d hits / %d allocs), in-flight high water %d\n",
		s.Runs, s.Cycles, s.Messages, s.BlockPulls,
		100*s.FreeListRate, s.FreeListHits, s.SlotAllocs, s.MaxInFlight); err != nil {
		return err
	}
	if len(s.StageHighWater) > 0 {
		if _, err := fmt.Fprintf(w, "sim stats: per-stage backlog high water %v\n", s.StageHighWater); err != nil {
			return err
		}
	}
	return nil
}
