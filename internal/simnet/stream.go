package simnet

import (
	"banyan/internal/dist"
)

// DefaultBlockCycles is the chunk size (in cycles) used by streaming
// trace generation when none is specified.
const DefaultBlockCycles = 1024

// blockMessages caps the messages one streamed block holds: a block
// ends at the first cycle boundary at or past this many messages, so it
// holds at most blockMessages-1 plus one cycle's worth (rows × bulk).
// At 15 bytes a message a block stays around 256 KiB, so the generator's
// writes are still cache-resident when the engine reads them. Without
// the cap a block's size grows with the row count: 1024 cycles of a
// 4096-row network at p = 0.85 is 3.6M messages, 53 MB that no cache
// holds and that the arena's retention cap drops after every run.
const blockMessages = 1 << 14

// TraceMeta is the fixed context of an arrival schedule: the topology
// (radix, stages, rows), whether the shuffle wraps, the generation
// horizon, and the routing-digit divisors. Both the materialized Trace
// and the chunked TraceStream expose one, so the engines can route
// messages without knowing how the schedule is stored.
type TraceMeta struct {
	K, Stages int
	Rows      int  // rows per stage
	Wrapped   bool // shuffle wraps (rows < k^Stages)
	Horizon   int  // last generation cycle + 1

	digitDiv []uint32 // k^{Stages-j} for stage j = 1..Stages
}

// DigitOf returns the routing digit a message with the given destination
// consumes at the given stage (1-based).
func (m *TraceMeta) DigitOf(dest uint32, stage int) int {
	return int(dest/m.digitDiv[stage-1]) % m.K
}

// NextRow applies the omega-network shuffle-exchange step.
func (m *TraceMeta) NextRow(row int32, digit int) int32 {
	return int32((int(row)*m.K + digit) % m.Rows)
}

// newTraceMeta builds the meta block for a validated configuration.
func newTraceMeta(cfg *Config) (TraceMeta, error) {
	rows, wrapped, err := cfg.Rows()
	if err != nil {
		return TraceMeta{}, err
	}
	m := TraceMeta{
		K: cfg.K, Stages: cfg.Stages, Rows: rows, Wrapped: wrapped,
		Horizon:  cfg.Warmup + cfg.Cycles,
		digitDiv: make([]uint32, cfg.Stages),
	}
	d := uint64(intPow(cfg.K, cfg.Stages))
	for j := 0; j < cfg.Stages; j++ {
		d /= uint64(cfg.K)
		m.digitDiv[j] = uint32(d)
	}
	return m, nil
}

// TraceBlock is one chunk of the stage-1 arrival schedule, covering the
// cycle range [Start, End). Messages are ordered by arrival cycle; the
// i-th message of the block has global index Base+i within the schedule.
// Blocks returned by a stream reuse their backing arrays: a block is only
// valid until the next call to the stream's Next.
type TraceBlock struct {
	Start, End int   // cycle range covered, [Start, End)
	Base       int64 // global index of the block's first message

	T    []int32  // arrival cycle at stage 1
	In   []int32  // input row
	Dest []uint32 // destination address in [0, k^Stages)
	Svc  []int16  // message service time, cycles
	Meas []bool   // generated after warmup → counts toward statistics
}

// Len returns the number of messages in the block.
func (b *TraceBlock) Len() int { return len(b.T) }

// reserve gives every column of the block room for n messages, keeping
// their contents.
func (b *TraceBlock) reserve(n int) {
	b.T, b.In, b.Dest = withCap(b.T, n), withCap(b.In, n), withCap(b.Dest, n)
	b.Svc, b.Meas = withCap(b.Svc, n), withCap(b.Meas, n)
}

// ArrivalSource supplies the stage-1 arrival schedule to an engine in
// cycle-ordered, non-overlapping blocks. Implementations: TraceStream
// (chunked on-the-fly generation, O(block) memory) and Trace.Source
// (a materialized schedule viewed as one block).
type ArrivalSource interface {
	// Meta returns the schedule's fixed context.
	Meta() *TraceMeta
	// Next returns the next block, or nil when the schedule is
	// exhausted. The block is only valid until the following call.
	Next() (*TraceBlock, error)
}

// TraceStream generates the stage-1 arrival schedule in cycle blocks of
// at most blockCycles cycles and about 16,384 messages, so an engine can
// consume arrivals incrementally instead of holding the full trace in
// memory. A stream and GenerateTrace draw from identical random streams:
// at the same seed they produce byte-identical schedules, regardless of
// the block size.
type TraceStream struct {
	meta TraceMeta
	rng  *krand

	blockCycles int
	blockMsgs   int   // a block ends at the first cycle boundary with this many messages
	next        int   // next cycle to generate
	base        int64 // global index of the next message

	// Per-config generation state, mirroring GenerateTrace.
	p         float64 // per-cycle generation probability (pOn when bursty)
	q, hot    float64
	bulk      int
	constSvc  int
	sampler   *dist.Sampler
	destSpace uint64
	burst     *BurstParams
	on        []bool // bursty per-input ON state
	warmup    int
	sync      bool // fixed draw budget per slot (CRN synchronization)

	blk TraceBlock // reused between Next calls
}

// NewTraceStream validates cfg and prepares a chunked generator.
// blockCycles ≤ 0 selects DefaultBlockCycles; whatever the cycle count,
// a block also ends once it holds 16,384 messages. The block size
// affects peak memory only, never the generated schedule.
func NewTraceStream(cfg *Config, blockCycles int) (*TraceStream, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newTraceStream(cfg, blockCycles)
}

// newTraceStream is NewTraceStream for a validated configuration.
func newTraceStream(cfg *Config, blockCycles int) (*TraceStream, error) {
	meta, err := newTraceMeta(cfg)
	if err != nil {
		return nil, err
	}
	if blockCycles <= 0 {
		blockCycles = DefaultBlockCycles
	}
	svcPMF := cfg.service().PMF()
	s := &TraceStream{
		meta:        meta,
		rng:         newKrand(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15),
		blockCycles: blockCycles,
		blockMsgs:   blockMessages,
		p:           cfg.P,
		q:           cfg.Q,
		hot:         cfg.HotModule,
		bulk:        cfg.bulk(),
		constSvc:    -1,
		destSpace:   uint64(intPow(cfg.K, cfg.Stages)),
		burst:       cfg.Burst,
		warmup:      cfg.Warmup,
		sync:        cfg.SyncDraws,
	}
	if sup := svcPMF.SortedSupport(0); len(sup) == 1 {
		s.constSvc = sup[0]
	} else {
		s.sampler = cfg.service().Sampler()
	}
	if cfg.Burst != nil {
		pOn, err := cfg.Burst.validate(cfg.P)
		if err != nil {
			return nil, err
		}
		s.p = pOn
		frac := cfg.Burst.onFraction()
		s.on = make([]bool, meta.Rows)
		for i := range s.on {
			s.on[i] = s.rng.Float64() < frac
		}
	}
	return s, nil
}

// Meta returns the schedule's fixed context.
func (s *TraceStream) Meta() *TraceMeta { return &s.meta }

// Next generates the next block: up to blockCycles cycles, cut short at
// the first cycle boundary where the block holds blockMessages messages.
// It returns nil once the horizon is reached. The returned block reuses
// the previous block's backing arrays.
func (s *TraceStream) Next() (*TraceBlock, error) {
	if s.next >= s.meta.Horizon {
		return nil, nil
	}
	end := s.next + s.blockCycles
	if end > s.meta.Horizon {
		end = s.meta.Horizon
	}
	blk := &s.blk
	blk.Start, blk.Base = s.next, s.base
	blk.T = blk.T[:0]
	blk.In = blk.In[:0]
	blk.Dest = blk.Dest[:0]
	blk.Svc = blk.Svc[:0]
	blk.Meas = blk.Meas[:0]

	// Hoisted loop state: the generator calls into rng between field
	// reads, so without locals the compiler must reload every field per
	// iteration — and this loop runs rows times per simulated cycle.
	rng := s.rng
	rows := s.meta.Rows
	p, q, hot := s.p, s.q, s.hot
	bulk, constSvc := s.bulk, s.constSvc
	destSpace := s.destSpace
	sync := s.sync
	t := s.next

	// Reserve the block's expected size, up to the most it can hold, and
	// double past it: append's gentler growth for large slices copied a
	// cold wide network's block about four times over.
	perCycle := rows * bulk
	blk.reserve(min(int(float64(end-t)*float64(perCycle)*p)+perCycle, s.blockMsgs+perCycle))
	for ; t < end && len(blk.T) < s.blockMsgs; t++ {
		if cap(blk.T)-len(blk.T) < perCycle {
			blk.reserve(2*cap(blk.T) + perCycle)
		}
		meas := t >= s.warmup
		for in := 0; in < rows; in++ {
			if s.on != nil {
				if s.on[in] {
					if rng.Float64() < s.burst.POffRate {
						s.on[in] = false
					}
				} else if rng.Float64() < s.burst.POnRate {
					s.on[in] = true
				}
				if !s.on[in] {
					continue
				}
			}
			// SyncDraws: a non-generating slot still consumes its full
			// draw budget below (the draws are discarded), so equal-seed
			// streams at different p never shift against each other.
			gen := rng.Float64() < p
			if !gen && !sync {
				continue
			}
			var dest uint32
			hit := false
			if q > 0 {
				if rng.Float64() < q {
					dest = uint32(in) // favorite: the output with the input's own index
					hit = true
				}
			} else if hot > 0 {
				if rng.Float64() < hot {
					dest = 0 // the shared hot module
					hit = true
				}
			}
			if !hit {
				dest = uint32(rng.Uint64N(destSpace))
			}
			sv := int16(1)
			if constSvc > 0 {
				sv = int16(constSvc)
			} else {
				sv = int16(s.sampler.Sample(rng.Float64(), rng.Float64()))
			}
			if !gen {
				continue
			}
			for j := 0; j < bulk; j++ {
				blk.T = append(blk.T, int32(t))
				blk.In = append(blk.In, int32(in))
				blk.Dest = append(blk.Dest, dest)
				blk.Svc = append(blk.Svc, sv)
				blk.Meas = append(blk.Meas, meas)
			}
		}
	}
	blk.End = t
	s.next = t
	s.base += int64(blk.Len())
	return blk, nil
}

// Source adapts a materialized trace to the ArrivalSource interface,
// viewing it as a single zero-copy block spanning the whole horizon.
func (tr *Trace) Source() ArrivalSource {
	return &traceSource{tr: tr}
}

type traceSource struct {
	tr   *Trace
	done bool
}

func (ts *traceSource) Meta() *TraceMeta { return &ts.tr.TraceMeta }

func (ts *traceSource) Next() (*TraceBlock, error) {
	if ts.done {
		return nil, nil
	}
	ts.done = true
	return &TraceBlock{
		Start: 0, End: ts.tr.Horizon, Base: 0,
		T: ts.tr.T, In: ts.tr.In, Dest: ts.tr.Dest, Svc: ts.tr.Svc, Meas: ts.tr.Meas,
	}, nil
}
