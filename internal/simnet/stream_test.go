package simnet

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"banyan/internal/topology"
	"banyan/internal/traffic"
)

// collect drains a stream into one materialized trace via the block API.
func collect(t *testing.T, cfg *Config, blockCycles int) *Trace {
	t.Helper()
	s, err := NewTraceStream(cfg, blockCycles)
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := drain(t, s)
	return tr
}

// drain collects a stream's blocks into one materialized trace, checking
// that they tile the horizon and respect both block caps: at most
// blockCycles cycles, and no cycle started once the block already holds
// blockMsgs messages. It also returns the number of blocks.
func drain(t *testing.T, s *TraceStream) (*Trace, int) {
	t.Helper()
	m := s.Meta()
	tr := &Trace{TraceMeta: *m}
	prevEnd, blocks := 0, 0
	for {
		blk, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if blk == nil {
			break
		}
		if blk.Start != prevEnd {
			t.Fatalf("block starts at %d, want %d (blocks must tile the horizon)", blk.Start, prevEnd)
		}
		if blk.End-blk.Start > s.blockCycles {
			t.Fatalf("block spans %d cycles, cap is %d", blk.End-blk.Start, s.blockCycles)
		}
		if blk.End <= blk.Start {
			t.Fatalf("block [%d, %d) covers no cycle", blk.Start, blk.End)
		}
		// Messages before the block's last cycle must number fewer than
		// the cap (else the block should have ended a cycle earlier); a
		// block cut short of blockCycles before the horizon must have
		// reached it.
		before := 0
		for before < blk.Len() && int(blk.T[before]) < blk.End-1 {
			before++
		}
		if before >= s.blockMsgs {
			t.Fatalf("block [%d, %d) started its last cycle holding %d messages, cap is %d",
				blk.Start, blk.End, before, s.blockMsgs)
		}
		if blk.End < m.Horizon && blk.End-blk.Start < s.blockCycles && blk.Len() < s.blockMsgs {
			t.Fatalf("block [%d, %d) ended early with %d messages, cap is %d",
				blk.Start, blk.End, blk.Len(), s.blockMsgs)
		}
		prevEnd = blk.End
		blocks++
		// Blocks reuse their backing arrays, so copy out.
		tr.T = append(tr.T, blk.T...)
		tr.In = append(tr.In, blk.In...)
		tr.Dest = append(tr.Dest, blk.Dest...)
		tr.Svc = append(tr.Svc, blk.Svc...)
		tr.Meas = append(tr.Meas, blk.Meas...)
	}
	if prevEnd != m.Horizon {
		t.Fatalf("blocks end at %d, want horizon %d", prevEnd, m.Horizon)
	}
	return tr, blocks
}

func sameTrace(t *testing.T, got, want *Trace, label string) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d messages, want %d", label, got.Len(), want.Len())
	}
	if !reflect.DeepEqual(got.T, want.T) || !reflect.DeepEqual(got.In, want.In) ||
		!reflect.DeepEqual(got.Dest, want.Dest) || !reflect.DeepEqual(got.Svc, want.Svc) ||
		!reflect.DeepEqual(got.Meas, want.Meas) {
		t.Fatalf("%s: schedules differ", label)
	}
}

// TestStreamingMatchesMaterialized proves the tentpole identity: the
// chunked generator produces byte-identical schedules to the
// materializing wrapper at every block size and message cap, including
// degenerate ones, and the message cap, not the 1024-cycle limit, is what
// cuts a wide network's schedule into blocks.
func TestStreamingMatchesMaterialized(t *testing.T) {
	cfgs := map[string]Config{
		"uniform": {K: 2, Stages: 6, P: 0.5, Cycles: 2000, Warmup: 300, Seed: 42},
		"bulk service": {K: 4, Stages: 3, P: 0.1, Bulk: 2,
			Service: mustConstSvc(t, 3), Cycles: 1500, Warmup: 200, Seed: 7},
		"favorite": {K: 2, Stages: 8, P: 0.4, Q: 0.3, Cycles: 1000, Warmup: 100, Seed: 99},
		"bursty": {K: 2, Stages: 4, P: 0.3, Cycles: 1200, Warmup: 150, Seed: 5,
			Burst: &BurstParams{POnRate: 0.1, POffRate: 0.1}},
		"hot, synced": {K: 2, Stages: 6, P: 0.4, HotModule: 0.05, SyncDraws: true,
			Cycles: 800, Warmup: 100, Seed: 8},
		// 4096 rows, about 3.5k messages a cycle: the default cap cuts a
		// block after five cycles.
		"wide": {K: 2, Stages: 12, P: 0.85, Cycles: 60, Warmup: 20, Seed: 3},
	}
	chunkings := [][2]int{ // {blockCycles, message cap}
		{1, blockMessages}, {7, blockMessages}, {64, blockMessages},
		{DefaultBlockCycles, blockMessages}, {DefaultBlockCycles, 1},
		{DefaultBlockCycles, 37}, {7, 37}, {DefaultBlockCycles, 1000},
	}
	for name, cfg := range cfgs {
		want, err := GenerateTrace(&cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, ch := range chunkings {
			s, err := NewTraceStream(&cfg, ch[0])
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			s.blockMsgs = ch[1]
			got, blocks := drain(t, s)
			sameTrace(t, got, want, fmt.Sprintf("%s, blocks of %d cycles and %d messages", name, ch[0], ch[1]))
			if name == "wide" && ch == [2]int{DefaultBlockCycles, blockMessages} && blocks < 10 {
				t.Fatalf("%d default blocks for %d cycles of a 4096-row network, want the message cap to split them",
					blocks, cfg.Warmup+cfg.Cycles)
			}
		}
	}
}

// sameResult asserts exact equality of every recorded statistic.
func sameResult(t *testing.T, got, want *Result, label string) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: results differ\ngot  %+v\nwant %+v", label, got, want)
	}
}

// TestRunMatchesRunTrace: the streaming engine path and the materialized
// trace path are the same engine over the same data, so their statistics
// are bit-identical at every seed.
func TestRunMatchesRunTrace(t *testing.T) {
	cfgs := map[string]Config{
		"uniform": {K: 2, Stages: 6, P: 0.5, Cycles: 2000, Warmup: 300, Seed: 42},
		"tracked": {K: 2, Stages: 4, P: 0.6, Cycles: 1500, Warmup: 200, Seed: 3,
			TrackStageWaits: true},
		"hot": {K: 2, Stages: 5, P: 0.4, HotModule: 0.05, Cycles: 1500, Warmup: 200, Seed: 8},
		"resample": {K: 2, Stages: 4, P: 0.1, Cycles: 2000, Warmup: 200, Seed: 11,
			Service: mixSvc(t), ResampleService: true},
	}
	for name, cfg := range cfgs {
		streamed, err := Run(&cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tr, err := GenerateTrace(&cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		materialized, err := RunEngine(context.Background(), Fast, &cfg, tr.Source())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameResult(t, streamed, materialized, name)
	}
}

// TestLiteralStreamingMatchesMaterialized: same identity for the literal
// engine, with and without finite buffers.
func TestLiteralStreamingMatchesMaterialized(t *testing.T) {
	cfgs := map[string]Config{
		"infinite": {K: 2, Stages: 4, P: 0.5, Cycles: 1200, Warmup: 200, Seed: 42},
		"finite": {K: 2, Stages: 4, P: 0.7, Cycles: 1200, Warmup: 200, Seed: 13,
			BufferCap: 2},
		"occupancy": {K: 2, Stages: 3, P: 0.5, Cycles: 800, Warmup: 100, Seed: 77,
			TrackOccupancy: true},
	}
	for name, cfg := range cfgs {
		src, err := NewTraceStream(&cfg, 256)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		streamed, err := RunEngine(context.Background(), Literal, &cfg, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tr, err := GenerateTrace(&cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		materialized, err := RunEngine(context.Background(), Literal, &cfg, tr.Source())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameResult(t, streamed, materialized, name)
	}
}

// TestBlockSizeIndependence: no engine's statistics depend on how the
// arrival stream is chunked, by cycles or by the message cap, nor — for
// the engines that schedule through kernel rings — on the rings' chunk
// size.
func TestBlockSizeIndependence(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name   string
		engine Engine
		cfg    Config
		// rings marks an engine that schedules through the arena's
		// rings, so the rings' chunk size is crossed too.
		rings bool
	}{
		{"reference", Reference, Config{K: 2, Stages: 6, P: 0.6, Cycles: 2000, Warmup: 300, Seed: 1}, false},
		{"kernel", Fast, Config{K: 4, Stages: 4, P: 0.5, Cycles: 600, Warmup: 100, Seed: 21,
			TrackStageWaits: true, HotModule: 0.02}, true},
		{"literal", Literal, Config{K: 2, Stages: 5, P: 0.7, Cycles: 600, Warmup: 100, Seed: 22,
			BufferCap: 2, TrackOccupancy: true}, false},
		{"graph committed", Graph, Config{K: 2, Stages: 6, P: 0.3, HotModule: 0.01, Cycles: 600,
			Warmup: 100, Seed: 23, Topology: topology.Butterfly, TrackSwitches: true}, true},
		{"graph blocking", Graph, Config{K: 2, Stages: 5, P: 0.5, Cycles: 600, Warmup: 100, Seed: 24,
			Topology: topology.Butterfly, StageBuffers: []int{2, 2, 2, 2, 2}}, false},
	}
	chunkings := [][2]int{ // {blockCycles, message cap}
		{0, blockMessages}, {1, blockMessages}, {3, blockMessages}, {100, blockMessages},
		{0, 1}, {0, 5}, {0, 300},
	}
	for _, c := range cases {
		ringChunks := []int{0}
		if c.rings {
			ringChunks = []int{0, 1, 3}
		}
		var want *Result
		for _, ch := range chunkings {
			for _, rc := range ringChunks {
				cfg := c.cfg
				src, err := NewTraceStream(&cfg, ch[0])
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				src.blockMsgs = ch[1]
				what := fmt.Sprintf("%s, blocks of %d cycles and %d messages, ring chunks of %d", c.name, ch[0], ch[1], rc)
				res, err := runEngine(ctx, c.engine, &cfg, src, &arena{ringChunk: rc})
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if want == nil {
					want = res
					continue
				}
				sameResult(t, res, want, what)
			}
		}
	}
}

func mixSvc(t *testing.T) traffic.Service {
	t.Helper()
	svc, err := traffic.MultiService([]traffic.SizeMix{{Size: 1, Prob: 0.5}, {Size: 4, Prob: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// benchCfg sizes a fast-engine run to roughly nMsgs measured messages.
func benchCfg(nMsgs int) Config {
	rows := 256 // k=2, 8 stages
	cycles := nMsgs / (rows / 2)
	return Config{K: 2, Stages: 8, P: 0.5, Cycles: cycles, Warmup: 500, Seed: 9}
}

// BenchmarkStreamingTrace compares the streaming fast-engine path with
// the materialize-then-run path at ~1M messages. The point is B/op:
// streaming holds only in-flight messages, the materialized path holds
// the whole schedule.
func BenchmarkStreamingTrace(b *testing.B) {
	cfg := benchCfg(1_000_000)
	b.Run("streaming", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Run(&cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("materialized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr, err := GenerateTrace(&cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := RunEngine(context.Background(), Fast, &cfg, tr.Source()); err != nil {
				b.Fatal(err)
			}
		}
	})
}
