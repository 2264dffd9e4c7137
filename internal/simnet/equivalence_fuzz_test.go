package simnet

import (
	"context"
	"math"
	"reflect"
	"testing"

	"banyan/internal/traffic"
)

// fuzzConfig maps raw fuzz arguments onto a bounded valid configuration.
// Every argument is reduced into its legal range rather than rejected,
// so the fuzzer's whole input space exercises engines instead of
// Validate. The bounds keep one execution around a millisecond: small
// radixes, few stages, short horizons.
func fuzzConfig(k, n, svcKind uint8, pMille, qMille uint16, bulk uint8,
	cycles uint16, seed uint64, resample, burst, hot bool) (Config, float64, bool) {
	cfg := Config{
		K:      2 + int(k%3),           // 2..4 — includes the non-pow2 radix 3
		Stages: 1 + int(n%4),           // 1..4
		Cycles: 300 + int(cycles%1200), // 300..1499
		Warmup: 50,
		Seed:   seed,
		Bulk:   1 + int(bulk%2), // 1..2
	}
	m := 1.0
	switch svcKind % 4 {
	case 1:
		svc, err := traffic.ConstService(3)
		if err != nil {
			return cfg, 0, false
		}
		cfg.Service, m = svc, 3
	case 2:
		svc, err := traffic.MultiService([]traffic.SizeMix{
			{Size: 1, Prob: 0.5}, {Size: 3, Prob: 0.5}})
		if err != nil {
			return cfg, 0, false
		}
		cfg.Service, m = svc, 2
	case 3:
		svc, err := traffic.GeomService(0.5, 64)
		if err != nil {
			return cfg, 0, false
		}
		cfg.Service, m = svc, 2
	}
	// p spans (0, ~1.1/(b·m)]: most draws are stable, the top of the
	// range crosses saturation so truncation paths stay covered.
	cfg.P = math.Min(1, (0.02+float64(pMille%1000)/1000.0)*1.1/(float64(cfg.Bulk)*m))
	if resample {
		cfg.ResampleService = true
	}
	if hot {
		cfg.HotModule = 0.02 + 0.1*float64(qMille%500)/500.0
	} else if qMille%3 == 0 && cfg.K == 2 && cfg.Bulk == 1 {
		cfg.Q = 0.5 * float64(qMille%500) / 500.0
	}
	if burst && cfg.Q == 0 {
		cfg.Burst = &BurstParams{POnRate: 0.1, POffRate: 0.2}
		if frac := cfg.Burst.onFraction(); cfg.P > 0.9*frac {
			cfg.P = 0.9 * frac
		}
	}
	// Bound saturated drains so divergent draws finish quickly, and let
	// draws at or past the stability boundary run as truncated
	// measurements instead of dying in Validate — the truncation paths
	// are exactly where the engines are most likely to disagree.
	cfg.MaxInFlight = 5000
	cfg.DrainCycles = 20000
	cfg.AllowUnstable = true
	if cfg.Validate() != nil {
		return cfg, 0, false
	}
	return cfg, cfg.P * float64(cfg.Bulk) * m, true
}

// fuzzLaneWidth derives the lock-step lane count for a fuzz execution
// from seed bits fuzzConfig does not consume: 1..8, covering odd widths
// and the degenerate W=1 group. The fuzz config itself rides at a
// seed-chosen lane so every lane position gets exercised.
func fuzzLaneWidth(seed uint64) (w, slot int) {
	w = 1 + int((seed>>33)%8)
	slot = int((seed >> 37) % uint64(w))
	return w, slot
}

// fuzzRingChunk draws the schedule rings' chunk size for a fuzz
// execution from seed bits nothing else consumes: one slot, three
// slots, or the default.
func fuzzRingChunk(seed uint64) int {
	return [...]int{1, 3, 0}[(seed>>41)%3]
}

// FuzzEngineEquivalence cross-checks the five engines on arbitrary
// bounded configurations: the batch kernel must match the scalar
// reference engine bit for bit (the determinism contract); the
// topology-true graph engine, under its default omega wiring with
// unlimited buffers, must collapse to the kernel bit for bit (the
// graph-collapse contract); the laned kernel — running the same configuration as one lane of a lock-step
// group of seed-derived width, and again as a degenerate W=1 group —
// must match the scalar kernel bit for bit on every lane; and, when the
// run is not truncated, all must agree with the cycle-driven literal
// engine on the measured population and, statistically, on the mean
// wait. The seed corpus covers the edge regimes: saturation and
// truncation (with AllowUnstable draws past ρ = 1), bulk batches,
// favorite outputs, hot modules, resampled service, bursty sources,
// lane widths across 1..8 including odd group sizes, and schedule rings
// with one-slot, three-slot and default chunks.
func FuzzEngineEquivalence(f *testing.F) {
	//        k  n svc  p‰   q‰  bulk cyc  seed  resample burst hot
	f.Add(uint8(0), uint8(3), uint8(0), uint16(400), uint16(0), uint8(0), uint16(600), uint64(1), false, false, false)  // plain uniform
	f.Add(uint8(0), uint8(2), uint8(1), uint16(950), uint16(0), uint8(1), uint16(500), uint64(2), false, false, false)  // bulk + const svc near saturation
	f.Add(uint8(0), uint8(3), uint8(0), uint16(999), uint16(0), uint8(0), uint16(1100), uint64(3), false, false, false) // saturated → truncation
	f.Add(uint8(0), uint8(2), uint8(0), uint16(300), uint16(99), uint8(0), uint16(700), uint64(4), false, false, false) // favorite outputs
	f.Add(uint8(0), uint8(2), uint8(0), uint16(300), uint16(200), uint8(0), uint16(700), uint64(5), false, false, true) // hot module
	f.Add(uint8(0), uint8(2), uint8(2), uint16(350), uint16(0), uint8(0), uint16(800), uint64(6), true, false, false)   // resampled multi-size service
	f.Add(uint8(0), uint8(1), uint8(0), uint16(400), uint16(1), uint8(0), uint16(900), uint64(7), false, true, false)   // bursty source
	f.Add(uint8(1), uint8(1), uint8(3), uint16(500), uint16(0), uint8(0), uint16(400), uint64(8), false, false, false)  // non-pow2 radix + geometric svc
	// Lane-focused seeds: high seed bits select the lane width (1..8)
	// and the fuzz config's lane position.
	f.Add(uint8(0), uint8(3), uint8(0), uint16(400), uint16(0), uint8(0), uint16(600), uint64(1)<<33|9, false, false, false)   // W=2 group
	f.Add(uint8(0), uint8(3), uint8(0), uint16(999), uint16(0), uint8(0), uint16(1100), uint64(2)<<33|10, false, false, false) // W=3 (odd) group, truncating
	f.Add(uint8(0), uint8(2), uint8(1), uint16(999), uint16(0), uint8(1), uint16(500), uint64(4)<<33|11, false, false, false)  // W=5 group past ρ=1 (AllowUnstable)
	f.Add(uint8(1), uint8(2), uint8(3), uint16(500), uint16(0), uint8(0), uint16(700), uint64(7)<<37|12, false, false, false)  // W=8 group, non-pow2 radix, off-zero slot
	// Ring-chunk seeds: bits 41+ select the schedule rings' chunk size
	// (the seeds above all draw one-slot chunks).
	f.Add(uint8(0), uint8(3), uint8(1), uint16(900), uint16(0), uint8(1), uint16(900), uint64(1)<<41|13, false, false, false) // three-slot chunks, bulk near saturation
	f.Add(uint8(1), uint8(3), uint8(2), uint16(999), uint16(0), uint8(0), uint16(1100), uint64(2)<<41|14, true, false, true)  // default chunks, truncating

	f.Fuzz(func(t *testing.T, k, n, svcKind uint8, pMille, qMille uint16, bulk uint8,
		cycles uint16, seed uint64, resample, burst, hot bool) {
		cfg, rho, ok := fuzzConfig(k, n, svcKind, pMille, qMille, bulk, cycles, seed, resample, burst, hot)
		if !ok {
			t.Skip()
		}

		// Both engines consume the schedule with the same block size and
		// the same message cap, drawn small enough to cut blocks short:
		// statistics are block-size-invariant, but Offered counts every
		// *pulled* arrival, so on truncated runs it reflects how much
		// schedule the final pull covered.
		bc := 1 + int(seed%257)
		bm := 1 + int(seed/257%1024)
		// The kernel, graph and lanes legs also run on schedule rings with
		// a drawn chunk size, so cells spill across chunk boundaries even
		// on these small networks; push order must survive the chunking.
		rc := fuzzRingChunk(seed)
		kcfg := cfg
		ksrc, err := NewTraceStream(&kcfg, bc)
		if err != nil {
			t.Fatal(err)
		}
		ksrc.blockMsgs = bm
		kres, kerr := runKernel(context.Background(), &kcfg, ksrc, &arena{ringChunk: rc}, nil)

		rcfg := cfg
		rsrc, err := NewTraceStream(&rcfg, bc)
		if err != nil {
			t.Fatal(err)
		}
		rsrc.blockMsgs = bm
		rres, rerr := RunSource(&rcfg, rsrc)

		if (kerr == nil) != (rerr == nil) {
			t.Fatalf("error mismatch: kernel %v, reference %v (cfg %+v)", kerr, rerr, cfg)
		}

		// Graph leg: the topology-true engine under its default omega
		// wiring with unlimited buffers must collapse to the stage model
		// bit for bit — same errors, same Result, at every draw. The fuzz
		// bounds keep k^n ≤ 256 < MaxRows, so the graph engine always sees
		// the full unwrapped network it requires.
		wcfg := cfg
		wsrc, err := NewTraceStream(&wcfg, bc)
		if err != nil {
			t.Fatal(err)
		}
		wsrc.blockMsgs = bm
		wres, werr := runGraphSource(context.Background(), &wcfg, wsrc, &arena{ringChunk: rc})
		if (kerr == nil) != (werr == nil) {
			t.Fatalf("error mismatch: kernel %v, graph %v (cfg %+v)", kerr, werr, cfg)
		}

		if kerr != nil {
			return // all rejected (no measured messages)
		}
		if !reflect.DeepEqual(kres, rres) {
			t.Fatalf("kernel and reference diverge (cfg %+v)\nkernel %+v\nref    %+v", cfg, kres, rres)
		}
		if !reflect.DeepEqual(kres, wres) {
			t.Fatalf("kernel and graph engine diverge (cfg %+v)\nkernel %+v\ngraph  %+v", cfg, kres, wres)
		}

		// Laned cross-check: the fuzz config runs as one lane of a
		// lock-step group of seed-derived width, siblings at split seeds.
		// Every lane is held bit-identical to a scalar run of its own
		// configuration at the lanes' default block size — Offered counts
		// pulled schedule, so truncated runs are block-size-sensitive and
		// the oracle must pull the same blocks the lanes do.
		w, slot := fuzzLaneWidth(seed)
		lcfgs := make([]*Config, w)
		for i := range lcfgs {
			c := cfg
			if i != slot {
				c.Seed = SplitSeed(seed, uint64(i)+1)
			}
			lcfgs[i] = &c
		}
		gres, gerrs := runLanes(context.Background(), lcfgs, &lanesArena{ringChunk: rc})
		var slotRes *Result
		var slotErr error
		for i := range lcfgs {
			oc := *lcfgs[i]
			ores, oerr := Run(&oc)
			if i == slot {
				slotRes, slotErr = ores, oerr
			}
			if (gerrs[i] == nil) != (oerr == nil) {
				t.Fatalf("lane %d/%d error mismatch: lanes %v, scalar %v (cfg %+v)", i, w, gerrs[i], oerr, cfg)
			}
			if !reflect.DeepEqual(gres[i], ores) {
				t.Fatalf("lane %d/%d diverges from scalar (cfg %+v)\nlane   %+v\nscalar %+v", i, w, cfg, gres[i], ores)
			}
		}
		if w > 1 {
			// Degenerate W=1 group: the lane machinery with no siblings.
			scfg := cfg
			sres, serrs := RunLanes([]*Config{&scfg})
			if (serrs[0] == nil) != (slotErr == nil) {
				t.Fatalf("W=1 lane error mismatch: lane %v, scalar %v (cfg %+v)", serrs[0], slotErr, cfg)
			}
			if !reflect.DeepEqual(sres[0], slotRes) {
				t.Fatalf("W=1 lane diverges from scalar (cfg %+v)\nlane   %+v\nscalar %+v", cfg, sres[0], slotRes)
			}
		}

		// The literal engine shares no scheduling code; compare it
		// statistically on untruncated stable runs (its guards fire at
		// different cycles on divergent ones). The moment check is only
		// meaningful where short horizons mix fast: plain traffic below
		// ρ = 0.8. Bursty, hot-module and favorite draws concentrate
		// load on single ports (transiently supercritical), where
		// TestDifferentialEngines does the statistical cross-check with
		// proper horizons; here they still get the exact kernel-versus-
		// reference comparison above, which is the contract under fuzz.
		if kres.Truncated || rho > 0.8 || cfg.Burst != nil || cfg.HotModule > 0 || cfg.Q > 0 {
			return
		}
		lcfg := cfg
		lsrc, err := NewTraceStream(&lcfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		lres, lerr := RunLiteralSource(&lcfg, lsrc)
		if lerr != nil {
			t.Fatalf("literal engine rejected a config the kernel ran: %v (cfg %+v)", lerr, cfg)
		}
		if lres.Truncated {
			return
		}
		if kres.Messages != lres.Messages {
			t.Fatalf("measured counts differ: kernel %d, literal %d (cfg %+v)", kres.Messages, lres.Messages, cfg)
		}
		meas := float64(kres.Messages)
		if meas < 3000 {
			return // too few samples for a meaningful moment check
		}
		// Waits at one port are strongly autocorrelated, so the i.i.d.
		// standard error understates the Monte-Carlo spread badly on
		// fuzz-sized horizons; the wide factors make this a gross-
		// breakage smoke test (wrong units, dropped stages), leaving
		// precision to TestDifferentialEngines.
		km, lm := kres.MeanTotalWait(), lres.MeanTotalWait()
		se := math.Sqrt(kres.VarTotalWait() / meas)
		if tol := 15*se + 0.1*(1+km); math.Abs(km-lm) > tol {
			t.Fatalf("mean wait %g vs literal %g exceeds tol %g (cfg %+v)", km, lm, tol, cfg)
		}
	})
}
