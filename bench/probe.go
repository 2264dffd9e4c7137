package main

import (
	"fmt"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host-speed probe. On a shared machine the same binary runs up to
// half again slower for minutes at a time, and every workload slows
// together (README.md, Calibration). Before each pass a run therefore
// times a fixed piece of work that belongs to the benchmark, not to the
// program under test, and reports its times at the reference speed:
// scaled by probeRef over the run's median probe time. A change to the
// program cannot move the probe; a slow machine moves both.
//
// The probe does dependent random reads and writes over tables far larger
// than the caches, on as many goroutines as the sweep has workers: on the
// calibration machine its time tracked the workloads' pass times across
// slow and fast minutes (correlation 0.7) and halved their run-to-run
// spread. The tables are mapped outside the Go heap, so they do not
// change the program's GC pacing, and the probe allocates nothing.

const (
	probeTableWords = 1 << 23 // 32 MiB of uint32 per worker
	probeSteps      = 1 << 20
)

// probeRef is the probe's time on the calibration machine in a quiet
// period (README.md, Calibration): reported times are at that speed.
const probeRef = 12 * time.Millisecond

// prober runs the probe over one table per worker.
type prober struct {
	tables [][]uint32
	mem    [][]byte
	sums   []uint32
	sink   uint32
}

func newProber(workers int) (*prober, error) {
	p := &prober{}
	for i := 0; i < workers; i++ {
		b, err := syscall.Mmap(-1, 0, probeTableWords*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			p.close()
			return nil, fmt.Errorf("probe table: %w", err)
		}
		p.mem = append(p.mem, b)
		p.tables = append(p.tables, unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), probeTableWords))
	}
	p.sums = make([]uint32, workers)
	p.run() // fault the pages in
	return p, nil
}

func (p *prober) close() {
	for _, b := range p.mem {
		syscall.Munmap(b) //nolint:errcheck // nothing to do about a failed unmap at exit
	}
	p.mem, p.tables = nil, nil
}

// run times one probe.
func (p *prober) run() time.Duration {
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, tab := range p.tables {
		wg.Add(1)
		go func(i int, tab []uint32) {
			defer wg.Done()
			x := uint64(i)*0x9e3779b97f4a7c15 + 1
			var acc uint32
			for s := 0; s < probeSteps; s++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				j := x & (probeTableWords - 1)
				acc = acc*2654435761 + tab[j]
				tab[j] = acc
			}
			p.sums[i] = acc
		}(i, tab)
	}
	wg.Wait()
	d := time.Since(t0)
	for _, s := range p.sums {
		p.sink += s
	}
	return d
}
