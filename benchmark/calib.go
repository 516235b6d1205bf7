package main

// Host-speed calibration. This file imports nothing from ssync: the three
// kernels below are the fixed yardstick every wall-clock metric is
// expressed against, so no change to the store can move them.
//
// A slice runs the kernels one after another, each on `workers`
// goroutines for kernelTime. Each kernel's rate (iterations per second
// per goroutine) is divided by a nominal rate frozen below; the slice's
// speed index is the geometric mean of the three ratios, so it reads
// ≈ 1.0 on the machine the constants were taken on, below 1 when the host
// is running slow and above 1 when it is running fast.

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

const (
	kernelTime = 80 * time.Millisecond

	// chaseBytes is the memory kernel's working set: a single random cycle
	// through 4 Mi uint32 slots, far beyond L2 so every step is a
	// dependent load that misses it.
	chaseBytes = 16 << 20
	chaseSlots = chaseBytes / 4
)

// Nominal per-goroutine rates, iterations per second, with two workers.
// Taken on the repository's development VM — 2 vCPUs of an Intel Xeon at
// 2.10 GHz, 4 MiB L2 per core, Linux 6.18, go1.24 — as the medians of 100
// slices; see README.md. They only fix the scale of the index; comparisons
// between two commits on one host do not depend on them.
const (
	nominalALU   = 645e6
	nominalChase = 8.5e6
	nominalPing  = 0.9e6
)

// calibrator owns the chase table. release drops it so the final heap
// reading measures the system under test and not the yardstick.
type calibrator struct {
	workers int
	chase   []uint32
}

func newCalibrator(workers int) *calibrator {
	return &calibrator{workers: workers, chase: chaseCycle(chaseSlots)}
}

func (c *calibrator) release() { c.chase = nil }

// chaseCycle builds one cycle through n slots with Sattolo's algorithm
// and a fixed xorshift stream, so the table is identical on every run.
func chaseCycle(n int) []uint32 {
	p := make([]uint32, n)
	for i := range p {
		p[i] = uint32(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := n - 1; i > 0; i-- {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		j := int((x * 0x2545f4914f6cdd1d) % uint64(i))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// slice is one calibration reading.
type slice struct {
	ALU, Chase, Ping float64 // iterations per second per goroutine
	Index            float64
}

// sink keeps the kernels' results observable so the loops are not removed.
var sink atomic.Uint64

// measure runs the three kernels and returns their rates and the index.
func (c *calibrator) measure() slice {
	s := slice{
		ALU:   c.parallel(aluKernel),
		Chase: c.parallel(c.chaseKernel),
		Ping:  c.parallel(pingKernel),
	}
	s.Index = math.Cbrt(s.ALU / nominalALU * s.Chase / nominalChase * s.Ping / nominalPing)
	return s
}

// parallel runs kernel on every worker at once and returns the mean
// per-goroutine rate.
func (c *calibrator) parallel(kernel func(worker int) (iters uint64, elapsed time.Duration)) float64 {
	rates := make([]float64, c.workers)
	var wg sync.WaitGroup
	for w := 0; w < c.workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			iters, elapsed := kernel(w)
			rates[w] = float64(iters) / elapsed.Seconds()
		}()
	}
	wg.Wait()
	sum := 0.0
	for _, r := range rates {
		sum += r
	}
	return sum / float64(len(rates))
}

// aluKernel is a dependent FNV-style xor-multiply chain: integer ALU
// throughput with no memory traffic.
func aluKernel(worker int) (uint64, time.Duration) {
	const chunk = 1 << 16
	h := uint64(14695981039346656037) + uint64(worker)
	var iters uint64
	start := time.Now()
	for {
		for i := uint64(0); i < chunk; i++ {
			h = (h ^ i) * 1099511628211
		}
		iters += chunk
		if el := time.Since(start); el >= kernelTime {
			sink.Add(h)
			return iters, el
		}
	}
}

// chaseKernel follows the cycle from a per-worker start: one dependent
// cache-missing load per step.
func (c *calibrator) chaseKernel(worker int) (uint64, time.Duration) {
	const chunk = 1 << 12
	table := c.chase
	p := uint32(worker * (len(table) / c.workers))
	var iters uint64
	start := time.Now()
	for {
		for i := 0; i < chunk; i++ {
			p = table[p]
		}
		iters += chunk
		if el := time.Since(start); el >= kernelTime {
			sink.Add(uint64(p))
			return iters, el
		}
	}
}

// pingKernel bounces a token between this goroutine and a partner over
// two unbuffered channels: every iteration is two goroutine hand-offs
// through the Go scheduler, the cost the wire and cluster paths pay per
// frame.
func pingKernel(int) (uint64, time.Duration) {
	const chunk = 256
	ping, pong := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range ping {
			pong <- struct{}{}
		}
	}()
	var iters uint64
	start := time.Now()
	for {
		for i := 0; i < chunk; i++ {
			ping <- struct{}{}
			<-pong
		}
		iters += chunk
		if el := time.Since(start); el >= kernelTime {
			close(ping)
			<-done
			return iters, el
		}
	}
}
