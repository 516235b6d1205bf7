package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ssync/internal/store"
)

// config is the run shape shared by every workload.
type config struct {
	Clients   int
	Seed      uint64
	Segments  int // measured segments in the run
	PerSystem int // segments measured on one system before a fresh one replaces it
	SegTime   time.Duration
	WarmTime  time.Duration // on every fresh system, before its first segment
	// Traced-run sizes, in ops of the workload's stream.
	TraceOps, LadderOps, CaptureOps int
	TraceOut                        string
}

// defaultConfig is the contract shape: seconds of measuring split into
// segments of one second of load plus one calibration slice, five segments
// to a system.
func defaultConfig(seconds int, quick bool) config {
	cfg := config{
		Clients:   min(runtime.NumCPU(), 4),
		PerSystem: 5,
		SegTime:   time.Second,
		WarmTime:  time.Second,
		TraceOps:  200000, LadderOps: 65536, CaptureOps: 16384,
	}
	if quick {
		cfg.SegTime, cfg.WarmTime = 100*time.Millisecond, 100*time.Millisecond
		cfg.TraceOps, cfg.LadderOps, cfg.CaptureOps = 16000, 4096, 2048
	}
	per := cfg.SegTime + 3*kernelTime
	cfg.Segments = max(1, int(math.Round(float64(time.Duration(seconds)*time.Second)/float64(per))))
	return cfg
}

// Every system is preceded by a burst of timed set-ups.
const (
	setupBurst = 250 * time.Millisecond
	maxBurst   = 50
)

// segment is one measured second and the calibration around it. Every
// reported wall-clock value can be recomputed from these.
type segment struct {
	System     int     `json:"system"` // ordinal of the system it ran on
	Ops        uint64  `json:"ops"`
	Seconds    float64 `json:"seconds"`
	RawKops    float64 `json:"raw_kops"`
	RawP50us   float64 `json:"raw_p50_us"`
	RawP95us   float64 `json:"raw_p95_us"`
	SpeedIndex float64 `json:"speed_index"` // geometric mean of the slices before and after
	After      slice   `json:"slice_after"` // the calibration slice that followed the segment
}

// metric is one reported number.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// result is one workload's run.
type result struct {
	Workload    string
	Attempted   uint64
	Failed      uint64
	Err         error     // first failure, for the log
	Metrics     []metric  // end-to-end (untraced run) or per-layer (traced run)
	Diagnostics []metric  // untraced run only: non-gating host/loadgen/runtime readings
	Segments    []segment // untraced run only
	Setups      []float64 // untraced run only: every timed set-up, seconds as measured
}

// runLoad is the untraced run. Every PerSystem segments a fresh system is
// set up — a burst of timed set-ups, the last one kept — and warmed up, and
// the one before it is swept and torn down: how a system's shards, locks
// and buffers happen to be laid out in memory moves its speed by several
// percent, and a run that measured one lay-out would carry that draw into
// its result. A calibration slice precedes a system's first segment and
// follows every segment. After the last segment come the heap reading, the
// last sweep and teardown.
func runLoad(sp spec, cfg config) (result, error) {
	runtime.GOMAXPROCS(cfg.Clients)
	res := result{Workload: sp.Name}
	cal := newCalibrator(cfg.Clients)
	// A process's very first slice reads low (cold caches, threads still
	// being created), so one is taken and dropped.
	cal.measure()

	var sys *system
	defer func() {
		if sys != nil {
			sys.close()
		}
	}()
	// build replaces the system with a fresh one and times its set-up.
	build := func() (float64, error) {
		if sys != nil {
			sys.close()
			sys = nil
			runtime.GC() // keep one system's garbage out of the next one's set-up time
		}
		start := time.Now()
		fresh, err := setUp(sp, cfg.Clients)
		if err != nil {
			return 0, err
		}
		sys = fresh
		return time.Since(start).Seconds(), nil
	}
	// burst times set-ups back to back until setupBurst is spent, at least
	// one and at most maxBurst, and keeps the last system built.
	burst := func() error {
		for start, n := time.Now(), 0; n == 0 || (time.Since(start) < setupBurst && n < maxBurst); n++ {
			d, err := build()
			if err != nil {
				return err
			}
			res.Setups = append(res.Setups, d)
		}
		return nil
	}

	epoch := time.Now()
	clients := make([]*client, cfg.Clients)
	runSegment := func(d time.Duration) time.Duration {
		start := time.Now()
		deadline := int64(start.Sub(epoch) + d)
		var wg sync.WaitGroup
		for _, c := range clients {
			c := c
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.run(deadline, 0)
			}()
		}
		wg.Wait()
		return time.Since(start)
	}
	// verify closes the books on the current system: the clients' first
	// error, then the byte-for-byte sweep.
	verify := func() {
		for _, c := range clients {
			if c.err != nil && res.Err == nil {
				res.Err = c.err
			}
		}
		att, failed, err := sweep(sys)
		res.Attempted += att
		res.Failed += failed
		if err != nil && res.Err == nil {
			res.Err = err
		}
	}

	var (
		total          histogram
		mallocs, bytes uint64
		before, after  runtime.MemStats
		first          runtime.MemStats
		cpuBefore      = readCPUStat()
		prev           slice
	)
	runtime.ReadMemStats(&first)
	for s := 0; s < cfg.Segments; s++ {
		if s%cfg.PerSystem == 0 {
			if s > 0 {
				verify()
			}
			if err := burst(); err != nil {
				return res, err
			}
			for i := range clients {
				clients[i] = newClient(sys, sys.conns[i], newGenerator(sys.dist, sp.Mix, cfg.Seed+uint64(s/cfg.PerSystem)<<32, i), epoch)
			}
			runSegment(cfg.WarmTime)
			for _, c := range clients {
				res.Attempted += c.ops
				res.Failed += c.failed
				c.resetTallies()
			}
			prev = cal.measure()
		}
		runtime.ReadMemStats(&before)
		wall := runSegment(cfg.SegTime)
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		bytes += after.TotalAlloc - before.TotalAlloc

		seg := segment{System: s / cfg.PerSystem}
		var hist histogram
		for _, c := range clients {
			seg.Ops += c.ops
			res.Failed += c.failed
			hist.merge(&c.hist)
			c.resetTallies()
		}
		res.Attempted += seg.Ops
		total.merge(&hist)
		next := cal.measure()
		seg.Seconds = wall.Seconds()
		seg.RawKops = float64(seg.Ops) / seg.Seconds / 1e3
		seg.RawP50us = hist.quantile(0.50) / 1e3
		seg.RawP95us = hist.quantile(0.95) / 1e3
		seg.SpeedIndex = math.Sqrt(prev.Index * next.Index)
		seg.After = next
		res.Segments = append(res.Segments, seg)
		prev = next
	}
	goroutines := runtime.NumGoroutine()
	cpuAfter := readCPUStat()

	// The heap reading: the yardstick's table is dropped first, and two
	// collections empty the sync.Pools and take the earlier systems away,
	// so what remains is what the one open system holds on to.
	cal.release()
	runtime.GC()
	runtime.GC()
	var final runtime.MemStats
	runtime.ReadMemStats(&final)
	verify()

	var ops uint64
	for _, seg := range res.Segments {
		ops += seg.Ops
	}
	if ops == 0 {
		return res, fmt.Errorf("%s: no op completed in %d segments", sp.Name, cfg.Segments)
	}
	column := func(f func(segment) float64) []float64 {
		out := make([]float64, len(res.Segments))
		for i, seg := range res.Segments {
			out[i] = f(seg)
		}
		return out
	}
	kops := column(func(s segment) float64 { return s.RawKops / s.SpeedIndex })
	p50 := column(func(s segment) float64 { return s.RawP50us * s.SpeedIndex })
	p95 := column(func(s segment) float64 { return s.RawP95us * s.SpeedIndex })
	raw := column(func(s segment) float64 { return s.RawKops })
	index := column(func(s segment) float64 { return s.SpeedIndex })
	medIndex := median(index)
	res.Metrics = []metric{
		{"throughput_kops", median(kops), "Kops/s"},
		{"latency_p50_us", median(p50), "us"},
		{"latency_p95_us", median(p95), "us"},
		{"allocs_per_op", float64(mallocs) / float64(ops), "allocs/op"},
		{"alloc_bytes_per_op", float64(bytes) / float64(ops), "B/op"},
		{"live_heap_mb", float64(final.HeapAlloc) / (1 << 20), "MiB"},
		// The fastest of all the timed set-ups. Set-up is deterministic code
		// and interference only adds time: over ten processes per workload the
		// fastest moved by 5-13 % from process to process, a burst's median
		// or lower quartile by 10-18 %, and scaling by the speed index made
		// it worse, the fastest set-ups being the undisturbed ones already.
		{"setup_s", slices.Min(res.Setups), "s"},
	}
	res.Diagnostics = []metric{
		{"failed_ops_ratio", float64(res.Failed) / float64(res.Attempted), "ratio"},
		{"host.speed_index", medIndex, "ratio"},
		{"host.speed_index_cv", cv(index), "ratio"},
		{"host.raw_throughput_kops", median(raw), "Kops/s"},
		{"host.steal_pct", stealPct(cpuBefore, cpuAfter), "%"},
		{"loadgen.latency_p99_us", total.quantile(0.99) / 1e3 * medIndex, "us"},
		{"loadgen.latency_p999_us", total.quantile(0.999) / 1e3 * medIndex, "us"},
		{"runtime.gc_cycles", float64(after.NumGC - first.NumGC), "count"},
		{"runtime.gc_pause_total_ms", float64(after.PauseTotalNs-first.PauseTotalNs) / 1e6, "ms"},
		{"runtime.goroutines", float64(goroutines), "count"},
	}
	return res, nil
}

// sweep is the byte-for-byte output check. Issue and Wait report only
// counts, so once the clients have parked it reads every key back through
// the workload's own connection type and compares each value with the
// payload its key index stands for, then checks scans — prefix, order,
// limit, values, and the entry count the point reads just established.
func sweep(sys *system) (attempted, failed uint64, first error) {
	conn := sys.conns[0]
	fail := func(n int, err error) {
		failed += uint64(n)
		if first == nil {
			first = fmt.Errorf("sweep: %w", err)
		}
	}
	present := make([]bool, len(sys.keys))
	const chunk = 64
	reqs := make([]store.Request, 0, chunk)
	for base := 0; base < len(sys.keys); base += chunk {
		reqs = reqs[:0]
		for i := base; i < base+chunk && i < len(sys.keys); i++ {
			reqs = append(reqs, store.Request{Op: store.OpGet, Key: sys.keys[i]})
		}
		attempted += uint64(len(reqs))
		resps, err := conn.ExecBatch(reqs)
		if err != nil || len(resps) != len(reqs) {
			fail(len(reqs), fmt.Errorf("get batch at key %d: %d responses, error %v", base, len(resps), err))
			continue
		}
		for j, r := range resps {
			idx := uint32(base + j)
			switch {
			case r.Status == store.StatusNotFound:
			case r.Status == store.StatusOK && payloadOK(r.Value, idx):
				present[idx] = true
			default:
				fail(1, fmt.Errorf("get %s: status %d, value %x", sys.keys[idx], r.Status, r.Value))
			}
		}
	}
	// One scan per band, on at most 64 bands spread over the key space.
	bands := (len(sys.keys) + bandKeys - 1) / bandKeys
	for b := 0; b < bands; b += max(1, bands/64) {
		attempted++
		idx := uint32(b * bandKeys)
		prefix := sys.keys[idx][:len(sys.keys[idx])-2]
		entries, err := conn.Scan(prefix, scanLimit)
		if want := min(scanLimit, bandCount(present, idx)); err == nil && len(entries) != want {
			err = fmt.Errorf("%d entries, the point reads say %d", len(entries), want)
		}
		if err == nil {
			err = checkScan(entries, prefix)
		}
		if err != nil {
			fail(1, fmt.Errorf("scan %s: %w", prefix, err))
		}
	}
	return attempted, failed, first
}

// checkScan verifies one scan result: within the limit, every key carries
// the prefix, keys ascend strictly and every value is its key's payload.
func checkScan(entries []store.Entry, prefix string) error {
	if len(entries) > scanLimit {
		return fmt.Errorf("%d entries exceed the limit %d", len(entries), scanLimit)
	}
	for i, e := range entries {
		idx, ok := keyIndex(e.Key)
		switch {
		case !ok || !strings.HasPrefix(e.Key, prefix):
			return fmt.Errorf("entry %d: key %q outside the prefix", i, e.Key)
		case i > 0 && entries[i-1].Key >= e.Key:
			return fmt.Errorf("entry %d: key %q not after %q", i, e.Key, entries[i-1].Key)
		case !payloadOK(e.Value, idx):
			return fmt.Errorf("entry %d: key %q carries value %x", i, e.Key, e.Value)
		}
	}
	return nil
}

// cpuStat is the host's aggregate CPU accounting from /proc/stat, in
// ticks. ok is false where the file does not exist or does not parse.
type cpuStat struct {
	total, steal uint64
	ok           bool
}

func readCPUStat() cpuStat {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuStat{}
	}
	var st cpuStat
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuStat{}
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already in user
			st.total += v
		}
		if i == 7 {
			st.steal = v
		}
	}
	st.ok = true
	return st
}

// stealPct is the share of host CPU time the hypervisor took away between
// two readings, in percent; 0 where /proc/stat is not available.
func stealPct(a, b cpuStat) float64 {
	if !a.ok || !b.ok || b.total == a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cv is the coefficient of variation (population standard deviation over
// the mean).
func cv(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	mean, ss := 0.0, 0.0
	for _, x := range v {
		mean += x
	}
	mean /= float64(len(v))
	for _, x := range v {
		ss += (x - mean) * (x - mean)
	}
	if mean == 0 {
		return 0
	}
	return math.Sqrt(ss/float64(len(v))) / mean
}
