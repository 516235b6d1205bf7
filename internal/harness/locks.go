package harness

import (
	"ssync/internal/arch"
	"ssync/internal/ccbench"
	"ssync/internal/memsim"
	"ssync/internal/simlocks"
	"ssync/internal/xrand"
)

// This file reproduces the lock experiments of §5.4 and §6.1 on the
// simulator: Figure 3 (ticket-lock implementations), Figure 4 (atomic
// operations), Figures 5, 7 and 8 (lock throughput at 1 to 512 locks) and
// Figure 6 (uncontested acquisition by the previous holder's distance).

func init() {
	Register(lockExperiment("locks/single",
		"Figure 5: lock throughput, one lock (extreme contention), Mops/s per algorithm", 1, threadCounts))
	Register(lockExperiment("locks/many",
		"Figure 7: lock throughput, 512 locks (very low contention), Mops/s per algorithm", 512, threadCounts))
	for _, n := range []struct {
		id     string
		nLocks int
	}{{"locks/4", 4}, {"locks/16", 16}, {"locks/32", 32}, {"locks/128", 128}} {
		Register(lockExperiment(n.id,
			"Figure 8: lock throughput by lock count (best lock = max per row), Mops/s per algorithm", n.nLocks, nil))
	}

	Register(Def{
		ID:   "locks/uncontested",
		Doc:  "Figure 6: uncontested acquisition by the previous holder's distance, cycles per algorithm",
		Grid: func(string) []int { return []int{2} },
		Runner: func(s Shard) ([]Sample, error) {
			p, err := model(s)
			if err != nil {
				return nil, err
			}
			var out []Sample
			for _, alg := range simlocks.Algorithms(p) {
				out = append(out, Sample{Metric: string(alg) + " single thread", Value: uncontestedSingle(p, alg, s.Config)})
				for _, class := range ccbench.ReportClasses(p) {
					out = append(out, Sample{
						Metric: string(alg) + " " + p.DistNames[class],
						Value:  uncontestedPair(p, alg, class, s.Config),
					})
				}
			}
			return out, nil
		},
	})

	Register(Def{
		ID:   "atomics/stress",
		Doc:  "Figure 4: throughput of atomic operations on one location, Mops/s per primitive",
		Grid: threadCounts,
		Runner: func(s Shard) ([]Sample, error) {
			p, err := model(s)
			if err != nil {
				return nil, err
			}
			var out []Sample
			for _, op := range []string{"CAS", "TAS", "CAS based FAI", "SWAP", "FAI"} {
				out = append(out, Sample{Metric: op, Value: atomicStress(p, op, s.Threads, s.Config)})
			}
			return out, nil
		},
	})

	Register(Def{
		ID:   "ticket/variants",
		Doc:  "Figure 3: ticket-lock implementations on the Opteron, acquire+release cycles",
		On:   []string{"Opteron"},
		Grid: threadCounts,
		Runner: func(s Shard) ([]Sample, error) {
			p, err := model(s)
			if err != nil {
				return nil, err
			}
			variants := []struct {
				name string
				opt  simlocks.Options
			}{
				{"non-optimized", simlocks.Options{}},
				{"back-off", simlocks.Options{TicketBackoff: true}},
				{"back-off & prefetchw", simlocks.Options{TicketBackoff: true, TicketPrefetchw: true}},
			}
			var out []Sample
			for _, v := range variants {
				out = append(out, Sample{Metric: v.name, Value: ticketLatency(p, v.opt, s.Threads, s.Config)})
			}
			return out, nil
		},
	})
}

// lockExperiment defines a per-algorithm lock-throughput experiment over
// nLocks locks on the given thread grid (nil: DefaultThreads).
func lockExperiment(id, doc string, nLocks int, grid func(string) []int) Def {
	return Def{
		ID: id, Doc: doc, Grid: grid,
		Runner: func(s Shard) ([]Sample, error) {
			p, err := model(s)
			if err != nil {
				return nil, err
			}
			var out []Sample
			for _, alg := range simlocks.Algorithms(p) {
				out = append(out, Sample{Metric: string(alg), Value: lockRun(p, alg, s.Threads, nLocks, s.Config)})
			}
			return out, nil
		},
	}
}

// threadCounts returns the paper's x-axis thread counts of Figures 3–5
// and 7 for a platform, up to its full core count.
func threadCounts(platform string) []int {
	switch platform {
	case "Opteron":
		return []int{1, 2, 6, 12, 18, 24, 30, 36, 42, 48}
	case "Xeon":
		return []int{1, 2, 10, 20, 30, 40, 50, 60, 70, 80}
	case "Niagara":
		return []int{1, 2, 8, 16, 24, 32, 40, 48, 56, 64}
	case "Tilera":
		return []int{1, 2, 6, 12, 18, 24, 30, 36}
	}
	return DefaultThreads(platform)
}

// lockRun measures total lock-acquisition throughput in Mops/s: nThreads
// threads each repeatedly acquire a (random) lock out of nLocks, read and
// write one cache line of data it protects, release, and pause briefly
// (§6.1.2 methodology).
func lockRun(p *arch.Platform, alg simlocks.Alg, nThreads, nLocks int, cfg Config) float64 {
	m := memsim.New(p)
	m.Opt.CostJitter = 0.15
	cores := p.PlaceThreads(nThreads)
	node := p.NodeOf(cores[0]) // shared data on the first participating node
	opt := simlocks.DefaultOptions(p)
	locks := make([]simlocks.Lock, nLocks)
	data := make([]memsim.Addr, nLocks)
	for i := range locks {
		locks[i] = simlocks.New(m, alg, node, opt)
		data[i] = m.AllocLine(node)
	}
	// Warm-up: the paper's runs last seconds, so every lock and data line
	// is long since cached. Ops before the warm-up horizon are discarded;
	// the horizon scales with the lock count so even a single thread has
	// touched the whole working set (cold misses would otherwise depress
	// the 1-thread baseline and inflate the scalability labels).
	warmup := uint64(nLocks) * 1200 / uint64(nThreads)
	if warmup > 1_200_000 {
		warmup = 1_200_000
	}
	if warmup < 10_000 {
		warmup = 10_000
	}
	m.SetDeadline(warmup + cfg.Deadline)
	ops := make([]uint64, nThreads)
	for ti, c := range cores {
		ti := ti
		rng := xrand.New(uint64(ti)*2654435761 + 12345)
		m.Spawn(c, func(t *memsim.Thread) {
			// Random start stagger: threads never begin in lock-step, so
			// the steady-state service order at hot lines is a random,
			// socket-mixed permutation rather than core-id order.
			t.Pause(rng.Uint64() % 4096)
			for !t.Done() {
				i := 0
				if nLocks > 1 {
					i = rng.Intn(nLocks)
				}
				locks[i].Acquire(t)
				v := t.Load(data[i])
				t.Store(data[i], v+1)
				locks[i].Release(t)
				if t.Now() > warmup {
					ops[ti]++
				}
				// Let the release become globally visible before retrying
				// (paper §6.1.2).
				t.Pause(100)
			}
		})
	}
	cycles := m.Run()
	var total uint64
	for _, o := range ops {
		total += o
	}
	if cycles <= warmup {
		return 0
	}
	return p.MopsFrom(total, cycles-warmup)
}

// uncontestedSingle measures one thread repeatedly acquiring and releasing.
func uncontestedSingle(p *arch.Platform, alg simlocks.Alg, cfg Config) float64 {
	m := memsim.New(p)
	l := simlocks.New(m, alg, p.NodeOf(0), simlocks.DefaultOptions(p))
	var total uint64
	m.Spawn(0, func(t *memsim.Thread) {
		l.Acquire(t) // warm up the lock state
		l.Release(t)
		start := t.Now()
		for i := 0; i < cfg.LatencyOps; i++ {
			l.Acquire(t)
			l.Release(t)
		}
		total = t.Now() - start
	})
	m.Run()
	return float64(total) / float64(cfg.LatencyOps)
}

// uncontestedPair measures acquisition latency when the previous holder is
// at the given distance class: the two threads strictly alternate.
func uncontestedPair(p *arch.Platform, alg simlocks.Alg, class int, cfg Config) float64 {
	m := memsim.New(p)
	a := 0
	b := pickAtClass(p, a, class)
	if b < 0 {
		return 0
	}
	l := simlocks.New(m, alg, p.NodeOf(a), simlocks.DefaultOptions(p))
	turn := m.AllocLine(p.NodeOf(a))
	var totalB uint64
	rounds := cfg.LatencyOps
	m.Spawn(a, func(t *memsim.Thread) {
		for i := 0; i < rounds; i++ {
			t.WaitUntil(turn, func(v uint64) bool { return v%2 == 0 })
			l.Acquire(t)
			l.Release(t)
			t.Store(turn, t.Load(turn)+1)
		}
	})
	m.Spawn(b, func(t *memsim.Thread) {
		for i := 0; i < rounds; i++ {
			t.WaitUntil(turn, func(v uint64) bool { return v%2 == 1 })
			start := t.Now()
			l.Acquire(t)
			totalB += t.Now() - start
			l.Release(t)
			t.Store(turn, t.Load(turn)+1)
		}
	})
	m.Run()
	return float64(totalB) / float64(rounds)
}

// pickAtClass returns the first core at the given distance class from
// core from, or -1 if the platform has none.
func pickAtClass(p *arch.Platform, from, class int) int {
	for c := 0; c < p.NumCores; c++ {
		if c != from && p.DistClass(from, c) == class {
			return c
		}
	}
	return -1
}

// ticketLatency measures the mean acquire+release latency (including queue
// wait) over all threads hammering one ticket lock.
func ticketLatency(p *arch.Platform, opt simlocks.Options, nThreads int, cfg Config) float64 {
	m := memsim.New(p)
	m.Opt.CostJitter = 0.15
	l := simlocks.New(m, simlocks.TICKET, 0, opt)
	m.SetDeadline(cfg.Deadline)
	cores := p.PlaceThreads(nThreads)
	lat := make([]uint64, nThreads)
	ops := make([]uint64, nThreads)
	for ti, c := range cores {
		ti := ti
		rng := xrand.New(uint64(ti)*52021 + 11)
		m.Spawn(c, func(t *memsim.Thread) {
			t.Pause(rng.Uint64() % 4096) // de-lockstep the service order
			for !t.Done() {
				start := t.Now()
				l.Acquire(t)
				l.Release(t)
				lat[ti] += t.Now() - start
				ops[ti]++
				t.Pause(100)
			}
		})
	}
	m.Run()
	var totalLat, totalOps uint64
	for i := range lat {
		totalLat += lat[i]
		totalOps += ops[i]
	}
	if totalOps == 0 {
		return 0
	}
	return float64(totalLat) / float64(totalOps)
}

// atomicStress implements the §5.4 stress test: each thread repeatedly
// performs the operation on one shared location, pausing between calls
// proportionally to the maximum latency across the involved cores so that
// no thread completes consecutive operations locally ("long runs").
// CAS-FAI is a fetch-and-increment emulated with a CAS retry loop.
func atomicStress(p *arch.Platform, opName string, nThreads int, cfg Config) float64 {
	m := memsim.New(p)
	m.Opt.CostJitter = 0.15
	cores := p.PlaceThreads(nThreads)
	target := m.AllocLine(p.NodeOf(cores[0]))
	m.SetDeadline(cfg.Deadline)

	// Pause proportional to the maximum latency across the involved cores.
	span := 0
	for _, c := range cores {
		if d := p.DistClass(cores[0], c); d > span {
			span = d
		}
	}
	pause := p.Lat(arch.CAS, arch.Modified, span)
	if nThreads == 1 {
		pause = p.AtomicLocal
	}

	ops := make([]uint64, nThreads)
	for ti, c := range cores {
		ti := ti
		rng := xrand.New(uint64(ti)*76493 + 5)
		m.Spawn(c, func(t *memsim.Thread) {
			t.Pause(rng.Uint64() % 4096) // de-lockstep the service order
			for !t.Done() {
				switch opName {
				case "CAS":
					t.CAS(target, 0, uint64(ti)+1) // mostly unsuccessful
				case "TAS":
					t.TAS(target)
				case "CAS based FAI":
					// cmpxchg retry loop: the failed CAS returns the fresh
					// value, so no reload is needed between attempts.
					v := t.Load(target)
					for {
						prev, ok := t.CASVal(target, v, v+1)
						if ok || t.Done() {
							break
						}
						v = prev
					}
				case "SWAP":
					t.Swap(target, uint64(ti))
				case "FAI":
					t.FAI(target)
				}
				ops[ti]++
				// Jitter the pause: identical pauses would grant the line
				// in core-id order, an artificial socket affinity no real
				// arbiter provides.
				t.Pause(pause + rng.Uint64()%(pause/2+1))
			}
		})
	}
	cycles := m.Run()
	var total uint64
	for _, o := range ops {
		total += o
	}
	return p.MopsFrom(total, cycles)
}
