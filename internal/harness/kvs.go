package harness

import (
	"ssync/internal/arch"
	"ssync/internal/memsim"
	"ssync/internal/simlocks"
	"ssync/internal/xrand"
)

// This file reproduces Figure 12: the Memcached experiment. The paper
// replaces Memcached 1.4.15's pthread mutexes (the fine-grained hash-table
// bucket locks and the global locks taken by the item-allocation and LRU
// maintenance paths on every set) with libslock algorithms, and drives it
// over the network with memslap (500 clients, get-only and set-only).
//
// The substitution here: the network/parsing path of one request is
// modelled as per-operation think time (the paper notes the main
// limitations are networking and main memory), and the critical-section
// structure is preserved — a per-bucket lock around the hash-table access
// plus, for sets, a global cache lock held across item allocation and LRU
// bookkeeping. With think time ≈150k cycles and a global section of a few
// thousand cycles the system stops scaling around 18 cores, as measured.

// kvsParams shapes the modelled memcached.
type kvsParams struct {
	buckets      int
	thinkCycles  uint64 // network + parsing, outside any lock
	globalWork   uint64 // LRU/slab bookkeeping inside the global lock
	setRatio     int    // percent of sets (100 = set-only)
	useGlobalSet bool   // sets take the global cache lock
}

func defaultKVSParams(setOnly bool) kvsParams {
	// Calibration: the paper's set test tops out near 230 Kops/s at 18
	// threads with ≈6× speed-up over one thread. A ≈55k-cycle network path
	// and a ≈9k-cycle global section saturate the global lock around 6-8
	// threads and cap throughput at clock/section ≈ 230 Kops/s.
	p := kvsParams{
		buckets:      512,
		thinkCycles:  55_000,
		globalWork:   8_500,
		useGlobalSet: true,
	}
	if setOnly {
		p.setRatio = 100
	} else {
		p.setRatio = 0
	}
	return p
}

func init() {
	kvsExperiment := func(id, doc string, get bool) Def {
		return Def{
			ID: id, Doc: doc,
			Grid: kvsThreads,
			Runner: func(s Shard) ([]Sample, error) {
				p, err := model(s)
				if err != nil {
					return nil, err
				}
				var out []Sample
				// The lock algorithms the paper shows in Figure 12.
				for _, alg := range []simlocks.Alg{simlocks.MUTEX, simlocks.TAS, simlocks.TICKET, simlocks.MCS} {
					out = append(out, Sample{
						Metric: string(alg),
						Value:  kvsRun(p, alg, s.Threads, defaultKVSParams(!get), s.Config),
					})
				}
				return out, nil
			},
		}
	}
	Register(kvsExperiment("kvs/set", "Figure 12: memcached-style set test, Kops/s per lock algorithm", false))
	Register(kvsExperiment("kvs/get", "§6.4 get test (lock-insensitive control), Kops/s per lock algorithm", true))
}

// kvsThreads returns Figure 12's client thread counts (none of the
// platforms scales beyond 18).
func kvsThreads(platform string) []int {
	switch platform {
	case "Xeon", "Tilera":
		return []int{1, 10, 18}
	case "Niagara":
		return []int{1, 8, 18}
	case "Opteron":
		return []int{1, 6, 18}
	}
	return DefaultThreads(platform)
}

// kvsRun measures the modelled memcached throughput in Kops/s.
func kvsRun(p *arch.Platform, alg simlocks.Alg, nThreads int, params kvsParams, cfg Config) float64 {
	// The think time dwarfs the per-figure deadline used elsewhere; scale
	// the run so each thread completes a useful number of operations.
	deadline := cfg.Deadline
	if min := params.thinkCycles * 40; deadline < min {
		deadline = min
	}
	m := memsim.New(p)
	m.Opt.CostJitter = 0.15
	cores := p.PlaceThreads(nThreads)
	node := p.NodeOf(cores[0])
	opt := simlocks.DefaultOptions(p)

	global := simlocks.New(m, alg, node, opt)
	bucketLocks := make([]simlocks.Lock, params.buckets)
	bucketData := make([]memsim.Addr, params.buckets)
	for i := range bucketLocks {
		bucketLocks[i] = simlocks.New(m, alg, node, opt)
		bucketData[i] = m.AllocLine(node)
	}
	lru := m.AllocLine(node)
	slab := m.AllocLine(node)

	m.SetDeadline(deadline)
	ops := make([]uint64, nThreads)
	for ti, c := range cores {
		ti := ti
		rng := xrand.New(uint64(ti)*92821 + 31)
		m.Spawn(c, func(t *memsim.Thread) {
			t.Pause(rng.Uint64() % 4096) // de-lockstep the service order
			for !t.Done() {
				t.Pause(params.thinkCycles) // network receive + parse + respond
				r := rng.Uint64()
				b := int(r % uint64(params.buckets))
				set := int(r>>40%100) < params.setRatio
				if set && params.useGlobalSet {
					// Item allocation and LRU maintenance under the global
					// cache lock, as in memcached 1.4.
					global.Acquire(t)
					t.Store(slab, t.Load(slab)+1)
					t.Store(lru, t.Load(lru)+1)
					t.Pause(params.globalWork)
					global.Release(t)
				}
				bucketLocks[b].Acquire(t)
				v := t.Load(bucketData[b])
				if set {
					t.Store(bucketData[b], v+1)
				}
				bucketLocks[b].Release(t)
				ops[ti]++
			}
		})
	}
	cycles := m.Run()
	var total uint64
	for _, o := range ops {
		total += o
	}
	if cycles == 0 {
		return 0
	}
	// Kops/s = ops / (cycles / (GHz * 1e9)) / 1e3.
	return float64(total) / float64(cycles) * p.ClockGHz * 1e6
}
