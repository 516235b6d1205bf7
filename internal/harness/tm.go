package harness

import (
	"sort"

	"ssync/internal/arch"
	"ssync/internal/memsim"
	"ssync/internal/simlocks"
	"ssync/internal/simmp"
	"ssync/internal/xrand"
)

// This file reproduces the §8 software-transactional-memory result: the
// TM2C experiments behave like the hash table (Figure 11) — under high
// contention the message-passing version wins at scale; under low
// contention the lock-based version is strictly faster.
//
// The transactional workload is an array microbenchmark: each transaction
// reads three random stripes and writes one. The lock-based flavour
// acquires the involved stripe locks in address order (two-phase locking);
// the message-passing flavour ships each access to the stripe's owning
// server and commits with one message per involved server, mirroring
// internal/tm's native implementation.

func init() {
	tmExperiment := func(id, doc string, stripes int) Def {
		return Def{
			ID: id, Doc: doc,
			Runner: func(s Shard) ([]Sample, error) {
				p, err := model(s)
				if err != nil {
					return nil, err
				}
				return []Sample{
					{Metric: "locks", Value: tmLockRun(p, s.Threads, stripes, s.Config)},
					{Metric: "mp", Value: tmMPRun(p, s.Threads, stripes, s.Config)},
				}, nil
			},
		}
	}
	Register(tmExperiment("tm/high", "§8 TM2C: 8 stripes (high contention), Mops/s", 8))
	Register(tmExperiment("tm/low", "§8 TM2C: 1024 stripes (low contention), Mops/s", 1024))
}

// tmTxShape draws the read and write sets of one transaction.
func tmTxShape(rng *xrand.Rand, nStripes int) (reads [3]int, write int) {
	for i := range reads {
		reads[i] = rng.Intn(nStripes)
	}
	return reads, rng.Intn(nStripes)
}

// tmLockRun measures the lock-based TM: per-stripe TTAS locks acquired in
// address order, then the reads and the write.
func tmLockRun(p *arch.Platform, nThreads, nStripes int, cfg Config) float64 {
	m := memsim.New(p)
	m.Opt.CostJitter = 0.15
	cores := p.PlaceThreads(nThreads)
	node := p.NodeOf(cores[0])
	opt := simlocks.DefaultOptions(p)
	locksArr := make([]simlocks.Lock, nStripes)
	data := make([]memsim.Addr, nStripes)
	for i := range locksArr {
		locksArr[i] = simlocks.New(m, simlocks.TTAS, node, opt)
		data[i] = m.AllocLine(node)
	}
	m.SetDeadline(cfg.Deadline)
	ops := make([]uint64, nThreads)
	for ti, c := range cores {
		ti := ti
		rng := xrand.New(uint64(ti)*31337 + 13)
		m.Spawn(c, func(t *memsim.Thread) {
			t.Pause(rng.Uint64() % 4096)
			for !t.Done() {
				reads, write := tmTxShape(rng, nStripes)
				// Two-phase locking in address order (deadlock-free).
				involved := append(reads[:], write)
				sort.Ints(involved)
				involved = dedupInts(involved)
				for _, s := range involved {
					locksArr[s].Acquire(t)
				}
				for _, s := range reads {
					t.Load(data[s])
				}
				t.Store(data[write], t.Now())
				for i := len(involved) - 1; i >= 0; i-- {
					locksArr[involved[i]].Release(t)
				}
				ops[ti]++
				t.Pause(120)
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

func dedupInts(s []int) []int {
	out := s[:1]
	for _, v := range s[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// tmMPRun measures the TM2C flavour: servers own stripes; each read and
// the commit are round-trips to the owning servers.
func tmMPRun(p *arch.Platform, nThreads, nStripes int, cfg Config) float64 {
	nServers, nClients := splitServers(nThreads)
	m := memsim.New(p)
	cores := p.PlaceThreads(nServers + nClients)
	serverCores := cores[:nServers]
	node := p.NodeOf(cores[0])
	net := simmp.NewNetwork(m, cores, simmp.DefaultOptions(m))
	data := make([]memsim.Addr, nStripes)
	for i := range data {
		data[i] = m.AllocLine(node)
	}
	stop := cfg.Deadline

	ops := make([]uint64, nClients)
	for _, c := range serverCores {
		m.Spawn(c, func(t *memsim.Thread) {
			done := 0
			for done < nClients {
				from, msg := net.RecvAny(t)
				switch msg.W[0] {
				case poison:
					done++
				case 1: // read stripe
					v := t.Load(data[msg.W[1]])
					net.Send(t, from, simmp.Msg{W: [7]uint64{v}})
				case 2: // write stripe + commit ack
					t.Store(data[msg.W[1]], msg.W[2])
					net.Send(t, from, simmp.Msg{W: [7]uint64{1}})
				}
			}
		})
	}
	for ci, c := range cores[nServers:] {
		ci := ci
		rng := xrand.New(uint64(ci)*50923 + 29)
		m.Spawn(c, func(t *memsim.Thread) {
			t.Pause(rng.Uint64() % 4096)
			for t.Now() < stop {
				reads, write := tmTxShape(rng, nStripes)
				for _, s := range reads {
					srv := serverCores[s%nServers]
					net.Call(t, srv, simmp.Msg{W: [7]uint64{1, uint64(s)}})
				}
				srv := serverCores[write%nServers]
				net.Call(t, srv, simmp.Msg{W: [7]uint64{2, uint64(write), t.Now()}})
				ops[ci]++
				t.Pause(120)
			}
			for _, s := range serverCores {
				net.Send(t, s, simmp.Msg{W: [7]uint64{poison}})
			}
		})
	}
	m.Run()
	var sum uint64
	for _, o := range ops {
		sum += o
	}
	return p.MopsFrom(sum, stop)
}
