package harness

import (
	"ssync/internal/arch"
	"ssync/internal/memsim"
	"ssync/internal/simlocks"
	"ssync/internal/simmp"
	"ssync/internal/xrand"
)

// This file reproduces Figure 11: the ssht concurrent hash table under
// {512, 12} buckets × {12, 48} entries per bucket, 80% get / 10% put /
// 10% remove, 64-bit keys and 64-byte payloads, with every lock algorithm
// and with the message-passing version (one server per three cores, all
// operations round-trip).

func init() {
	sshtExperiment := func(id, doc string, buckets, entries int) Def {
		return Def{
			ID: id, Doc: doc,
			Runner: func(s Shard) ([]Sample, error) {
				p, err := model(s)
				if err != nil {
					return nil, err
				}
				var out []Sample
				for _, alg := range simlocks.Algorithms(p) {
					out = append(out, Sample{
						Metric: string(alg),
						Value:  sshtLockRun(p, alg, s.Threads, buckets, entries, s.Config),
					})
				}
				out = append(out, Sample{Metric: "MP", Value: sshtMPRun(p, s.Threads, buckets, entries, s.Config)})
				return out, nil
			},
		}
	}
	Register(sshtExperiment("ssht/high",
		"Figure 11: ssht hash table, 12 buckets × 12 entries (high contention), Mops/s", 12, 12))
	Register(sshtExperiment("ssht/high-48",
		"Figure 11: ssht hash table, 12 buckets × 48 entries (high contention), Mops/s", 12, 48))
	Register(sshtExperiment("ssht/low",
		"Figure 11: ssht hash table, 512 buckets × 12 entries (low contention), Mops/s", 512, 12))
	Register(sshtExperiment("ssht/low-48",
		"Figure 11: ssht hash table, 512 buckets × 48 entries (low contention), Mops/s", 512, 48))
}

// sshtSim is the hash table laid out in simulated memory: per bucket a
// lock, the packed key lines (8 keys per cache line) and one payload line
// per entry.
type sshtSim struct {
	m        *memsim.Machine
	nBuckets int
	entries  int
	locks    []simlocks.Lock
	keyLines [][]memsim.Addr
	payload  [][]memsim.Addr
}

func newSSHTSim(m *memsim.Machine, nBuckets, entries, node int, alg simlocks.Alg) *sshtSim {
	h := &sshtSim{
		m:        m,
		nBuckets: nBuckets,
		entries:  entries,
		locks:    make([]simlocks.Lock, nBuckets),
		keyLines: make([][]memsim.Addr, nBuckets),
		payload:  make([][]memsim.Addr, nBuckets),
	}
	opt := simlocks.DefaultOptions(m.Plat)
	nKeyLines := (entries + 7) / 8
	for b := 0; b < nBuckets; b++ {
		if alg != "" {
			h.locks[b] = simlocks.New(m, alg, node, opt)
		}
		h.keyLines[b] = make([]memsim.Addr, nKeyLines)
		for i := range h.keyLines[b] {
			h.keyLines[b][i] = m.AllocLine(node)
		}
		h.payload[b] = make([]memsim.Addr, entries)
		for i := range h.payload[b] {
			h.payload[b][i] = m.AllocLine(node)
		}
	}
	return h
}

// access performs the body of one operation on a bucket (without
// locking): traverse the keys to a position, then read and — for put and
// remove — write.
//
// op: 0 = get, 1 = put, 2 = remove.
func (h *sshtSim) access(t *memsim.Thread, b int, pos int, op int) {
	// Hashing the key and comparing along the traversal is real compute;
	// without it a single warm-cache thread is unrealistically fast and
	// the scalability ratios lose their meaning.
	t.Pause(60)
	// Traverse key lines up to the entry's line (cache-friendly layout:
	// ssht packs keys for prefetching).
	for i := 0; i <= pos/8; i++ {
		t.Load(h.keyLines[b][i])
		t.Pause(25) // compare the eight keys of the line
	}
	switch op {
	case 0: // get: read the payload
		t.LoadMulti(h.payload[b][pos], 8)
	case 1: // put: write the payload
		t.StoreMulti(h.payload[b][pos], 1, 2, 3, 4, 5, 6, 7, 8)
	case 2: // remove: unlink the key
		t.Store(h.keyLines[b][pos/8], uint64(pos))
	}
}

// opFor maps a random draw to the 80/10/10 get/put/remove mix.
func opFor(r uint64) int {
	switch {
	case r%10 < 8:
		return 0
	case r%10 == 8:
		return 1
	default:
		return 2
	}
}

// sshtLockRun measures the lock-based ssht throughput in Mops/s.
func sshtLockRun(p *arch.Platform, alg simlocks.Alg, nThreads, nBuckets, entries int, cfg Config) float64 {
	m := memsim.New(p)
	m.Opt.CostJitter = 0.15
	cores := p.PlaceThreads(nThreads)
	node := p.NodeOf(cores[0])
	h := newSSHTSim(m, nBuckets, entries, node, alg)
	// Warm-up horizon: see lockRun — the paper's runs are seconds long, so
	// the table is fully cached before measurement.
	warmup := uint64(nBuckets) * uint64(entries) * 300 / uint64(nThreads)
	if warmup > 1_500_000 {
		warmup = 1_500_000
	}
	if warmup < 10_000 {
		warmup = 10_000
	}
	m.SetDeadline(warmup + cfg.Deadline)
	ops := make([]uint64, nThreads)
	for ti, c := range cores {
		ti := ti
		rng := xrand.New(uint64(ti)*40503 + 7)
		m.Spawn(c, func(t *memsim.Thread) {
			t.Pause(rng.Uint64() % 4096) // de-lockstep the service order
			for !t.Done() {
				r := rng.Uint64()
				b := int(r % uint64(nBuckets))
				pos := int(r >> 32 % uint64(entries))
				h.locks[b].Acquire(t)
				h.access(t, b, pos, opFor(r>>16))
				h.locks[b].Release(t)
				if t.Now() > warmup {
					ops[ti]++
				}
				t.Pause(80) // client-local work between operations
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

// splitServers divides the threads of a message-passing run into servers
// and clients: one quarter serve ("one server per three cores"), and a
// single thread runs as one client with one server, as in the paper's
// footnote 10.
func splitServers(nThreads int) (servers, clients int) {
	servers = max(nThreads/4, 1)
	return servers, max(nThreads-servers, 1)
}

// sshtMPRun measures the message-passing ssht: servers own bucket ranges
// and execute operations on behalf of clients; every operation is a
// round-trip.
func sshtMPRun(p *arch.Platform, nThreads, nBuckets, entries int, cfg Config) float64 {
	nServers, nClients := splitServers(nThreads)
	m := memsim.New(p)
	cores := p.PlaceThreads(nServers + nClients)
	serverCores := cores[:nServers]
	clientCores := cores[nServers:]
	node := p.NodeOf(cores[0])
	h := newSSHTSim(m, nBuckets, entries, node, "") // no locks: servers own buckets
	net := simmp.NewNetwork(m, cores, simmp.DefaultOptions(m))
	warmup := uint64(nBuckets) * uint64(entries) * 100 / uint64(nClients)
	if warmup > 1_000_000 {
		warmup = 1_000_000
	}
	if warmup < 10_000 {
		warmup = 10_000
	}
	stop := warmup + cfg.Deadline

	ops := make([]uint64, nClients)
	for _, c := range serverCores {
		m.Spawn(c, func(t *memsim.Thread) {
			done := 0
			for done < nClients {
				from, msg := net.RecvAny(t)
				if msg.W[0] == poison {
					done++
					continue
				}
				b, pos, op := int(msg.W[1]), int(msg.W[2]), int(msg.W[3])
				h.access(t, b, pos, op)
				net.Send(t, from, simmp.Msg{W: [7]uint64{2}})
			}
		})
	}
	for ci, c := range clientCores {
		ci := ci
		rng := xrand.New(uint64(ci)*48611 + 3)
		m.Spawn(c, func(t *memsim.Thread) {
			t.Pause(rng.Uint64() % 4096) // de-lockstep the service order
			for t.Now() < stop {
				r := rng.Uint64()
				b := int(r % uint64(nBuckets))
				pos := int(r >> 32 % uint64(entries))
				op := opFor(r >> 16)
				server := serverCores[b%nServers]
				net.Call(t, server, simmp.Msg{W: [7]uint64{1, uint64(b), uint64(pos), uint64(op)}})
				if t.Now() > warmup {
					ops[ci]++
				}
				t.Pause(80)
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
	return p.MopsFrom(sum, stop-warmup)
}
