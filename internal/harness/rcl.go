package harness

import (
	"ssync/internal/arch"
	"ssync/internal/memsim"
	"ssync/internal/simlocks"
	"ssync/internal/simmp"
	"ssync/internal/xrand"
)

// This file validates the paper's §7 discussion of Remote Core Locking
// (RCL [26]) on the simulator: replacing "lock, execute, unlock" with a
// remote procedure call to a dedicated server hides contention behind
// messages and lets the server access the protected data locally — but
// "the scope of this solution is limited to high contention and a large
// number of cores", which the crossover in this experiment exhibits.

func init() {
	Register(Def{
		ID:  "rcl/hot",
		Doc: "§7 Remote Core Locking: one hot critical section, best spin lock vs RCL, Mops/s",
		Runner: func(s Shard) ([]Sample, error) {
			p, err := model(s)
			if err != nil {
				return nil, err
			}
			best := 0.0
			for _, alg := range []simlocks.Alg{simlocks.TICKET, simlocks.CLH, simlocks.MCS} {
				if v := lockRun(p, alg, s.Threads, 1, s.Config); v > best {
					best = v
				}
			}
			return []Sample{
				{Metric: "best-lock", Value: best},
				{Metric: "rcl", Value: rclRun(p, s.Threads, s.Config)},
			}, nil
		},
	})
}

// rclRun dedicates core 0 as the RCL server: clients ship the critical
// section as a one-line message; the server performs the read-modify-write
// locally and replies.
func rclRun(p *arch.Platform, nThreads int, cfg Config) float64 {
	if nThreads < 2 {
		nThreads = 2 // RCL needs a server and at least one client
	}
	m := memsim.New(p)
	m.Opt.CostJitter = 0.15
	cores := p.PlaceThreads(nThreads)
	server := cores[0]
	clients := cores[1:]
	net := simmp.NewNetwork(m, cores, simmp.DefaultOptions(m))
	data := m.AllocLine(p.NodeOf(server))
	stop := cfg.Deadline

	var served uint64
	m.Spawn(server, func(t *memsim.Thread) {
		done := 0
		for done < len(clients) {
			from, msg := net.RecvAny(t)
			if msg.W[0] == poison {
				done++
				continue
			}
			// The critical section, executed locally at the server.
			t.Store(data, t.Load(data)+1)
			net.Send(t, from, simmp.Msg{W: [7]uint64{1}})
			if t.Now() <= stop {
				served++
			}
		}
	})
	for ci, c := range clients {
		rng := xrand.New(uint64(ci)*131 + 17)
		m.Spawn(c, func(t *memsim.Thread) {
			t.Pause(rng.Uint64() % 4096)
			for t.Now() < stop {
				net.Call(t, server, simmp.Msg{W: [7]uint64{1}})
				t.Pause(100)
			}
			net.Send(t, server, simmp.Msg{W: [7]uint64{poison}})
		})
	}
	m.Run()
	return p.MopsFrom(served, stop)
}
