package harness

import (
	"ssync/internal/arch"
	"ssync/internal/ccbench"
	"ssync/internal/memsim"
	"ssync/internal/simmp"
)

// This file reproduces the message-passing experiments of §5.5 on the
// simulator: Figure 9 (one-to-one latency by distance) and Figure 10
// (client-server throughput).

func init() {
	Register(Def{
		ID:   "mp/pair",
		Doc:  "Figure 9: one-to-one message passing by distance, cycles",
		Grid: func(string) []int { return []int{2} },
		Runner: func(s Shard) ([]Sample, error) {
			p, err := model(s)
			if err != nil {
				return nil, err
			}
			var out []Sample
			for _, class := range ccbench.ReportClasses(p) {
				b := pickAtClass(p, 0, class)
				if b < 0 {
					continue
				}
				out = append(out,
					Sample{Metric: "one-way " + p.DistNames[class], Value: mpOneWay(p, 0, b, s.Config)},
					Sample{Metric: "round-trip " + p.DistNames[class], Value: mpRoundTrip(p, 0, b, s.Config)})
			}
			return out, nil
		},
	})

	Register(Def{
		ID:   "mp/clientserver",
		Doc:  "Figure 10: client-server message passing (threads = clients + 1 server), Mops/s",
		Grid: clientServerThreads,
		Runner: func(s Shard) ([]Sample, error) {
			p, err := model(s)
			if err != nil {
				return nil, err
			}
			if s.Threads < 2 {
				return nil, nil // needs one server and at least one client
			}
			ow, rt := clientServer(p, s.Threads-1, s.Config)
			return []Sample{{Metric: "one-way", Value: ow}, {Metric: "round-trip", Value: rt}}, nil
		},
	})
}

// clientServerThreads is Figure 10's x-axis — 1, 2, 5 and then every
// fifth client count below the core count — plus the server thread.
func clientServerThreads(platform string) []int {
	p := arch.ByName(platform)
	if p == nil {
		return DefaultThreads(platform)
	}
	out := []int{2, 3, 6}
	for n := 10; n < p.NumCores; n += 5 {
		out = append(out, n+1)
	}
	return out
}

// mpOneWay measures one-way message latency: each message carries its
// send timestamp and the receiver averages arrival minus send. (On the
// Tilera's pipelined hardware network, per-message *throughput* cost is
// far below the flight latency; the paper's Figure 9 reports latency.)
func mpOneWay(p *arch.Platform, a, b int, cfg Config) float64 {
	m := memsim.New(p)
	net := simmp.NewNetwork(m, []int{a, b}, simmp.DefaultOptions(m))
	n := cfg.LatencyOps
	var total uint64
	m.Spawn(a, func(t *memsim.Thread) {
		for i := 0; i < n; i++ {
			net.Send(t, b, simmp.Msg{W: [7]uint64{t.Now()}})
			// Pace the stream so each latency sample is independent.
			t.Pause(200)
		}
	})
	m.Spawn(b, func(t *memsim.Thread) {
		for i := 0; i < n; i++ {
			msg := net.Recv(t, a)
			total += t.Now() - msg.W[0]
		}
	})
	m.Run()
	return float64(total) / float64(n)
}

// mpRoundTrip measures the per-call cost of request-response ping-pong.
func mpRoundTrip(p *arch.Platform, a, b int, cfg Config) float64 {
	m := memsim.New(p)
	net := simmp.NewNetwork(m, []int{a, b}, simmp.DefaultOptions(m))
	n := cfg.LatencyOps
	m.Spawn(a, func(t *memsim.Thread) {
		for i := 0; i < n; i++ {
			net.Call(t, b, simmp.Msg{W: [7]uint64{uint64(i)}})
		}
	})
	m.Spawn(b, func(t *memsim.Thread) {
		for i := 0; i < n; i++ {
			from, msg := net.RecvAny(t)
			net.Send(t, from, msg)
		}
	})
	cycles := m.Run()
	return float64(cycles) / float64(n)
}

// poison is the message word clients use to announce they are finished;
// the server exits once every client has said goodbye, so no thread is
// ever left parked on an unserved buffer.
const poison = ^uint64(0)

// clientServer measures total message throughput with one server and
// nClients clients, in both modes.
func clientServer(p *arch.Platform, nClients int, cfg Config) (oneWay, roundTrip float64) {
	for mode := 0; mode < 2; mode++ {
		m := memsim.New(p)
		cores := p.PlaceThreads(nClients + 1)
		net := simmp.NewNetwork(m, cores, simmp.DefaultOptions(m))
		server := cores[0]
		stop := cfg.Deadline
		var served uint64
		m.Spawn(server, func(t *memsim.Thread) {
			done := 0
			for done < nClients {
				from, msg := net.RecvAny(t)
				if msg.W[0] == poison {
					done++
					continue
				}
				if mode == 1 {
					net.Send(t, from, msg)
				}
				if t.Now() <= stop {
					served++
				}
			}
		})
		for _, c := range cores[1:] {
			c := c
			m.Spawn(c, func(t *memsim.Thread) {
				for t.Now() < stop {
					if mode == 1 {
						net.Call(t, server, simmp.Msg{W: [7]uint64{1}})
					} else {
						net.Send(t, server, simmp.Msg{W: [7]uint64{1}})
					}
				}
				net.Send(t, server, simmp.Msg{W: [7]uint64{poison}})
			})
		}
		m.Run()
		mops := p.MopsFrom(served, stop)
		if mode == 0 {
			oneWay = mops
		} else {
			roundTrip = mops
		}
	}
	return oneWay, roundTrip
}
