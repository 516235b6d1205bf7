package harness

import (
	"ssync/internal/arch"
	"ssync/internal/memsim"
	"ssync/internal/simlocks"
	"ssync/internal/simmp"
	"ssync/internal/xrand"
)

// The §5.3 ablations of the design choices DESIGN.md calls out: each
// measurement with the mechanism on and off, so a run quantifies how much
// of the reproduced behaviour each mechanism carries.

func init() {
	Register(Def{
		ID: "ablations",
		Doc: "§5.3 ablations on the Opteron, each mechanism on and off: line serialisation and probe filter " +
			"(Mops/s), prefetchw (cycles/round-trip), ticket back-off (cycles/op)",
		On:   []string{"Opteron"},
		Grid: func(string) []int { return []int{24} },
		Runner: func(s Shard) ([]Sample, error) {
			p, err := model(s)
			if err != nil {
				return nil, err
			}
			n, cfg := s.Threads, s.Config
			return []Sample{
				{Metric: "line serialisation on", Value: contentionRun(p, n, true, cfg)},
				{Metric: "line serialisation off", Value: contentionRun(p, n, false, cfg)},
				{Metric: "incomplete probe filter on", Value: probeFilterRun(p, n, false, cfg)},
				{Metric: "incomplete probe filter off", Value: probeFilterRun(p, n, true, cfg)},
				{Metric: "mp prefetchw on", Value: mpPrefetchwRun(p, true, cfg)},
				{Metric: "mp prefetchw off", Value: mpPrefetchwRun(p, false, cfg)},
				{Metric: "ticket back-off on", Value: ticketLatency(p, simlocks.Options{TicketBackoff: true}, n, cfg)},
				{Metric: "ticket back-off off", Value: ticketLatency(p, simlocks.Options{}, n, cfg)},
			}, nil
		},
	})
}

// contentionRun measures single-location FAI throughput (Mops/s) with or
// without per-line transaction serialisation. Without it, contention
// costs vanish and the multi-socket collapse disappears — showing the
// serialisation model carries the paper's headline behaviour.
func contentionRun(p *arch.Platform, nThreads int, serialise bool, cfg Config) float64 {
	m := memsim.New(p)
	m.Opt.NoContention = !serialise
	m.Opt.CostJitter = 0.15
	target := m.AllocLine(p.NodeOf(0))
	m.SetDeadline(cfg.Deadline)
	cores := p.PlaceThreads(nThreads)
	ops := make([]uint64, nThreads)
	for ti, c := range cores {
		ti := ti
		rng := xrand.New(uint64(ti) + 77)
		m.Spawn(c, func(t *memsim.Thread) {
			t.Pause(rng.Uint64() % 4096)
			for !t.Done() {
				t.FAI(target)
				ops[ti]++
				t.Pause(200)
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

// probeFilterRun measures ticket-lock throughput (Mops/s) on the Opteron's
// incomplete probe filter as built or on an idealised complete directory.
// The paper's §5.3 problem (and the reason prefetchw pays off) lives
// entirely in this gap.
func probeFilterRun(p *arch.Platform, nThreads int, complete bool, cfg Config) float64 {
	m := memsim.New(p)
	m.Opt.CompleteDirectory = complete
	m.Opt.CostJitter = 0.15
	l := simlocks.New(m, simlocks.TICKET, 0, simlocks.Options{TicketBackoff: true})
	data := m.AllocLine(0)
	m.SetDeadline(cfg.Deadline)
	cores := p.PlaceThreads(nThreads)
	ops := make([]uint64, nThreads)
	for ti, c := range cores {
		ti := ti
		rng := xrand.New(uint64(ti) + 3)
		m.Spawn(c, func(t *memsim.Thread) {
			t.Pause(rng.Uint64() % 4096)
			for !t.Done() {
				l.Acquire(t)
				t.Store(data, t.Load(data)+1)
				l.Release(t)
				ops[ti]++
				t.Pause(100)
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

// mpPrefetchwRun measures the message-passing round-trip latency between
// cores 0 and 24 with or without the §5.3 prefetchw optimization (the
// paper: up to 2.5× faster with it on the Opteron).
func mpPrefetchwRun(p *arch.Platform, prefetchw bool, cfg Config) float64 {
	m := memsim.New(p)
	net := simmp.NewNetwork(m, []int{0, 24}, simmp.Options{Prefetchw: prefetchw})
	n := cfg.LatencyOps
	m.Spawn(0, func(t *memsim.Thread) {
		for i := 0; i < n; i++ {
			net.Call(t, 24, simmp.Msg{W: [7]uint64{1}})
		}
	})
	m.Spawn(24, func(t *memsim.Thread) {
		for i := 0; i < n; i++ {
			from, msg := net.RecvAny(t)
			net.Send(t, from, msg)
		}
	})
	return float64(m.Run()) / float64(n)
}
