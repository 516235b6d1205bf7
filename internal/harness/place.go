package harness

import (
	"fmt"

	"ssync/internal/arch"
	"ssync/internal/store"
	"ssync/internal/topo"
	"ssync/internal/workload"
)

// This file registers the placement experiments behind PR 9's
// topology-aware shard placement: place/<engine> measures what each
// placement policy buys on the discovered host, and place/model
// reports the arch-model cost estimate that orders the policies even
// when the host is a single LLC domain and the measured rows honestly
// read as parity.

// placeShards is the shard count of the placement experiments — enough
// shards that a multi-domain assignment has real structure (several
// shards per domain on every paper model).
const placeShards = 16

// placePolicies is the swept policy axis. auto is omitted: it resolves
// to one of the others, so it would only duplicate a row.
var placePolicies = []topo.Policy{topo.PolicyNone, topo.PolicyCompact, topo.PolicyScatter}

// runPlacedScenario measures one engine under one policy × distribution
// over the wire (the wire path is where conn-goroutine pinning lives).
func runPlacedScenario(s Shard, eng store.Engine, pl *topo.Placement, dist workload.Dist) (float64, error) {
	ops := nativeOps(s.Config) / 4
	if ops < 200 {
		ops = 200
	}
	st := store.New(store.Options{
		Shards:     placeShards,
		Engine:     eng,
		MaxThreads: s.Threads + 2,
		Placement:  pl,
	})
	defer st.Close()
	srv := store.NewServer(st, 2)
	scenario := workload.Scenario{
		Dist:    dist,
		Mix:     workload.Mix{Get: 95, Put: 5},
		Preload: 2048,
		Phases:  workload.RampSteady(s.Threads, ops),
		Batch:   4,
	}
	results, err := workload.Run(scenario, func(int) (workload.PipeConn, error) {
		return store.Driver{C: srv.PipeAsyncClient(4)}, nil
	})
	if err != nil {
		return 0, err
	}
	return results[len(results)-1].Kops(), nil
}

func init() {
	// place/<engine>: the measured half — every policy × balanced and
	// skewed keys on this engine, over the discovered host topology.
	for _, eng := range store.Engines {
		eng := eng
		Register(Def{
			ID: "place/" + string(eng),
			Doc: fmt.Sprintf("host: %s engine under each shard-placement policy "+
				"(none, compact, scatter) × uniform/zipfian keys, wire Kops/s", eng),
			On: []string{Native},
			Runner: func(s Shard) ([]Sample, error) {
				var out []Sample
				for _, pol := range placePolicies {
					var pl *topo.Placement
					if pol.Pins() {
						pl = topo.NewPlacement(pol, nil) // nil: discover the host
					}
					for _, dist := range []workload.Dist{
						workload.NewUniform(4096),
						workload.NewZipfian(4096, 0),
					} {
						kops, err := runPlacedScenario(s, eng, pl, dist)
						if err != nil {
							return nil, err
						}
						out = append(out, Sample{
							Metric: fmt.Sprintf("%s/%s Kops/s", pol, dist.Name()),
							Value:  kops,
						})
					}
				}
				return out, nil
			},
		})
	}

	// place/model: the modeled half — the sweep-cost estimate of each
	// pinning policy on every paper machine model, in that machine's CAS
	// cycles. This is the row set that stays meaningful on single-domain
	// CI hosts: compact must come out at or below scatter on every model.
	Register(Def{
		ID: "place/model",
		Doc: "model: per-sweep coherence cost of compact vs scatter shard placement " +
			"on each paper machine model, CAS cycles",
		On: []string{Native},
		Runner: func(Shard) ([]Sample, error) {
			models := append(arch.All(), arch.Opteron2(), arch.Xeon2())
			var out []Sample
			for _, p := range models {
				t := topo.FromPlatform(p)
				for _, pol := range []topo.Policy{topo.PolicyCompact, topo.PolicyScatter} {
					pl := topo.NewPlacement(pol, t)
					cost := topo.EstimateCost(t, pl.ShardDomains(placeShards), pl.VisitOrder(placeShards))
					out = append(out, Sample{
						Metric: fmt.Sprintf("%s %s cycles/sweep", p.Name, pol),
						Value:  float64(cost),
					})
				}
			}
			return out, nil
		},
	})
}
