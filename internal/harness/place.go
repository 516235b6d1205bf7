package harness

import (
	"fmt"

	"ssync/internal/arch"
	"ssync/internal/topo"
)

// This file registers place/model, the arch-model half of the paper's
// locality result: the sweep cost of each shard-placement policy on
// every paper machine model. It stays meaningful on any host, where a
// measured placement row would need a machine with two or more LLC
// domains (DESIGN §5.7).

// placeShards is the shard count of the model — enough shards that a
// multi-domain assignment has real structure (several shards per
// domain on every paper model).
const placeShards = 16

func init() {
	// place/model: the sweep-cost estimate of each pinning policy on
	// every paper machine model, in that machine's CAS cycles: compact
	// must come out at or below scatter on every model.
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
