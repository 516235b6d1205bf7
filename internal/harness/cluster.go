package harness

import (
	"fmt"

	"ssync/internal/locks"
	"ssync/internal/store"
	"ssync/internal/workload"
)

// This file registers the multi-node cluster (internal/cluster) as a
// family of experiments: cluster/<n>x<engine> runs the scenario engine
// against an n-node cluster of stores on the given shard engine, routed
// by the consistent-hash ring through per-node async windows, and sweeps
// the key-distribution skew — uniform vs zipfian — because skew is what
// separates a balanced cluster from one node carrying the hot head.
// The n=1 rows are the single-node baseline the multi-node rows are
// read against.

// clusterNodeCounts is the node-count sweep of the registered cluster
// experiments.
var clusterNodeCounts = []int{1, 2, 4}

// clusterSkews is the skew sweep: one sample per distribution.
var clusterSkews = []string{"uniform", "zipfian"}

// runClusterScenario measures one node-count × engine cell across the
// skew sweep: a fresh cluster per distribution, batched pipelined
// routed clients, steady-phase Kops/s per skew.
func runClusterScenario(s Shard, nodes int, eng store.Engine) ([]Sample, error) {
	var out []Sample
	for _, skew := range clusterSkews {
		dist, err := workload.ParseDist(skew, 4096)
		if err != nil {
			return nil, err
		}
		sc := hostScenario(s, dist)
		sc.Batch, sc.Pipeline = 4, 8
		kops, err := steadyKops(StoreRig{
			Store: store.Options{
				Shards:     8,
				Engine:     eng,
				Lock:       locks.TICKET,
				MaxThreads: s.Threads + 2,
			},
			Nodes:  nodes,
			Window: 8,
		}, sc)
		if err != nil {
			return nil, err
		}
		out = append(out, Sample{Metric: skew + " Kops/s", Value: kops})
	}
	return out, nil
}

func init() {
	for _, nodes := range clusterNodeCounts {
		for _, eng := range store.Engines {
			nodes, eng := nodes, eng
			Register(Def{
				ID: fmt.Sprintf("cluster/%dx%s", nodes, eng),
				Doc: fmt.Sprintf("host: %d-node store cluster on the %s engine, "+
					"consistent-hash routed pipelined clients, uniform vs zipfian Kops/s", nodes, eng),
				On: []string{Native},
				Runner: func(s Shard) ([]Sample, error) {
					return runClusterScenario(s, nodes, eng)
				},
			})
		}
	}
}
