package harness

import (
	"fmt"
	"strings"

	"ssync/internal/locks"
	"ssync/internal/store"
	"ssync/internal/workload"
)

// This file registers the sharded key-value store (internal/store) as
// families of experiments: store/<alg> on the default shard engine,
// store-engine/<engine>/<alg> for each shard engine and lock algorithm
// (store-engine/locked/tas, .../ticket, ...), and store-pipe/<alg>. The
// store and store-engine runs drive the scenario engine
// (internal/workload) with a zipfian 95:5 get/put mix against the same
// store twice — once through LocalConns, no wire ("direct"), and once
// through the length-prefixed wire protocol over the server's in-process
// conn ("wire") — so the grid shows both what the shard-lock choice
// costs and how much of it survives a real request path.

// storeShards is the shard count of the registered experiments; small
// enough that zipfian traffic meaningfully contends the hot shards.
const storeShards = 16

// storePipeGrid is the depth×batch sweep of the store-pipe experiments:
// the lock-step scalar baseline, pipelining alone, batching alone, and
// both together — the four corners that show which lever pays where.
var storePipeGrid = []struct{ depth, batch int }{
	{1, 1}, {16, 1}, {1, 8}, {16, 8},
}

// runEngineScenario runs the shared zipfian 95:5 scenario against a
// fresh store built from opt, once direct and once over the wire — the
// measurement body every store-engine experiment shares.
func runEngineScenario(s Shard, opt store.Options) ([]Sample, error) {
	ops := nativeOps(s.Config) / 4
	if ops < 200 {
		ops = 200
	}
	var out []Sample
	for _, mode := range []string{"direct", "wire"} {
		st := store.New(opt)
		srv := store.NewServer(st, 2)
		dial := func(c int) (workload.PipeConn, error) {
			if mode == "direct" {
				return store.Driver{C: st.NewLocalConn(c % 2)}, nil
			}
			return store.Driver{C: srv.PipeClient()}, nil
		}
		scenario := workload.Scenario{
			Dist:    workload.NewZipfian(4096, 0),
			Mix:     workload.Mix{Get: 95, Put: 5},
			Preload: 2048,
			Phases:  workload.RampSteady(s.Threads, ops),
		}
		results, err := workload.Run(scenario, dial)
		st.Close()
		if err != nil {
			return nil, err
		}
		steady := results[len(results)-1]
		out = append(out, Sample{Metric: mode + " Kops/s", Value: steady.Kops()})
	}
	return out, nil
}

func init() {
	// store/<alg>: the store on its default shard engine (locked), one
	// experiment per lock algorithm.
	for _, alg := range locks.All {
		alg := alg
		Register(Def{
			ID: "store/" + strings.ToLower(string(alg)),
			Doc: "host: sharded KVS with " + string(alg) +
				" shard locks, zipfian 95:5 scenario, direct and wire Kops/s",
			On: []string{Native},
			Runner: func(s Shard) ([]Sample, error) {
				return runEngineScenario(s, store.Options{
					Shards:     storeShards,
					Lock:       alg,
					MaxThreads: s.Threads + 2,
				})
			},
		})
	}

	// store-engine/<engine>[/<alg>]: the paper's paradigm comparison run
	// end-to-end — the same store, scenario and wire protocol executed by
	// each shard engine. locked and optimistic sweep the lock algorithm
	// (the optimistic engine's writers still serialize through it); the
	// actor engine has no locks, so it registers once. Together with the
	// harness's thread sweep this is the engine × lock × threads grid.
	for _, eng := range []store.Engine{store.EngineLocked, store.EngineOptimistic} {
		eng := eng
		for _, alg := range locks.All {
			alg := alg
			Register(Def{
				ID: fmt.Sprintf("store-engine/%s/%s", eng, strings.ToLower(string(alg))),
				Doc: fmt.Sprintf("host: sharded KVS on the %s shard engine with %s locks, "+
					"zipfian 95:5 scenario, direct and wire Kops/s", eng, alg),
				On: []string{Native},
				Runner: func(s Shard) ([]Sample, error) {
					return runEngineScenario(s, store.Options{
						Shards:     storeShards,
						Engine:     eng,
						Lock:       alg,
						MaxThreads: s.Threads + 2,
					})
				},
			})
		}
	}
	Register(Def{
		ID: "store-engine/actor",
		Doc: "host: sharded KVS on the actor shard engine (goroutine-per-shard mailboxes, " +
			"no locks), zipfian 95:5 scenario, direct and wire Kops/s",
		On: []string{Native},
		Runner: func(s Shard) ([]Sample, error) {
			return runEngineScenario(s, store.Options{
				Shards: storeShards,
				Engine: store.EngineActor,
			})
		},
	})

	// store-pipe/<alg>: the same store behind the multiplexed async
	// client, sweeping pipeline depth × batch size. The d1×b1 corner is
	// the lock-step wire baseline in async clothing; the far corner shows
	// what amortizing messages (batch frames) and overlapping round trips
	// (the in-flight window) buy on top of the shard-lock choice.
	for _, alg := range locks.All {
		alg := alg
		Register(Def{
			ID: "store-pipe/" + strings.ToLower(string(alg)),
			Doc: "host: sharded KVS with " + string(alg) +
				" shard locks behind the pipelined wire client, depth×batch sweep Kops/s",
			On: []string{Native},
			Runner: func(s Shard) ([]Sample, error) {
				ops := nativeOps(s.Config) / 4
				if ops < 200 {
					ops = 200
				}
				var out []Sample
				for _, cell := range storePipeGrid {
					st := store.New(store.Options{
						Shards:     storeShards,
						Lock:       alg,
						MaxThreads: s.Threads + 2,
					})
					srv := store.NewServer(st, 2)
					dial := func(c int) (workload.PipeConn, error) {
						return store.Driver{C: srv.PipeAsyncClient(cell.depth)}, nil
					}
					scenario := workload.Scenario{
						Dist:     workload.NewZipfian(4096, 0),
						Mix:      workload.Mix{Get: 95, Put: 5},
						Preload:  2048,
						Phases:   workload.RampSteady(s.Threads, ops),
						Batch:    cell.batch,
						Pipeline: cell.depth,
					}
					results, err := workload.Run(scenario, dial)
					if err != nil {
						return nil, err
					}
					steady := results[len(results)-1]
					out = append(out, Sample{
						Metric: fmt.Sprintf("d%02d×b%02d Kops/s", cell.depth, cell.batch),
						Value:  steady.Kops(),
					})
				}
				return out, nil
			},
		})
	}
}
