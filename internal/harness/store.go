package harness

import (
	"fmt"
	"strings"

	"ssync/internal/cluster"
	"ssync/internal/locks"
	"ssync/internal/store"
	"ssync/internal/workload"
)

// This file holds RunStore, the one store-side driver: it builds a
// sharded store (internal/store) or an n-node cluster of them
// (internal/cluster), dials one transport, preloads, and runs a
// workload.Scenario while counting each shard's or node's ops. Every
// store-side family — store-engine/<engine>/<alg> (below) and
// cluster/<n>x<engine> (cluster.go) — and `ssync store` and `ssync
// cluster` measure through it; a baseline is the same call on a
// different rig.
//
// store-engine runs a zipfian 95:5 get/put mix against the same store
// twice — once through LocalConns, no wire ("direct"), and once through
// the length-prefixed wire protocol over the server's in-process conn
// ("wire") — so the grid shows both what the shard-lock choice costs
// and how much of it survives a real request path.

// StoreRig is the system side of a store-side measurement: what RunStore
// builds and how each client reaches it.
type StoreRig struct {
	// Store configures the store, or every node's store.
	Store store.Options
	// Nodes > 0 builds an n-node cluster, Vnodes ring points per node,
	// and dials routed clients. Nodes 0 builds one store.
	Nodes  int
	Vnodes int
	// Local dials in-process LocalConns instead of the wire (one store).
	Local bool
	// Window is each client's in-flight window. Over one store's wire,
	// 0 dials the lock-step Client and n ≥ 1 an AsyncClient; a routed
	// client keeps n per node (0: store.DefaultWindow).
	Window int
}

// StoreRun is what RunStore measured.
type StoreRun struct {
	// System describes what was built: the store's or cluster's String.
	System string
	// Phases are the scenario's phase results, steady last.
	Phases []workload.PhaseResult
	// Ops is each shard's op count (one store) or each node's (a
	// cluster) over the phases; the preload is not in it.
	Ops []uint64
}

// Steady is the last, measured phase.
func (r StoreRun) Steady() workload.PhaseResult { return r.Phases[len(r.Phases)-1] }

// OpsKops is each entry of Ops in Kops/s over the phases' wall time.
func (r StoreRun) OpsKops() []float64 {
	secs := 0.0
	for _, ph := range r.Phases {
		secs += ph.Duration.Seconds()
	}
	out := make([]float64, len(r.Ops))
	for i, n := range r.Ops {
		if secs > 0 {
			out[i] = float64(n) / secs / 1e3
		}
	}
	return out
}

// RunStore builds rig's store or cluster, dials rig's transport,
// preloads sc.Preload keys, snapshots the op counters, runs sc's phases
// and returns the phase results with the per-shard or per-node op
// deltas. The system is closed before it returns.
func RunStore(rig StoreRig, sc workload.Scenario) (StoreRun, error) {
	var (
		out    StoreRun
		stores []*store.Store
		dial   func(c int) store.BatchConn
	)
	if rig.Nodes > 0 {
		c := cluster.New(cluster.Options{Nodes: rig.Nodes, Vnodes: rig.Vnodes, Store: rig.Store})
		defer c.Close()
		for i := 0; i < rig.Nodes; i++ {
			stores = append(stores, c.Store(i))
		}
		dial = func(int) store.BatchConn { return c.Dial(rig.Window) }
		out.System = c.String()
	} else {
		st := store.New(rig.Store)
		defer st.Close()
		srv := store.NewServer(st, 2)
		stores = []*store.Store{st}
		switch {
		case rig.Local:
			dial = func(c int) store.BatchConn { return st.NewLocalConn(c % 2) }
		case rig.Window > 0:
			dial = func(int) store.BatchConn { return srv.PipeAsyncClient(rig.Window) }
		default:
			dial = func(int) store.BatchConn { return srv.PipeClient() }
		}
		out.System = st.String()
	}

	// Preload before the counter snapshot, so the op counts cover only
	// the measured phases.
	if sc.Preload > 0 {
		conn := store.Driver{C: dial(0)}
		err := workload.Preload(conn, sc.Preload, sc.ValueSize)
		if cerr := conn.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return out, fmt.Errorf("preload: %w", err)
		}
		sc.Preload = 0
	}
	before := opCounts(stores, rig.Nodes == 0)
	phases, err := workload.Run(sc, func(c int) (workload.PipeConn, error) {
		return store.Driver{C: dial(c)}, nil
	})
	out.Phases = phases
	if err != nil {
		return out, err
	}
	out.Ops = opCounts(stores, rig.Nodes == 0)
	for i := range out.Ops {
		out.Ops[i] -= before[i]
	}
	return out, nil
}

// opCounts is each shard's op count (perShard) or each store's total.
func opCounts(stores []*store.Store, perShard bool) []uint64 {
	var out []uint64
	for _, st := range stores {
		total := uint64(0)
		for _, c := range st.NewHandle(0).ShardStats() {
			if perShard {
				out = append(out, c.Total())
			}
			total += c.Total()
		}
		if !perShard {
			out = append(out, total)
		}
	}
	return out
}

// hostScenario is the scenario every registered store-side family runs:
// a 95:5 get/put mix over dist's keys, 2048 of them preloaded, a ramp
// and then s.Threads clients for a quarter of the native op count.
func hostScenario(s Shard, dist workload.Dist) workload.Scenario {
	ops := nativeOps(s.Config) / 4
	if ops < 200 {
		ops = 200
	}
	return workload.Scenario{
		Dist:    dist,
		Mix:     workload.Mix{Get: 95, Put: 5},
		Preload: 2048,
		Phases:  workload.RampSteady(s.Threads, ops),
	}
}

// steadyKops runs sc on rig and returns the steady phase's Kops/s.
func steadyKops(rig StoreRig, sc workload.Scenario) (float64, error) {
	r, err := RunStore(rig, sc)
	if err != nil {
		return 0, err
	}
	return r.Steady().Kops(), nil
}

// storeShards is the shard count of the registered experiments; small
// enough that zipfian traffic meaningfully contends the hot shards.
const storeShards = 16

// runEngineScenario runs the shared zipfian 95:5 scenario against a
// fresh store built from opt, once direct and once over the wire — the
// measurement body every store-engine experiment shares.
func runEngineScenario(s Shard, opt store.Options) ([]Sample, error) {
	var out []Sample
	for _, mode := range []string{"direct", "wire"} {
		kops, err := steadyKops(StoreRig{Store: opt, Local: mode == "direct"},
			hostScenario(s, workload.NewZipfian(4096, 0)))
		if err != nil {
			return nil, err
		}
		out = append(out, Sample{Metric: mode + " Kops/s", Value: kops})
	}
	return out, nil
}

func init() {
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
}
