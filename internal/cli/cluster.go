package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"time"

	"ssync/internal/cluster"
	"ssync/internal/harness"
)

// ClusterMain implements `ssync cluster`: it spins up an N-node store
// cluster (every node a full wire server on the chosen shard engine and
// lock algorithm), drives it with the scenario engine through
// consistent-hash routed async clients, runs the same scenario against
// a single-node cluster as the baseline — both through
// harness.RunStore — and emits both, routed multi-node rows and the
// single-node baseline, from the one invocation through the standard
// JSON/CSV/table emitters.
func ClusterMain(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ssync cluster", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sf := addScenarioFlags(fs, 8, 4, 8, "shard engine per node (locked, actor, optimistic)")
	nodes := fs.Int("nodes", 4, "cluster node count")
	vnodes := fs.Int("vnodes", cluster.DefaultVnodes, "ring virtual points per node")
	resize := fs.Bool("resize", false, "measure a live resize (grow then shrink) under load instead of the throughput scenario")
	window := fs.Duration("window", 300*time.Millisecond, "with -resize: steady and post-resize measurement window")
	if code, ok := parseArgs(fs, argv); !ok {
		return code
	}
	set, err := sf.resolve(false)
	switch {
	case err != nil:
	case *nodes < 1:
		err = errors.New("-nodes must be at least 1")
	case *vnodes < 1:
		err = errors.New("-vnodes must be at least 1")
	case *window <= 0:
		err = errors.New("-window must be positive")
	}
	if err != nil {
		fmt.Fprintln(stderr, "ssync cluster:", err)
		return 2
	}
	eng, sc := set.engines[0], set.scenario

	// -resize: instead of the throughput scenario, measure a live
	// membership change — grow by one node, then retire an original
	// member — under continuous client load, and report what the
	// migration cost: steady vs dip throughput, recovery time, and the
	// blocking duration of the membership calls themselves.
	if *resize {
		experiment := fmt.Sprintf("migrate/%dx%s", *nodes, eng)
		res, err := harness.MigrateBench(harness.MigrateBenchConfig{
			Nodes:     *nodes,
			Vnodes:    *vnodes,
			Engine:    eng,
			Lock:      set.store.Lock,
			Shards:    set.store.Shards,
			Clients:   set.clients,
			Keys:      sc.Keys,
			Preload:   sc.Preload,
			ValueSize: sc.ValueSize,
			Steady:    *window,
			Remove:    *nodes > 1,
		})
		if err != nil {
			fmt.Fprintln(stderr, "ssync cluster:", err)
			return 1
		}
		fmt.Fprintf(stderr, "resize %d→%d nodes (%s engine): moved %d of %d keys, add %.1fms",
			*nodes, *nodes+1, eng, res.Moved, sc.Keys, res.AddMs)
		if *nodes > 1 {
			fmt.Fprintf(stderr, ", remove %.1fms", res.RemoveMs)
		}
		fmt.Fprintln(stderr)
		results := []harness.Result{
			oneResult(experiment, set.clients, "steady Kops/s", res.SteadyKops),
			oneResult(experiment, set.clients, "dip Kops/s", res.DipKops),
			oneResult(experiment, set.clients, "dip %", res.DipPct),
			oneResult(experiment, set.clients, "recovery ms", res.RecoveryMs),
			oneResult(experiment, set.clients, "add ms", res.AddMs),
		}
		if *nodes > 1 {
			results = append(results, oneResult(experiment, set.clients, "remove ms", res.RemoveMs))
		}
		return emit(stdout, stderr, "ssync cluster", set.emitter, results)
	}

	experiment := fmt.Sprintf("cluster/%dx%s", *nodes, eng)
	rig := harness.StoreRig{Store: set.store, Nodes: *nodes, Vnodes: *vnodes, Window: sc.Pipeline}
	rig.Store.Engine = eng
	over := fmt.Sprintf("routed wire (depth %d × batch %d), %s keys, mix %s",
		sc.Pipeline, sc.Batch, sc.Dist.Name(), sc.Mix)
	var results []harness.Result

	// The single-node baseline: the same scenario, engine, locks and
	// client shape against one node, from this same invocation — the row
	// every multi-node number is read against.
	if *nodes > 1 {
		base := rig
		base.Nodes = 1
		run, err := harness.RunStore(base, sc)
		if err != nil {
			fmt.Fprintln(stderr, "ssync cluster: single-node baseline:", err)
			return 1
		}
		report(stderr, run, over)
		results = append(results,
			oneResult(experiment, set.clients, "single-node baseline Kops/s", run.Steady().Kops()))
	}

	run, err := harness.RunStore(rig, sc)
	if err != nil {
		fmt.Fprintln(stderr, "ssync cluster:", err)
		return 1
	}
	report(stderr, run, over)
	results = append(results, summaryResults(experiment, set.clients, run.Phases)...)
	results = append(results, opsResults(experiment, set.clients, "node", run)...)
	return emit(stdout, stderr, "ssync cluster", set.emitter, results)
}
