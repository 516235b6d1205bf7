package cli

import (
	"flag"
	"fmt"
	"io"
	"time"

	"ssync/internal/cluster"
	"ssync/internal/harness"
	"ssync/internal/store"
	"ssync/internal/topo"
	"ssync/internal/workload"
)

// ClusterMain implements `ssync cluster`: it spins up an N-node store
// cluster (every node a full wire server on the chosen shard engine and
// lock algorithm), drives it with the scenario engine through
// consistent-hash routed async clients, runs the same scenario against
// a single-node cluster as the baseline, and emits both — routed
// multi-node rows and the single-node baseline — from the one
// invocation through the standard JSON/CSV/table emitters.
func ClusterMain(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ssync cluster", flag.ContinueOnError)
	fs.SetOutput(stderr)
	nodes := fs.Int("nodes", 4, "cluster node count")
	vnodes := fs.Int("vnodes", cluster.DefaultVnodes, "ring virtual points per node")
	engineSpec := fs.String("engine", "locked", "shard engine per node (locked, actor, optimistic)")
	alg := fs.String("alg", "ticket", "shard-lock algorithm (tas, ttas, ticket, array, mutex, mcs, clh, hclh, hticket)")
	shards := fs.Int("shards", 8, "shards per node")
	distSpec := fs.String("dist", "zipfian", "key distribution: uniform, zipfian, zipfian:<theta>")
	mixSpec := fs.String("mix", "95:5", "op mix get:put or get:put:scan percentages")
	clients := fs.Int("clients", 8, "steady-phase client connections")
	keys := fs.Uint64("keys", 16384, "key-space size")
	ops := fs.Int("ops", 20000, "steady-phase operations per client")
	valueSize := fs.Int("value", 64, "value size in bytes")
	scanLimit := fs.Int("scanlimit", 16, "entries per scan")
	preload := fs.Int("preload", -1, "keys preloaded before the run (-1 = half the key space)")
	seed := fs.Uint64("seed", 0, "workload RNG seed (0 = fixed default)")
	batch := fs.Int("batch", 4, "ops per routed op group (1 = scalar ops)")
	pipeline := fs.Int("pipeline", 8, "op groups each client keeps in flight (1 = lock-step)")
	placeSpec := fs.String("place", "none", "shard placement per node over the host topology (none, compact, scatter, auto); nodes stripe across the host's memory nodes")
	resize := fs.Bool("resize", false, "measure a live resize (grow then shrink) under load instead of the throughput scenario")
	window := fs.Duration("window", 300*time.Millisecond, "with -resize: steady and post-resize measurement window")
	jsonOut := fs.Bool("json", false, "emit JSON")
	csvOut := fs.Bool("csv", false, "emit CSV")
	if code, ok := parseArgs(fs, argv); !ok {
		return code
	}

	if *nodes < 1 {
		fmt.Fprintln(stderr, "ssync cluster: -nodes must be at least 1")
		return 2
	}
	algorithm, err := lockAlgorithm(*alg)
	if err != nil {
		fmt.Fprintln(stderr, "ssync cluster:", err)
		return 2
	}
	eng, err := store.ParseEngine(*engineSpec)
	if err != nil {
		fmt.Fprintln(stderr, "ssync cluster:", err)
		return 2
	}
	dist, err := workload.ParseDist(*distSpec, *keys)
	if err != nil {
		fmt.Fprintln(stderr, "ssync cluster:", err)
		return 2
	}
	mix, err := workload.ParseMix(*mixSpec)
	if err != nil {
		fmt.Fprintln(stderr, "ssync cluster:", err)
		return 2
	}
	format := "table"
	switch {
	case *jsonOut && *csvOut:
		fmt.Fprintln(stderr, "ssync cluster: -json and -csv are mutually exclusive")
		return 2
	case *jsonOut:
		format = "json"
	case *csvOut:
		format = "csv"
	}
	emitter, _ := harness.EmitterFor(format)
	policy, err := topo.ParsePolicy(*placeSpec)
	if err != nil {
		fmt.Fprintln(stderr, "ssync cluster:", err)
		return 2
	}
	if policy.Pins() {
		fmt.Fprintf(stderr, "placement: %s, nodes striped over %s\n", policy, topo.Discover())
	}
	if *preload < 0 {
		*preload = int(*keys / 2)
	}
	if *batch < 1 {
		*batch = 1
	}
	if *batch > store.MaxBatchOps {
		fmt.Fprintf(stderr, "ssync cluster: -batch %d exceeds the wire limit of %d ops per frame\n",
			*batch, store.MaxBatchOps)
		return 2
	}
	if *pipeline < 1 {
		*pipeline = 1
	}

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
			Lock:      algorithm,
			Shards:    *shards,
			Clients:   *clients,
			Keys:      *keys,
			Preload:   *preload,
			ValueSize: *valueSize,
			Steady:    *window,
			Remove:    *nodes > 1,
		})
		if err != nil {
			fmt.Fprintln(stderr, "ssync cluster:", err)
			return 1
		}
		fmt.Fprintf(stderr, "resize %d→%d nodes (%s engine): moved %d of %d keys, add %.1fms",
			*nodes, *nodes+1, eng, res.Moved, *keys, res.AddMs)
		if *nodes > 1 {
			fmt.Fprintf(stderr, ", remove %.1fms", res.RemoveMs)
		}
		fmt.Fprintln(stderr)
		results := []harness.Result{
			oneResult(experiment, *clients, "steady Kops/s", res.SteadyKops),
			oneResult(experiment, *clients, "dip Kops/s", res.DipKops),
			oneResult(experiment, *clients, "dip %", res.DipPct),
			oneResult(experiment, *clients, "recovery ms", res.RecoveryMs),
			oneResult(experiment, *clients, "add ms", res.AddMs),
		}
		if *nodes > 1 {
			results = append(results, oneResult(experiment, *clients, "remove ms", res.RemoveMs))
		}
		if err := emitter.Emit(stdout, results); err != nil {
			fmt.Fprintln(stderr, "ssync cluster:", err)
			return 1
		}
		return 0
	}

	experiment := fmt.Sprintf("cluster/%dx%s", *nodes, eng)
	storeOpt := store.Options{
		Shards:     *shards,
		Engine:     eng,
		Lock:       algorithm,
		MaxThreads: *clients + 2,
	}
	scenario := workload.Scenario{
		Dist:      dist,
		Keys:      *keys,
		Mix:       mix,
		ValueSize: *valueSize,
		ScanLimit: *scanLimit,
		Phases:    workload.RampSteady(*clients, *ops),
		Seed:      *seed,
		Batch:     *batch,
		Pipeline:  *pipeline,
	}

	// runOne builds a fresh n-node cluster, preloads it through a routed
	// client, runs the scenario and returns the phase results plus the
	// per-node operation-count deltas over the measured window.
	runOne := func(n int) ([]workload.PhaseResult, []uint64, time.Duration, error) {
		c := cluster.New(cluster.Options{Nodes: n, Vnodes: *vnodes, Store: storeOpt, Place: policy})
		defer c.Close()
		dial := func(int) (workload.PipeConn, error) {
			return store.Driver{C: c.Dial(*pipeline)}, nil
		}
		if *preload > 0 {
			conn, err := dial(0)
			if err == nil {
				err = workload.Preload(conn, *preload, *valueSize)
				conn.Close()
			}
			if err != nil {
				return nil, nil, 0, fmt.Errorf("preload: %w", err)
			}
		}
		before := make([]uint64, n)
		for i := 0; i < n; i++ {
			before[i] = nodeOps(c.Store(i))
		}
		phases, err := workload.Run(scenario, dial)
		if err != nil {
			return nil, nil, 0, err
		}
		deltas := make([]uint64, n)
		for i := 0; i < n; i++ {
			deltas[i] = nodeOps(c.Store(i)) - before[i]
		}
		var total time.Duration
		fmt.Fprintf(stderr, "%s over routed wire (depth %d × batch %d), %s keys, mix %s:\n",
			c, *pipeline, *batch, dist.Name(), mix)
		for _, ph := range phases {
			fmt.Fprintln(stderr, " ", ph)
			total += ph.Duration
		}
		return phases, deltas, total, nil
	}

	var results []harness.Result

	// The single-node baseline: the same scenario, engine, locks and
	// client shape against one node, from this same invocation — the row
	// every multi-node number is read against.
	if *nodes > 1 {
		basePhases, _, _, err := runOne(1)
		if err != nil {
			fmt.Fprintln(stderr, "ssync cluster: single-node baseline:", err)
			return 1
		}
		baseSteady := basePhases[len(basePhases)-1]
		results = append(results,
			oneResult(experiment, *clients, "single-node baseline Kops/s", baseSteady.Kops()))
	}

	phases, deltas, total, err := runOne(*nodes)
	if err != nil {
		fmt.Fprintln(stderr, "ssync cluster:", err)
		return 1
	}
	results = append(results, summaryResults(experiment, *clients, phases)...)
	secs := total.Seconds()
	for i, d := range deltas {
		kops := 0.0
		if secs > 0 {
			kops = float64(d) / secs / 1e3
		}
		results = append(results, oneResult(experiment, *clients, fmt.Sprintf("node%02d Kops/s", i), kops))
	}
	if err := emitter.Emit(stdout, results); err != nil {
		fmt.Fprintln(stderr, "ssync cluster:", err)
		return 1
	}
	return 0
}

// nodeOps sums a node store's operation counters across its shards.
func nodeOps(st *store.Store) uint64 {
	h := st.NewHandle(0)
	total := uint64(0)
	for _, c := range h.ShardStats() {
		total += c.Total()
	}
	return total
}
