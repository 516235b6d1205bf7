package cli

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"ssync/internal/harness"
	"ssync/internal/locks"
	"ssync/internal/stats"
	"ssync/internal/store"
	"ssync/internal/topo"
	"ssync/internal/workload"
)

// StoreMain implements `ssync store`: it builds a sharded KVS on the
// requested shard engine (locked, actor or optimistic — or all three in
// one comparison run) with the requested lock algorithm, serves it over
// the length-prefixed wire protocol on in-process pipe connections (or
// --local in-process handles), drives it with the scenario engine's
// ramp/steady phases, and emits the per-shard and total throughput
// through the harness emitters.
func StoreMain(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ssync store", flag.ContinueOnError)
	fs.SetOutput(stderr)
	alg := fs.String("alg", "ticket", "shard-lock algorithm (tas, ttas, ticket, array, mutex, mcs, clh, hclh, hticket)")
	engineSpec := fs.String("engine", "locked", "shard engine (locked, actor, optimistic), or all to compare every engine in one run")
	shards := fs.Int("shards", 16, "independently synchronized shards")
	buckets := fs.Int("buckets", 64, "buckets per shard")
	distSpec := fs.String("dist", "zipfian", "key distribution: uniform, zipfian, zipfian:<theta>")
	mixSpec := fs.String("mix", "95:5", "op mix get:put or get:put:scan percentages")
	clients := fs.Int("clients", 8, "steady-phase client connections")
	keys := fs.Uint64("keys", 16384, "key-space size")
	ops := fs.Int("ops", 20000, "steady-phase operations per client")
	valueSize := fs.Int("value", 64, "value size in bytes")
	scanLimit := fs.Int("scanlimit", 16, "entries per scan")
	preload := fs.Int("preload", -1, "keys preloaded before the run (-1 = half the key space)")
	seed := fs.Uint64("seed", 0, "workload RNG seed (0 = fixed default)")
	local := fs.Bool("local", false, "drive in-process handles instead of the wire protocol")
	placeSpec := fs.String("place", "none", "shard placement over the host topology (none, compact, scatter, auto)")
	batch := fs.Int("batch", 1, "ops per multi-op request (1 = scalar ops)")
	pipeline := fs.Int("pipeline", 1, "op groups each client keeps in flight (1 = lock-step)")
	jsonOut := fs.Bool("json", false, "emit JSON")
	csvOut := fs.Bool("csv", false, "emit CSV")
	if code, ok := parseArgs(fs, argv); !ok {
		return code
	}

	algorithm, err := lockAlgorithm(*alg)
	if err != nil {
		fmt.Fprintln(stderr, "ssync store:", err)
		return 2
	}
	allEngines := *engineSpec == "all"
	engines := store.Engines
	if !allEngines {
		eng, err := store.ParseEngine(*engineSpec)
		if err != nil {
			fmt.Fprintln(stderr, "ssync store:", err)
			return 2
		}
		engines = []store.Engine{eng}
	}
	dist, err := workload.ParseDist(*distSpec, *keys)
	if err != nil {
		fmt.Fprintln(stderr, "ssync store:", err)
		return 2
	}
	mix, err := workload.ParseMix(*mixSpec)
	if err != nil {
		fmt.Fprintln(stderr, "ssync store:", err)
		return 2
	}
	format := "table"
	switch {
	case *jsonOut && *csvOut:
		fmt.Fprintln(stderr, "ssync store: -json and -csv are mutually exclusive")
		return 2
	case *jsonOut:
		format = "json"
	case *csvOut:
		format = "csv"
	}
	emitter, _ := harness.EmitterFor(format)
	if *preload < 0 {
		*preload = int(*keys / 2)
	}
	if *batch < 1 {
		*batch = 1
	}
	if *batch > store.MaxBatchOps {
		fmt.Fprintf(stderr, "ssync store: -batch %d exceeds the wire limit of %d ops per frame\n",
			*batch, store.MaxBatchOps)
		return 2
	}
	if *pipeline < 1 {
		*pipeline = 1
	}
	pipelined := !*local && (*batch > 1 || *pipeline > 1)

	policy, err := topo.ParsePolicy(*placeSpec)
	if err != nil {
		fmt.Fprintln(stderr, "ssync store:", err)
		return 2
	}
	var placement *topo.Placement
	if policy.Pins() {
		placement = topo.NewPlacement(policy, nil) // nil: discover the host
		fmt.Fprintf(stderr, "placement: %s over %s\n", policy, placement.Topo)
	}

	opt := store.Options{
		Shards:     *shards,
		Buckets:    *buckets,
		Lock:       algorithm,
		MaxThreads: *clients + 2,
		Placement:  placement,
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

	// experimentFor names a row set by the harness id of the same run:
	// store-engine/<engine>/<alg>, with the lock-free actor engine
	// dropping the meaningless lock suffix.
	experimentFor := func(eng store.Engine) string {
		if eng == store.EngineActor {
			return "store-engine/actor"
		}
		return fmt.Sprintf("store-engine/%s/%s", eng, strings.ToLower(string(algorithm)))
	}

	// runOne builds a fresh store on eng, preloads it, runs the scenario
	// and shapes the result rows (per-shard rows only when a single
	// engine is shown — an all-engine table keeps to the totals).
	runOne := func(eng store.Engine) ([]harness.Result, bool) {
		o := opt
		o.Engine = eng
		st := store.New(o)
		defer st.Close()
		srv := store.NewServer(st, 2)
		dial := func(c int) (workload.Conn, error) {
			switch {
			case *local:
				return store.Driver{C: st.NewLocalConn(c % 2)}, nil
			case pipelined:
				return store.Driver{C: srv.PipeAsyncClient(*pipeline)}, nil
			default:
				return store.Driver{C: srv.PipeClient()}, nil
			}
		}
		// Preload before the counter snapshot, so per-shard throughput
		// reflects only the measured phases.
		if *preload > 0 {
			c, err := dial(0)
			if err == nil {
				err = workload.Preload(c, *preload, *valueSize)
				c.Close()
			}
			if err != nil {
				fmt.Fprintf(stderr, "ssync store: %s preload: %v\n", eng, err)
				return nil, false
			}
		}
		mon := st.NewHandle(0)
		before := mon.ShardStats()
		phases, err := workload.Run(scenario, dial)
		after := mon.ShardStats()
		if err != nil {
			fmt.Fprintf(stderr, "ssync store: %s: %v\n", eng, err)
			return nil, false
		}

		transport := "wire"
		switch {
		case *local:
			transport = "local"
		case pipelined:
			transport = fmt.Sprintf("pipelined wire (depth %d × batch %d)", *pipeline, *batch)
		}
		fmt.Fprintf(stderr, "%s over %s, %s keys, mix %s:\n", st, transport, dist.Name(), mix)
		var total time.Duration
		for _, ph := range phases {
			fmt.Fprintln(stderr, " ", ph)
			total += ph.Duration
		}
		experiment := experimentFor(eng)
		if allEngines {
			return summaryResults(experiment, *clients, phases), true
		}
		return shardResults(experiment, *clients, phases, before, after, total), true
	}

	var results []harness.Result

	// A single-engine pipelined run carries its own lock-step baseline:
	// the same scenario over one-in-flight wire clients against a fresh
	// store, so the emitted table shows what depth×batch bought on this
	// exact engine/alg/shard config. (All-mode compares engines instead.)
	if pipelined && !allEngines {
		o := opt
		o.Engine = engines[0]
		base := store.New(o)
		baseSrv := store.NewServer(base, 2)
		baseDial := func(c int) (workload.Conn, error) {
			return store.Driver{C: baseSrv.PipeClient()}, nil
		}
		baseScenario := scenario
		baseScenario.Batch, baseScenario.Pipeline = 1, 1
		baseScenario.Preload = *preload
		basePhases, err := workload.Run(baseScenario, baseDial)
		base.Close()
		if err != nil {
			fmt.Fprintln(stderr, "ssync store: lock-step baseline:", err)
			return 1
		}
		baseSteady := basePhases[len(basePhases)-1]
		fmt.Fprintf(stderr, "%s over wire (lock-step baseline):\n", base)
		for _, ph := range basePhases {
			fmt.Fprintln(stderr, " ", ph)
		}
		results = append(results,
			oneResult(experimentFor(engines[0]), *clients, "lockstep wire Kops/s", baseSteady.Kops()))
	}

	for _, eng := range engines {
		rows, ok := runOne(eng)
		if !ok {
			return 1
		}
		results = append(results, rows...)
	}
	if err := emitter.Emit(stdout, results); err != nil {
		fmt.Fprintln(stderr, "ssync store:", err)
		return 1
	}
	return 0
}

// oneResult shapes a single measurement into a harness result row.
func oneResult(experiment string, clients int, metric string, v float64) harness.Result {
	var o stats.Online
	o.Add(v)
	return harness.Result{
		Experiment: experiment,
		Platform:   harness.Native,
		Threads:    clients,
		Metric:     metric,
		Stats:      o.Summary(),
	}
}

// summaryResults shapes the steady-phase totals (no per-shard rows).
func summaryResults(experiment string, clients int, phases []workload.PhaseResult) []harness.Result {
	steady := phases[len(phases)-1]
	results := []harness.Result{oneResult(experiment, clients, "total Kops/s", steady.Kops())}
	if steady.Hits+steady.Misses > 0 {
		results = append(results, oneResult(experiment, clients, "hit %",
			100*float64(steady.Hits)/float64(steady.Hits+steady.Misses)))
	}
	return results
}

// shardResults shapes the run into harness results: steady-phase totals
// plus per-shard throughput over the whole run, one metric per shard.
func shardResults(experiment string, clients int, phases []workload.PhaseResult,
	before, after []store.Counters, total time.Duration) []harness.Result {
	results := summaryResults(experiment, clients, phases)
	secs := total.Seconds()
	for i := range after {
		delta := after[i].Sub(before[i])
		kops := 0.0
		if secs > 0 {
			kops = float64(delta.Total()) / secs / 1e3
		}
		results = append(results, oneResult(experiment, clients, fmt.Sprintf("shard%02d Kops/s", i), kops))
	}
	return results
}

// lockAlgorithm resolves a case-insensitive algorithm name.
func lockAlgorithm(name string) (locks.Algorithm, error) {
	for _, alg := range locks.All {
		if strings.EqualFold(string(alg), name) {
			return alg, nil
		}
	}
	return "", fmt.Errorf("unknown lock algorithm %q (have %v)", name, locks.All)
}
