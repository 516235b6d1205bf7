package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"

	"ssync/internal/harness"
	"ssync/internal/locks"
	"ssync/internal/stats"
	"ssync/internal/store"
	"ssync/internal/workload"
)

// StoreMain implements `ssync store`: it builds a sharded KVS on the
// requested shard engine (locked, actor or optimistic — or all three in
// one comparison run) with the requested lock algorithm, serves it over
// the length-prefixed wire protocol on in-process pipe connections (or
// --local in-process handles), drives it with the scenario engine's
// ramp/steady phases through harness.RunStore, and emits the per-shard
// and total throughput through the harness emitters.
func StoreMain(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ssync store", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sf := addScenarioFlags(fs, 16, 1, 1,
		"shard engine (locked, actor, optimistic), or all to compare every engine in one run")
	buckets := fs.Int("buckets", 64, "buckets per shard")
	local := fs.Bool("local", false, "drive in-process handles instead of the wire protocol")
	if code, ok := parseArgs(fs, argv); !ok {
		return code
	}
	set, err := sf.resolve(true)
	if err == nil && *buckets < 1 {
		err = errors.New("-buckets must be at least 1")
	}
	if err != nil {
		fmt.Fprintln(stderr, "ssync store:", err)
		return 2
	}

	rig := harness.StoreRig{Store: set.store, Local: *local}
	rig.Store.Buckets = *buckets
	sc := set.scenario
	transport := "wire"
	switch {
	case *local:
		transport = "local"
	case sc.Batch > 1 || sc.Pipeline > 1:
		rig.Window = sc.Pipeline
		transport = fmt.Sprintf("pipelined wire (depth %d × batch %d)", sc.Pipeline, sc.Batch)
	}
	allEngines := len(set.engines) > 1

	// experimentFor names a row set by the harness id of the same run:
	// store-engine/<engine>/<alg>, with the lock-free actor engine
	// dropping the meaningless lock suffix.
	experimentFor := func(eng store.Engine) string {
		if eng == store.EngineActor {
			return "store-engine/actor"
		}
		return fmt.Sprintf("store-engine/%s/%s", eng, strings.ToLower(string(set.store.Lock)))
	}

	var results []harness.Result
	// Per-shard rows only when a single engine is shown — an all-engine
	// table keeps to the totals.
	for _, eng := range set.engines {
		rig.Store.Engine = eng
		run, err := harness.RunStore(rig, sc)
		if err != nil {
			fmt.Fprintf(stderr, "ssync store: %s: %v\n", eng, err)
			return 1
		}
		report(stderr, run, fmt.Sprintf("%s, %s keys, mix %s", transport, sc.Dist.Name(), sc.Mix))
		results = append(results, summaryResults(experimentFor(eng), set.clients, run.Phases)...)
		if !allEngines {
			results = append(results, opsResults(experimentFor(eng), set.clients, "shard", run)...)
		}
	}
	return emit(stdout, stderr, "ssync store", set.emitter, results)
}

// scenarioFlags are the flags `ssync store` and `ssync cluster` share:
// the store (each node's store), the scenario and the output format.
type scenarioFlags struct {
	alg, engine, dist, mix                                           *string
	shards, clients, ops, value, scanLimit, preload, batch, pipeline *int
	keys, seed                                                       *uint64
	jsonOut, csvOut                                                  *bool
}

// addScenarioFlags defines the shared flags on fs. The two commands
// differ only in the shard, batch and pipeline defaults and in what
// -engine takes.
func addScenarioFlags(fs *flag.FlagSet, shards, batch, pipeline int, engineUsage string) *scenarioFlags {
	return &scenarioFlags{
		alg:       fs.String("alg", "ticket", "shard-lock algorithm (tas, ttas, ticket, array, mutex, mcs, clh, hclh, hticket)"),
		engine:    fs.String("engine", "locked", engineUsage),
		shards:    fs.Int("shards", shards, "shards per store (cluster: per node)"),
		dist:      fs.String("dist", "zipfian", "key distribution: uniform, zipfian, zipfian:<theta>"),
		mix:       fs.String("mix", "95:5", "op mix get:put or get:put:scan percentages"),
		clients:   fs.Int("clients", 8, "steady-phase client connections"),
		keys:      fs.Uint64("keys", 16384, "key-space size"),
		ops:       fs.Int("ops", 20000, "steady-phase operations per client"),
		value:     fs.Int("value", 64, "value size in bytes"),
		scanLimit: fs.Int("scanlimit", 16, "entries per scan"),
		preload:   fs.Int("preload", -1, "keys preloaded before the run (-1 = half the key space)"),
		seed:      fs.Uint64("seed", 0, "workload RNG seed (0 = fixed default)"),
		batch:     fs.Int("batch", batch, "ops per op group (1 = scalar ops)"),
		pipeline:  fs.Int("pipeline", pipeline, "op groups each client keeps in flight (1 = lock-step)"),
		jsonOut:   fs.Bool("json", false, "emit JSON"),
		csvOut:    fs.Bool("csv", false, "emit CSV"),
	}
}

// scenarioSetup is what the shared flags resolve to.
type scenarioSetup struct {
	engines  []store.Engine    // one, or every engine for -engine all
	store    store.Options     // shards, lock and MaxThreads; no engine
	scenario workload.Scenario // preload resolved
	clients  int
	emitter  harness.Emitter
}

// resolve validates the shared flags; every error is a usage error
// (exit 2). allowAll admits -engine all.
func (f *scenarioFlags) resolve(allowAll bool) (scenarioSetup, error) {
	set := scenarioSetup{engines: store.Engines, clients: *f.clients}
	lock, err := lockAlgorithm(*f.alg)
	if err != nil {
		return set, err
	}
	if !allowAll || *f.engine != "all" {
		eng, err := store.ParseEngine(*f.engine)
		if err != nil {
			return set, err
		}
		set.engines = []store.Engine{eng}
	}
	switch {
	case *f.keys < 1:
		return set, errors.New("-keys must be at least 1")
	case *f.clients < 1:
		return set, errors.New("-clients must be at least 1")
	case *f.ops < 1:
		return set, errors.New("-ops must be at least 1")
	case *f.shards < 1:
		return set, errors.New("-shards must be at least 1")
	case *f.value < 1:
		return set, errors.New("-value must be at least 1")
	case *f.scanLimit < 1:
		return set, errors.New("-scanlimit must be at least 1")
	case *f.preload < -1:
		return set, errors.New("-preload must be at least -1 (half the key space)")
	case *f.batch < 1:
		return set, errors.New("-batch must be at least 1")
	case *f.pipeline < 1:
		return set, errors.New("-pipeline must be at least 1")
	case *f.value > store.MaxValueLen:
		return set, fmt.Errorf("-value %d exceeds the wire limit of %d bytes", *f.value, store.MaxValueLen)
	case *f.batch > store.MaxBatchOps:
		return set, fmt.Errorf("-batch %d exceeds the wire limit of %d ops per frame", *f.batch, store.MaxBatchOps)
	}
	dist, err := workload.ParseDist(*f.dist, *f.keys)
	if err != nil {
		return set, err
	}
	mix, err := workload.ParseMix(*f.mix)
	if err != nil {
		return set, err
	}
	if set.emitter, err = emitterFor(*f.jsonOut, *f.csvOut); err != nil {
		return set, err
	}
	preload := *f.preload
	if preload < 0 {
		preload = int(*f.keys / 2)
	}
	set.store = store.Options{Shards: *f.shards, Lock: lock, MaxThreads: *f.clients + 2}
	set.scenario = workload.Scenario{
		Dist:      dist,
		Keys:      *f.keys,
		Mix:       mix,
		ValueSize: *f.value,
		ScanLimit: *f.scanLimit,
		Preload:   preload,
		Phases:    workload.RampSteady(*f.clients, *f.ops),
		Seed:      *f.seed,
		Batch:     *f.batch,
		Pipeline:  *f.pipeline,
	}
	return set, nil
}

// report prints a run's system, how it was driven and its phases.
func report(w io.Writer, run harness.StoreRun, over string) {
	fmt.Fprintf(w, "%s over %s:\n", run.System, over)
	for _, ph := range run.Phases {
		fmt.Fprintln(w, " ", ph)
	}
}

// emit writes results in the chosen format; a write error exits 1.
func emit(stdout, stderr io.Writer, cmd string, e harness.Emitter, results []harness.Result) int {
	if err := e.Emit(stdout, results); err != nil {
		fmt.Fprintln(stderr, cmd+":", err)
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

// opsResults shapes each shard's or node's throughput over the whole
// run into one <unit>NN Kops/s row each.
func opsResults(experiment string, clients int, unit string, run harness.StoreRun) []harness.Result {
	var results []harness.Result
	for i, kops := range run.OpsKops() {
		results = append(results, oneResult(experiment, clients, fmt.Sprintf("%s%02d Kops/s", unit, i), kops))
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
