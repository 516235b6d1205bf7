package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"runtime"

	"ssync/internal/harness"
)

// RunMain implements `ssync run [experiments...] [flags]`: it resolves
// the experiment patterns against the registry, executes the
// experiment × platform × thread-count grid on the sharded runner and
// emits the aggregated results.
func RunMain(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ssync run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	platforms := fs.String("platform", "", "comma-separated platforms (default: each experiment's own list)")
	threads := fs.String("threads", "", "comma-separated thread counts (default: each experiment's grid)")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "worker-pool size executing shards")
	reps := fs.Int("reps", 1, "measured repetitions per shard")
	warmup := fs.Int("warmup", 1, "discarded warm-up repetitions per shard")
	deadline := fs.Uint64("deadline", 0, "simulated cycles per configuration (0 = default)")
	latencyOps := fs.Int("latencyops", 0, "operations per latency measurement (0 = default)")
	jsonOut := fs.Bool("json", false, "emit JSON")
	csvOut := fs.Bool("csv", false, "emit CSV")
	patterns, err := parseInterleaved(fs, argv)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	exps, err := harness.Default.Match(patterns)
	if err != nil {
		fmt.Fprintln(stderr, "ssync run:", err)
		return 2
	}
	opt := harness.Options{
		Parallel: *parallel,
		Reps:     *reps,
		Warmup:   *warmup,
		Config:   harness.Config{Deadline: *deadline, LatencyOps: *latencyOps},
	}
	if *platforms != "" {
		opt.Platforms = splitList(*platforms)
	}
	if *threads != "" {
		opt.Threads, err = intList(*threads)
		if err != nil {
			fmt.Fprintln(stderr, "ssync run: bad -threads:", err)
			return 2
		}
	}
	format := "table"
	switch {
	case *jsonOut && *csvOut:
		fmt.Fprintln(stderr, "ssync run: -json and -csv are mutually exclusive")
		return 2
	case *jsonOut:
		format = "json"
	case *csvOut:
		format = "csv"
	}
	emitter, _ := harness.EmitterFor(format)

	results, err := harness.Run(exps, opt)
	if err != nil {
		fmt.Fprintln(stderr, "ssync run:", err)
		if errors.Is(err, harness.ErrGrid) {
			return 2
		}
		if results == nil {
			return 1
		}
		// Partial results still emit; the error sets the exit status.
	}
	if emitErr := emitter.Emit(stdout, results); emitErr != nil {
		fmt.Fprintln(stderr, "ssync run:", emitErr)
		return 1
	}
	if err != nil {
		return 1
	}
	return 0
}

// ListMain implements `ssync list`.
func ListMain(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ssync list", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if code, ok := parseArgs(fs, argv); !ok {
		return code
	}
	for _, e := range harness.Default.Experiments() {
		fmt.Fprintf(stdout, "%-16s %s\n", e.Name(), e.Description())
		fmt.Fprintf(stdout, "%-16s platforms: %v\n", "", e.Platforms())
	}
	return 0
}
