// Command benchmark is the repository's layered benchmark for the
// client→cluster→wire→engine path: four named closed-loop workloads, seven
// end-to-end metrics each at nominal host speed, and a traced run that
// attributes them to layers. README.md has the tables; BENCHMARK.json at
// the repository root is the contract it is run under.
//
//	bash benchmark/run.sh                                  # all four workloads
//	bash benchmark/run.sh -workload engine-hot-rw          # one
//	bash benchmark/run.sh -workload engine-hot-rw -trace 1 # its per-layer metrics
//	bash benchmark/run.sh -aa 5                            # repeatability table
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "run only this workload (default: all four)")
		seed     = fs.Uint64("seed", 0xb5eed, "seed the clients' op streams derive from")
		seconds  = fs.Int("seconds", 25, "seconds of measuring per workload: segments of 1 s of load + one calibration slice")
		trace    = fs.Int("trace", 0, "1 = the traced run: per-layer metrics from a one-client replay of a fixed op count")
		traceOut = fs.String("trace-out", "", "with -trace 1: directory to write the spans to as JSON lines (default: not written)")
		asJSON   = fs.Bool("json", false, "add the diagnostics and every segment's raw Kops and speed index to each result line")
		aa       = fs.Int("aa", 0, "repeatability mode: run two interleaved sets of N untraced runs per workload, each run its own process and seed")
		quick    = fs.Bool("quick", false, "smoke use only: 0.1 s segments, short traced streams; the numbers mean nothing")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || *trace < 0 || *trace > 1 || *aa < 0 {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -h")
		return 2
	}
	todo := specs
	if *name != "" {
		sp, ok := findSpec(*name)
		if !ok {
			names := make([]string, len(specs))
			for i, s := range specs {
				names[i] = s.Name
			}
			fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
			return 2
		}
		todo = []spec{sp}
	}
	if *aa > 0 {
		return runAA(todo, *aa, *seed, *seconds, *quick, stdout, stderr)
	}

	cfg := defaultConfig(*seconds, *quick)
	cfg.Seed, cfg.TraceOut = *seed, *traceOut
	runOne := runLoad
	if *trace == 1 {
		runOne = runTrace
	}
	code := 0
	for _, sp := range todo {
		res, err := runOne(sp, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", sp.Name, err)
			return 1
		}
		if res.Failed > 0 {
			fmt.Fprintf(stderr, "benchmark: %s: %d of %d ops failed; first: %v\n", sp.Name, res.Failed, res.Attempted, res.Err)
			code = 1
		}
		if err := report(stdout, res, *asJSON); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	return code
}

// report prints one line per metric — workload, metric, value, unit — and
// then the run's result as one JSON object, which is the last line of a
// single-workload run.
func report(w io.Writer, res result, full bool) error {
	for _, m := range append(append([]metric(nil), res.Metrics...), res.Diagnostics...) {
		if _, err := fmt.Fprintf(w, "%s %s %.6g %s\n", res.Workload, m.Name, m.Value, m.Unit); err != nil {
			return err
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	toMap := func(ms []metric) map[string]value {
		out := make(map[string]value, len(ms))
		for _, m := range ms {
			out[m.Name] = value{m.Value, m.Unit}
		}
		return out
	}
	line := struct {
		Workload    string           `json:"workload,omitempty"`
		Correct     bool             `json:"correct"`
		Attempted   uint64           `json:"attempted"`
		Failed      uint64           `json:"failed"`
		Metrics     map[string]value `json:"metrics"`
		Diagnostics map[string]value `json:"diagnostics,omitempty"`
		Segments    []segment        `json:"segments,omitempty"`
		Setups      []float64        `json:"setups_s,omitempty"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: toMap(res.Metrics)}
	if full {
		line.Workload, line.Diagnostics, line.Segments, line.Setups = res.Workload, toMap(res.Diagnostics), res.Segments, res.Setups
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}
