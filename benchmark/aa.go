package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// gate is one end-to-end metric's entry in BENCHMARK.json: the direction
// that is better and the share of the parent's median it may worsen by.
type gate struct {
	name   string
	higher bool
	bound  float64
}

// gates mirrors BENCHMARK.json's end_to_end list; TestBenchmarkJSON keeps
// the two in step.
var gates = []gate{
	{"throughput_kops", true, 0.25},
	{"latency_p50_us", false, 0.25},
	{"latency_p95_us", false, 0.25},
	{"allocs_per_op", false, 0.02},
	{"alloc_bytes_per_op", false, 0.02},
	{"live_heap_mb", false, 0.10},
	{"setup_s", false, 0.25},
}

// runAA is the repeatability check the benchmark is accepted on: 2n runs
// of the same code per workload, each its own process with its own seed,
// dealt alternately into sets A and B. Per workload × metric it prints
// each set's median and quartiles, the spread of all 2n runs (distance
// between the quartiles over the median) and how much worse B's median is
// than A's, both against the metric's bound.
func runAA(todo []spec, n int, seed uint64, seconds int, quick bool, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for i := 0; i < 2*n; i++ {
		for _, sp := range todo {
			args := []string{"-workload", sp.Name, "-seed", strconv.FormatUint(seed+uint64(i), 10), "-seconds", strconv.Itoa(seconds)}
			if quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: run %d of %s: %v\n", i, sp.Name, err)
				return 1
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var line struct {
				Metrics map[string]struct{ Value float64 }
			}
			if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
				fmt.Fprintf(stderr, "benchmark: run %d of %s: result line: %v\n", i, sp.Name, err)
				return 1
			}
			for name, m := range line.Metrics {
				k := key{sp.Name, name}
				sets[i%2][k] = append(sets[i%2][k], m.Value)
			}
			fmt.Fprintf(stderr, "aa: run %d/%d of %s: %s\n", i+1, 2*n, sp.Name, lines[len(lines)-1])
		}
	}

	code := 0
	fmt.Fprintf(stdout, "| workload | metric | A median [q1, q3] | B median [q1, q3] | spread of all | B worse than A | bound | |\n|---|---|---|---|---|---|---|---|\n")
	for _, sp := range todo {
		for _, g := range gates {
			a, b := sets[0][key{sp.Name, g.name}], sets[1][key{sp.Name, g.name}]
			qa, qb, qall := quartiles(a), quartiles(b), quartiles(append(append([]float64(nil), a...), b...))
			spread := (qall[2] - qall[0]) / qall[1]
			worse := (qb[1] - qa[1]) / qa[1]
			if g.higher {
				worse = -worse
			}
			verdict := "ok"
			if worse > g.bound || (g.name != "setup_s" && spread > g.bound) {
				verdict, code = "OUT OF BOUND", 1
			}
			fmt.Fprintf(stdout, "| %s | %s | %.5g [%.5g, %.5g] | %.5g [%.5g, %.5g] | %.2f%% | %+.2f%% | %.0f%% | %s |\n",
				sp.Name, g.name, qa[1], qa[0], qa[2], qb[1], qb[0], qb[2], 100*spread, 100*worse, 100*g.bound, verdict)
		}
	}
	return code
}

// quartiles returns the first quartile, the median and the third quartile
// exactly as Python's statistics.quantiles(v, n=4) computes them (the
// exclusive method), which is the rule the benchmark is accepted under.
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := range q {
		j := min(max((i+1)*(n+1)/4, 1), n-1)
		delta := float64((i+1)*(n+1) - j*4)
		q[i] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}
