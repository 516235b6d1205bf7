package cli

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// runMain invokes the dispatcher and returns stdout, stderr and the exit
// code.
func runMain(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := Main(args, &out, &errb)
	return out.String(), errb.String(), code
}

// result mirrors the harness JSON schema the CLI emits.
type result struct {
	Experiment string `json:"experiment"`
	Platform   string `json:"platform"`
	Threads    int    `json:"threads"`
	Metric     string `json:"metric"`
	Stats      struct {
		N    uint64  `json:"n"`
		Mean float64 `json:"mean"`
	} `json:"stats"`
}

// TestRunParallelJSON is the acceptance check: one ssync binary runs a
// registered experiment over a platform × thread grid with sharded
// parallel execution and machine-readable JSON output.
func TestRunParallelJSON(t *testing.T) {
	out, errOut, code := runMain(t,
		"run", "locks/single",
		"-platform", "xeon", "-threads", "1,2,10",
		"-parallel", "8", "-reps", "2", "-warmup", "0",
		"-deadline", "20000", "-latencyops", "8", "-json")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	var results []result
	if err := json.Unmarshal([]byte(out), &results); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out)
	}
	threads := map[int]bool{}
	for _, r := range results {
		if r.Experiment != "locks/single" || r.Platform != "Xeon" {
			t.Fatalf("unexpected result %+v", r)
		}
		if r.Stats.N != 2 {
			t.Fatalf("reps not aggregated: %+v", r)
		}
		threads[r.Threads] = true
	}
	for _, n := range []int{1, 2, 10} {
		if !threads[n] {
			t.Errorf("thread count %d missing from the grid", n)
		}
	}
}

// TestRunParallelMatchesSequential: the simulator is deterministic, so
// the worker-pool size must not change the emitted bytes.
func TestRunParallelMatchesSequential(t *testing.T) {
	args := []string{"run", "ticket/variants", "-threads", "1,6",
		"-deadline", "20000", "-latencyops", "8", "-warmup", "0", "-json"}
	seq, _, code := runMain(t, append(args, "-parallel", "1")...)
	if code != 0 {
		t.Fatal("sequential run failed")
	}
	par, _, code := runMain(t, append(args, "-parallel", "6")...)
	if code != 0 {
		t.Fatal("parallel run failed")
	}
	if seq != par {
		t.Fatal("parallel and sequential runs emitted different bytes")
	}
}

func TestRunCSVAndTable(t *testing.T) {
	csvOut, _, code := runMain(t, "run", "tm/high", "-platform", "Tilera", "-threads", "2",
		"-deadline", "20000", "-warmup", "0", "-csv")
	if code != 0 {
		t.Fatal("csv run failed")
	}
	if !strings.HasPrefix(csvOut, "experiment,platform,threads,metric,") {
		t.Fatalf("missing CSV header: %s", csvOut)
	}
	if !strings.Contains(csvOut, "tm/high,Tilera,2,locks,") {
		t.Fatalf("missing CSV row: %s", csvOut)
	}
	tblOut, _, code := runMain(t, "run", "tm/high", "-platform", "Tilera", "-threads", "2",
		"-deadline", "20000", "-warmup", "0")
	if code != 0 {
		t.Fatal("table run failed")
	}
	for _, want := range []string{"tm/high", "Tilera", "threads", "locks", "mp"} {
		if !strings.Contains(tblOut, want) {
			t.Errorf("table output missing %q", want)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if _, _, code := runMain(t, "run", "no/such"); code == 0 {
		t.Error("unknown experiment must fail")
	}
	if _, _, code := runMain(t, "run", "locks/single", "-platform", "PDP-11"); code == 0 {
		t.Error("unknown platform must fail")
	}
	if _, _, code := runMain(t, "run", "locks/single", "-json", "-csv"); code == 0 {
		t.Error("-json -csv must fail")
	}
	// A simulated experiment restricted to a platform it does not cover
	// must fail loudly, not emit an empty result set.
	if out, _, code := runMain(t, "run", "locks/single", "-platform", "native"); code == 0 {
		t.Errorf("empty experiment×platform intersection must fail, got output %q", out)
	}
	// A thread count no shard can run is a usage error caught before any
	// shard starts: below 1 anywhere, above the model's core count on a
	// simulated platform.
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"locks/single", "-platform", "Tilera", "-threads", "200"}, "locks/single on Tilera: 200 threads, the model has 36 cores"},
		{[]string{"locks/single", "-platform", "Tilera", "-threads", "0"}, "locks/single on Tilera: 0 threads"},
		{[]string{"locks/single", "-platform", "Tilera", "-threads", "-3"}, "locks/single on Tilera: -3 threads"},
		{[]string{"mp/pair", "-platform", "Xeon", "-threads", "1,81"}, "mp/pair on Xeon: 81 threads, the model has 80 cores"},
		{[]string{"ssht/", "-platform", "Opteron", "-threads", "49"}, "on Opteron: 49 threads, the model has 48 cores"},
		{[]string{"native/locks", "-threads", "0"}, "native/locks on native: 0 threads"},
	} {
		out, errOut, code := runMain(t, append([]string{"run"}, c.args...)...)
		if code != 2 || out != "" || !strings.Contains(errOut, c.want) {
			t.Errorf("run %v: exit %d, stdout %q, stderr %q; want exit 2, no output, %q", c.args, code, out, errOut, c.want)
		}
	}
}

func TestHelpExitsZero(t *testing.T) {
	for _, args := range [][]string{{"run", "-h"}, {"list", "-h"}, {"topology", "-h"}} {
		if _, _, code := runMain(t, args...); code != 0 {
			t.Errorf("%v exited %d, want 0", args, code)
		}
	}
}

func TestList(t *testing.T) {
	out, _, code := runMain(t, "list")
	if code != 0 {
		t.Fatal("list failed")
	}
	for _, want := range []string{"locks/single", "native/ssht", "kvs/set", "platforms:"} {
		if !strings.Contains(out, want) {
			t.Errorf("list output missing %q", want)
		}
	}
}

func TestDispatcher(t *testing.T) {
	help, _, code := runMain(t, "help")
	if code != 0 {
		t.Error("help must succeed")
	}
	// Deleted subcommands are as unknown as any typo: benchmark/run.sh is
	// the only perf instrument (`bench`), and every table and figure is an
	// experiment of `ssync run` (the legacy per-figure tools).
	for _, name := range []string{"bench", "figures", "lockbench", "ccbench", "mpbench", "sshtbench", "tmbench", "kvbench"} {
		if strings.Contains(help, "\n  "+name+" ") {
			t.Errorf("help still lists the deleted %s command:\n%s", name, help)
		}
		if _, errOut, code := runMain(t, name); code != 2 || !strings.Contains(errOut, "unknown command") {
			t.Errorf("ssync %s: exit %d, stderr %q; want 2 with \"unknown command\"", name, code, errOut)
		}
	}
	if _, errOut, code := runMain(t, "no-such-tool"); code != 2 || !strings.Contains(errOut, "unknown command") {
		t.Error("unknown command must exit 2 with a message")
	}
	if _, _, code := runMain(t); code != 2 {
		t.Error("no arguments must exit 2")
	}
}

// TestLegacyToolsStillWork drives topology, the one retired binary that
// is not an experiment, through the dispatcher, its only route.
func TestLegacyToolsStillWork(t *testing.T) {
	out, errOut, code := runMain(t, "topology", "-platform", "Tilera")
	if code != 0 || !strings.Contains(out, "Tilera — 36 cores") {
		t.Errorf("topology: exit %d, %s%s", code, errOut, out)
	}
	if _, _, code = runMain(t, "topology", "-platform", "PDP-11"); code != 2 {
		t.Error("topology with a bad platform must exit 2")
	}
}
