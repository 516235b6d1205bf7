package cli

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestStoreAcceptance is the issue's acceptance command (scaled down):
// `ssync store --alg mcs --shards 16 --dist zipfian --mix 95:5` must run
// the scenario end-to-end through the wire protocol and emit per-shard
// throughput via the standard emitters.
func TestStoreAcceptance(t *testing.T) {
	out, errOut, code := runMain(t,
		"store", "--alg", "mcs", "--shards", "16", "--dist", "zipfian", "--mix", "95:5",
		"-clients", "4", "-ops", "1500", "-keys", "4096", "-json")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	var results []result
	if err := json.Unmarshal([]byte(out), &results); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out)
	}
	metrics := map[string]bool{}
	for _, r := range results {
		if r.Experiment != "store-engine/locked/mcs" || r.Platform != "native" || r.Threads != 4 {
			t.Fatalf("unexpected result %+v", r)
		}
		metrics[r.Metric] = true
	}
	if !metrics["total Kops/s"] || !metrics["hit %"] {
		t.Fatalf("missing summary metrics in %v", metrics)
	}
	for _, shard := range []string{"shard00 Kops/s", "shard07 Kops/s", "shard15 Kops/s"} {
		if !metrics[shard] {
			t.Fatalf("missing per-shard metric %q in %v", shard, metrics)
		}
	}
	if !strings.Contains(errOut, "steady:") || !strings.Contains(errOut, "ramp:") {
		t.Fatalf("phase summary missing from stderr: %s", errOut)
	}
}

func TestStoreLocalTableAndCSV(t *testing.T) {
	out, errOut, code := runMain(t,
		"store", "-alg", "hclh", "-shards", "4", "-dist", "uniform", "-mix", "80:15:5",
		"-clients", "2", "-ops", "800", "-keys", "512", "-local")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{"store-engine/locked/hclh", "total Kops/s", "shard03 Kops/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	csvOut, _, code := runMain(t,
		"store", "-alg", "ticket", "-shards", "2", "-clients", "2", "-ops", "500", "-csv")
	if code != 0 {
		t.Fatal("csv run failed")
	}
	if !strings.HasPrefix(csvOut, "experiment,platform,threads,metric,") ||
		!strings.Contains(csvOut, "store-engine/locked/ticket,native,2,shard01 Kops/s,") {
		t.Fatalf("CSV output malformed:\n%s", csvOut)
	}
}

// TestStoreEngineAll is the issue's acceptance command (scaled down):
// `ssync store -engine all` must emit locked, actor and optimistic rows
// from one run, in one table, so the paradigm comparison needs no
// stitching.
func TestStoreEngineAll(t *testing.T) {
	out, errOut, code := runMain(t,
		"store", "-engine", "all", "-alg", "ticket", "-shards", "8",
		"-clients", "4", "-ops", "1500", "-keys", "2048", "-json")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	var results []result
	if err := json.Unmarshal([]byte(out), &results); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out)
	}
	kops := map[string]float64{}
	for _, r := range results {
		if r.Metric == "total Kops/s" {
			kops[r.Experiment] = r.Stats.Mean
		}
	}
	for _, exp := range []string{"store-engine/locked/ticket", "store-engine/actor", "store-engine/optimistic/ticket"} {
		if kops[exp] <= 0 {
			t.Errorf("missing or zero throughput row for %s in %v", exp, kops)
		}
	}
	for _, want := range []string{"locked engine", "actor engine", "optimistic engine"} {
		if !strings.Contains(errOut, want) {
			t.Errorf("stderr missing per-engine summary %q:\n%s", want, errOut)
		}
	}
}

// TestStoreEngineSingle: a non-default engine run works end-to-end over
// the wire and is labeled with the engine-qualified experiment id.
func TestStoreEngineSingle(t *testing.T) {
	out, errOut, code := runMain(t,
		"store", "-engine", "actor", "-shards", "4",
		"-clients", "2", "-ops", "800", "-keys", "512")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{"store-engine/actor", "total Kops/s", "shard03 Kops/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

// badScenarioFlags are the usage errors of the flags `ssync store` and
// `ssync cluster` share: each must exit 2 from both, before any store
// is built.
var badScenarioFlags = []struct {
	name string
	args []string
}{
	{"unknown algorithm", []string{"-alg", "bogus"}},
	{"unknown engine", []string{"-engine", "bogus"}},
	{"unknown distribution", []string{"-dist", "pareto"}},
	{"mix not summing to 100", []string{"-mix", "60:60"}},
	{"-json with -csv", []string{"-json", "-csv"}},
	{"-batch above the wire limit", []string{"-batch", "5000"}},
	{"an empty key space", []string{"-keys", "0"}},
	{"no clients", []string{"-clients", "0"}},
	{"no ops", []string{"-ops", "0"}},
	{"no shards", []string{"-shards", "0"}},
	{"a negative value size", []string{"-value", "-5"}},
	// Small otherwise, so that a build without the check runs quickly.
	{"a value above MaxValueLen", []string{"-value", "17000000", "-keys", "2", "-ops", "1", "-clients", "1"}},
	{"a negative scan limit", []string{"-scanlimit", "-1"}},
	{"a preload below -1", []string{"-preload", "-2"}},
	{"an empty op group", []string{"-batch", "0"}},
	{"a negative pipeline depth", []string{"-pipeline", "-3"}},
}

// checkScenarioErrors runs every badScenarioFlags row against cmd, and
// checks that cmd -h exits 0.
func checkScenarioErrors(t *testing.T, cmd string) {
	t.Helper()
	for _, row := range badScenarioFlags {
		if _, _, code := runMain(t, append([]string{cmd}, row.args...)...); code != 2 {
			t.Errorf("%s %v (%s): exit %d, want 2", cmd, row.args, row.name, code)
		}
	}
	if _, _, code := runMain(t, cmd, "-h"); code != 0 {
		t.Errorf("%s -h must exit 0", cmd)
	}
}

func TestStoreErrors(t *testing.T) {
	checkScenarioErrors(t, "store")
	if _, _, code := runMain(t, "store", "-buckets", "0"); code != 2 {
		t.Error("-buckets 0 must exit 2")
	}
}

// TestStorePipelineBeatsLockstep: `ssync store -pipeline 16 -batch 8`
// and the same command with -pipeline 1 -batch 1 emit the pipelined and
// the lock-step wire Kops/s of the same alg/shard config, each over its
// own transport. The two speeds are not compared here — wall-clock does
// not repeat inside go test; what pipelining buys is asserted as a frame
// count by internal/store's TestPipelineSendsFewerFrames.
func TestStorePipelineBeatsLockstep(t *testing.T) {
	for _, tc := range []struct {
		depth, batch string
		transport    string
	}{
		{"16", "8", "over pipelined wire (depth 16 × batch 8),"},
		{"1", "1", "over wire,"},
	} {
		out, errOut, code := runMain(t,
			"store", "-alg", "mcs", "-shards", "16", "-pipeline", tc.depth, "-batch", tc.batch,
			"-clients", "4", "-ops", "4000", "-keys", "4096", "-json")
		if code != 0 {
			t.Fatalf("-pipeline %s -batch %s: exit %d, stderr: %s", tc.depth, tc.batch, code, errOut)
		}
		var results []result
		if err := json.Unmarshal([]byte(out), &results); err != nil {
			t.Fatalf("output is not JSON: %v\n%s", err, out)
		}
		var total float64
		for _, r := range results {
			if r.Metric == "total Kops/s" {
				total = r.Stats.Mean
			}
		}
		if total <= 0 {
			t.Errorf("-pipeline %s -batch %s: missing or non-positive total row in %s", tc.depth, tc.batch, out)
		}
		if !strings.Contains(errOut, tc.transport) {
			t.Errorf("-pipeline %s -batch %s: transport summary %q missing from stderr: %s",
				tc.depth, tc.batch, tc.transport, errOut)
		}
	}
}

// TestStorePipelineTable: `ssync store -pipeline 16 -batch 8` runs the
// scenario over the windowed wire client and emits its totals and
// per-shard rows, as JSON and as the default table, with no lock-step
// row of its own: the lock-step run is the same command with -pipeline
// 1 -batch 1. What pipelining buys is asserted as a frame count by
// internal/store's TestPipelineSendsFewerFrames, not as wall clock.
func TestStorePipelineTable(t *testing.T) {
	args := []string{"store", "-alg", "mcs", "-shards", "4", "-pipeline", "16", "-batch", "8",
		"-clients", "2", "-ops", "1200", "-keys", "1024"}
	out, errOut, code := runMain(t, append(args, "-json")...)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	var results []result
	if err := json.Unmarshal([]byte(out), &results); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out)
	}
	metrics := map[string]float64{}
	for _, r := range results {
		metrics[r.Metric] = r.Stats.Mean
	}
	for _, want := range []string{"total Kops/s", "shard00 Kops/s", "shard03 Kops/s"} {
		if metrics[want] <= 0 {
			t.Errorf("missing or zero metric %q in %v", want, metrics)
		}
	}
	if _, ok := metrics["lockstep wire Kops/s"]; ok {
		t.Errorf("a pipelined run emitted a lock-step row: %v", metrics)
	}
	if !strings.Contains(errOut, "pipelined wire (depth 16 × batch 8)") {
		t.Errorf("transport summary missing from stderr: %s", errOut)
	}

	table, _, code := runMain(t, args...)
	if code != 0 {
		t.Fatal("pipelined table run failed")
	}
	for _, want := range []string{"store-engine/locked/mcs", "total Kops/s", "shard03 Kops/s"} {
		if !strings.Contains(table, want) {
			t.Errorf("table output missing %q:\n%s", want, table)
		}
	}
	if strings.Contains(table, "lockstep") {
		t.Errorf("table output carries a lock-step row:\n%s", table)
	}
}
