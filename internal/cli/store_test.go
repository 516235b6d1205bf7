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
		if r.Experiment != "store/mcs" || r.Platform != "native" || r.Threads != 4 {
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
	for _, want := range []string{"store/hclh", "total Kops/s", "shard03 Kops/s"} {
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
		!strings.Contains(csvOut, "store/ticket,native,2,shard01 Kops/s,") {
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

func TestStoreErrors(t *testing.T) {
	if _, _, code := runMain(t, "store", "-alg", "bogus"); code != 2 {
		t.Error("unknown algorithm must exit 2")
	}
	if _, _, code := runMain(t, "store", "-engine", "bogus"); code != 2 {
		t.Error("unknown engine must exit 2")
	}
	if _, _, code := runMain(t, "store", "-dist", "pareto"); code != 2 {
		t.Error("unknown distribution must exit 2")
	}
	if _, _, code := runMain(t, "store", "-mix", "60:60"); code != 2 {
		t.Error("mix not summing to 100 must exit 2")
	}
	if _, _, code := runMain(t, "store", "-json", "-csv"); code != 2 {
		t.Error("-json -csv must exit 2")
	}
	if _, _, code := runMain(t, "store", "-batch", "5000"); code != 2 {
		t.Error("-batch above the wire limit must exit 2")
	}
	if _, _, code := runMain(t, "store", "-h"); code != 0 {
		t.Error("store -h must exit 0")
	}
}

// TestStorePipelineBeatsLockstep: `ssync store -pipeline 16 -batch 8`
// emits the pipelined and the lock-step wire Kops/s of the same
// alg/shard config in one result set. The two speeds are not compared
// here — wall-clock does not repeat inside go test; what pipelining
// buys is asserted as a frame count by internal/store's
// TestPipelineSendsFewerFrames.
func TestStorePipelineBeatsLockstep(t *testing.T) {
	out, errOut, code := runMain(t,
		"store", "-alg", "mcs", "-shards", "16", "-pipeline", "16", "-batch", "8",
		"-clients", "4", "-ops", "4000", "-keys", "4096", "-json")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	var results []result
	if err := json.Unmarshal([]byte(out), &results); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out)
	}
	var lockstep, pipelined float64
	for _, r := range results {
		switch r.Metric {
		case "lockstep wire Kops/s":
			lockstep = r.Stats.Mean
		case "total Kops/s":
			pipelined = r.Stats.Mean
		}
	}
	if lockstep <= 0 || pipelined <= 0 {
		t.Fatalf("missing or non-positive lockstep/pipelined rows in %s", out)
	}
	if !strings.Contains(errOut, "pipelined wire (depth 16 × batch 8)") ||
		!strings.Contains(errOut, "lock-step baseline") {
		t.Fatalf("transport summaries missing from stderr: %s", errOut)
	}
}

// TestStorePipelineTable: the default table output carries both rows,
// so the comparison is visible without machine parsing.
func TestStorePipelineTable(t *testing.T) {
	out, _, code := runMain(t,
		"store", "-alg", "ticket", "-shards", "4", "-pipeline", "8", "-batch", "4",
		"-clients", "2", "-ops", "1200", "-keys", "1024")
	if code != 0 {
		t.Fatal("pipelined table run failed")
	}
	for _, want := range []string{"lockstep wire Kops/s", "total Kops/s", "shard03 Kops/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}
