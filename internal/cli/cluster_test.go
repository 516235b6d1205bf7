package cli

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestClusterAcceptance is the issue's acceptance command (scaled
// down): `ssync cluster -nodes 4` must emit a comparison table whose
// routed multi-node rows and single-node baseline come from the same
// run.
func TestClusterAcceptance(t *testing.T) {
	out, errOut, code := runMain(t,
		"cluster", "-nodes", "4", "-clients", "4", "-ops", "1500", "-keys", "4096", "-json")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	var results []result
	if err := json.Unmarshal([]byte(out), &results); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out)
	}
	metrics := map[string]float64{}
	for _, r := range results {
		if r.Experiment != "cluster/4xlocked" || r.Platform != "native" || r.Threads != 4 {
			t.Fatalf("unexpected result %+v", r)
		}
		metrics[r.Metric] = r.Stats.Mean
	}
	for _, want := range []string{
		"single-node baseline Kops/s", "total Kops/s", "hit %",
		"node00 Kops/s", "node01 Kops/s", "node02 Kops/s", "node03 Kops/s",
	} {
		if metrics[want] <= 0 {
			t.Fatalf("missing or zero metric %q in %v", want, metrics)
		}
	}
	// Both the baseline and the routed run printed phase summaries — one
	// invocation, two measured cluster shapes.
	if strings.Count(errOut, "steady:") != 2 {
		t.Fatalf("want two phase summaries (baseline + routed) on stderr: %s", errOut)
	}
}

// TestClusterEngineAndTable: a non-default engine run works end-to-end
// and the default table output carries the comparison rows.
func TestClusterEngineAndTable(t *testing.T) {
	out, errOut, code := runMain(t,
		"cluster", "-nodes", "2", "-engine", "actor", "-clients", "2",
		"-ops", "800", "-keys", "1024")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{"cluster/2xactor", "single-node baseline Kops/s", "total Kops/s", "node01 Kops/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

// TestClusterSingleNode: -nodes 1 runs without a baseline row (it IS
// the baseline).
func TestClusterSingleNode(t *testing.T) {
	out, errOut, code := runMain(t,
		"cluster", "-nodes", "1", "-clients", "2", "-ops", "600", "-keys", "512")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if strings.Contains(out, "single-node baseline") {
		t.Fatalf("-nodes 1 must not emit a separate baseline row:\n%s", out)
	}
	if !strings.Contains(out, "cluster/1xlocked") || !strings.Contains(out, "node00 Kops/s") {
		t.Fatalf("missing cluster/1xlocked rows:\n%s", out)
	}
}

// TestClusterResize: `ssync cluster -resize` measures a live grow+shrink
// under load and emits the migration metrics under the migrate/<n>x<eng>
// experiment id.
func TestClusterResize(t *testing.T) {
	out, errOut, code := runMain(t,
		"cluster", "-resize", "-nodes", "2", "-engine", "actor", "-clients", "2",
		"-keys", "512", "-window", "80ms", "-json")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	var results []result
	if err := json.Unmarshal([]byte(out), &results); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out)
	}
	metrics := map[string]float64{}
	for _, r := range results {
		if r.Experiment != "migrate/2xactor" || r.Platform != "native" || r.Threads != 2 {
			t.Fatalf("unexpected result %+v", r)
		}
		metrics[r.Metric] = r.Stats.Mean
	}
	// Traffic completed and both migrations took time: counts, not a
	// window. The dip is sampled over 10 ms intervals, and on a loaded
	// host one may see no op complete, so the dip metrics and the recovery
	// may legitimately be zero, but must be present.
	for _, want := range []string{"steady Kops/s", "add ms", "remove ms"} {
		if metrics[want] <= 0 {
			t.Fatalf("missing or zero metric %q in %v", want, metrics)
		}
	}
	for _, want := range []string{"dip Kops/s", "dip %", "recovery ms"} {
		if _, ok := metrics[want]; !ok {
			t.Fatalf("missing metric %q in %v", want, metrics)
		}
	}
	if !strings.Contains(errOut, "resize 2→3 nodes") {
		t.Fatalf("stderr missing the resize summary: %s", errOut)
	}
}

func TestClusterErrors(t *testing.T) {
	checkScenarioErrors(t, "cluster")
	if _, _, code := runMain(t, "cluster", "-nodes", "0"); code != 2 {
		t.Error("-nodes 0 must exit 2")
	}
}
