package harness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// goldenCfg is the pinned configuration of the golden runs. Changing it
// invalidates the files under testdata/ (regenerate with -update).
var goldenCfg = Config{Deadline: 25_000, LatencyOps: 8, Reps: 2}

// goldenCases pins Table 2, Table 3 and one figure per the determinism
// contract: the simulator is seeded, so the same configuration must
// reproduce byte-identical output across runs, platforms and harness
// refactors. keep selects the metrics an artifact consists of (nil: all).
var goldenCases = []struct {
	id, experiment, platform string
	keep                     func(metric string) bool
}{
	{"T2", "cc/latency", "Niagara", nil},
	{"T3", "cc/latency", "Opteron", func(m string) bool { return strings.HasPrefix(m, "local ") }},
	{"F9", "mp/pair", "Tilera", nil},
}

// goldenRun executes one golden case on the runner and returns its JSON.
func goldenRun(t *testing.T, i int) []byte {
	t.Helper()
	c := goldenCases[i]
	e, err := Default.ByName(c.experiment)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run([]Experiment{e}, Options{Platforms: []string{c.platform}, Config: goldenCfg})
	if err != nil {
		t.Fatal(err)
	}
	if c.keep != nil {
		var kept []Result
		for _, r := range res {
			if c.keep(r.Metric) {
				kept = append(kept, r)
			}
		}
		res = kept
	}
	var buf bytes.Buffer
	if err := (JSON{}).Emit(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenOutputs compares each pinned artifact against its checked-in
// golden file, so a harness or simulator refactor cannot silently drift
// the reproduction. Run `go test ./internal/harness -run Golden -update`
// to accept an intentional change.
func TestGoldenOutputs(t *testing.T) {
	for i, c := range goldenCases {
		i, c := i, c
		t.Run(c.id, func(t *testing.T) {
			got := goldenRun(t, i)
			path := filepath.Join("testdata", c.id+"_"+c.platform+".json")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s on %s drifted from %s (rerun with -update if intended)\n--- got ---\n%s\n--- want ---\n%s",
					c.id, c.platform, path, got, want)
			}
		})
	}
}

// TestGoldenReproducible re-runs each golden artifact in-process: two
// runs with the same configuration must be byte-identical independently
// of the checked-in files.
func TestGoldenReproducible(t *testing.T) {
	for i, c := range goldenCases {
		if !bytes.Equal(goldenRun(t, i), goldenRun(t, i)) {
			t.Errorf("%s on %s: two identical runs produced different bytes", c.id, c.platform)
		}
	}
}
