package harness

import (
	"strings"
	"testing"
)

// TestPlaceModelExperiment: the modeled sweep costs must order the
// policies on every machine model — compact at or below scatter. This
// is the assertion that carries the locality claim on single-domain
// hosts, where the measured rows read as parity.
func TestPlaceModelExperiment(t *testing.T) {
	e, err := Default.ByName("place/model")
	if err != nil {
		t.Fatal(err)
	}
	samples, err := e.Run(Shard{Platform: Native, Threads: 1, Config: tiny})
	if err != nil {
		t.Fatal(err)
	}
	costs := map[string]float64{}
	for _, s := range samples {
		costs[s.Metric] = s.Value
	}
	if len(costs) != len(samples) || len(samples) == 0 {
		t.Fatalf("duplicate or missing metrics: %+v", samples)
	}
	checked := 0
	for metric, compact := range costs {
		if !strings.Contains(metric, " compact ") {
			continue
		}
		scatterMetric := strings.Replace(metric, " compact ", " scatter ", 1)
		scatter, ok := costs[scatterMetric]
		if !ok {
			t.Fatalf("no scatter row pairing %q", metric)
		}
		if compact > scatter {
			t.Errorf("%s: compact %v > scatter %v — compact must minimize sweep cost",
				metric, compact, scatter)
		}
		checked++
	}
	// Four paper models plus the two 2-domain variants.
	if checked != 6 {
		t.Fatalf("checked %d model pairs, want 6", checked)
	}
}
