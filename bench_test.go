package ssync

// BenchmarkExperiments regenerates every simulated experiment of the
// harness — one per table and figure of the paper's evaluation, plus the
// ablations — on one cheap cell each, and reports every sample as a
// custom metric, so `go test -bench=.` doubles as a regression harness
// for the reproduction. The full-scale regeneration is `ssync run`.

import (
	"strings"
	"testing"

	"ssync/internal/harness"
)

var benchCfg = harness.Config{Deadline: 20_000, LatencyOps: 8, Reps: 1}

func BenchmarkExperiments(b *testing.B) {
	for _, e := range harness.Default.Experiments() {
		plats := e.Platforms()
		pn := plats[len(plats)-1] // the cheapest model the experiment covers
		if pn == harness.Native {
			continue
		}
		e := e
		b.Run(e.Name(), func(b *testing.B) {
			shard := harness.Shard{Platform: pn, Threads: e.Threads(pn)[0], Config: benchCfg}
			var samples []harness.Sample
			for i := 0; i < b.N; i++ {
				var err error
				if samples, err = e.Run(shard); err != nil {
					b.Fatal(err)
				}
			}
			for _, s := range samples {
				// Metric units may not contain whitespace.
				b.ReportMetric(s.Value, strings.Join(strings.Fields(s.Metric), "_"))
			}
		})
	}
}
