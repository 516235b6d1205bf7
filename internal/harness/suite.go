package harness

import (
	"fmt"

	"ssync/internal/arch"
	"ssync/internal/ccbench"
)

// The simulated half of the suite runs on the paper's machine models:
// one experiment per table and figure of the evaluation, its simulation
// kernel beside it (locks.go, mp.go, ssht.go, tm.go, kvs.go, rcl.go,
// ablation.go). This file holds what they share and Tables 2–3.

// model resolves a shard's platform to its machine model.
func model(s Shard) (*arch.Platform, error) {
	p := arch.ByName(s.Platform)
	if p == nil {
		return nil, fmt.Errorf("unknown platform %q (have %v)", s.Platform, arch.Names())
	}
	return p, nil
}

func init() {
	Register(Def{
		ID: "cc/latency",
		Doc: "Tables 2–3: local-access latencies and every coherence case (op, state, distance), cycles; " +
			"on Opteron2/Xeon2 the §8 small multi-sockets",
		On:   append(PaperPlatforms(), "Opteron2", "Xeon2"),
		Grid: func(string) []int { return []int{2} },
		Runner: func(s Shard) ([]Sample, error) {
			p, err := model(s)
			if err != nil {
				return nil, err
			}
			var out []Sample
			for _, r := range ccbench.Table3(p) {
				out = append(out, Sample{Metric: "local " + r.Level, Value: float64(r.Cycles)})
			}
			for _, c := range ccbench.Cases(p) {
				r := ccbench.Run(p, c, s.Config.Reps)
				out = append(out, Sample{Metric: fmt.Sprintf("%v %v %s", c.Op, c.State, r.ClassName), Value: r.Cycles})
			}
			return out, nil
		},
	})
}
