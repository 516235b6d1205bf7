package harness

import (
	"testing"

	"ssync/internal/store"
	"ssync/internal/workload"
)

// TestRunStoreCountsEveryOp runs one point-op scenario through every
// transport RunStore dials and checks the op deltas: one entry per
// shard for a lone store and per node for a cluster, summing to exactly
// the ops the phases issued (the preload is not counted).
func TestRunStoreCountsEveryOp(t *testing.T) {
	opt := store.Options{Shards: 4, MaxThreads: 6}
	for _, row := range []struct {
		name    string
		rig     StoreRig
		entries int
	}{
		{"local", StoreRig{Store: opt, Local: true}, 4},
		{"lock-step", StoreRig{Store: opt}, 4},
		{"windowed", StoreRig{Store: opt, Window: 4}, 4},
		{"routed-1", StoreRig{Store: opt, Nodes: 1, Window: 4}, 1},
		{"routed-3", StoreRig{Store: opt, Nodes: 3, Window: 4}, 3},
	} {
		t.Run(row.name, func(t *testing.T) {
			run, err := RunStore(row.rig, workload.Scenario{
				Keys:    512,
				Mix:     workload.Mix{Get: 80, Put: 20},
				Preload: 256,
				Phases:  workload.RampSteady(4, 300),
				Batch:   3,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(run.Ops) != row.entries {
				t.Fatalf("%d op counts, want %d", len(run.Ops), row.entries)
			}
			var counted, issued uint64
			for _, n := range run.Ops {
				counted += n
			}
			for _, ph := range run.Phases {
				issued += ph.Ops
			}
			if counted != issued {
				t.Fatalf("counters saw %d ops, the phases issued %d", counted, issued)
			}
			if run.Steady().Hits == 0 {
				t.Fatal("no get hit: the preload did not land")
			}
		})
	}
}
