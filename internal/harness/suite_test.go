package harness

import (
	"math"
	"testing"
)

// tiny keeps every suite experiment to a few milliseconds.
var tiny = Config{Deadline: 20_000, LatencyOps: 8, Reps: 1}

// TestSuiteRegistered pins the suite surface: the native and store
// experiments, and the simulated ones TestRegistryComplete maps to the
// paper's artifacts.
func TestSuiteRegistered(t *testing.T) {
	want := []string{
		"locks/single", "locks/many", "atomics/stress", "ticket/variants",
		"cc/latency", "mp/pair", "mp/clientserver",
		"ssht/high", "ssht/low", "tm/high", "tm/low", "kvs/set", "kvs/get", "rcl/hot",
		"native/locks", "native/lockfree", "native/ssht", "native/kvs", "native/tm", "native/mp",
		"store-engine/locked/tas", "store-engine/locked/ttas", "store-engine/locked/ticket",
		"store-engine/locked/array", "store-engine/locked/mutex", "store-engine/locked/mcs",
		"store-engine/locked/clh", "store-engine/locked/hclh", "store-engine/locked/hticket",
		"store-engine/optimistic/ticket", "store-engine/actor",
		"store-pipe/tas", "store-pipe/ttas", "store-pipe/ticket", "store-pipe/array",
		"store-pipe/mutex", "store-pipe/mcs", "store-pipe/clh", "store-pipe/hclh",
		"store-pipe/hticket", "place/model",
	}
	for _, name := range want {
		if _, err := Default.ByName(name); err != nil {
			t.Errorf("suite experiment %s not registered: %v", name, err)
		}
	}
}

// TestEverySuiteExperimentRuns executes each registered experiment once on
// its cheapest platform with a tiny configuration and checks the samples
// are well-formed.
func TestEverySuiteExperimentRuns(t *testing.T) {
	for _, e := range Default.Experiments() {
		e := e
		t.Run(e.Name(), func(t *testing.T) {
			plats := e.Platforms()
			pn := plats[len(plats)-1]
			grid := e.Threads(pn)
			samples, err := e.Run(Shard{Platform: pn, Threads: grid[0], Config: tiny})
			if err != nil {
				t.Fatal(err)
			}
			if len(samples) == 0 {
				t.Fatal("no samples")
			}
			seen := map[string]bool{}
			for _, s := range samples {
				if s.Metric == "" {
					t.Error("empty metric label")
				}
				if seen[s.Metric] {
					t.Errorf("duplicate metric %q", s.Metric)
				}
				seen[s.Metric] = true
				if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) || s.Value < 0 {
					t.Errorf("metric %q has bad value %v", s.Metric, s.Value)
				}
			}
		})
	}
}

// TestMinimumParticipantsDropped: client-server experiments cannot run
// one thread; the shard must produce no samples rather than a row
// mislabelled with the requested thread count.
func TestMinimumParticipantsDropped(t *testing.T) {
	for _, name := range []string{"mp/clientserver", "native/mp"} {
		e, err := Default.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range e.Threads(e.Platforms()[0]) {
			if n < 2 {
				t.Errorf("%s default grid contains %d threads", name, n)
			}
		}
		pn := e.Platforms()[0]
		samples, err := e.Run(Shard{Platform: pn, Threads: 1, Config: tiny})
		if err != nil || len(samples) != 0 {
			t.Errorf("%s at 1 thread = %v, %v; want no samples, no error", name, samples, err)
		}
	}
}

// TestSuiteExperimentRejectsUnknownPlatform: simulated runners must fail
// cleanly instead of panicking.
func TestSuiteExperimentRejectsUnknownPlatform(t *testing.T) {
	e, err := Default.ByName("locks/single")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(Shard{Platform: "PDP-11", Threads: 1, Config: tiny}); err == nil {
		t.Fatal("unknown platform must error")
	}
}
