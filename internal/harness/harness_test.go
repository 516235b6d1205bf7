package harness

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fake builds a deterministic experiment for runner tests.
type fake struct {
	Def
	inflight atomic.Int32
	peak     atomic.Int32
	warmups  atomic.Int32
	runs     atomic.Int32
	block    time.Duration
}

func newFake(name string, platforms []string, values func(s Shard) []Sample) *fake {
	f := &fake{}
	f.Def = Def{
		ID: name, Doc: "fake " + name, On: platforms,
		Runner: func(s Shard) ([]Sample, error) {
			cur := f.inflight.Add(1)
			for {
				p := f.peak.Load()
				if cur <= p || f.peak.CompareAndSwap(p, cur) {
					break
				}
			}
			if f.block > 0 {
				time.Sleep(f.block)
			}
			f.inflight.Add(-1)
			if s.Warmup {
				f.warmups.Add(1)
				return nil, nil
			}
			f.runs.Add(1)
			return values(s), nil
		},
	}
	return f
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	a := newFake("grp/a", []string{Native}, nil)
	b := newFake("grp/b", []string{Native}, nil)
	c := newFake("other", []string{Native}, nil)
	for _, e := range []Experiment{b, a, c} {
		if err := r.Register(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Register(a); err == nil {
		t.Fatal("duplicate registration must error")
	}
	var names []string
	for _, e := range r.Experiments() {
		names = append(names, e.Name())
	}
	if got := strings.Join(names, ","); got != "grp/a,grp/b,other" {
		t.Fatalf("Experiments() order = %s", got)
	}
	if _, err := r.ByName("grp/a"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ByName("nope"); err == nil {
		t.Fatal("unknown name must error")
	}
	group, err := r.Match([]string{"grp/"})
	if err != nil {
		t.Fatal(err)
	}
	if len(group) != 2 {
		t.Fatalf("prefix match found %d experiments, want 2", len(group))
	}
	all, err := r.Match([]string{"all"})
	if err != nil || len(all) != 3 {
		t.Fatalf("Match(all) = %d experiments, %v", len(all), err)
	}
	if _, err := r.Match([]string{"grp/zzz"}); err == nil {
		t.Fatal("unmatched pattern must error")
	}
}

func TestRunnerGridAndAggregation(t *testing.T) {
	// Value = threads*1000 + rep: mean/min/max across reps are exact.
	f := newFake("agg", []string{"Opteron", "Xeon"}, func(s Shard) []Sample {
		return []Sample{
			{Metric: "m", Value: float64(s.Threads*1000 + s.Rep)},
			{Metric: "fixed", Value: 7},
		}
	})
	res, err := Run([]Experiment{f}, Options{
		Platforms: []string{"xeon"}, // case-insensitive restriction
		Threads:   []int{2, 4},
		Reps:      3,
		Warmup:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.warmups.Load(); got != 4 {
		t.Errorf("warmup runs = %d, want 2 shards × 2", got)
	}
	if got := f.runs.Load(); got != 6 {
		t.Errorf("measured runs = %d, want 2 shards × 3 reps", got)
	}
	if len(res) != 4 {
		t.Fatalf("results = %d, want 2 shards × 2 metrics", len(res))
	}
	r0 := res[0]
	if r0.Experiment != "agg" || r0.Platform != "Xeon" || r0.Threads != 2 || r0.Metric != "m" {
		t.Fatalf("unexpected first result %+v", r0)
	}
	if r0.Stats.N != 3 || r0.Stats.Min != 2000 || r0.Stats.Max != 2002 || r0.Stats.Mean != 2001 {
		t.Fatalf("aggregation wrong: %+v", r0.Stats)
	}
	// Warmup reps must not contaminate the stats (warmup returns nothing,
	// and rep indices restart at 0 for the measured phase).
	if res[3].Stats.Mean != 7 || res[3].Stats.Stddev != 0 {
		t.Fatalf("fixed metric aggregation wrong: %+v", res[3].Stats)
	}
}

func TestRunnerParallelSharding(t *testing.T) {
	f := newFake("par", []string{"Opteron"}, func(s Shard) []Sample {
		return []Sample{{Metric: "x", Value: 1}}
	})
	f.block = 20 * time.Millisecond
	_, err := Run([]Experiment{f}, Options{Threads: []int{1, 2, 3, 4, 5, 6}, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if peak := f.peak.Load(); peak < 2 {
		t.Errorf("peak in-flight shards = %d with Parallel=4, want ≥2", peak)
	}
	// Sequential execution must never overlap shards.
	f2 := newFake("seq", []string{"Opteron"}, func(s Shard) []Sample {
		return []Sample{{Metric: "x", Value: 1}}
	})
	if _, err := Run([]Experiment{f2}, Options{Threads: []int{1, 2, 3}, Parallel: 1}); err != nil {
		t.Fatal(err)
	}
	if peak := f2.peak.Load(); peak != 1 {
		t.Errorf("peak in-flight shards = %d with Parallel=1, want 1", peak)
	}
	// Native shards measure wall-clock time, so the runner must give
	// each one the machine to itself even when the pool is wide.
	f3 := newFake("excl", []string{Native}, func(s Shard) []Sample {
		return []Sample{{Metric: "x", Value: 1}}
	})
	f3.block = 5 * time.Millisecond
	if _, err := Run([]Experiment{f3}, Options{Threads: []int{1, 2, 3, 4}, Parallel: 4}); err != nil {
		t.Fatal(err)
	}
	if peak := f3.peak.Load(); peak != 1 {
		t.Errorf("peak in-flight native shards = %d with Parallel=4, want 1 (exclusive)", peak)
	}
}

func TestRunnerDeterministicOrderUnderParallelism(t *testing.T) {
	// A real simulated experiment must produce byte-identical results
	// regardless of the worker-pool size.
	e, err := Default.ByName("locks/single")
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{
		Platforms: []string{"Opteron"},
		Threads:   []int{1, 2, 6},
		Config:    Config{Deadline: 20_000, LatencyOps: 8, Reps: 1},
	}
	opt.Parallel = 1
	seq, err := Run([]Experiment{e}, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Parallel = 8
	par, err := Run([]Experiment{e}, opt)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := (JSON{}).Emit(&a, seq); err != nil {
		t.Fatal(err)
	}
	if err := (JSON{}).Emit(&b, par); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("parallel run differs from sequential run on the deterministic simulator")
	}
}

func TestRunnerUnknownPlatform(t *testing.T) {
	f := newFake("p", nil, func(Shard) []Sample { return nil })
	if _, err := Run([]Experiment{f}, Options{Platforms: []string{"PDP-11"}}); err == nil {
		t.Fatal("unknown platform must error")
	}
}

func TestJSONEmitter(t *testing.T) {
	f := newFake("grp/json", []string{Native}, func(s Shard) []Sample {
		return []Sample{{Metric: "Mops/s", Value: float64(10 * s.Threads)}}
	})
	res, err := Run([]Experiment{f}, Options{Threads: []int{1, 8}, Parallel: 2, Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := (JSON{}).Emit(&buf, res); err != nil {
		t.Fatal(err)
	}
	var decoded []struct {
		Experiment string `json:"experiment"`
		Platform   string `json:"platform"`
		Threads    int    `json:"threads"`
		Metric     string `json:"metric"`
		Stats      struct {
			N    uint64  `json:"n"`
			Mean float64 `json:"mean"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("emitted JSON does not parse: %v", err)
	}
	if len(decoded) != 2 {
		t.Fatalf("decoded %d results, want 2", len(decoded))
	}
	if d := decoded[1]; d.Experiment != "grp/json" || d.Platform != Native ||
		d.Threads != 8 || d.Metric != "Mops/s" || d.Stats.Mean != 80 || d.Stats.N != 2 {
		t.Fatalf("decoded result wrong: %+v", d)
	}
}

func TestCSVEmitter(t *testing.T) {
	res := []Result{{Experiment: "e", Platform: "Xeon", Threads: 4, Metric: "m"}}
	res[0].Stats.N, res[0].Stats.Mean = 2, 1.5
	var buf bytes.Buffer
	if err := (CSV{}).Emit(&buf, res); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0] != "experiment" || rows[1][2] != "4" || rows[1][4] != "1.5" {
		t.Fatalf("CSV rows wrong: %v", rows)
	}
}

func TestTableEmitter(t *testing.T) {
	f := newFake("grp/tbl", []string{"Opteron"}, func(s Shard) []Sample {
		return []Sample{{Metric: "TAS", Value: 1}, {Metric: "MCS", Value: 2}}
	})
	res, err := Run([]Experiment{f}, Options{Threads: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := (Table{}).Emit(&buf, res); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"grp/tbl", "Opteron", "threads", "TAS", "MCS"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

// TestTableLayout pins the fixed-width layout byte for byte: a title,
// metrics as 14-wide columns in first-seen order, thread counts as
// sorted rows, and 0.00 where a metric has no value at a thread count.
func TestTableLayout(t *testing.T) {
	res := []Result{
		{Experiment: "grp/e", Platform: "Xeon", Threads: 8, Metric: "TAS"},
		{Experiment: "grp/e", Platform: "Xeon", Threads: 1, Metric: "TAS"},
		{Experiment: "grp/e", Platform: "Xeon", Threads: 1, Metric: "back-off & prefetchw"},
	}
	res[0].Stats.Mean, res[1].Stats.Mean, res[2].Stats.Mean = 2.5, 1, 3.25
	var buf bytes.Buffer
	if err := (Table{}).Emit(&buf, res); err != nil {
		t.Fatal(err)
	}
	want := "grp/e — Xeon\n" +
		"threads               TAS back-off & prefetchw\n" +
		"1                    1.00           3.25\n" +
		"8                    2.50           0.00\n\n"
	if got := buf.String(); got != want {
		t.Errorf("table layout\n%q\nwant\n%q", got, want)
	}
}

func TestEmitterFor(t *testing.T) {
	for _, f := range []string{"json", "csv", "table", ""} {
		if _, err := EmitterFor(f); err != nil {
			t.Errorf("EmitterFor(%q): %v", f, err)
		}
	}
	if _, err := EmitterFor("xml"); err == nil {
		t.Error("unknown format must error")
	}
}

func TestCanonicalPlatform(t *testing.T) {
	for in, want := range map[string]string{
		"xeon": "Xeon", "OPTERON": "Opteron", "native": Native, "Native": Native, "vax": "",
	} {
		if got := CanonicalPlatform(in); got != want {
			t.Errorf("CanonicalPlatform(%q) = %q, want %q", in, got, want)
		}
	}
}
