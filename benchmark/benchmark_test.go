package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"ssync/internal/store"
	"ssync/internal/workload"
	"ssync/internal/xrand"
)

// smokeConfig is a run shape small enough for go test: two short segments,
// each on a system of its own, and short traced streams.
func smokeConfig() config {
	cfg := defaultConfig(1, true)
	cfg.Clients, cfg.Segments, cfg.PerSystem, cfg.Seed = 2, 2, 1, 7
	cfg.TraceOps, cfg.LadderOps, cfg.CaptureOps = 4800, 1600, 800
	return cfg
}

func TestHistogramQuantilesAgainstSortedReference(t *testing.T) {
	rng := xrand.New(42)
	var h histogram
	var ref []float64
	for i := 0; i < 200000; i++ {
		// Log-uniform over 10 ns … 100 ms, the range group latencies span.
		v := int64(10 * math.Pow(1e7, rng.Float64()))
		h.record(v)
		ref = append(ref, float64(v))
	}
	sort.Float64s(ref)
	for _, q := range []float64{0.01, 0.5, 0.95, 0.99, 0.999, 1} {
		want := ref[int(math.Ceil(q*float64(len(ref))))-1]
		got := h.quantile(q)
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("q%.3f = %.1f, sorted reference says %.1f", q, got, want)
		}
	}
	var merged histogram
	merged.merge(&h)
	merged.merge(&h)
	if merged.n != 2*h.n || merged.quantile(0.5) != h.quantile(0.5) {
		t.Errorf("merging a histogram with itself moved the median or lost samples")
	}
}

func TestQuartilesMatchPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if got != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles(1..10) = %v", got)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if got := quartiles([]float64{1, 2, 4}); got != [3]float64{1, 2, 4} {
		t.Errorf("quartiles(1, 2, 4) = %v", got)
	}
}

func drawStream(sp spec, seed uint64, n int) []sop {
	g := newGenerator(newDist(sp), sp.Mix, seed, 0)
	out := make([]sop, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func TestSeedFixesTheOpStream(t *testing.T) {
	for _, sp := range specs {
		a, b, c := drawStream(sp, 1, 5000), drawStream(sp, 1, 5000), drawStream(sp, 2, 5000)
		if streamHash(a) != streamHash(b) {
			t.Errorf("%s: the same seed drew two different streams", sp.Name)
		}
		if streamHash(a) == streamHash(c) {
			t.Errorf("%s: seeds 1 and 2 drew the same stream", sp.Name)
		}
	}
}

// TestSmokeAllWorkloads runs every workload for two short segments: no op
// may fail, and every gated metric must be reported and positive.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, sp := range specs {
		res, err := runLoad(sp, smokeConfig())
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d ops failed: %v", sp.Name, res.Failed, res.Attempted, res.Err)
		}
		got := map[string]float64{}
		for _, m := range res.Metrics {
			got[m.Name] = m.Value
		}
		for _, g := range gates {
			if v, ok := got[g.name]; !ok || !(v > 0) {
				t.Errorf("%s: %s = %v (reported: %v)", sp.Name, g.name, v, ok)
			}
		}
		if len(res.Segments) != 2 || res.Segments[1].System != 1 || len(res.Setups) < 2 {
			t.Errorf("%s: segments %+v after %d set-ups", sp.Name, res.Segments, len(res.Setups))
		}
		for _, seg := range res.Segments {
			if seg.SpeedIndex <= 0 || seg.RawKops <= 0 {
				t.Errorf("%s: segment %+v", sp.Name, seg)
			}
		}
	}
}

// TestTraceCountsRepeat runs the traced run twice on a routed workload
// with scans — the one that exercises every layer — and requires every
// count to come out identical and every per-layer metric BENCHMARK.json
// names to be emitted.
func TestTraceCountsRepeat(t *testing.T) {
	sp, _ := findSpec("cluster-scan-write-mix")
	var runs [2]map[string]float64
	for i := range runs {
		res, err := runTrace(sp, smokeConfig())
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 {
			t.Fatalf("%d of %d ops failed: %v", res.Failed, res.Attempted, res.Err)
		}
		runs[i] = map[string]float64{}
		for _, m := range res.Metrics {
			runs[i][m.Name] = m.Value
		}
	}
	for _, name := range []string{
		"store.engine.gets", "store.engine.puts", "store.engine.deletes", "store.engine.scans",
		"store.engine.hit_ratio", "store.engine.shard_ops_skew", "store.engine.scan_entries_per_scan",
		"store.wire.bytes_per_op", "store.wire.frames_per_op",
		"cluster.subbatches_per_group", "cluster.node_ops_skew", "cluster.scan_shard_visits_per_scan",
		"trace.spans",
	} {
		a, b := runs[0][name], runs[1][name]
		if a != b || a == 0 {
			t.Errorf("%s: %v then %v", name, a, b)
		}
	}
	if got := runs[0]["cluster.scan_shard_visits_per_scan"]; got != 32 {
		t.Errorf("a scan visited %v shards, want 4 nodes × 8 shards", got)
	}
	perLayer := benchmarkJSON(t).PerLayer
	for _, m := range perLayer {
		if _, ok := runs[0][m.Name]; !ok {
			t.Errorf("BENCHMARK.json names per-layer metric %s, the traced run does not emit it", m.Name)
		}
	}
	if len(runs[0]) != len(perLayer) {
		t.Errorf("the traced run emits %d metrics, BENCHMARK.json names %d", len(runs[0]), len(perLayer))
	}
}

// TestTraceOnUnroutedWorkloads covers the two seams the routed test does
// not: lock-step scalar frames, and no wire at all.
func TestTraceOnUnroutedWorkloads(t *testing.T) {
	for _, name := range []string{"wire-point-lockstep", "engine-hot-rw"} {
		sp, _ := findSpec(name)
		res, err := runTrace(sp, smokeConfig())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Failed != 0 {
			t.Errorf("%s: %d of %d ops failed: %v", name, res.Failed, res.Attempted, res.Err)
		}
	}
}

// TestWrongAnswersAreCounted plants a value that is not its key's payload
// and deletes a key behind the model's back: the sweep must count the
// first, the exact outcome check the second.
func TestWrongAnswersAreCounted(t *testing.T) {
	sp, _ := findSpec("engine-hot-rw")
	sys, err := setUp(sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	if att, failed, err := sweep(sys); failed != 0 || att == 0 || err != nil {
		t.Fatalf("clean system: %d of %d failed: %v", failed, att, err)
	}
	if _, err := sys.conns[0].Put(sys.keys[3], []byte("not the payload")); err != nil {
		t.Fatal(err)
	}
	// The get of the key fails, and so does the scan of its band.
	if _, failed, err := sweep(sys); failed != 2 || err == nil {
		t.Errorf("one corrupt value: sweep counted %d failures (%v)", failed, err)
	}

	stream := []sop{{kind: workload.KindGet, idx: 5}} // one get of a resident key…
	sp.Group = 1
	sys.sp = sp
	if _, err := sys.conns[0].Delete(sys.keys[5]); err != nil { // …that is no longer there
		t.Fatal(err)
	}
	c := newClient(sys, sys.conns[0], &generator{stream: stream}, time.Now())
	c.expect = expectGroups(stream, sp.Keys, 1)
	c.run(0, 1)
	if c.failed != 1 || c.err == nil {
		t.Errorf("a miss the model calls a hit: %d failed ops (%v)", c.failed, c.err)
	}
}

func TestScanCheck(t *testing.T) {
	entry := func(idx uint32) store.Entry {
		v := make([]byte, valueSize)
		payloadInto(v, idx)
		return store.Entry{Key: workload.Key(uint64(idx)), Value: v}
	}
	good := []store.Entry{entry(100), entry(101), entry(150)}
	if err := checkScan(good, "key-000001"); err != nil {
		t.Errorf("good scan: %v", err)
	}
	for name, bad := range map[string][]store.Entry{
		"unsorted":     {entry(101), entry(100)},
		"duplicate":    {entry(100), entry(100)},
		"wrong prefix": {entry(100), entry(200)},
		"wrong value":  {{Key: workload.Key(100), Value: entry(101).Value}},
	} {
		if checkScan(bad, "key-000001") == nil {
			t.Errorf("%s scan passed", name)
		}
	}
}

// TestContractOutput drives the command as the contract does and checks
// the last line's shape.
func TestContractOutput(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"--workload", "engine-hot-rw", "--seed", "3", "--seconds", "1", "--trace", "0", "-quick"}, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := last[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(last) != 4 {
		t.Errorf("result line has %d keys, the contract allows exactly 4", len(last))
	}
	var metrics map[string]struct {
		Value float64
		Unit  string
	}
	if err := json.Unmarshal(last["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	endToEnd := benchmarkJSON(t).EndToEnd
	for _, m := range endToEnd {
		if got, ok := metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("metric %s: got %+v (present %v), BENCHMARK.json says unit %s", m.Name, got, ok, m.Unit)
		}
	}
	if len(metrics) != len(endToEnd) {
		t.Errorf("%d metrics on the result line, BENCHMARK.json names %d", len(metrics), len(endToEnd))
	}
	if code := run([]string{"-workload", "no-such"}, &out, &errw); code != 2 {
		t.Errorf("unknown workload: exit %d, want 2", code)
	}
}

type contractMetric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

type contract struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []contractMetric `json:"end_to_end"`
	PerLayer  []contractMetric `json:"per_layer"`
}

func benchmarkJSON(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestBenchmarkJSONMatchesTheSource keeps BENCHMARK.json, the workload
// table and the -aa gates in step.
func TestBenchmarkJSONMatchesTheSource(t *testing.T) {
	c := benchmarkJSON(t)
	if len(c.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the source", len(c.Workloads), len(specs))
	}
	for i, w := range c.Workloads {
		if w.Name != specs[i].Name || w.Why != specs[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the source %q (%q)", i, w.Name, w.Why, specs[i].Name, specs[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	if len(c.EndToEnd) != len(gates) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d gates in the source", len(c.EndToEnd), len(gates))
	}
	for i, m := range c.EndToEnd {
		g := gates[i]
		if m.Name != g.name || m.Bound != g.bound || (m.Better == "higher") != g.higher {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, source %+v", i, m, g)
		}
	}
}
