package harness

import (
	"slices"
	"strings"
	"testing"

	"ssync/internal/arch"
	"ssync/internal/simlocks"
)

// The shape tests assert the paper's qualitative claims on reduced
// configurations, each running only the grid cells it asserts on.

// quickCfg is a small configuration keeping the shape-assertion tests fast.
var quickCfg = Config{Deadline: 80_000, LatencyOps: 40, Reps: 2}

// cell runs one experiment on one platform at one thread count and
// returns its samples in emission order.
func cell(t *testing.T, experiment, platform string, threads int) []Sample {
	t.Helper()
	e, err := Default.ByName(experiment)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := e.Run(Shard{Platform: platform, Threads: threads, Config: quickCfg})
	if err != nil {
		t.Fatalf("%s on %s ×%d: %v", experiment, platform, threads, err)
	}
	return samples
}

// value returns the named sample's value.
func value(t *testing.T, samples []Sample, metric string) float64 {
	t.Helper()
	for _, s := range samples {
		if s.Metric == metric {
			return s.Value
		}
	}
	t.Fatalf("no metric %q in %v", metric, samples)
	return 0
}

// best returns the highest sample and its metric.
func best(samples []Sample) Sample {
	b := Sample{Value: -1}
	for _, s := range samples {
		if s.Value > b.Value {
			b = s
		}
	}
	return b
}

// lastThreads returns the largest count of an experiment's grid on a
// platform.
func lastThreads(t *testing.T, experiment, platform string) int {
	t.Helper()
	e, err := Default.ByName(experiment)
	if err != nil {
		t.Fatal(err)
	}
	grid := e.Threads(platform)
	return grid[len(grid)-1]
}

func TestFigure3Shape(t *testing.T) {
	t.Parallel()
	at6 := cell(t, "ticket/variants", "Opteron", 6)
	at48 := cell(t, "ticket/variants", "Opteron", 48)
	naive, backoff, pf := value(t, at48, "non-optimized"), value(t, at48, "back-off"), value(t, at48, "back-off & prefetchw")
	// At high thread counts: naive much worse than back-off; prefetchw at
	// least as good as back-off (paper: up to 2× better).
	if naive < 2*backoff {
		t.Errorf("naive (%.0f) should be ≥2× back-off (%.0f) at 48 threads", naive, backoff)
	}
	if pf > backoff {
		t.Errorf("prefetchw (%.0f) should beat back-off (%.0f) at 48 threads", pf, backoff)
	}
	// Latency grows with the thread count for every variant.
	if naive <= value(t, at6, "non-optimized") || backoff <= value(t, at6, "back-off") {
		t.Error("latency must grow with contention")
	}
}

func TestFigure4Shape(t *testing.T) {
	t.Parallel()
	fai := func(platform string, threads int) float64 {
		return value(t, cell(t, "atomics/stress", platform, threads), "FAI")
	}
	// Multi-sockets: fast single thread, collapse at 2+, further drop when
	// crossing sockets. Single-sockets: throughput stabilises, no collapse.
	for _, c := range []struct {
		platform          string
		inSocket, crossed int
	}{{"Opteron", 6, 18}, {"Xeon", 10, 20}} {
		if one, two := fai(c.platform, 1), fai(c.platform, 2); one < 2*two {
			t.Errorf("%s: single-thread FAI (%.1f) must dwarf 2-thread (%.1f)", c.platform, one, two)
		}
		if in, out := fai(c.platform, c.inSocket), fai(c.platform, c.crossed); in < 1.3*out {
			t.Errorf("%s: crossing sockets must drop FAI throughput (%.1f -> %.1f)", c.platform, in, out)
		}
	}
	// Niagara: TAS is the efficient hardware primitive (paper §5.4).
	nia := cell(t, "atomics/stress", "Niagara", 32)
	for _, other := range []string{"CAS", "SWAP", "FAI"} {
		if value(t, nia, "TAS") <= value(t, nia, other) {
			t.Errorf("Niagara TAS (%.1f) must beat %s (%.1f)", value(t, nia, "TAS"), other, value(t, nia, other))
		}
	}
	// Tilera: FAI is the fastest atomic (paper §5.4).
	til := cell(t, "atomics/stress", "Tilera", 24)
	for _, other := range []string{"CAS", "TAS", "SWAP"} {
		if value(t, til, "FAI") <= value(t, til, other) {
			t.Errorf("Tilera FAI (%.1f) must beat %s (%.1f)", value(t, til, "FAI"), other, value(t, til, other))
		}
	}
	// Single-sockets do not collapse: throughput at full load stays within
	// 2x of the few-core value (the third point of the figure's axis).
	for _, pn := range []string{"Niagara", "Tilera"} {
		few, full := fai(pn, threadCounts(pn)[2]), fai(pn, lastThreads(t, "atomics/stress", pn))
		if full < few/2 {
			t.Errorf("%s: FAI collapsed from %.1f to %.1f — single-sockets must stay stable", pn, few, full)
		}
	}
}

func TestFigure5Shape(t *testing.T) {
	t.Parallel()
	// Extreme contention on the Xeon: hierarchical locks are the best at
	// scale (paper §6.1.2); multi-socket throughput at high counts is far
	// below single-thread.
	at40 := cell(t, "locks/single", "Xeon", 40)
	if ht, tas := value(t, at40, "HTICKET"), value(t, at40, "TAS"); ht <= tas {
		t.Errorf("HTICKET (%.2f) must beat TAS (%.2f) under extreme contention across sockets", ht, tas)
	}
	one, forty := value(t, cell(t, "locks/single", "Xeon", 1), "TICKET"), value(t, at40, "TICKET")
	if one < 4*forty {
		t.Errorf("Xeon single-lock throughput must collapse by >4x across sockets (1: %.2f, 40: %.2f)", one, forty)
	}
}

func TestFigure7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("512 locks on the Niagara at 32 threads")
	}
	t.Parallel()
	// Very low contention: simple locks match or beat the queue locks
	// (paper: "it is generally the ticket lock that performs the best" on
	// the Opteron/Niagara/Tilera), and single-sockets scale.
	at32 := cell(t, "locks/many", "Niagara", 32)
	ticket, mcs := value(t, at32, "TICKET"), value(t, at32, "MCS")
	if ticket < mcs*0.9 {
		t.Errorf("Niagara low contention: TICKET (%.1f) should be at least on par with MCS (%.1f)", ticket, mcs)
	}
	if one := value(t, cell(t, "locks/many", "Niagara", 1), "TICKET"); ticket < 4*one {
		t.Errorf("Niagara must scale under low contention: 1 thread %.1f, 32 threads %.1f", one, ticket)
	}
}

func TestFigure6Shape(t *testing.T) {
	t.Parallel()
	res := cell(t, "locks/uncontested", "Opteron", 2)
	get := func(alg simlocks.Alg, class string) float64 { return value(t, res, string(alg)+" "+class) }
	// Crossing sockets costs much more than staying on the die; remote
	// acquisitions can be an order of magnitude above single-threaded.
	for _, alg := range []simlocks.Alg{simlocks.TAS, simlocks.TICKET, simlocks.MCS} {
		if get(alg, "two hops") <= get(alg, "same die") {
			t.Errorf("%s: two-hop acquisition must cost more than same-die", alg)
		}
		if get(alg, "two hops") < 2*get(alg, "single thread") {
			t.Errorf("%s: remote acquisition must dwarf the single-thread case", alg)
		}
	}
	// MUTEX carries parking overhead even uncontested vs the spin locks.
	if get(simlocks.MUTEX, "single thread") <= get(simlocks.TAS, "single thread") {
		t.Error("MUTEX uncontested latency should exceed TAS's")
	}
}

func TestFigure8BestLockVaries(t *testing.T) {
	if testing.Short() {
		t.Skip("two platforms × two lock counts × full algorithm set")
	}
	t.Parallel()
	// "Every locking scheme has its fifteen minutes of fame": across
	// platforms and contention levels, more than one algorithm must win.
	winners := map[string]bool{}
	for _, pn := range []string{"Opteron", "Niagara"} {
		for _, id := range []string{"locks/4", "locks/128"} {
			for _, n := range DefaultThreads(pn) {
				winners[best(cell(t, id, pn, n)).Metric] = true
			}
		}
	}
	if len(winners) < 2 {
		t.Errorf("a single lock won everywhere (%v) — the paper finds no universal winner", winners)
	}
}

func TestFigure9Shape(t *testing.T) {
	t.Parallel()
	// One-way ≈ half the round-trip; Tilera hardware MP is far cheaper
	// than the Xeon's cache-coherence MP at distance.
	xeon := cell(t, "mp/pair", "Xeon", 2)
	var oneWay []float64
	for _, s := range xeon {
		class, ok := strings.CutPrefix(s.Metric, "one-way ")
		if !ok {
			continue
		}
		oneWay = append(oneWay, s.Value)
		if rt := value(t, xeon, "round-trip "+class); rt < s.Value*1.5 {
			t.Errorf("Xeon %s: round-trip (%.0f) should be ≈2× one-way (%.0f)", class, rt, s.Value)
		}
	}
	if oneWay[len(oneWay)-1] <= oneWay[0] {
		t.Error("Xeon MP latency must grow with distance")
	}
	if ow := cell(t, "mp/pair", "Tilera", 2)[0]; ow.Value > 100 {
		t.Errorf("Tilera hardware %s = %.0f cycles, want <100 (paper: 61)", ow.Metric, ow.Value)
	}
}

func TestFigure10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-machine client counts on two platforms")
	}
	t.Parallel()
	// A single server saturates: throughput reaches a bound and stays
	// there; the Tilera (hardware MP) reaches the highest bound. The axis
	// runs from one client (2 threads) to the last count below the cores.
	rt := func(platform string, threads int) float64 {
		return value(t, cell(t, "mp/clientserver", platform, threads), "round-trip")
	}
	first, last := rt("Tilera", 2), rt("Tilera", lastThreads(t, "mp/clientserver", "Tilera"))
	if last < first {
		t.Errorf("Tilera round-trip throughput must not degrade with clients (%.1f -> %.1f)", first, last)
	}
	if nia := rt("Niagara", lastThreads(t, "mp/clientserver", "Niagara")); last < nia {
		t.Errorf("Tilera hardware MP (%.1f) should outperform Niagara software MP (%.1f) at full load", last, nia)
	}
}

func TestFigure11Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("two buckets×entries panels across the full algorithm set")
	}
	t.Parallel()
	// High contention (12 buckets): message passing beats the best lock at
	// scale on the Opteron; low contention (512): locks win everywhere.
	// mpAndBest splits a cell into the MP throughput and the best lock.
	mpAndBest := func(samples []Sample) (mp, lock float64) {
		var locks []Sample
		for _, s := range samples {
			if s.Metric == "MP" {
				mp = s.Value
			} else {
				locks = append(locks, s)
			}
		}
		return mp, best(locks).Value
	}
	grid := DefaultThreads("Opteron")
	first, last := grid[0], grid[len(grid)-1]
	_, highSingle := mpAndBest(cell(t, "ssht/high", "Opteron", first))
	highMP, highBest := mpAndBest(cell(t, "ssht/high", "Opteron", last))
	if highMP <= highBest {
		t.Errorf("high contention at %d threads: mp (%.2f) should beat locks (%.2f)", last, highMP, highBest)
	}
	_, lowSingle := mpAndBest(cell(t, "ssht/low", "Opteron", first))
	var lowBest float64
	for _, n := range grid[1:] {
		var mp float64
		mp, lowBest = mpAndBest(cell(t, "ssht/low", "Opteron", n))
		if mp > lowBest {
			t.Errorf("low contention at %d threads: locks (%.2f) should beat mp (%.2f)", n, lowBest, mp)
		}
	}
	// Low contention scales far better than high contention.
	if lowBest/lowSingle < highBest/highSingle {
		t.Error("low-contention scalability should exceed high-contention scalability")
	}
}

func TestFigure12Shape(t *testing.T) {
	t.Parallel()
	// speedup is the best non-mutex lock over MUTEX at 18 threads — the
	// paper reports 29–50% on three of the four platforms.
	speedup := func(samples []Sample) float64 {
		var others []Sample
		for _, s := range samples {
			if s.Metric != string(simlocks.MUTEX) {
				others = append(others, s)
			}
		}
		return best(others).Value/value(t, samples, string(simlocks.MUTEX)) - 1
	}
	// Set test: lock choice matters (29-50% speed-ups over MUTEX); get
	// test: it does not.
	set18 := cell(t, "kvs/set", "Xeon", 18)
	if sp := speedup(set18); sp < 0.10 {
		t.Errorf("set-test best-lock speed-up over MUTEX = %.0f%%, want ≥10%%", sp*100)
	}
	if sp := speedup(cell(t, "kvs/get", "Xeon", 18)); sp > 0.10 || sp < -0.10 {
		t.Errorf("get-test speed-up = %.0f%%, want ≈0 (lock-insensitive)", sp*100)
	}
	// Throughput saturates: 18 threads is not ≥16x of 1 thread.
	one, eighteen := value(t, cell(t, "kvs/set", "Xeon", 1), "TICKET"), value(t, set18, "TICKET")
	if eighteen > 16*one {
		t.Errorf("set test must not scale linearly to 18 threads (1: %.1f, 18: %.1f)", one, eighteen)
	}
}

func TestTMShape(t *testing.T) {
	t.Parallel()
	// §8: TM results mirror the hash table: mp wins under high contention
	// at scale, locks win under low contention.
	n := lastThreads(t, "tm/high", "Opteron")
	high := cell(t, "tm/high", "Opteron", n)
	if mp, locks := value(t, high, "mp"), value(t, high, "locks"); mp <= locks {
		t.Errorf("high contention TM at %d threads: mp (%.3f) should beat locks (%.3f)", n, mp, locks)
	}
	low := cell(t, "tm/low", "Opteron", n)
	if mp, locks := value(t, low, "mp"), value(t, low, "locks"); locks <= mp {
		t.Errorf("low contention TM: locks (%.3f) should beat mp (%.3f)", locks, mp)
	}
}

func TestAblations(t *testing.T) {
	t.Parallel()
	a := cell(t, "ablations", "Opteron", 24)
	on := func(name string) float64 { return value(t, a, name+" on") }
	off := func(name string) float64 { return value(t, a, name+" off") }
	if off("line serialisation") <= on("line serialisation") {
		t.Errorf("disabling line serialisation must raise throughput (%.1f vs %.1f)",
			off("line serialisation"), on("line serialisation"))
	}
	if off("incomplete probe filter") <= on("incomplete probe filter") {
		t.Errorf("a complete directory must beat the probe filter (%.2f vs %.2f)",
			off("incomplete probe filter"), on("incomplete probe filter"))
	}
	if on("mp prefetchw") >= off("mp prefetchw") {
		t.Errorf("prefetchw must cut Opteron MP latency (%.0f vs %.0f)", on("mp prefetchw"), off("mp prefetchw"))
	}
	if on("ticket back-off") >= off("ticket back-off") {
		t.Errorf("back-off must cut naive ticket latency (%.0f vs %.0f)", on("ticket back-off"), off("ticket back-off"))
	}
}

func TestRCLCrossover(t *testing.T) {
	t.Parallel()
	// §7: RCL's scope "is limited to high contention and a large number of
	// cores". At one thread a lock is far better than paying a round-trip
	// per critical section; at full machine scale RCL must be competitive
	// with (here: beat) the best lock on a single hot critical section.
	for _, n := range []int{1, lastThreads(t, "rcl/hot", "Opteron")} {
		c := cell(t, "rcl/hot", "Opteron", n)
		rcl, lock := value(t, c, "rcl"), value(t, c, "best-lock")
		if n == 1 && rcl >= lock {
			t.Errorf("at %d threads a lock (%.2f) must beat RCL (%.2f)", n, lock, rcl)
		}
		if n > 1 && rcl <= lock {
			t.Errorf("at %d threads RCL (%.2f) should beat the best lock (%.2f)", n, rcl, lock)
		}
	}
}

func TestDeterministicExperiments(t *testing.T) {
	t.Parallel()
	a := value(t, cell(t, "locks/4", "Opteron", 12), string(simlocks.TICKET))
	b := value(t, cell(t, "locks/4", "Opteron", 12), string(simlocks.TICKET))
	if a != b {
		t.Fatalf("experiment not reproducible: %v vs %v", a, b)
	}
}

// TestByID looks experiments up by id in the default registry: an id
// resolves to the experiment of that name, and an unknown id (such as a
// paper artifact id, which is not an experiment name) is an error that
// lists what is registered.
func TestByID(t *testing.T) {
	e, err := Default.ByName("locks/single")
	if err != nil {
		t.Fatal(err)
	}
	if e.Name() != "locks/single" {
		t.Fatalf("ByName(locks/single) = %s", e.Name())
	}
	_, err = Default.ByName("F99")
	if err == nil || !strings.Contains(err.Error(), "locks/single") {
		t.Fatalf("unknown id must error and list the registry, got %v", err)
	}
}

// TestRegistryComplete pins the per-experiment index (DESIGN §3): every
// artifact of the paper's evaluation is a registered experiment on the
// platforms and at the thread or client counts of the paper's axis.
func TestRegistryComplete(t *testing.T) {
	paper := PaperPlatforms()
	for _, c := range []struct {
		ids        string // artifact ids
		experiment string
		platforms  []string
		grid       map[string][]int // per platform; nil: DefaultThreads
	}{
		{"T2 T3 X2", "cc/latency", append(paper, "Opteron2", "Xeon2"), map[string][]int{"Niagara": {2}}},
		{"F3", "ticket/variants", []string{"Opteron"}, map[string][]int{"Opteron": {1, 2, 6, 12, 18, 24, 30, 36, 42, 48}}},
		{"F4", "atomics/stress", paper, map[string][]int{"Xeon": {1, 2, 10, 20, 30, 40, 50, 60, 70, 80}}},
		{"F5", "locks/single", paper, map[string][]int{"Niagara": {1, 2, 8, 16, 24, 32, 40, 48, 56, 64}}},
		{"F6", "locks/uncontested", paper, map[string][]int{"Tilera": {2}}},
		{"F7", "locks/many", paper, map[string][]int{"Tilera": {1, 2, 6, 12, 18, 24, 30, 36}}},
		{"F8", "locks/4", paper, nil},
		{"F8", "locks/16", paper, nil},
		{"F8", "locks/32", paper, nil},
		{"F8", "locks/128", paper, nil},
		{"F9", "mp/pair", paper, map[string][]int{"Tilera": {2}}},
		// Clients 1, 2, 5, 10, …, 35 plus the server.
		{"F10", "mp/clientserver", paper, map[string][]int{"Tilera": {2, 3, 6, 11, 16, 21, 26, 31, 36}}},
		{"F11", "ssht/high", paper, nil},
		{"F11", "ssht/high-48", paper, nil},
		{"F11", "ssht/low", paper, nil},
		{"F11", "ssht/low-48", paper, nil},
		{"F12", "kvs/set", paper, map[string][]int{"Opteron": {1, 6, 18}, "Xeon": {1, 10, 18}, "Niagara": {1, 8, 18}}},
		{"X1", "kvs/get", paper, map[string][]int{"Tilera": {1, 10, 18}}},
		{"X3", "tm/high", paper, nil},
		{"X3", "tm/low", paper, nil},
		{"X4", "rcl/hot", paper, nil},
		{"O1", "ablations", []string{"Opteron"}, map[string][]int{"Opteron": {24}}},
	} {
		e, err := Default.ByName(c.experiment)
		if err != nil {
			t.Errorf("%s: %v", c.ids, err)
			continue
		}
		if got := e.Platforms(); strings.Join(got, ",") != strings.Join(c.platforms, ",") {
			t.Errorf("%s: %s runs on %v, want %v", c.ids, c.experiment, got, c.platforms)
		}
		for _, pn := range c.platforms {
			want, ok := c.grid[pn]
			if !ok {
				if c.grid != nil {
					continue
				}
				want = DefaultThreads(pn)
			}
			if got := e.Threads(pn); !slices.Equal(got, want) {
				t.Errorf("%s: %s on %s has grid %v, want %v", c.ids, c.experiment, pn, got, want)
			}
			if p := arch.ByName(pn); want[len(want)-1] > p.NumCores {
				t.Errorf("%s: %s on %s exceeds %d cores", c.ids, c.experiment, pn, p.NumCores)
			}
		}
	}
}
