package topo

import (
	"runtime"
	"testing"

	"ssync/internal/arch"
)

// testTopologies covers every paper machine model plus the discovered
// degradation cases.
func testTopologies() map[string]*Topology {
	out := map[string]*Topology{
		"flat-1":  Flat(1),
		"flat-16": Flat(16),
	}
	for _, p := range arch.All() {
		out["arch:"+p.Name] = FromPlatform(p)
	}
	out["arch:Opteron2"] = FromPlatform(arch.Opteron2())
	out["arch:Xeon2"] = FromPlatform(arch.Xeon2())
	return out
}

// TestAssignmentTotalAndBalanced is the placement property test: for
// every policy, on every machine model, at every shard count, the
// shard→domain assignment is total (every shard gets a real domain of
// the placement) and balanced (domain loads differ by at most one).
func TestAssignmentTotalAndBalanced(t *testing.T) {
	shardCounts := []int{1, 2, 3, 7, 8, 16, 64, 257}
	for name, tp := range testTopologies() {
		for _, pol := range Policies {
			pl := NewPlacement(pol, tp)
			for _, n := range shardCounts {
				assign := pl.ShardDomains(n)
				if len(assign) != n {
					t.Fatalf("%s/%s/%d: %d assignments", name, pol, n, len(assign))
				}
				load := make(map[int]int)
				for s, d := range assign {
					if d < 0 || d >= tp.NumDomains() {
						t.Fatalf("%s/%s/%d: shard %d → bogus domain %d", name, pol, n, s, d)
					}
					load[d]++
				}
				lo, hi := n, 0
				for _, c := range load {
					if c < lo {
						lo = c
					}
					if c > hi {
						hi = c
					}
				}
				// Domains beyond the shard count legitimately get zero.
				if n >= tp.NumDomains() && len(load) != tp.NumDomains() {
					t.Fatalf("%s/%s/%d: only %d of %d domains used", name, pol, n, len(load), tp.NumDomains())
				}
				if hi-lo > 1 {
					t.Fatalf("%s/%s/%d: imbalance %d..%d", name, pol, n, lo, hi)
				}
			}
		}
	}
}

// TestCompactMinimizesSweepCost asserts the arch-model cost ordering
// the single-domain CI box can't measure: an index-order sweep over a
// compact assignment crosses domains D−1 times, a scatter one n−1
// times, so compact's estimated cost is never higher — on every paper
// platform, with auto matching compact on multi-domain machines.
func TestCompactMinimizesSweepCost(t *testing.T) {
	for name, tp := range testTopologies() {
		for _, n := range []int{8, 16, 64} {
			compact := EstimateCost(tp, NewPlacement(PolicyCompact, tp).ShardDomains(n), nil)
			scatter := EstimateCost(tp, NewPlacement(PolicyScatter, tp).ShardDomains(n), nil)
			auto := EstimateCost(tp, NewPlacement(PolicyAuto, tp).ShardDomains(n), nil)
			if compact > scatter {
				t.Errorf("%s/n=%d: compact cost %d > scatter cost %d", name, n, compact, scatter)
			}
			if tp.NumDomains() > 1 && auto != compact {
				t.Errorf("%s/n=%d: auto cost %d != compact cost %d", name, n, auto, compact)
			}
		}
	}
}

// TestVisitOrderIsPermutationAndNoWorse: VisitOrder is always a
// permutation of 0..n−1, and walking shards in that order never costs
// more than walking them in index order — for any policy.
func TestVisitOrderIsPermutationAndNoWorse(t *testing.T) {
	for name, tp := range testTopologies() {
		for _, pol := range Policies {
			pl := NewPlacement(pol, tp)
			for _, n := range []int{1, 8, 17, 64} {
				order := pl.VisitOrder(n)
				if len(order) != n {
					t.Fatalf("%s/%s/%d: order length %d", name, pol, n, len(order))
				}
				seen := make([]bool, n)
				for _, s := range order {
					if s < 0 || s >= n || seen[s] {
						t.Fatalf("%s/%s/%d: not a permutation: %v", name, pol, n, order)
					}
					seen[s] = true
				}
				assign := pl.ShardDomains(n)
				if got, idx := EstimateCost(tp, assign, order), EstimateCost(tp, assign, nil); got > idx {
					t.Fatalf("%s/%s/%d: visit-order cost %d above index-order %d", name, pol, n, got, idx)
				}
			}
		}
	}
}

// TestVisitOrderCompactIsIdentity: a compact assignment is already
// domain-major, so reordering must leave it alone (stability).
func TestVisitOrderCompactIsIdentity(t *testing.T) {
	tp := FromPlatform(arch.Opteron())
	order := NewPlacement(PolicyCompact, tp).VisitOrder(32)
	for i, s := range order {
		if s != i {
			t.Fatalf("compact visit order not identity at %d: %v", i, order)
		}
	}
}

func TestAutoResolution(t *testing.T) {
	if got := PolicyAuto.resolve(8); got != PolicyCompact {
		t.Fatalf("auto on 8 domains = %v", got)
	}
	if got := PolicyAuto.resolve(1); got != PolicyNone {
		t.Fatalf("auto on 1 domain = %v", got)
	}
	if PolicyNone.Pins() || Policy("").Pins() {
		t.Fatal("none must not pin")
	}
	if !PolicyCompact.Pins() || !PolicyScatter.Pins() || !PolicyAuto.Pins() {
		t.Fatal("pinning policies must pin")
	}
}

// TestPinNoops: every path that cannot pin must return a working no-op
// undo, never panic — nil placement, non-pinning policy, single-domain
// topology, out-of-range domain, and arch-model domains whose CPUs
// don't exist on this host.
func TestPinNoops(t *testing.T) {
	var nilPl *Placement
	nilPl.Pin(0)()
	NewPlacement(PolicyNone, Flat(4)).Pin(0)()
	NewPlacement(PolicyCompact, Flat(4)).Pin(0)()
	big := NewPlacement(PolicyCompact, FromPlatform(arch.Xeon()))
	big.Pin(-1)()
	big.Pin(99)()
	if runtime.NumCPU() < 80 {
		// Xeon model domain 7 pins to simulated cores 70..79 — absent
		// here, so Pin must degrade to a no-op, not error or wedge.
		big.Pin(7)()
	}
}

func TestNilPlacementAccessors(t *testing.T) {
	var pl *Placement
	if pl.ShardDomains(4) != nil {
		t.Fatal("nil ShardDomains")
	}
	if pl.String() != "place(none)" {
		t.Fatalf("nil String = %q", pl.String())
	}
}
