package cluster

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"ssync/internal/store"
	"ssync/internal/workload"
	"ssync/internal/xrand"
)

// TestRingDeterministic: two rings built with the same parameters route
// every key identically — a key's owner is a pure function of the ring
// shape, so clients, tests and the CLI never disagree about ownership.
func TestRingDeterministic(t *testing.T) {
	a := NewRing(5, 64)
	b := NewRing(5, 64)
	for i := uint64(0); i < 10000; i++ {
		key := workload.Key(i)
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("key %q: owner %d vs %d on identically-built rings", key, a.Owner(key), b.Owner(key))
		}
	}
}

// TestRingStability is the consistent-hashing property the routing
// layer exists for: growing the ring from n to n+1 nodes may move a key
// only to the new node — every key that does not land on the new node's
// points keeps its owner. A key's owner changes only when the ring does.
func TestRingStability(t *testing.T) {
	const keys = 20000
	for n := 1; n <= 6; n++ {
		old := NewRing(n, 64)
		grown := NewRing(n+1, 64)
		moved := 0
		for i := uint64(0); i < keys; i++ {
			key := workload.Key(i)
			was, now := old.Owner(key), grown.Owner(key)
			if was == now {
				continue
			}
			if now != n {
				t.Fatalf("%d→%d nodes: key %q moved %d→%d, not to the new node %d",
					n, n+1, key, was, now, n)
			}
			moved++
		}
		// Roughly 1/(n+1) of the keys should move — far from all of them
		// (the modulo-routing failure mode) and far from none.
		expected := keys / (n + 1)
		if moved < expected/2 || moved > 2*expected {
			t.Fatalf("%d→%d nodes: %d of %d keys moved, expected ~%d", n, n+1, moved, keys, expected)
		}
	}
}

// TestRingBalance: virtual nodes keep the per-node key share near fair.
func TestRingBalance(t *testing.T) {
	const nodes, keys = 4, 40000
	r := NewRing(nodes, 0) // DefaultVnodes
	counts := make([]int, nodes)
	for i := uint64(0); i < keys; i++ {
		n := r.Owner(workload.Key(i))
		if n < 0 || n >= nodes {
			t.Fatalf("owner %d out of range", n)
		}
		counts[n]++
	}
	fair := keys / nodes
	for n, c := range counts {
		if c < fair/2 || c > 2*fair {
			t.Fatalf("node %d owns %d of %d keys (fair %d): ring badly unbalanced %v",
				n, c, keys, fair, counts)
		}
	}
}

// TestRingDegenerate: non-positive parameters collapse to a working
// single-node ring instead of an empty points slice.
func TestRingDegenerate(t *testing.T) {
	r := NewRing(0, -1)
	if r.Nodes() != 1 || r.Vnodes() != DefaultVnodes {
		t.Fatalf("got %d nodes × %d vnodes", r.Nodes(), r.Vnodes())
	}
	if n := r.Owner("anything"); n != 0 {
		t.Fatalf("single-node ring routed to %d", n)
	}
}

// TestRingResizeStability: because a member's points depend only on its
// id, add-then-remove restores the exact prior ownership for every key;
// and a resized ring's balance stays within what the vnode count
// promises, measured with a chi-square statistic over the member
// shares.
func TestRingResizeStability(t *testing.T) {
	const keys = 40000
	base := NewRing(4, 0) // DefaultVnodes
	grown := base.Add(4)
	restored := grown.Without(4)
	if got, want := fmt.Sprint(restored.Members()), fmt.Sprint(base.Members()); got != want {
		t.Fatalf("add-then-remove members %s, want %s", got, want)
	}
	for i := uint64(0); i < keys; i++ {
		key := workload.Key(i)
		if restored.Owner(key) != base.Owner(key) {
			t.Fatalf("key %q: owner %d after add+remove, was %d — resize is not an involution",
				key, restored.Owner(key), base.Owner(key))
		}
	}
	// Balance after resizes, including one that leaves an id hole. The
	// per-member share of a v-vnode ring is a sum of v roughly
	// exponential arc lengths, so its relative deviation is ~1/sqrt(v)
	// and the chi-square statistic over m members concentrates around
	// keys/v — arc-length variance, not multinomial sampling, dominates.
	// The 4× bound flags a resize that concentrates load (a broken diff
	// or a member with missing points) while passing every healthy ring.
	for name, r := range map[string]*Ring{
		"grown":  grown,
		"hole":   grown.Without(2),
		"double": base.Add(4).Add(5).Without(1),
	} {
		members := r.Members()
		idx := map[int]int{}
		for i, m := range members {
			idx[m] = i
		}
		counts := make([]int, len(members))
		for i := uint64(0); i < keys; i++ {
			counts[idx[r.Owner(workload.Key(i))]]++
		}
		expected := float64(keys) / float64(len(members))
		chi2 := 0.0
		for _, c := range counts {
			diff := float64(c) - expected
			chi2 += diff * diff / expected
		}
		if bound := 4.0 * keys / float64(r.Vnodes()); chi2 > bound {
			t.Fatalf("%s ring (members %v): chi-square %.1f exceeds %.1f — resize unbalanced the ring (counts %v)",
				name, members, chi2, bound, counts)
		}
	}
}

// TestDiffArcs: the boundary-walk diff agrees exactly with per-key
// brute force — a key's position falls in some move's arcs iff its
// owner changes, and then in exactly the (old owner → new owner) move.
func TestDiffArcs(t *testing.T) {
	const keys = 20000
	cases := []struct {
		name      string
		old, next *Ring
	}{
		{"grow", NewRing(3, 64), NewRing(3, 64).Add(3)},
		{"shrink", NewRing(4, 64), NewRing(4, 64).Without(1)},
		{"regrow-hole", NewRing(4, 64).Without(2), NewRing(4, 64).Without(2).Add(5)},
		{"same", NewRing(3, 64), NewRing(3, 64)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			moves := diffArcs(tc.old, tc.next)
			if tc.name == "same" {
				if len(moves) != 0 {
					t.Fatalf("identical rings produced %d moves", len(moves))
				}
				return
			}
			for i := uint64(0); i < keys; i++ {
				key := workload.Key(i)
				was, now := tc.old.Owner(key), tc.next.Owner(key)
				pos := store.KeyPos(key)
				hits := 0
				for _, m := range moves {
					if !store.ArcsContain(m.arcs, pos) {
						continue
					}
					hits++
					if was == now {
						t.Fatalf("key %q did not move but lies in move %d→%d", key, m.from, m.to)
					}
					if m.from != was || m.to != now {
						t.Fatalf("key %q moved %d→%d but lies in move %d→%d", key, was, now, m.from, m.to)
					}
				}
				if was != now && hits != 1 {
					t.Fatalf("key %q moved %d→%d but is covered by %d moves, want exactly 1", key, was, now, hits)
				}
				if was == now && hits != 0 {
					t.Fatalf("key %q is stable but covered by %d moves", key, hits)
				}
			}
		})
	}
}

// searchOwner is the reference lookup ownerAt must equal: a binary
// search for the first point at or past pos, wrapping past the last.
func searchOwner(r *Ring, pos uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= pos })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

// TestRingOwnerMatchesSearch: the jump-table lookup returns exactly the
// point a binary search over the sorted points returns — at random
// positions, at every point's hash and its two neighbours (where a walk
// that stops one point early or late shows), at both ends of the
// position space (the wrap), and on a hand-built ring whose points tie
// and crowd into one slot (ties go to the lowest node).
func TestRingOwnerMatchesSearch(t *testing.T) {
	positions := 1 << 20
	if testing.Short() {
		positions = 1 << 14
	}
	bases := map[string]*Ring{
		"1x1":   NewRing(1, 1),
		"4x128": NewRing(4, 0),
		"holes": NewRingOf([]int{0, 2, 3, 5, 8, 9, 12}, 0),
	}
	rings := map[string]*Ring{"ties": tiedRing()}
	for name, r := range bases {
		rings[name] = r
		rings[name+"+add"] = r.Add(r.MaxID() + 1)
		rings[name+"-first"] = r.Without(r.Members()[0])
		rings[name+"-last"] = r.Without(r.MaxID())
	}
	rings["holes+fill"] = bases["holes"].Add(1)
	for name, r := range rings {
		t.Run(name, func(t *testing.T) {
			check := func(pos uint64) {
				if got, want := r.ownerAt(pos), searchOwner(r, pos); got != want {
					t.Fatalf("position %#x: owner %d, binary search says %d", pos, got, want)
				}
			}
			check(0)
			check(math.MaxUint64)
			for _, p := range r.points {
				check(p.hash - 1)
				check(p.hash)
				check(p.hash + 1)
			}
			rng := xrand.New(uint64(len(r.points)))
			for i := 0; i < positions; i++ {
				check(rng.Uint64())
			}
		})
	}
}

// tiedRing is a ring no member set produces: points that share a hash
// (one at position 0, one at the top of the space) and a run of points
// crowded into one jump slot, sorted the way NewRingOf sorts them.
func tiedRing() *Ring {
	r := &Ring{members: []int{0, 1, 2, 3}, vnodes: 3, points: []point{
		{0, 1}, {0, 2}, {7, 0}, {7, 1}, {7, 3}, {8, 2}, {9, 0},
		{1 << 40, 3}, {1 << 63, 1}, {math.MaxUint64, 0}, {math.MaxUint64, 3},
	}}
	r.buildJump()
	return r
}

// BenchmarkRingOwner is the routed path's per-key placement cost on the
// default 4-node ring: hashing the key and finding its owner, the work
// the benchmark's cluster.ring_owner_ns_per_key times.
func BenchmarkRingOwner(b *testing.B) {
	r := NewRing(4, DefaultVnodes)
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = workload.Key(uint64(i))
	}
	b.ResetTimer()
	owners := 0
	for i := 0; i < b.N; i++ {
		owners += r.Owner(keys[i&(len(keys)-1)])
	}
	if owners < 0 {
		b.Fatal("negative owner")
	}
}
