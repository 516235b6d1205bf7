// Package cluster lifts the sharded store (internal/store) from one
// process to many: a Cluster spins up N wire servers, each owning an
// independent store (any shard engine × any lock algorithm), and a
// routing Client maps every key to exactly one node through a
// consistent-hash ring and drives the nodes through the multiplexed
// async wire clients.
//
// The design keeps the single-owner discipline the rest of the
// repository is built on. A key lives on exactly one node (the ring
// owner), and on that node in exactly one shard — so every per-key
// history still runs through one synchronization point, and the per-key
// linearizability the Wing–Gong checker establishes for a single store
// is preserved by construction across the cluster. Contrast optimistic
// replication (CRDTs, eventual convergence), which buys availability by
// giving up exactly this property.
//
// Membership is elastic: Cluster.AddNode and Cluster.RemoveNode resize
// the ring while traffic keeps flowing, streaming exactly the affected
// arcs to their new owners (see migrate.go). The single-owner
// discipline holds through a resize — during the copy window writes in
// a moving arc are dirty-tracked at the old owner, and the commit step
// quiesces the sources before the ring flips, so at every instant each
// key has one executing owner.
package cluster

import (
	"fmt"
	"math/bits"
	"sort"

	"ssync/internal/hashkit"
	"ssync/internal/store"
)

// DefaultVnodes is the virtual-node count per node used when a Ring is
// built with a non-positive one. More virtual points smooth the arc
// lengths between nodes: with v points per node the expected imbalance
// shrinks like 1/sqrt(v), and 128 keeps every node within roughly ±10%
// of fair share. A lookup does not grow with v: it is one jump-table
// load plus a walk over the few points in one slot (see ownerAt).
const DefaultVnodes = 128

// slotsPerPoint sizes a ring's jump table: about this many slots per
// point, rounded up to a power of two, so most slots hold no point at
// all and a lookup's forward walk stops at its first comparison.
const slotsPerPoint = 4

// point is one virtual node on the ring.
type point struct {
	hash uint64
	node int
}

// Ring is a consistent-hash ring over a set of member node ids with
// virtual points. A key's owner is the member of the first point
// clockwise of the key's ring position; the mapping depends only on
// (members, vnodes), so two rings built with the same parameters route
// identically — a client and a test harness never disagree about
// ownership. A member's points depend only on its id, so adding a node
// moves only the keys that land on the new node's points and removing
// one moves only the keys it held (the consistent-hashing property the
// routing-stability tests pin down). Rings are immutable; Add and
// Without derive resized ones.
type Ring struct {
	members []int // sorted ascending, distinct
	vnodes  int
	points  []point
	// jump is ownerAt's index over points: slot s holds the index of the
	// first point at or past ring position s<<shift.
	jump  []uint32
	shift uint
}

// NewRing builds a ring over members 0..nodes-1 with vnodes virtual
// points per node (non-positive means DefaultVnodes).
func NewRing(nodes, vnodes int) *Ring {
	if nodes < 1 {
		nodes = 1
	}
	members := make([]int, nodes)
	for i := range members {
		members[i] = i
	}
	return NewRingOf(members, vnodes)
}

// NewRingOf builds a ring over an explicit member-id set — the shape a
// resized cluster has once removed ids leave holes. Members are
// deduplicated; an empty set means the single member 0.
func NewRingOf(members []int, vnodes int) *Ring {
	if vnodes < 1 {
		vnodes = DefaultVnodes
	}
	ms := append([]int(nil), members...)
	sort.Ints(ms)
	w := 0
	for i, m := range ms {
		if i > 0 && m == ms[w-1] {
			continue
		}
		ms[w] = m
		w++
	}
	ms = ms[:w]
	if len(ms) == 0 {
		ms = []int{0}
	}
	r := &Ring{members: ms, vnodes: vnodes, points: make([]point, 0, len(ms)*vnodes)}
	for _, n := range ms {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{hash: pointHash(n, v), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.node < b.node // deterministic tie-break, node order
	})
	r.buildJump()
	return r
}

// buildJump fills the ring's jump table, once: rings are immutable. The
// slot of a position is its top bits, and every slot starts its walk at
// the first point not below the slot's start — the point sort.Search
// would find for that start.
func (r *Ring) buildJump() {
	b := uint(bits.Len(uint(len(r.points)*slotsPerPoint - 1)))
	r.shift = 64 - b
	r.jump = make([]uint32, 1<<b)
	i := 0
	for s := range r.jump {
		start := uint64(s) << r.shift
		for i < len(r.points) && r.points[i].hash < start {
			i++
		}
		r.jump[s] = uint32(i)
	}
}

// pointHash places virtual point v of node n on the ring. The FNV hash
// of the short label is pushed through the avalanche remix — without it
// the points cluster and the arcs (hence the nodes' key shares) are
// wildly uneven.
func pointHash(node, vnode int) uint64 {
	return hashkit.Mix64(hashkit.FNV1a(fmt.Sprintf("node-%d#vnode-%d", node, vnode)))
}

// Nodes returns the member count.
func (r *Ring) Nodes() int { return len(r.members) }

// Members returns the member ids, sorted ascending.
func (r *Ring) Members() []int { return append([]int(nil), r.members...) }

// Has reports whether id is a member.
func (r *Ring) Has(id int) bool {
	i := sort.SearchInts(r.members, id)
	return i < len(r.members) && r.members[i] == id
}

// MaxID returns the largest member id.
func (r *Ring) MaxID() int { return r.members[len(r.members)-1] }

// Vnodes returns the virtual-point count per node.
func (r *Ring) Vnodes() int { return r.vnodes }

// Add derives the ring with id added to the member set.
func (r *Ring) Add(id int) *Ring {
	if r.Has(id) {
		return r
	}
	return NewRingOf(append(r.Members(), id), r.vnodes)
}

// Without derives the ring with id removed from the member set. Because
// a member's points depend only on its id, removing and re-adding a
// node restores the exact prior ownership.
func (r *Ring) Without(id int) *Ring {
	ms := make([]int, 0, len(r.members))
	for _, m := range r.members {
		if m != id {
			ms = append(ms, m)
		}
	}
	return NewRingOf(ms, r.vnodes)
}

// Owner returns the node owning key.
func (r *Ring) Owner(key string) int {
	return r.OwnerHash(hashkit.FNV1a(key))
}

// OwnerHash returns the node owning a key with the given FNV-1a hash.
// The hash is avalanche-remixed before the ring lookup, so the ring
// position is independent of the bits the node's store spends on shard
// selection (hash % shards) — the same bit-budget discipline
// hashkit.Bucket applies inside a shard.
func (r *Ring) OwnerHash(h uint64) int {
	return r.ownerAt(hashkit.Mix64(h))
}

// ownerAt returns the member owning ring position pos (already
// remixed) — the one lookup Owner, OwnerHash and the arc-diff below
// share. The owner is the first point at or past pos, ties going to the
// lowest node: pos's slot gives the first point at or past the slot's
// start, and no point before it can qualify, so the answer is at most a
// short walk forward.
func (r *Ring) ownerAt(pos uint64) int {
	i := int(r.jump[pos>>r.shift])
	for i < len(r.points) && r.points[i].hash < pos {
		i++
	}
	if i == len(r.points) {
		i = 0 // wrap: positions past the last point belong to the first
	}
	return r.points[i].node
}

// move is one migration stream of a resize: the arcs node from cedes to
// node to.
type move struct {
	from, to int
	arcs     []store.Arc
}

// diffArcs computes the exact set of ring arcs whose owner differs
// between old and next, grouped into per-(from,to) moves. It walks the
// sorted union of both rings' point hashes: ownership is constant on
// the interval between two adjacent boundaries (no point of either ring
// lies strictly inside), so comparing the two owners once per interval
// and coalescing adjacent differing intervals yields the minimal arc
// set — the ranges a resize must stream, and nothing else.
func diffArcs(old, next *Ring) []move {
	bounds := make([]uint64, 0, len(old.points)+len(next.points))
	for _, p := range old.points {
		bounds = append(bounds, p.hash)
	}
	for _, p := range next.points {
		bounds = append(bounds, p.hash)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	w := 0
	for i, b := range bounds {
		if i > 0 && b == bounds[w-1] {
			continue
		}
		bounds[w] = b
		w++
	}
	bounds = bounds[:w]
	if len(bounds) < 2 {
		return nil
	}
	type pair struct{ from, to int }
	byPair := map[pair]int{} // pair -> index into moves
	var moves []move
	for i, hi := range bounds {
		lo := bounds[(i+len(bounds)-1)%len(bounds)] // i==0 wraps to the last boundary
		a, b := old.ownerAt(hi), next.ownerAt(hi)
		if a == b {
			continue
		}
		k := pair{from: a, to: b}
		mi, ok := byPair[k]
		if !ok {
			mi = len(moves)
			byPair[k] = mi
			moves = append(moves, move{from: a, to: b})
		}
		arcs := moves[mi].arcs
		if n := len(arcs); n > 0 && arcs[n-1].Hi == lo {
			arcs[n-1].Hi = hi // coalesce with the adjacent interval
		} else {
			arcs = append(arcs, store.Arc{Lo: lo, Hi: hi})
		}
		moves[mi].arcs = arcs
	}
	return moves
}
