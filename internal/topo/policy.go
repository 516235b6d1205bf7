package topo

import (
	"fmt"
	"runtime"
	"sort"
)

// Policy names a shard→domain placement strategy. The paper's core
// result — synchronization cost is dominated by whether the contended
// line stays inside one LLC domain — turns into exactly one placement
// question: should the shards a batch visits back-to-back live in the
// same domain (compact) or be spread for memory bandwidth (scatter)?
//
//   - none: no placement. Shards get a (balanced) nominal assignment
//     so every caller can reason uniformly, but nothing is pinned and
//     execution order is left to the Go scheduler.
//   - compact: contiguous shard blocks per domain. Consecutive shard
//     indices — which ExecBatch and Scan visit back-to-back — share an
//     LLC, so a batch's cache-line traffic stays on-die. This is what
//     the paper's locality result prescribes for batched point ops.
//   - scatter: round-robin shards across domains. Maximizes the
//     memory-node spread of any shard subset (bandwidth-bound scans,
//     large values), at the price of a domain crossing between every
//     pair of adjacent shards.
//   - auto: resolve from the topology. Today that is compact on any
//     multi-domain machine (the paper's batched-point-op verdict) and
//     none on a single-domain one, where placement cannot help.
type Policy string

// The placement policies.
const (
	PolicyNone    Policy = "none"
	PolicyCompact Policy = "compact"
	PolicyScatter Policy = "scatter"
	PolicyAuto    Policy = "auto"
)

// Policies lists every policy, in comparison order.
var Policies = []Policy{PolicyNone, PolicyCompact, PolicyScatter, PolicyAuto}

// Pins reports whether the policy actually binds execution to domains
// (none keeps its nominal assignment on paper only).
func (p Policy) Pins() bool { return p != PolicyNone && p != "" }

// resolve maps auto to a concrete policy for a domain count.
func (p Policy) resolve(domains int) Policy {
	if p == PolicyAuto {
		if domains > 1 {
			return PolicyCompact
		}
		return PolicyNone
	}
	return p
}

// assign maps n shards onto d domains (indices 0..d-1). The result is
// total (every shard assigned) and balanced (domain loads differ by at
// most one) for every policy — the property test in policy_test.go
// holds this for every policy on every arch platform model.
func (p Policy) assign(n, d int) []int {
	out := make([]int, n)
	if d <= 1 {
		return out
	}
	switch p.resolve(d) {
	case PolicyCompact:
		// Contiguous blocks: shard s → domain s·d/n. Block sizes are
		// ⌊n/d⌋ or ⌈n/d⌉, and adjacent shards change domain only at
		// block boundaries — d−1 crossings across the whole index
		// space, the minimum any balanced assignment can have.
		for s := 0; s < n; s++ {
			out[s] = s * d / n
		}
	default:
		// Round-robin (scatter, and none's nominal assignment).
		for s := 0; s < n; s++ {
			out[s] = s % d
		}
	}
	return out
}

// Placement binds a policy to a machine. It is immutable and safe to
// share.
type Placement struct {
	Policy Policy
	Topo   *Topology
}

// NewPlacement binds policy to t (nil t discovers the host).
func NewPlacement(policy Policy, t *Topology) *Placement {
	if t == nil {
		t = Discover()
	}
	return &Placement{Policy: policy, Topo: t}
}

// String describes the placement.
func (pl *Placement) String() string {
	if pl == nil {
		return "place(none)"
	}
	return fmt.Sprintf("place(%s over %s, %d domains)", pl.Policy, pl.Topo.Source, pl.Topo.NumDomains())
}

// ShardDomains assigns n shards to domains and returns the domain id
// per shard. The assignment is total and balanced over the machine's
// domains for every policy, including none (whose assignment is
// nominal — Pin ignores it).
func (pl *Placement) ShardDomains(n int) []int {
	if pl == nil {
		return nil
	}
	return pl.Policy.assign(n, pl.Topo.NumDomains())
}

// VisitOrder returns a shard visit order that walks the assignment
// domain-major: all of one domain's shards (index-ascending), then the
// next domain's. A sweep over shards in this order crosses a domain
// boundary the minimum number of times the assignment allows, instead
// of ping-ponging the executing thread's cache lines between domains on
// every step. For a compact assignment the order is the identity.
func (pl *Placement) VisitOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	assign := pl.ShardDomains(n)
	if assign == nil {
		return order
	}
	sort.SliceStable(order, func(a, b int) bool {
		return assign[order[a]] < assign[order[b]]
	})
	return order
}

// Pin binds the calling goroutine to the domain's CPUs and returns the
// undo. Pinning only happens when it can mean something: a pinning
// policy, a real multi-domain topology, and a domain whose CPUs exist
// on this host (arch-model topologies fail that test and no-op). The
// undo restores the thread's previous mask; callers must run it on the
// same goroutine. Every failure path is a silent no-op — placement is
// an optimization, never an outage. Pin is the package's one pinning
// entry point; nothing in the store or cluster calls it (DESIGN §5.7).
func (pl *Placement) Pin(domain int) (undo func()) {
	noop := func() {}
	if pl == nil || !pl.Policy.Pins() || pl.Topo.NumDomains() < 2 {
		return noop
	}
	if domain < 0 || domain >= len(pl.Topo.Domains) {
		return noop
	}
	prev, err := getAffinity()
	if err != nil {
		return noop
	}
	runtime.LockOSThread()
	if err := setAffinityCPUs(pl.Topo.Domains[domain].CPUs); err != nil {
		runtime.UnlockOSThread()
		return noop
	}
	return func() {
		_ = setAffinityMask(prev)
		runtime.UnlockOSThread()
	}
}

// EstimateCost is the arch-model-driven placement cost estimate: the
// coherence cost, in the topology's own distance units (cycles for a
// FromPlatform topology), of one full shard sweep executed in the
// given visit order — the access pattern of ExecBatch's group loop and
// Scan's shard walk, where the executing thread drags its working set
// from each shard's domain to the next one's. Each step between
// consecutively visited shards costs Dist(domain(a), domain(b)); a
// same-domain step costs the in-domain minimum.
//
// On single-domain CI hardware, where measured Kops/s honestly reads
// as parity, this estimate is what still orders the policies: compact
// minimizes domain crossings per sweep, so for every arch platform
// EstimateCost(compact) ≤ EstimateCost(scatter) — asserted by the
// property tests and reported by the place/model experiment.
func EstimateCost(t *Topology, assign []int, order []int) uint64 {
	if len(assign) == 0 {
		return 0
	}
	if order == nil {
		order = make([]int, len(assign))
		for i := range order {
			order[i] = i
		}
	}
	var cost uint64
	for i := 1; i < len(order); i++ {
		cost += t.Dist(assign[order[i-1]], assign[order[i]])
	}
	return cost
}
