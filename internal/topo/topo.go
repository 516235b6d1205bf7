// Package topo discovers the cache-coherence topology of the machine
// a process runs on and expresses it in the same
// vocabulary as the paper's simulated platforms (internal/arch): cores,
// LLC domains (dies/sockets — the unit inside which the paper's
// locality result says synchronization is cheap), memory nodes, and a
// distance between domains. The point of the shared vocabulary is that
// placement policy (policy.go) takes either kind of machine as input:
// the host, parsed from Linux sysfs at runtime, or any of the paper's
// four platform models, converted through FromPlatform — so a policy
// can be unit-tested against the Opteron's 8 dies and scored, unchanged,
// on whatever CI or production hardware looks like.
//
// On non-Linux hosts (and Linux hosts whose sysfs is unreadable)
// discovery degrades to a single flat domain covering every CPU, under
// which every policy is a no-op — placement never breaks a build, it
// just stops helping.
//
// The package is a library: the place/model experiment is its one
// caller outside its tests. No store, server or cluster path places or
// pins anything; DESIGN §5.7 says why, and what would bring that back.
package topo

import (
	"fmt"
	"sort"

	"ssync/internal/arch"
)

// Synthetic distance weights for discovered (sysfs/flat) topologies,
// in arbitrary cost units with the same shape as the paper's Table 2:
// staying inside an LLC domain is an order of magnitude cheaper than
// leaving it, and crossing a memory node costs several times a
// same-node domain hop. Platform-derived topologies use the real
// latency tables instead (FromPlatform).
const (
	distLocal     = 1  // same domain: the line stays in one LLC
	distCrossDom  = 10 // different domain, same memory node
	distCrossNode = 40 // different memory node (socket hop)
)

// Domain is one LLC domain: the set of logical CPUs that share a
// last-level cache, and the memory node the domain belongs to. ID is
// the domain's dense index in Topology.Domains.
type Domain struct {
	ID   int
	Node int
	CPUs []int
}

// Topology is one machine, real or modeled.
type Topology struct {
	// Source records where the topology came from: "sysfs", "flat",
	// or "arch:<Name>".
	Source string
	// Domains lists the LLC domains, CPUs ascending within each.
	Domains []Domain
	// Nodes is the memory-node count.
	Nodes int
	// dist[a][b] is the coherence-transfer cost between domains a and b
	// (dist[a][a] is the in-domain cost). Platform-derived topologies
	// carry real cycle latencies; discovered ones carry the synthetic
	// weights above. Either way the matrix is symmetric and in-domain
	// is the minimum, which is all the policy layer relies on.
	dist [][]uint64
}

// NumDomains returns the LLC-domain count.
func (t *Topology) NumDomains() int { return len(t.Domains) }

// NumCPUs counts the logical CPUs across all domains.
func (t *Topology) NumCPUs() int {
	n := 0
	for _, d := range t.Domains {
		n += len(d.CPUs)
	}
	return n
}

// Dist returns the coherence-transfer cost between two domains.
func (t *Topology) Dist(a, b int) uint64 { return t.dist[a][b] }

// DomainOfCPU returns the domain index owning the logical CPU, or -1.
func (t *Topology) DomainOfCPU(cpu int) int {
	for _, d := range t.Domains {
		for _, c := range d.CPUs {
			if c == cpu {
				return d.ID
			}
		}
	}
	return -1
}

// String summarises the machine.
func (t *Topology) String() string {
	return fmt.Sprintf("topo(%s: %d cpus, %d llc domains, %d nodes)",
		t.Source, t.NumCPUs(), t.NumDomains(), t.Nodes)
}

// finish sorts domains into a canonical order (by memory node, then
// lowest CPU), assigns dense IDs, and builds the synthetic distance
// matrix. Used by the discovered constructors; FromPlatform builds its
// own matrix from the latency tables.
func (t *Topology) finish() *Topology {
	for i := range t.Domains {
		sort.Ints(t.Domains[i].CPUs)
	}
	sort.Slice(t.Domains, func(a, b int) bool {
		da, db := &t.Domains[a], &t.Domains[b]
		if da.Node != db.Node {
			return da.Node < db.Node
		}
		return da.CPUs[0] < db.CPUs[0]
	})
	maxNode := 0
	for i := range t.Domains {
		t.Domains[i].ID = i
		if t.Domains[i].Node > maxNode {
			maxNode = t.Domains[i].Node
		}
	}
	if t.Nodes < maxNode+1 {
		t.Nodes = maxNode + 1
	}
	n := len(t.Domains)
	t.dist = make([][]uint64, n)
	for a := range t.dist {
		t.dist[a] = make([]uint64, n)
		for b := range t.dist[a] {
			switch {
			case a == b:
				t.dist[a][b] = distLocal
			case t.Domains[a].Node == t.Domains[b].Node:
				t.dist[a][b] = distCrossDom
			default:
				t.dist[a][b] = distCrossNode
			}
		}
	}
	return t
}

// Flat returns the degenerate topology every fallback path lands on:
// one domain, one memory node, ncpu CPUs (at least 1). Every placement
// policy is trivially balanced — and trivially useless — on it.
func Flat(ncpu int) *Topology {
	if ncpu < 1 {
		ncpu = 1
	}
	cpus := make([]int, ncpu)
	for i := range cpus {
		cpus[i] = i
	}
	t := &Topology{Source: "flat", Domains: []Domain{{Node: 0, CPUs: cpus}}, Nodes: 1}
	return t.finish()
}

// FromPlatform converts one of the paper's machine models into a
// Topology: each memory node (die on the Opteron, socket on the Xeon,
// mesh half on the Tilera) becomes an LLC domain holding its cores,
// and the domain distance matrix is the model's own atomic-CAS latency
// between representative cores — so a placement cost estimated on this
// topology is denominated in the paper's measured cycles, not in
// synthetic weights.
//
// The "CPUs" of an arch topology are simulated core ids; pinning to
// them on a real host degrades to a no-op unless the host happens to
// have that many CPUs. Their value is as policy input and cost model.
func FromPlatform(p *arch.Platform) *Topology {
	byNode := make(map[int][]int)
	for c := 0; c < p.NumCores; c++ {
		n := p.NodeOf(c)
		byNode[n] = append(byNode[n], c)
	}
	t := &Topology{Source: "arch:" + p.Name, Nodes: p.NumNodes}
	for n := 0; n < p.NumNodes; n++ {
		cpus := byNode[n]
		if len(cpus) == 0 {
			continue
		}
		sort.Ints(cpus)
		t.Domains = append(t.Domains, Domain{Node: n, CPUs: cpus})
	}
	sort.Slice(t.Domains, func(a, b int) bool { return t.Domains[a].Node < t.Domains[b].Node })
	nd := len(t.Domains)
	t.dist = make([][]uint64, nd)
	for a := 0; a < nd; a++ {
		t.Domains[a].ID = a
		t.dist[a] = make([]uint64, nd)
	}
	for a := 0; a < nd; a++ {
		for b := 0; b < nd; b++ {
			ra, rb := t.Domains[a].CPUs[0], t.Domains[b].CPUs[0]
			t.dist[a][b] = p.Lat(arch.CAS, arch.Modified, p.DistClass(ra, rb))
		}
	}
	return t
}
