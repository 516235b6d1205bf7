package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ssync/internal/store"
)

// Options configures a Cluster.
type Options struct {
	// Nodes is the initial cluster size. Default 3.
	Nodes int
	// Vnodes is the ring's virtual-point count per node. Default
	// DefaultVnodes.
	Vnodes int
	// Store configures every node's store (engine, lock algorithm,
	// shards); each node gets an independent store built from it.
	Store store.Options
}

func (o Options) withDefaults() Options {
	if o.Nodes < 1 {
		o.Nodes = 3
	}
	if o.Vnodes < 1 {
		o.Vnodes = DefaultVnodes
	}
	// Each member's wire server stripes its connections over the NUMA
	// nodes the member's hierarchical locks are built for; default the
	// count as locks.Options does.
	if o.Store.Nodes < 1 {
		o.Store.Nodes = 2
	}
	return o
}

// node is one cluster member: its store, the wire server over it, and
// the routing filter the server consults on every point op. Node ids
// are stable for the cluster's lifetime and never reused; a node that
// leaves the ring is marked retired but keeps serving, forwarding
// stragglers from clients that still route by the old ring.
type node struct {
	id      int
	store   *store.Store
	server  *store.Server
	filter  *nodeFilter
	retired atomic.Bool
}

// Cluster is N independent store nodes behind one consistent-hash ring —
// the test and CLI helper that turns "a store" into "a cluster" in one
// call. Each node is a full store.Server over its own store (any shard
// engine × any lock algorithm), served over in-process pipes exactly
// like the single-node experiments, so a cluster run measures routing
// and fan-out cost, not a different transport.
//
// Membership is elastic: AddNode and RemoveNode (migrate.go) resize the
// ring while clients keep operating. The ring pointer is the cluster's
// single source of routing truth — every node filter and every
// registered client reads it — and it only ever swings inside a
// migration's commit step, under every source filter's write lock.
type Cluster struct {
	opt   Options
	ring  atomic.Pointer[Ring]
	nodes atomic.Pointer[[]*node]

	mu      sync.Mutex // serializes membership changes; guards clients
	clients map[*Client]struct{}
}

// New builds and starts a cluster.
func New(opt Options) *Cluster {
	opt = opt.withDefaults()
	c := &Cluster{opt: opt, clients: map[*Client]struct{}{}}
	list := make([]*node, opt.Nodes)
	for i := range list {
		list[i] = c.newNode(i)
	}
	c.nodes.Store(&list)
	c.ring.Store(NewRing(opt.Nodes, opt.Vnodes))
	return c
}

// newNode builds one member: store, server, and routing filter.
func (c *Cluster) newNode(id int) *node {
	st := store.New(c.opt.Store)
	n := &node{id: id, store: st, server: store.NewServer(st, c.opt.Store.Nodes)}
	n.filter = newNodeFilter(c, n)
	n.server.SetRouter(n.filter)
	return n
}

func (c *Cluster) nodeList() []*node { return *c.nodes.Load() }
func (c *Cluster) node(id int) *node { return c.nodeList()[id] }

// Nodes returns the current member count.
func (c *Cluster) Nodes() int { return c.ring.Load().Nodes() }

// Members returns the current member ids, sorted ascending. After a
// RemoveNode the ids need not be contiguous.
func (c *Cluster) Members() []int { return c.ring.Load().Members() }

// Ring returns the current routing ring. It is immutable; a resize
// installs a new one.
func (c *Cluster) Ring() *Ring { return c.ring.Load() }

// Store returns node i's store (counter snapshots, direct handles).
// Retired nodes keep their (purged) stores.
func (c *Cluster) Store(i int) *store.Store { return c.node(i).store }

// Server returns node i's wire server.
func (c *Cluster) Server(i int) *store.Server { return c.node(i).server }

// Dial opens a routing client: one multiplexed pipe connection per
// member, each with the given in-flight window (non-positive means
// store.DefaultWindow). window 1 is the lock-step routed client. The
// client is registered with the cluster: a resize retargets it onto the
// new ring (dialing any new member) once the migration commits.
func (c *Cluster) Dial(window int) *Client {
	c.mu.Lock()
	defer c.mu.Unlock()
	cl := newClient(c, window, c.topologyFor(c.ring.Load(), nil, window))
	c.clients[cl] = struct{}{}
	return cl
}

// topologyFor builds a client topology for ring, carrying over prev's
// connections and dialing members that have none yet. The conns slice
// is indexed by node id and only ever grows; connections to retired
// nodes are kept so in-flight ops routed by an older ring still land.
// Runs under c.mu.
func (c *Cluster) topologyFor(ring *Ring, prev *topology, window int) *topology {
	size := ring.MaxID() + 1
	if prev != nil && len(prev.conns) > size {
		size = len(prev.conns)
	}
	conns := make([]*store.AsyncClient, size)
	if prev != nil {
		copy(conns, prev.conns)
	}
	for _, id := range ring.Members() {
		if conns[id] == nil {
			conns[id] = c.node(id).server.PipeAsyncClient(window)
		}
	}
	return newTopology(ring, conns)
}

// updateClients swings every registered client onto ring. Runs under
// c.mu, after the ring pointer itself has been stored.
func (c *Cluster) updateClients(ring *Ring) {
	for cl := range c.clients {
		cl.topo.Store(c.topologyFor(ring, cl.topo.Load(), cl.window))
	}
}

// forget drops a closing client from the resize-update registry.
func (c *Cluster) forget(cl *Client) {
	c.mu.Lock()
	delete(c.clients, cl)
	c.mu.Unlock()
}

// Close shuts down every node: forwarding-mesh connections first, then
// the stores. Call it after every client has been closed; it is
// idempotent.
func (c *Cluster) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.nodeList() {
		n.filter.closeConns()
	}
	for _, n := range c.nodeList() {
		n.store.Close()
	}
}

// String describes the cluster configuration.
func (c *Cluster) String() string {
	return fmt.Sprintf("cluster(%d nodes × %s, %d vnodes)", c.Nodes(), c.node(0).store, c.opt.Vnodes)
}
