package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"ssync/internal/store"
)

// topology is one immutable routing view: a ring and the connections to
// its members, indexed by node id (nil where the id is not a member).
// A resize installs a new topology; every operation loads the pointer
// exactly once, so a single op never mixes two views.
type topology struct {
	ring  *Ring
	conns []*store.AsyncClient
	merge func(shares [][]store.Entry, limit int) []store.Entry // t.mergeScan, bound once
}

func newTopology(ring *Ring, conns []*store.AsyncClient) *topology {
	t := &topology{ring: ring, conns: conns}
	t.merge = t.mergeScan
	return t
}

// Client is the routing client of a cluster, and the routed transport of
// the client store.Core: one multiplexed store.AsyncClient per member,
// with every key routed to its ring owner. Start sends a point op to
// exactly one node; a group is split per owner, each node's share
// submitted as one frame through that connection's in-flight window,
// and every scan fanned out to all members — all before Start returns,
// so the shares overlap. The Core's gather puts the responses back in
// the caller's order. Like every other connection kind in the
// repository, a Client is driven by one goroutine at a time (the
// per-node windows below it do the overlapping).
//
// A Client obtained from Cluster.Dial follows resizes: when a migration
// commits, the cluster swings the client onto the new ring. Ops in
// flight under the old view still land — the ex-owner's filter forwards
// them — so a resize costs stale ops one extra hop, never an error. A
// started group keeps the connections it went out on and the merge of
// the view it was split under.
//
// Client implements store.BatchConn through the embedded Core, so it
// drops into every call site a store connection fits — including
// workload scenarios via store.Driver, where routed op groups stay
// pipelined instead of blocking at issue time.
type Client struct {
	store.Core
	cluster *Cluster // nil for a hand-built NewClient
	window  int
	topo    atomic.Pointer[topology]
}

func newClient(cluster *Cluster, window int, t *topology) *Client {
	c := &Client{cluster: cluster, window: window}
	c.Core = store.NewCore(c.Start)
	c.topo.Store(t)
	return c
}

// NewClient wraps async connections over a fixed ring: conns is indexed
// by node id and must cover every member. Clients built this way do not
// follow resizes; Cluster.Dial is the elastic path.
func NewClient(ring *Ring, conns []*store.AsyncClient) (*Client, error) {
	if len(conns) < ring.MaxID()+1 {
		return nil, fmt.Errorf("cluster: %d connections for a ring with max node id %d", len(conns), ring.MaxID())
	}
	for _, id := range ring.Members() {
		if conns[id] == nil {
			return nil, fmt.Errorf("cluster: no connection for member %d", id)
		}
	}
	return newClient(nil, 0, newTopology(ring, conns)), nil
}

// Node returns the async connection to node i (nil for a non-member the
// client never dialed).
func (c *Client) Node(i int) *store.AsyncClient { return c.topo.Load().conns[i] }

// Owner returns the node that owns key in the client's current view.
func (c *Client) Owner(key string) int { return c.topo.Load().ring.Owner(key) }

// owner returns the connection to key's owner in this view.
func (t *topology) owner(key string) *store.AsyncClient { return t.conns[t.ring.Owner(key)] }

// Close closes every node connection; every error is reported joined.
func (c *Client) Close() error {
	if c.cluster != nil {
		// Deregister first: after forget returns no resize will install
		// fresh connections on this client.
		c.cluster.forget(c)
	}
	var errs []error
	for _, conn := range c.topo.Load().conns {
		if conn == nil {
			continue
		}
		if err := conn.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// GetAsync submits a routed get to the key's owner.
func (c *Client) GetAsync(key string) *store.Future { return c.topo.Load().owner(key).GetAsync(key) }

// PutAsync submits a routed put to the key's owner.
func (c *Client) PutAsync(key string, value []byte) *store.Future {
	return c.topo.Load().owner(key).PutAsync(key, value)
}

// DeleteAsync submits a routed delete to the key's owner.
func (c *Client) DeleteAsync(key string) *store.Future {
	return c.topo.Load().owner(key).DeleteAsync(key)
}

// routeScratch is one pooled owner-bucketing table. Routed groups run at
// pipeline depth on the hot path, so the per-call [][]int (and the
// regrown index slices inside it) are worth recycling. Ownership rule:
// the table and every index slice in it are valid until release; Start
// copies what a flight keeps out of it and releases on return.
type routeScratch struct {
	groups [][]int // request indices per owner node
	scans  []int   // request indices of the scans, which have no one owner
}

var routePool = sync.Pool{New: func() any { return new(routeScratch) }}

// getGroups returns a cleared owner-bucketing table with n node slots.
//
//ssync:pooled
func getGroups(n int) *routeScratch {
	s := routePool.Get().(*routeScratch)
	if cap(s.groups) < n {
		s.groups = make([][]int, n)
	}
	s.groups = s.groups[:n]
	for i := range s.groups {
		s.groups[i] = s.groups[i][:0]
	}
	s.scans = s.scans[:0]
	return s
}

func (s *routeScratch) release() { routePool.Put(s) }

// mergeScan merges the members' scan shares (shares[j] is member j's,
// in ring.members order) — each already sorted and trimmed to limit by
// its node — with the store's one merge, stopping at limit. During a
// resize's copy window a key can transiently exist on both the old and
// the new owner; the merge meets the two copies side by side, takes the
// key once, and the copy on the node this topology's ring calls the
// owner wins.
func (t *topology) mergeScan(shares [][]store.Entry, limit int) []store.Entry {
	return store.MergeRuns(nil, shares, limit, t.ownsCopy)
}

// ownsCopy reports whether member j's copy of key is the ring owner's.
func (t *topology) ownsCopy(key string, j int) bool { return t.ring.Owner(key) == t.ring.members[j] }

// Start is the routed transport. A point op goes to its owner as that
// connection's own flight. A group is split per owner node and each
// node's share submitted as one frame of the group's batch encoding —
// all dispatched before anything is awaited, so they overlap through
// the per-node windows — and each scan in it is fanned out to every
// member; the flight records which group positions every frame answers.
// A node that owns the whole group gets it as it stands, no copy. The
// frames, positions and owner-ordered requests are fl's (Ready, Order,
// Sub): a recycled flight carries a group without allocating.
func (c *Client) Start(fl *store.Flight, req store.Request, b store.Batch) store.Reply {
	t := c.topo.Load()
	members := t.ring.members
	if b.Op == 0 {
		if req.Op != store.OpScan {
			return t.owner(req.Key).Start(fl, req, b)
		}
		// A lone scan is the whole group: its fan's frames answer it in
		// order, with no positions.
		fl = fl.Ready(len(members))
		fl.Merge = t.merge
		t.fan(fl.Frames, req)
		return store.Reply{Flight: fl}
	}
	rs := getGroups(len(t.conns))
	defer rs.release()
	for i, r := range b.Reqs {
		switch r.Op {
		case store.OpGet, store.OpPut, store.OpDelete:
			n := t.ring.Owner(r.Key)
			rs.groups[n] = append(rs.groups[n], i)
		case store.OpScan:
			rs.scans = append(rs.scans, i)
		default:
			return store.Reply{Err: store.ErrBatchOp}
		}
	}
	n := len(b.Reqs)
	nframes, whole := len(rs.scans)*len(members), false
	for _, idxs := range rs.groups {
		if len(idxs) > 0 {
			nframes++
			whole = len(idxs) == n
		}
	}
	// The frames are sized up front and filled where they lie: each holds
	// its future, which its connection's reader resolves in place. So do
	// the positions and the requests, which the frames slice.
	fl = fl.Ready(nframes)
	fl.Merge = t.merge
	var order []int         // the group's positions, frame by frame
	var sub []store.Request // the point requests, in that order
	if !whole {
		order, sub = slices.Grow(fl.Order[:0], n), slices.Grow(fl.Sub[:0], n-len(rs.scans))
	}
	k := 0 // the next frame to fill
	for node, idxs := range rs.groups {
		switch {
		case len(idxs) == 0:
			continue
		case whole:
			t.conns[node].Submit(&fl.Frames[k].Fut, store.Request{}, b)
		default:
			lo := len(order)
			for _, i := range idxs {
				order, sub = append(order, i), append(sub, b.Reqs[i])
			}
			fl.Frames[k].At = order[lo:]
			t.conns[node].Submit(&fl.Frames[k].Fut, store.Request{}, store.Batch{Op: b.Op, Reqs: sub[lo:]})
		}
		k++
	}
	for _, i := range rs.scans {
		order = append(order, i)
		fl.Frames[k].At = order[len(order)-1:]
		t.fan(fl.Frames[k:k+len(members)], b.Reqs[i])
		k += len(members)
	}
	if !whole {
		fl.Order, fl.Sub = order, sub
	}
	return store.Reply{Flight: fl}
}

// fan submits scan to every member, member j's share into frames[j],
// and marks frames[0] as the head of the fan.
func (t *topology) fan(frames []store.Frame, scan store.Request) {
	frames[0].Fan, frames[0].Limit = len(frames), int(scan.Limit)
	for j, node := range t.ring.members {
		t.conns[node].Submit(&frames[j].Fut, scan, store.Batch{})
	}
}

var _ store.BatchConn = (*Client)(nil)
