package cluster

import (
	"sync"

	"ssync/internal/hashkit"
	"ssync/internal/store"
)

// forwardWindow is the in-flight window of each node-to-node
// forwarding connection.
const forwardWindow = 16

// nodeFilter is one node's store.Router: the per-op decision point that
// keeps the single-owner discipline across a resize. Every point op the
// node's server receives passes through here; the filter checks the
// shared ring and either executes locally (recording writes that land
// in a migrating arc) or forwards the op to the node that owns the key
// now. Forwarding is what lets clients keep operating on a stale ring:
// an op routed to an ex-owner takes one extra hop instead of failing.
type nodeFilter struct {
	c *Cluster
	n *node

	// mu is the migration filter lock. Every locally executing op holds
	// it shared; a migration's commit step holds it exclusively. Taking
	// the write lock therefore drains every in-flight local execution,
	// and because the ring is loaded under this lock, no op can execute
	// here under the old ring after the commit flips it — the property
	// the linearizability-across-migration test leans on.
	mu  sync.RWMutex
	mig *migTracker // non-nil while this node is a migration source

	connMu sync.Mutex
	conns  map[int]*store.AsyncClient // forwarding mesh, dialed lazily
}

func newNodeFilter(c *Cluster, n *node) *nodeFilter {
	return &nodeFilter{c: c, n: n, conns: map[int]*store.AsyncClient{}}
}

// migTracker records keys written in a migrating range while the bulk
// copy streams underneath — the dirty set whose re-ship at commit turns
// the copy's point-in-time snapshot into an exact one. Writes outside
// the moving arcs are not tracked; they are not moving.
type migTracker struct {
	arcs  []store.Arc
	mu    sync.Mutex // recorders run concurrently under the filter's RLock
	dirty map[string]struct{}
}

// record notes a write. Its position comes from the view's own hash,
// the one its owner was decided by; the key is frame bytes and becomes
// a string only if it lands in a moving arc and has to be remembered.
func (t *migTracker) record(req *store.RequestView) {
	if req.Op != store.OpPut && req.Op != store.OpDelete {
		return
	}
	if !store.ArcsContain(t.arcs, hashkit.Mix64(req.Hash())) {
		return
	}
	t.mu.Lock()
	t.dirty[string(req.Key)] = struct{}{}
	t.mu.Unlock()
}

// Route implements store.Router for one point op.
func (f *nodeFilter) Route(h *store.Handle, req store.RequestView, hops int, out []byte) ([]byte, error) {
	f.mu.RLock()
	// The ring must be loaded under the lock: the commit step flips it
	// while holding mu exclusively, so an op that sees the old ring has
	// executed (and been dirty-tracked) before the flip, and an op that
	// sees the new one executes after the delta shipped. The owner is
	// decided from the frame bytes; nothing is copied to execute here,
	// and the engine places the key by the hash the owner was found by.
	owner := f.c.ring.Load().OwnerHash(req.Hash())
	if owner == f.n.id {
		out, err := h.ExecView(req, out)
		if f.mig != nil {
			f.mig.record(&req)
		}
		f.mu.RUnlock()
		return out, err
	}
	f.mu.RUnlock()
	// Never forward while holding mu: a commit locking several source
	// filters would deadlock against ops forwarding between them. The
	// owner was decided under the lock; if the ring flips before the
	// forward lands, the receiving filter re-checks and takes one more
	// hop — bounded by the cap below, since there is at most one
	// migration in flight.
	resp := store.Response{Status: store.StatusError, Msg: store.ErrHopLimit.Error()}
	if hops < store.MaxForwardHops {
		// The forward leaves this connection's goroutine: the one place a
		// routed op is copied out of its frame.
		resp = awaitForward(f.meshConn(owner).ForwardAsync(req.Owned(), hops+1))
	}
	return store.AppendResponse(out, req.Op, resp)
}

// batchSplit is RouteBatch's index bookkeeping: which sub-ops execute
// here, which are forwarded, and to whom. It is pooled so that a frame
// this node wholly owns allocates nothing in the filter.
type batchSplit struct {
	local, remote, owners []int
}

var batchSplitPool = sync.Pool{New: func() any { return new(batchSplit) }}

// RouteBatch implements store.Router for a batch's sub-ops: the local
// subset executes as one ExecViewsOnly under the filter lock, straight
// out of the frame; the rest are copied out and forwarded individually
// (submitted together, awaited together) after it is released. Scans
// always read the local store. A frame with no local sub-op executes
// nothing here — this node must never apply a write it does not own.
// Each point op's key is hashed once, on its view, for the owner check,
// the engine's placement and the dirty tracking alike.
func (f *nodeFilter) RouteBatch(h *store.Handle, reqs []store.RequestView) []store.Response {
	sc := batchSplitPool.Get().(*batchSplit)
	local, remote, owners := sc.local[:0], sc.remote[:0], sc.owners[:0]
	f.mu.RLock()
	ring := f.c.ring.Load()
	for i := range reqs {
		if r := &reqs[i]; r.Op >= store.OpGet && r.Op <= store.OpDelete {
			if owner := ring.OwnerHash(r.Hash()); owner != f.n.id {
				remote, owners = append(remote, i), append(owners, owner)
				continue
			}
		}
		local = append(local, i)
	}
	resps := h.ExecViewsOnly(reqs, local)
	if f.mig != nil {
		for _, i := range local {
			f.mig.record(&reqs[i])
		}
	}
	f.mu.RUnlock()
	if len(remote) > 0 {
		futs := make([]*store.Future, len(remote))
		for j, i := range remote {
			futs[j] = f.meshConn(owners[j]).ForwardAsync(reqs[i].Owned(), 1)
		}
		for j, i := range remote {
			resps[i] = awaitForward(futs[j])
		}
	}
	sc.local, sc.remote, sc.owners = local, remote, owners
	batchSplitPool.Put(sc)
	return resps
}

// awaitForward awaits one forwarded op; a transport failure becomes the
// op's error response.
func awaitForward(fut *store.Future) store.Response {
	resp, err := fut.Wait()
	if err != nil {
		return store.Response{Status: store.StatusError, Msg: err.Error()}
	}
	return resp
}

// meshConn returns (dialing on first use) the forwarding connection to
// node to. The mesh is lazy because most pairs never forward: only a
// resize window and post-resize stale clients create traffic here.
func (f *nodeFilter) meshConn(to int) *store.AsyncClient {
	f.connMu.Lock()
	defer f.connMu.Unlock()
	if conn := f.conns[to]; conn != nil {
		return conn
	}
	conn := f.c.node(to).server.PipeAsyncClient(forwardWindow)
	f.conns[to] = conn
	return conn
}

// closeConns closes the forwarding mesh (cluster shutdown).
func (f *nodeFilter) closeConns() {
	f.connMu.Lock()
	defer f.connMu.Unlock()
	for to, conn := range f.conns {
		_ = conn.Close()
		delete(f.conns, to)
	}
}

var _ store.Router = (*nodeFilter)(nil)
