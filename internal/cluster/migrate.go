package cluster

import (
	"errors"
	"fmt"
	"sort"

	"ssync/internal/store"
)

// Live ring resize. A resize streams exactly the arcs whose owner
// changes (diffArcs) from each old owner to the new one while client
// traffic keeps flowing, in four phases:
//
//	preparing:  a dirty-key tracker is installed on every source node;
//	            from here on, writes landing in a moving arc are
//	            recorded while the bulk copy runs underneath.
//	copying:    each move's arcs stream source → target in bounded
//	            chunks, exported from the source store and applied to
//	            the target store through direct handles. The walk is a
//	            point-in-time sweep; concurrent writes behind its
//	            cursor are exactly what the tracker catches.
//	forwarding/ the sources are quiesced (each filter's write lock
//	commit:     drains its local executors), the dirty deltas are
//	            re-shipped, source and target digests are reconciled,
//	            the ceded ranges are purged, and the ring flips — all
//	            before any source lock releases, so at no instant do
//	            two nodes execute ops for the same key.
//	done:       registered clients are swung onto the new ring; ops
//	            still routed by the old one are forwarded by the
//	            ex-owner's filter.
//
// An abort at any point clears the trackers and purges the partial
// copies at the targets; the ring never flips, so the cluster degrades
// to exactly its pre-resize state.

// migOptions tunes one migration run; the exported entry points use
// defaults, tests inject faults and smaller chunks.
type migOptions struct {
	chunk     int // max entries per export chunk
	slots     int // anti-entropy digest slots
	failAfter int // test hook: abort after this many export chunks (0 = off)
}

func defaultMigOptions() migOptions { return migOptions{chunk: 1024, slots: 512} }

// AddNode grows the cluster by one node, streaming the arcs the new
// node takes over from their current owners while traffic keeps
// flowing. It returns the new node's id. Ids are stable: existing ids
// never change, and removed ids are never reused.
func (c *Cluster) AddNode() (int, error) { return c.addNode(defaultMigOptions()) }

func (c *Cluster) addNode(mo migOptions) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.ring.Load()
	list := c.nodeList()
	id := len(list)
	n := c.newNode(id)
	grown := append(append([]*node(nil), list...), n)
	c.nodes.Store(&grown)
	if err := c.migrate(old, old.Add(id), mo); err != nil {
		// The node never joined the ring and no client ever saw it; shut
		// its store down (after the abort purged the partial copy) and
		// leave the id burned.
		n.retired.Store(true)
		n.filter.closeConns()
		n.store.Close()
		return -1, err
	}
	return id, nil
}

// RemoveNode shrinks the cluster: node id's arcs stream to their new
// owners, then id leaves the ring. The node's server stays alive —
// retired, empty — to forward stragglers from clients that still route
// by the old ring.
func (c *Cluster) RemoveNode(id int) error { return c.removeNode(id, defaultMigOptions()) }

func (c *Cluster) removeNode(id int, mo migOptions) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.ring.Load()
	if id < 0 || id >= len(c.nodeList()) || !old.Has(id) {
		return fmt.Errorf("cluster: node %d is not a member", id)
	}
	if old.Nodes() == 1 {
		return errors.New("cluster: cannot remove the last node")
	}
	if err := c.migrate(old, old.Without(id), mo); err != nil {
		return err
	}
	c.node(id).retired.Store(true)
	return nil
}

// migrate drives one resize from ring old to ring next. Caller holds
// c.mu, so at most one migration is ever in flight.
func (c *Cluster) migrate(old, next *Ring, mo migOptions) error {
	moves := diffArcs(old, next)
	if len(moves) == 0 {
		c.ring.Store(next)
		c.updateClients(next)
		return nil
	}

	// Distinct source ids, sorted: the trackers are installed per
	// source, and the commit step locks the filters in this order.
	arcsBySource := map[int][]store.Arc{}
	for _, m := range moves {
		arcsBySource[m.from] = append(arcsBySource[m.from], m.arcs...)
	}
	sources := make([]int, 0, len(arcsBySource))
	for id := range arcsBySource {
		sources = append(sources, id)
	}
	sort.Ints(sources)

	// PREPARING: install the dirty trackers.
	for _, id := range sources {
		f := c.node(id).filter
		f.mu.Lock()
		f.mig = &migTracker{arcs: arcsBySource[id], dirty: map[string]struct{}{}}
		f.mu.Unlock()
	}

	// The driver works on the nodes' stores directly, one handle per
	// node, never through a server: the copies must land on targets the
	// ring does not route to yet, and the commit holds the source filters'
	// write locks in-process anyway.
	handles := map[int]*store.Handle{}
	handle := func(id int) *store.Handle {
		h := handles[id]
		if h == nil {
			h = c.node(id).store.NewHandle(0)
			handles[id] = h
		}
		return h
	}

	clearTrackers := func() {
		for _, id := range sources {
			f := c.node(id).filter
			f.mu.Lock()
			f.mig = nil
			f.mu.Unlock()
		}
	}
	abort := func(err error) error {
		clearTrackers()
		// Drop the partial copies: the ring is unchanged, so the targets
		// must not keep keys it does not assign them.
		for _, m := range moves {
			handle(m.to).PurgeRange(m.arcs)
		}
		return err
	}

	// COPYING: stream every move while traffic flows, in chunks of at
	// most mo.chunk entries and MaxFrame/2 bytes.
	chunks := 0
	for _, m := range moves {
		src, dst := handle(m.from), handle(m.to)
		for cursor, done := uint64(0), false; !done; {
			var entries []store.Entry
			entries, cursor, done = src.ExportRange(cursor, mo.chunk, store.MaxFrame/2, m.arcs)
			chunks++
			if mo.failAfter > 0 && chunks >= mo.failAfter {
				return abort(fmt.Errorf("cluster: migration killed after %d chunks (fault injection)", chunks))
			}
			dst.ApplyMigration(entries, nil)
		}
	}

	// COMMIT: quiesce every source, ship the deltas, verify, purge,
	// flip. The write locks drain all in-flight local executions and
	// block new ones, so the delta read below sees the final pre-flip
	// state of every dirty key; client ops meanwhile queue on the locks
	// (or forward, for ops already past their owner check) instead of
	// failing.
	for _, id := range sources {
		c.node(id).filter.mu.Lock()
	}
	unlock := func() {
		for i := len(sources) - 1; i >= 0; i-- {
			c.node(sources[i]).filter.mu.Unlock()
		}
	}
	for _, m := range moves {
		f := c.node(m.from).filter
		src, dst := handle(m.from), handle(m.to)
		var puts []store.Entry
		var dels []string
		for k := range f.mig.dirty { // no tracker lock needed: recorders are drained
			if !store.ArcsContain(m.arcs, store.KeyPos(k)) {
				continue
			}
			if v, ok := src.Get(k); ok {
				puts = append(puts, store.Entry{Key: k, Value: v})
			} else {
				dels = append(dels, k)
			}
		}
		dst.ApplyMigration(puts, dels)
		if err := reconcile(src, dst, m.arcs, mo.slots); err != nil {
			unlock()
			return abort(fmt.Errorf("cluster: reconcile %d→%d: %w", m.from, m.to, err))
		}
	}
	// Every move verified. Purge the ceded ranges, flip the ring, drop
	// the trackers — still under every source lock, so no op ever
	// executes at a source under the new ring or at a target under the
	// old one.
	for _, m := range moves {
		handle(m.from).PurgeRange(m.arcs)
	}
	c.ring.Store(next)
	for _, id := range sources {
		c.node(id).filter.mig = nil
	}
	unlock()
	c.updateClients(next)
	return nil
}

// reconcile is the anti-entropy check of one move: source (its filter
// is write-locked) and target compare per-slot XOR digests of the moved
// arcs. A mismatch triggers one bounded repair — both sides re-export
// the arcs (never the whole store), the diff lands on the target, and
// the digests are compared once more.
func reconcile(src, dst *store.Handle, arcs []store.Arc, slots int) error {
	match := func() bool {
		want, got := src.DigestRange(arcs, slots), dst.DigestRange(arcs, slots)
		for i := range want {
			if want[i] != got[i] {
				return false
			}
		}
		return true
	}
	if match() {
		return nil
	}
	srcSet := map[string][]byte{}
	exportAll(src, arcs, func(e store.Entry) { srcSet[e.Key] = e.Value })
	var dels []string
	exportAll(dst, arcs, func(e store.Entry) {
		v, ok := srcSet[e.Key]
		switch {
		case !ok:
			dels = append(dels, e.Key) // target-only key: drop it
		case string(v) == string(e.Value):
			delete(srcSet, e.Key) // already in agreement
		}
	})
	var puts []store.Entry
	for k, v := range srcSet {
		puts = append(puts, store.Entry{Key: k, Value: v})
	}
	dst.ApplyMigration(puts, dels)
	if !match() {
		return errors.New("cluster: digests still differ after repair")
	}
	return nil
}

// exportAll calls fn on every entry of h whose ring position lies in
// arcs.
func exportAll(h *store.Handle, arcs []store.Arc, fn func(store.Entry)) {
	for cursor, done := uint64(0), false; !done; {
		var chunk []store.Entry
		chunk, cursor, done = h.ExportRange(cursor, store.MaxBatchOps, store.MaxFrame, arcs)
		for _, e := range chunk {
			fn(e)
		}
	}
}
