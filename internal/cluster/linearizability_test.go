package cluster

import (
	"encoding/binary"
	"sync"
	"testing"

	"ssync/internal/locks"
	"ssync/internal/store"
	"ssync/internal/store/linearize"
	"ssync/internal/workload"
	"ssync/internal/xrand"
)

// Per-key linearizability, written once for every row of the transport
// table: concurrent clients run an unconstrained put/get/delete mix over
// a few hot keys, recording every op's invocation/response interval, and
// the Wing–Gong checker (store/linearize) then decides per key whether
// some linearization explains every observed value, created flag and
// presence bit. A key lives on exactly one node, and there in one shard,
// so what holds for one store must survive the routed rows too: the
// single-owner argument made executable. Each matrix below keeps one
// axis of its own. Run with -race; CI does.

const (
	linKeys = 8 // few keys over few shards: heavy lock sharing
	// maxPerKey is how many ops one windowed client keeps in flight on one
	// key. The checker's search is exponential in how many ops overlap on
	// a key, and with a free-running window that overlap is a tail of the
	// schedule (a client's whole window can land on one key), not a
	// constant: about one run in 150 exhausted the checker's budget.
	// Capping it per client caps it per key at clients × maxPerKey by
	// construction, while the window stays full across keys.
	maxPerKey = 2
	// batchFrameOps is the sub-op count of the batch driver's frames.
	batchFrameOps = 4
)

// argValue encodes a put argument as the stored value.
func argValue(arg uint64) []byte { return binary.LittleEndian.AppendUint64(nil, arg) }

// linClient is one client's op stream and its recorder into the per-key
// histories. Put arguments are unique per (client, seq).
type linClient struct {
	t     *testing.T
	id    int
	rng   *xrand.Rand
	seq   uint64
	hists []*linearize.History
	tick  func() // may be nil: runs after every recorded op
}

// next draws the client's next op: half gets, a third puts, the rest
// deletes, on key k; its history entry and the request that carries it.
func (cl *linClient) next() (op linearize.Op, k int, req store.Request) {
	k = int(cl.rng.Uint64() % linKeys)
	req = store.Request{Op: store.OpDelete, Key: workload.Key(uint64(k))}
	op = linearize.Op{Client: cl.id, Kind: linearize.Delete}
	switch d := cl.rng.Uint64n(100); {
	case d < 50:
		op.Kind, req.Op = linearize.Get, store.OpGet
	case d < 85:
		cl.seq++
		op.Kind, op.Arg = linearize.Put, uint64(cl.id)<<32|cl.seq
		req.Op, req.Value = store.OpPut, argValue(op.Arg)
	}
	return op, k, req
}

// done stamps op's response, reads its outcome off resp and records it on
// key k's history.
func (cl *linClient) done(op linearize.Op, k int, resp store.Response) bool {
	op.Ret = cl.hists[k].Now()
	switch {
	case resp.Status == store.StatusError:
		cl.t.Errorf("client %d key %d: op failed: %s", cl.id, k, resp.Msg)
		return false
	case op.Kind == linearize.Get:
		if op.Found = resp.Status == store.StatusOK; op.Found {
			if len(resp.Value) != 8 {
				cl.t.Errorf("client %d key %d: value has %d bytes, want 8 (torn or foreign write)", cl.id, k, len(resp.Value))
				return false
			}
			op.Val = binary.LittleEndian.Uint64(resp.Value)
		}
	case op.Kind == linearize.Put:
		op.Found = resp.Created
	default:
		op.Found = resp.Status == store.StatusOK
	}
	cl.hists[k].Add(op)
	if cl.tick != nil {
		cl.tick()
	}
	return true
}

// lockstep drives ops operations one at a time through c's blocking
// surface.
func (cl *linClient) lockstep(c store.BatchConn, ops int) {
	for i := 0; i < ops; i++ {
		op, k, req := cl.next()
		op.Call = cl.hists[k].Now()
		var resp store.Response
		var ok bool
		var err error
		switch req.Op {
		case store.OpGet:
			resp.Value, ok, err = c.Get(req.Key)
		case store.OpPut:
			resp.Created, err = c.Put(req.Key, req.Value)
		default:
			ok, err = c.Delete(req.Key)
		}
		resp.Status = status(ok)
		if err != nil {
			cl.t.Error(err)
			return
		}
		if !cl.done(op, k, resp) {
			return
		}
	}
}

// windowed drives ops operations as frames of size ops, sent by send,
// depth ops in flight and never more than maxPerKey on one key — across
// frames and inside one. Every op is recorded with its frame's interval:
// stamped before the frame is sent and after it is awaited (Wait for a
// scalar frame, WaitBatch for a batch). Ops of one frame on one key are
// therefore concurrent to the checker, which is what a batch promises: a
// performance unit, not a transaction.
func (cl *linClient) windowed(send func(reqs []store.Request) *store.Future, size, ops, depth int) {
	type frame struct {
		ops []linearize.Op
		ks  []int
		fut *store.Future
	}
	var window []frame
	inflight := make([]int, linKeys)
	settleOldest := func() bool {
		f := window[0]
		window = window[1:]
		var resps []store.Response
		var err error
		if size == 1 {
			var resp store.Response
			resp, err = f.fut.Wait()
			resps = []store.Response{resp}
		} else {
			resps, err = f.fut.WaitBatch()
		}
		if err != nil {
			cl.t.Error(err)
			return false
		}
		for j, op := range f.ops {
			inflight[f.ks[j]]--
			if !cl.done(op, f.ks[j], resps[j]) {
				return false
			}
		}
		return true
	}
	fits := func(inFrame []int) bool {
		for k, n := range inFrame {
			if inflight[k]+n > maxPerKey {
				return false
			}
		}
		return len(window) < depth/size
	}
	for sent := 0; sent < ops; sent += size {
		var f frame
		reqs := make([]store.Request, 0, size)
		inFrame := make([]int, linKeys)
		for len(reqs) < size {
			op, k, req := cl.next()
			if inFrame[k] == maxPerKey {
				continue // redraw: the cap holds inside a frame too
			}
			inFrame[k]++
			reqs, f.ops, f.ks = append(reqs, req), append(f.ops, op), append(f.ks, k)
		}
		for !fits(inFrame) {
			if !settleOldest() {
				return
			}
		}
		for j, k := range f.ks {
			inflight[k]++
			f.ops[j].Call = cl.hists[k].Now()
		}
		f.fut = send(reqs)
		window = append(window, f)
	}
	for len(window) > 0 {
		if !settleOldest() {
			return
		}
	}
}

// sendScalar submits one point request through a row's futures.
func sendScalar(c store.BatchConn) func(reqs []store.Request) *store.Future {
	fut := c.(futures)
	return func(reqs []store.Request) *store.Future {
		switch r := reqs[0]; r.Op {
		case store.OpGet:
			return fut.GetAsync(r.Key)
		case store.OpPut:
			return fut.PutAsync(r.Key, r.Value)
		default:
			return fut.DeleteAsync(r.Key)
		}
	}
}

// driver is one way a client puts its ops on a connection, and the
// in-flight window it dials with.
type driver struct {
	name   string
	depth  int
	window bool // needs a row with a window
	run    func(cl *linClient, c store.BatchConn, ops, depth int)
}

var drivers = []driver{
	{"lockstep", 1, false, func(cl *linClient, c store.BatchConn, ops, _ int) { cl.lockstep(c, ops) }},
	{"async", 16, true, func(cl *linClient, c store.BatchConn, ops, depth int) {
		cl.windowed(sendScalar(c), 1, ops, depth)
	}},
	{"batch", 16, true, func(cl *linClient, c store.BatchConn, ops, depth int) {
		cl.windowed(batchFrame(c), batchFrameOps, ops, depth)
	}},
}

// rows returns the rows of table the driver can run on.
func (drv driver) rows(table []transport) []transport {
	var rows []transport
	for _, tr := range table {
		if tr.mute != nil || !drv.window {
			rows = append(rows, tr)
		}
	}
	return rows
}

// linearizable runs clients clients of drv, each ops operations over its
// own connection from dial, and checks every key's history.
func linearizable(t *testing.T, dial func(i, depth int) store.BatchConn, drv driver, clients, ops int, tick func()) {
	hists := make([]*linearize.History, linKeys)
	for k := range hists {
		hists[k] = linearize.NewHistory()
	}
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		cl := &linClient{t: t, id: i, rng: xrand.New(uint64(i)*0x9E3779B97F4A7C15 + 23), hists: hists, tick: tick}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := dial(cl.id, drv.depth)
			defer c.Close()
			drv.run(cl, c, ops, drv.depth)
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for k, h := range hists {
		ops := h.Ops()
		res := linearize.CheckDefault(ops)
		if !res.Decided {
			t.Fatalf("key %d: checker undecided after %d nodes over %d ops — shrink the history", k, res.Visited, len(ops))
		}
		if !res.Ok {
			t.Fatalf("key %d: history of %d ops is NOT linearizable (visited %d); blocked op: %v", k, len(ops), res.Visited, res.Failed)
		}
	}
}

// linOptions is the matrices' store: two shards of four buckets, so the
// clients share locks heavily.
func linOptions(eng store.Engine) store.Options {
	return store.Options{Shards: 2, Buckets: 4, Engine: eng, Lock: locks.MCS, MaxThreads: 8, Nodes: 2}
}

// linOps is the matrices' per-client op count: sized so every cell
// decides with all of them running at once under -race on a small host.
func linOps() int {
	if testing.Short() {
		return 100
	}
	return 280
}

// TestClusterLinearizable is the engine × driver × transport matrix:
// every shard engine (locked, actor, optimistic) behind every row of the
// table, driven lock-step through the blocking surface, and on a row with
// a window also through its futures at depth 16 and by unsplit batch
// frames — the zero-copy batch serve path, and on a routed row the node
// filter's split. Every cell must be linearizable per key: the paper's
// paradigm comparison held to a correctness standard, not just a
// throughput one.
func TestClusterLinearizable(t *testing.T) {
	t.Parallel()
	for _, eng := range store.Engines {
		for _, drv := range drivers {
			eng, drv := eng, drv
			t.Run(string(eng)+"/"+drv.name, func(t *testing.T) {
				t.Parallel()
				for _, tr := range drv.rows(transports) {
					tr := tr
					t.Run(tr.name, func(t *testing.T) {
						t.Parallel()
						linearizable(t, tr.open(t, linOptions(eng)).dial, drv, 4, linOps(), nil)
					})
				}
			})
		}
	}
}

// TestLinearizableStore sweeps the lock algorithms behind the shard
// layer, in process — including both hierarchical cohort locks, whose
// clients alternate NUMA nodes.
func TestLinearizableStore(t *testing.T) {
	t.Parallel()
	ops := 500
	if testing.Short() {
		ops = 150
	}
	for _, alg := range []locks.Algorithm{locks.TAS, locks.TICKET, locks.MCS, locks.CLH, locks.HCLH, locks.HTICKET, locks.MUTEX} {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			t.Parallel()
			opts := linOptions(store.EngineLocked)
			opts.Lock = alg
			linearizable(t, only("in-process")[0].open(t, opts).dial, drivers[0], 5, ops, nil)
		})
	}
}

// TestPipelineLinearizable drives the windowed row's futures at depth 8,
// behind a FIFO TICKET lock, for half again a matrix cell's ops.
func TestPipelineLinearizable(t *testing.T) {
	t.Parallel()
	opts := linOptions(store.EngineLocked)
	opts.Lock = locks.TICKET
	drv := drivers[1]
	drv.depth = 8
	linearizable(t, only("windowed")[0].open(t, opts).dial, drv, 4, linOps()*3/2, nil)
}
