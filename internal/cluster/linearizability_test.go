package cluster

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"ssync/internal/locks"
	"ssync/internal/store"
	"ssync/internal/store/linearize"
	"ssync/internal/workload"
	"ssync/internal/xrand"
)

// Per-key linearizability over a 3-node cluster: the single-owner
// routing argument made executable. Every key lives on exactly one node
// (and there in one shard), so the per-key guarantees the Wing–Gong
// checker establishes for one store must survive the cluster layer —
// lock-step routed clients and deep async routed clients alike. Run
// with -race; CI's cluster leg does.

func clusterArgValue(arg uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], arg)
	return b[:]
}

func clusterDecodeArg(t *testing.T, ctx string, b []byte) uint64 {
	t.Helper()
	if len(b) != 8 {
		t.Fatalf("%s: value has %d bytes, want 8 (torn or foreign write)", ctx, len(b))
	}
	return binary.LittleEndian.Uint64(b)
}

func clusterCheckHistories(t *testing.T, ctx string, hists []*linearize.History) {
	t.Helper()
	for k, h := range hists {
		ops := h.Ops()
		res := linearize.CheckDefault(ops)
		if !res.Decided {
			t.Fatalf("%s: key %d: checker undecided after %d nodes over %d ops — shrink the history",
				ctx, k, res.Visited, len(ops))
		}
		if !res.Ok {
			t.Fatalf("%s: key %d: history of %d ops is NOT linearizable (visited %d); blocked op: %v",
				ctx, k, len(ops), res.Visited, res.Failed)
		}
	}
}

func clusterMixedOp(rng *xrand.Rand) (kind linearize.Kind, keyIdx uint64) {
	keyIdx = rng.Uint64()
	switch d := rng.Uint64n(100); {
	case d < 50:
		kind = linearize.Get
	case d < 85:
		kind = linearize.Put
	default:
		kind = linearize.Delete
	}
	return kind, keyIdx
}

func newClusterHistories(nKeys int) []*linearize.History {
	hists := make([]*linearize.History, nKeys)
	for i := range hists {
		hists[i] = linearize.NewHistory()
	}
	return hists
}

// runRoutedLinearClient drives ops operations over the routing client's
// blocking surface (lock-step), recording per-key histories. tick (may
// be nil) runs after every completed op — the hook the
// across-migration test uses to pace resizes against traffic.
func runRoutedLinearClient(t *testing.T, cl *Client, client, nKeys, ops int, hists []*linearize.History, tick func()) {
	rng := xrand.New(uint64(client)*0x9E3779B97F4A7C15 + 23)
	seq := uint64(0)
	for i := 0; i < ops; i++ {
		kind, draw := clusterMixedOp(rng)
		k := int(draw % uint64(nKeys))
		key := workload.Key(uint64(k))
		h := hists[k]
		op := linearize.Op{Client: client, Kind: kind}
		op.Call = h.Now()
		switch kind {
		case linearize.Get:
			v, found, err := cl.Get(key)
			op.Ret = h.Now()
			if err != nil {
				t.Error(err)
				return
			}
			op.Found = found
			if found {
				op.Val = clusterDecodeArg(t, fmt.Sprintf("client %d key %d", client, k), v)
			}
		case linearize.Put:
			seq++
			arg := uint64(client)<<32 | seq
			created, err := cl.Put(key, clusterArgValue(arg))
			op.Ret = h.Now()
			if err != nil {
				t.Error(err)
				return
			}
			op.Arg, op.Found = arg, created
		case linearize.Delete:
			existed, err := cl.Delete(key)
			op.Ret = h.Now()
			if err != nil {
				t.Error(err)
				return
			}
			op.Found = existed
		}
		h.Add(op)
		if tick != nil {
			tick()
		}
	}
}

// runRoutedAsyncLinearClient drives ops operations through the routing
// client's async surface with a real in-flight window: invocation is
// stamped at submission, response at Wait — the interval in which the
// routed op took effect on its owner node.
func runRoutedAsyncLinearClient(t *testing.T, cl *Client, client, nKeys, ops, depth int, hists []*linearize.History, tick func()) {
	type pendingOp struct {
		op  linearize.Op
		k   int
		fut *store.Future
	}
	rng := xrand.New(uint64(client)*0x2545F4914F6CDD1D + 91)
	seq := uint64(0)
	window := make([]pendingOp, 0, depth)
	settle := func(p pendingOp) bool {
		h := hists[p.k]
		resp, err := p.fut.Wait()
		p.op.Ret = h.Now()
		if err != nil {
			t.Error(err)
			return false
		}
		switch p.op.Kind {
		case linearize.Get:
			p.op.Found = resp.Status == store.StatusOK
			if p.op.Found {
				p.op.Val = clusterDecodeArg(t, fmt.Sprintf("async client %d key %d", client, p.k), resp.Value)
			}
		case linearize.Put:
			p.op.Found = resp.Created
		case linearize.Delete:
			p.op.Found = resp.Status == store.StatusOK
		}
		h.Add(p.op)
		if tick != nil {
			tick()
		}
		return true
	}
	for i := 0; i < ops; i++ {
		kind, draw := clusterMixedOp(rng)
		k := int(draw % uint64(nKeys))
		key := workload.Key(uint64(k))
		p := pendingOp{op: linearize.Op{Client: client, Kind: kind}, k: k}
		p.op.Call = hists[k].Now()
		switch kind {
		case linearize.Get:
			p.fut = cl.GetAsync(key)
		case linearize.Put:
			seq++
			p.op.Arg = uint64(client)<<32 | seq
			p.fut = cl.PutAsync(key, clusterArgValue(p.op.Arg))
		case linearize.Delete:
			p.fut = cl.DeleteAsync(key)
		}
		if len(window) == depth {
			oldest := window[0]
			window = append(window[:0], window[1:]...)
			if !settle(oldest) {
				return
			}
		}
		window = append(window, p)
	}
	for _, p := range window {
		if !settle(p) {
			return
		}
	}
}

// clusterBatchFrameOps is the sub-op count of the batch client's frames,
// and clusterMaxPerKey how many ops it keeps in flight on one key —
// inside a frame and across frames — so per-key overlap, which the
// checker's cost is exponential in, is bounded by construction.
const (
	clusterBatchFrameOps = 4
	clusterMaxPerKey     = 2
)

// runRoutedBatchLinearClient drives ops operations as mixed OpBatch
// frames of clusterBatchFrameOps sub-ops, depth sub-ops in flight. A
// frame goes, unsplit, to the node that owns its first key: that node's
// filter must execute what it owns straight out of the frame and copy
// out and forward the rest, so the view path's local subset and its
// forward branch both run on every frame (and under a live resize, when
// tick paces one). Every sub-op is recorded with its frame's interval.
func runRoutedBatchLinearClient(t *testing.T, cl *Client, client, nKeys, ops, depth int, hists []*linearize.History, tick func()) {
	type pendingFrame struct {
		ops []linearize.Op
		ks  []int
		fut *store.Future
	}
	rng := xrand.New(uint64(client)*0xD1342543DE82EF95 + 37)
	seq := uint64(0)
	var window []pendingFrame
	inflight := make([]int, nKeys)
	settleOldest := func() bool {
		f := window[0]
		window = window[1:]
		resps, err := f.fut.WaitBatch()
		if err != nil {
			t.Error(err)
			return false
		}
		for j, op := range f.ops {
			k, resp := f.ks[j], resps[j]
			inflight[k]--
			op.Ret = hists[k].Now()
			if resp.Status == store.StatusError {
				t.Errorf("batch client %d key %d: sub-op failed: %s", client, k, resp.Msg)
				return false
			}
			switch op.Kind {
			case linearize.Get:
				op.Found = resp.Status == store.StatusOK
				if op.Found {
					op.Val = clusterDecodeArg(t, fmt.Sprintf("batch client %d key %d", client, k), resp.Value)
				}
			case linearize.Put:
				op.Found = resp.Created
			case linearize.Delete:
				op.Found = resp.Status == store.StatusOK
			}
			hists[k].Add(op)
			if tick != nil {
				tick()
			}
		}
		return true
	}
	for done := 0; done < ops; done += clusterBatchFrameOps {
		f := pendingFrame{}
		reqs := make([]store.Request, 0, clusterBatchFrameOps)
		inFrame := make([]int, nKeys)
		for len(reqs) < clusterBatchFrameOps {
			kind, draw := clusterMixedOp(rng)
			k := int(draw % uint64(nKeys))
			if inFrame[k] == clusterMaxPerKey {
				continue // redraw: the cap holds inside a frame too
			}
			inFrame[k]++
			req := store.Request{Key: workload.Key(uint64(k))}
			op := linearize.Op{Client: client, Kind: kind}
			switch kind {
			case linearize.Get:
				req.Op = store.OpGet
			case linearize.Put:
				seq++
				op.Arg = uint64(client)<<32 | seq
				req.Op, req.Value = store.OpPut, clusterArgValue(op.Arg)
			case linearize.Delete:
				req.Op = store.OpDelete
			}
			reqs, f.ops, f.ks = append(reqs, req), append(f.ops, op), append(f.ks, k)
		}
		fits := func() bool {
			for k, n := range inFrame {
				if inflight[k]+n > clusterMaxPerKey {
					return false
				}
			}
			return len(window) < depth/clusterBatchFrameOps
		}
		for !fits() {
			if !settleOldest() {
				return
			}
		}
		for j, k := range f.ks {
			inflight[k]++
			f.ops[j].Call = hists[k].Now()
		}
		f.fut = cl.Node(cl.Owner(reqs[0].Key)).BatchAsync(reqs)
		window = append(window, f)
	}
	for len(window) > 0 {
		if !settleOldest() {
			return
		}
	}
}

// TestClusterLinearizable is the 3-node × engine × client-kind matrix:
// every shard engine serves a 3-node cluster, driven by lock-step
// routed clients, by async routed clients at depth 16 and by clients
// sending unsplit batch frames the nodes must split themselves, and
// every per-key history must linearize.
func TestClusterLinearizable(t *testing.T) {
	// Routed async histories overlap more than single-store ones (a
	// settle can trail ops routed to other nodes), so keep the per-key
	// history a bit shorter than the store matrix or the bounded search
	// runs out of node budget.
	const (
		nClients = 4
		nKeys    = 8
		depth    = 16
	)
	ops := 280
	if testing.Short() {
		ops = 100
	}
	for _, eng := range store.Engines {
		for _, kind := range []string{"lockstep", "async", "batch"} {
			eng, kind := eng, kind
			t.Run(string(eng)+"/"+kind, func(t *testing.T) {
				t.Parallel()
				c := New(Options{Nodes: 3, Store: store.Options{
					Shards: 2, Buckets: 4, Engine: eng, Lock: locks.MCS,
					MaxThreads: nClients + 2, Nodes: 2,
				}})
				defer c.Close()
				hists := newClusterHistories(nKeys)
				var wg sync.WaitGroup
				for cli := 0; cli < nClients; cli++ {
					cli := cli
					wg.Add(1)
					go func() {
						defer wg.Done()
						switch kind {
						case "lockstep":
							cl := c.Dial(1)
							defer cl.Close()
							runRoutedLinearClient(t, cl, cli, nKeys, ops, hists, nil)
						case "async":
							cl := c.Dial(depth)
							defer cl.Close()
							runRoutedAsyncLinearClient(t, cl, cli, nKeys, ops, depth, hists, nil)
						case "batch":
							cl := c.Dial(depth)
							defer cl.Close()
							runRoutedBatchLinearClient(t, cl, cli, nKeys, ops, depth, hists, nil)
						}
					}()
				}
				wg.Wait()
				if t.Failed() {
					return
				}
				clusterCheckHistories(t, string(eng)+"/"+kind, hists)
			})
		}
	}
}
