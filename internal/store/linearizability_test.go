package store

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"ssync/internal/arch"
	"ssync/internal/locks"
	"ssync/internal/store/linearize"
	"ssync/internal/topo"
	"ssync/internal/workload"
	"ssync/internal/xrand"
)

// Linearizability stress for the sharded store: concurrent clients run
// an unconstrained put/get/delete mix over a few hot keys, recording
// every operation's invocation/response interval, and the Wing–Gong
// checker (internal/store/linearize) then decides per key whether some
// linearization explains every observed value, created flag and
// presence bit. This replaces the earlier ad-hoc monotonic-version
// assertions: no workload shaping, real histories, a real checker. Run
// with -race; CI does.

// argValue encodes a put argument as the stored value.
func argValue(arg uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], arg)
	return b[:]
}

// decodeArg recovers a put argument from a read value.
func decodeArg(t *testing.T, ctx string, b []byte) uint64 {
	t.Helper()
	if len(b) != 8 {
		t.Fatalf("%s: value has %d bytes, want 8 (torn or foreign write)", ctx, len(b))
	}
	return binary.LittleEndian.Uint64(b)
}

// checkHistories runs the checker over every key's history.
func checkHistories(t *testing.T, ctx string, hists []*linearize.History) {
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

// mixedOp draws the next op: half gets, a third puts, the rest deletes.
func mixedOp(rng *xrand.Rand) (kind linearize.Kind, keyIdx uint64) {
	keyIdx = rng.Uint64()
	switch d := rng.Uint64() % 100; {
	case d < 50:
		kind = linearize.Get
	case d < 85:
		kind = linearize.Put
	default:
		kind = linearize.Delete
	}
	return kind, keyIdx
}

// runLinearClient drives ops operations over conn, recording into hists
// (one history per key). Put args are globally unique per (client, seq).
func runLinearClient(t *testing.T, conn Conn, client, nKeys, ops int, hists []*linearize.History) {
	rng := xrand.New(uint64(client)*0x9E3779B97F4A7C15 + 11)
	seq := uint64(0)
	for i := 0; i < ops; i++ {
		kind, draw := mixedOp(rng)
		k := int(draw % uint64(nKeys))
		key := workload.Key(uint64(k))
		h := hists[k]
		op := linearize.Op{Client: client, Kind: kind}
		op.Call = h.Now()
		switch kind {
		case linearize.Get:
			v, found, err := conn.Get(key)
			op.Ret = h.Now()
			if err != nil {
				t.Error(err)
				return
			}
			op.Found = found
			if found {
				op.Val = decodeArg(t, fmt.Sprintf("client %d key %d", client, k), v)
			}
		case linearize.Put:
			seq++
			arg := uint64(client)<<32 | seq
			created, err := conn.Put(key, argValue(arg))
			op.Ret = h.Now()
			if err != nil {
				t.Error(err)
				return
			}
			op.Arg, op.Found = arg, created
		case linearize.Delete:
			existed, err := conn.Delete(key)
			op.Ret = h.Now()
			if err != nil {
				t.Error(err)
				return
			}
			op.Found = existed
		}
		h.Add(op)
	}
}

func newHistories(nKeys int) []*linearize.History {
	hists := make([]*linearize.History, nKeys)
	for i := range hists {
		hists[i] = linearize.NewHistory()
	}
	return hists
}

// TestLinearizableStore checks the shard layer directly through
// per-goroutine handles, sweeping the lock algorithms — including both
// hierarchical cohort locks, the system-level test the paper's NUMA
// locks never got in PR 1.
func TestLinearizableStore(t *testing.T) {
	const (
		nClients = 5
		nKeys    = 8 // few keys over few shards: heavy lock sharing
	)
	ops := 500
	if testing.Short() {
		ops = 150
	}
	for _, alg := range []locks.Algorithm{locks.TAS, locks.TICKET, locks.MCS, locks.CLH, locks.HCLH, locks.HTICKET, locks.MUTEX} {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			t.Parallel()
			s := New(Options{Shards: 2, Buckets: 4, Lock: alg,
				MaxThreads: nClients + 2, Nodes: 2})
			hists := newHistories(nKeys)
			var wg sync.WaitGroup
			for c := 0; c < nClients; c++ {
				c := c
				wg.Add(1)
				go func() {
					defer wg.Done()
					runLinearClient(t, s.NewLocalConn(c%2), c, nKeys, ops, hists)
				}()
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			checkHistories(t, string(alg), hists)
		})
	}
}

// maxPerKey is how many ops one pipelined client keeps in flight on one
// key. The Wing–Gong search is exponential in how many ops overlap on a
// key, and with a free-running window that overlap is a tail of the
// schedule (a client's whole window can land on one key), not a
// constant: about one run in 150 exhausted the checker's budget. Capping
// it per client caps it per key at nClients × maxPerKey by construction,
// while the window stays full across keys.
const maxPerKey = 2

// runAsyncLinearClient drives ops operations through a multiplexed
// async client with a real in-flight window, stamping invocation at
// submission and response at Wait — exactly the interval in which the
// op took effect.
func runAsyncLinearClient(t *testing.T, cl *AsyncClient, client, nKeys, ops, depth int, hists []*linearize.History) {
	type pendingOp struct {
		op  linearize.Op
		k   int
		fut *Future
	}
	rng := xrand.New(uint64(client)*0x2545F4914F6CDD1D + 77)
	seq := uint64(0)
	window := make([]pendingOp, 0, depth)
	inflight := make([]int, nKeys)
	settleOldest := func() bool {
		p := window[0]
		window = append(window[:0], window[1:]...)
		inflight[p.k]--
		h := hists[p.k]
		resp, err := p.fut.Wait()
		p.op.Ret = h.Now()
		if err != nil {
			t.Error(err)
			return false
		}
		switch p.op.Kind {
		case linearize.Get:
			p.op.Found = resp.Status == StatusOK
			if p.op.Found {
				p.op.Val = decodeArg(t, fmt.Sprintf("async client %d key %d", client, p.k), resp.Value)
			}
		case linearize.Put:
			p.op.Found = resp.Created
		case linearize.Delete:
			p.op.Found = resp.Status == StatusOK
		}
		h.Add(p.op)
		return true
	}
	for i := 0; i < ops; i++ {
		kind, draw := mixedOp(rng)
		k := int(draw % uint64(nKeys))
		key := workload.Key(uint64(k))
		for len(window) == depth || inflight[k] == maxPerKey {
			if !settleOldest() {
				return
			}
		}
		p := pendingOp{op: linearize.Op{Client: client, Kind: kind}, k: k}
		p.op.Call = hists[k].Now()
		switch kind {
		case linearize.Get:
			p.fut = cl.GetAsync(key)
		case linearize.Put:
			seq++
			p.op.Arg = uint64(client)<<32 | seq
			p.fut = cl.PutAsync(key, argValue(p.op.Arg))
		case linearize.Delete:
			p.fut = cl.DeleteAsync(key)
		}
		inflight[k]++
		window = append(window, p)
	}
	for len(window) > 0 {
		if !settleOldest() {
			return
		}
	}
}

// batchFrameOps is the sub-op count of the batch client's frames.
const batchFrameOps = 4

// runBatchLinearClient drives ops operations as mixed OpBatch frames of
// batchFrameOps sub-ops through BatchAsync, depth sub-ops in flight.
// Every sub-op is recorded on its key's history with its frame's
// interval: stamped before the frame is submitted and after WaitBatch
// returns. Sub-ops of one frame on one key are therefore concurrent to
// the checker, which is what a batch promises (a performance unit, not
// a transaction). maxPerKey holds across frames and inside one.
func runBatchLinearClient(t *testing.T, cl *AsyncClient, client, nKeys, ops, depth int, hists []*linearize.History) {
	type pendingFrame struct {
		ops []linearize.Op
		ks  []int
		fut *Future
	}
	rng := xrand.New(uint64(client)*0xD1342543DE82EF95 + 5)
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
			if resp.Status == StatusError {
				t.Errorf("batch client %d key %d: sub-op failed: %s", client, k, resp.Msg)
				return false
			}
			switch op.Kind {
			case linearize.Get:
				op.Found = resp.Status == StatusOK
				if op.Found {
					op.Val = decodeArg(t, fmt.Sprintf("batch client %d key %d", client, k), resp.Value)
				}
			case linearize.Put:
				op.Found = resp.Created
			case linearize.Delete:
				op.Found = resp.Status == StatusOK
			}
			hists[k].Add(op)
		}
		return true
	}
	for done := 0; done < ops; done += batchFrameOps {
		f := pendingFrame{}
		reqs := make([]Request, 0, batchFrameOps)
		inFrame := make([]int, nKeys)
		for len(reqs) < batchFrameOps {
			kind, draw := mixedOp(rng)
			k := int(draw % uint64(nKeys))
			if inFrame[k] == maxPerKey {
				continue // redraw: the cap holds inside a frame too
			}
			inFrame[k]++
			req := Request{Key: workload.Key(uint64(k))}
			op := linearize.Op{Client: client, Kind: kind}
			switch kind {
			case linearize.Get:
				req.Op = OpGet
			case linearize.Put:
				seq++
				op.Arg = uint64(client)<<32 | seq
				req.Op, req.Value = OpPut, argValue(op.Arg)
			case linearize.Delete:
				req.Op = OpDelete
			}
			reqs, f.ops, f.ks = append(reqs, req), append(f.ops, op), append(f.ks, k)
		}
		fits := func() bool {
			for k, n := range inFrame {
				if inflight[k]+n > maxPerKey {
					return false
				}
			}
			return len(window) < depth/batchFrameOps
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
		f.fut = cl.BatchAsync(reqs)
		window = append(window, f)
	}
	for len(window) > 0 {
		if !settleOldest() {
			return
		}
	}
}

// TestLinearizableEngineMatrix is the full engine × connection-kind
// cross-product: every shard engine (locked, actor, optimistic) drives
// the same mixed history through direct in-process handles, lock-step
// wire clients, the multiplexed async client at depth 16, and the same
// client sending mixed batch frames (the zero-copy batch serve path) —
// and every cell must be linearizable per key. This is the paper's paradigm
// comparison held to a correctness standard, not just a throughput one.
// Run with -race; CI's engine-matrix leg does.
func TestLinearizableEngineMatrix(t *testing.T) {
	const (
		nClients = 4
		nKeys    = 6
		depth    = 16
	)
	// The placement axis doubles the parallel cell count, and the Wing–
	// Gong checker's node budget is exponential in op overlap — sized so
	// every cell decides even with all 24 running at once under -race on
	// a small host.
	ops := 200
	if testing.Short() {
		ops = 80
	}
	kinds := []string{"direct", "lockstep", "async", "batch"}
	// Placement axis: every cell must stay linearizable when shards are
	// compact-placed over a multi-domain machine model — the reordered
	// batch visits, pinned actor owners and pinned server connections
	// must be invisible to the history checker. The Opteron2 model has 2
	// domains, so the domain-major machinery genuinely engages, and its
	// low simulated core ids intersect any real host's allowance, so the
	// sched_setaffinity path runs for real under -race.
	places := map[string]*topo.Placement{
		"place=none":    nil,
		"place=compact": topo.NewPlacement(topo.PolicyCompact, topo.FromPlatform(arch.Opteron2())),
	}
	for placeName, place := range places {
		for _, eng := range Engines {
			for _, kind := range kinds {
				eng, kind, placeName, place := eng, kind, placeName, place
				t.Run(string(eng)+"/"+kind+"/"+placeName, func(t *testing.T) {
					t.Parallel()
					s := New(Options{Shards: 2, Buckets: 4, Engine: eng, Lock: locks.MCS,
						MaxThreads: nClients + 2, Nodes: 2, Placement: place})
					defer s.Close()
					srv := NewServer(s, 2)
					hists := newHistories(nKeys)
					var wg sync.WaitGroup
					for c := 0; c < nClients; c++ {
						c := c
						wg.Add(1)
						go func() {
							defer wg.Done()
							switch kind {
							case "direct":
								runLinearClient(t, s.NewLocalConn(c%2), c, nKeys, ops, hists)
							case "lockstep":
								cl := srv.PipeClient()
								defer cl.Close()
								runLinearClient(t, cl, c, nKeys, ops, hists)
							case "async":
								cl := srv.PipeAsyncClient(depth)
								defer cl.Close()
								runAsyncLinearClient(t, cl, c, nKeys, ops, depth, hists)
							case "batch":
								cl := srv.PipeAsyncClient(depth)
								defer cl.Close()
								runBatchLinearClient(t, cl, c, nKeys, ops, depth, hists)
							}
						}()
					}
					wg.Wait()
					if t.Failed() {
						return
					}
					checkHistories(t, string(eng)+"/"+kind+"/"+placeName, hists)
				})
			}
		}
	}
}

// TestPipelineLinearizable keeps the historical name on the pipelined
// cell of the matrix (the pipeline stress CI leg selects on it): the
// locked engine behind the async client at the matrix depth.
func TestPipelineLinearizable(t *testing.T) {
	const (
		nClients = 4
		nKeys    = 6
		depth    = 8
	)
	ops := 400
	if testing.Short() {
		ops = 120
	}
	s := New(Options{Shards: 2, Buckets: 4, Lock: locks.TICKET})
	defer s.Close()
	srv := NewServer(s, 2)
	hists := newHistories(nKeys)
	var wg sync.WaitGroup
	for c := 0; c < nClients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := srv.PipeAsyncClient(depth)
			defer cl.Close()
			runAsyncLinearClient(t, cl, c, nKeys, ops, depth, hists)
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	checkHistories(t, "pipeline", hists)
}
