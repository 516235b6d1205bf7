package cluster

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ssync/internal/locks"
	"ssync/internal/store"
	"ssync/internal/workload"
)

func newTestCluster(t *testing.T, nodes int, opt store.Options) *Cluster {
	t.Helper()
	c := New(Options{Nodes: nodes, Store: opt})
	t.Cleanup(c.Close)
	return c
}

// keeper is store's audit helper again (test files do not cross package
// lines): it holds what a client returned beside a deep copy taken on the
// spot, and check reports whatever later frames changed underneath.
type keeper struct {
	kept []struct {
		what      string
		got, snap []store.Response
	}
}

func (k *keeper) keep(what string, got ...store.Response) {
	snap := make([]store.Response, len(got))
	for i, r := range got {
		snap[i] = store.Response{Status: r.Status, Created: r.Created, Value: bytes.Clone(r.Value), Msg: strings.Clone(r.Msg)}
		for _, e := range r.Entries {
			snap[i].Entries = append(snap[i].Entries, store.Entry{Key: strings.Clone(e.Key), Value: bytes.Clone(e.Value)})
		}
	}
	k.kept = append(k.kept, struct {
		what      string
		got, snap []store.Response
	}{what, got, snap})
}

func (k *keeper) check(t *testing.T) {
	t.Helper()
	for _, r := range k.kept {
		if !reflect.DeepEqual(r.got, r.snap) {
			t.Errorf("%s: retained result changed under later frames", r.what)
		}
	}
}

// TestRoutedClientNoBufferAliasing extends store's frame-lifetime audit
// to the routing client: its batch path hands out index groups from a
// sync.Pool and fans sub-batches through per-node async connections
// whose request and response frames are themselves pooled, each response
// frame owned by a future inside the flight until the Core has copied
// out of it. Everything the blocking seven and GetAsync(...).Wait()
// return — values, scan entries, the messages of a batch answer too
// large for its frames — must stay intact while more than a thousand
// later frames, eight groups in flight at a time, churn every one of
// those pools.
func TestRoutedClientNoBufferAliasing(t *testing.T) {
	const window = 8
	c := newTestCluster(t, 3, store.Options{Shards: 4, Lock: locks.TICKET})
	cl := c.Dial(window)
	defer cl.Close()

	big := make([]byte, 96<<10)
	for i := range big {
		big[i] = byte(i * 11)
	}
	bigKeys := make([]string, 6) // spread over the ring: several nodes hold one
	for i := range bigKeys {
		bigKeys[i] = fmt.Sprintf("alias-big-%02d", i)
		if _, err := cl.Put(bigKeys[i], big); err != nil {
			t.Fatal(err)
		}
	}

	var k keeper
	for round := 0; round < 6; round++ {
		// Routed batch: pooled route groups + per-node batch frames.
		reqs := make([]store.Request, 0, len(bigKeys)+2)
		for _, key := range bigKeys {
			reqs = append(reqs, store.Request{Op: store.OpGet, Key: key})
		}
		small := fmt.Sprintf("alias-small-%02d", round)
		reqs = append(reqs, store.Request{Op: store.OpPut, Key: small, Value: bytes.Repeat([]byte{byte(round + 1)}, 256)},
			store.Request{Op: store.OpScan, Key: "alias-small-"})
		resps, err := cl.ExecBatch(reqs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range bigKeys {
			if resps[i].Status != store.StatusOK || !bytes.Equal(resps[i].Value, big) {
				t.Fatalf("round %d: routed get %d status %d, %d bytes", round, i, resps[i].Status, len(resps[i].Value))
			}
		}
		k.keep("ExecBatch", resps...)
		// Routed scalar get, async get, MGet and a fanned-out scan, whose
		// entries share backing blobs (the bulk-copy decode).
		v, found, err := cl.Get(small)
		if err != nil || !found || v[0] != byte(round+1) {
			t.Fatalf("round %d: routed Get(%s) = %v, %v", round, small, found, err)
		}
		k.keep("Get", store.Response{Value: v})
		resp, err := cl.GetAsync(bigKeys[round]).Wait()
		if err != nil || !bytes.Equal(resp.Value, big) {
			t.Fatalf("round %d: GetAsync = status %d, %v", round, resp.Status, err)
		}
		k.keep("GetAsync.Wait", resp)
		vals, err := cl.MGet(append([]string{small, "alias-absent"}, bigKeys...))
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vals {
			k.keep("MGet", store.Response{Value: v})
		}
		entries, err := cl.Scan("alias-big-", 0)
		if err != nil || len(entries) != len(bigKeys) {
			t.Fatalf("round %d: scan = %d entries, %v", round, len(entries), err)
		}
		for _, e := range entries {
			if !bytes.Equal(e.Value, big) {
				t.Fatalf("round %d: scan entry %q corrupted", round, e.Key)
			}
		}
		k.keep("Scan", store.Response{Entries: entries})
	}
	// 48 × 96 KiB from whichever node owns one key overflow its response
	// frame: the tail comes back as StatusError messages, kept as well.
	gets := make([]store.Request, 48)
	for i := range gets {
		gets[i] = store.Request{Op: store.OpGet, Key: bigKeys[0]}
	}
	resps, err := cl.ExecBatch(gets)
	if err != nil {
		t.Fatal(err)
	}
	if last := resps[len(resps)-1]; last.Status != store.StatusError || last.Msg != store.MsgBatchOverflow {
		t.Fatalf("the tail of a 4.5 MiB batch answer = status %d %q, want it degraded", last.Status, last.Msg)
	}
	k.keep("ExecBatch past one frame", resps...)

	// Later frames at full window: eight groups in flight at a time, each
	// split over the three nodes, a scan fanned out in every fourth.
	ops := make([]workload.Op, 0, 8)
	for i := 0; i < 6; i++ {
		ops = append(ops, workload.Op{Kind: workload.KindGet, Key: fmt.Sprintf("alias-small-%02d", i)},
			workload.Op{Kind: workload.KindPut, Key: fmt.Sprintf("alias-small-%02d", i), Value: bytes.Repeat([]byte{byte(0xF0 + i)}, 200+i)})
	}
	withScan := append(append([]workload.Op(nil), ops...), workload.Op{Kind: workload.KindScan, Key: "alias-small-"})
	pend := make([]workload.Pending, window)
	for frames := 0; frames < 1000; {
		for i := range pend {
			group := ops
			if i%4 == 3 {
				group = withScan
			}
			pend[i] = store.Driver{C: cl}.Issue(group)
			frames++ // at least: a group goes out as one frame per owning node
		}
		for _, p := range pend {
			if _, err := p.Wait(); err != nil {
				t.Fatal(err)
			}
		}
	}
	k.check(t)
}

// TestClusterPointOps: routed puts land on exactly the ring owner's
// store, and gets/deletes find them through any client.
func TestClusterPointOps(t *testing.T) {
	c := newTestCluster(t, 3, store.Options{Shards: 4, Lock: locks.TICKET})
	cl := c.Dial(0)
	defer cl.Close()

	const keys = 200
	for i := uint64(0); i < keys; i++ {
		key := workload.Key(i)
		created, err := cl.Put(key, []byte(key))
		if err != nil || !created {
			t.Fatalf("put %q: created=%v err=%v", key, created, err)
		}
	}
	// Every key readable through the routing client, and present on the
	// owner node ONLY — single-owner partitioning, checked directly
	// against the per-node stores.
	for i := uint64(0); i < keys; i++ {
		key := workload.Key(i)
		v, found, err := cl.Get(key)
		if err != nil || !found || !bytes.Equal(v, []byte(key)) {
			t.Fatalf("get %q = %q, found=%v, err=%v", key, v, found, err)
		}
		owner := c.Ring().Owner(key)
		for n := 0; n < c.Nodes(); n++ {
			h := c.Store(n).NewHandle(0)
			_, ok := h.Get(key)
			if ok != (n == owner) {
				t.Fatalf("key %q: present=%v on node %d, owner is %d", key, ok, n, owner)
			}
		}
	}
	// Deletes route too.
	for i := uint64(0); i < keys; i += 2 {
		existed, err := cl.Delete(workload.Key(i))
		if err != nil || !existed {
			t.Fatalf("delete %d: existed=%v err=%v", i, existed, err)
		}
	}
	for i := uint64(0); i < keys; i++ {
		_, found, err := cl.Get(workload.Key(i))
		if err != nil {
			t.Fatal(err)
		}
		if want := i%2 == 1; found != want {
			t.Fatalf("key %d: found=%v after deletes, want %v", i, found, want)
		}
	}
}

// TestClusterBatchOrder: ExecBatch reassembles responses in request
// order, and same-key sub-ops apply in batch order (same owner → same
// sub-batch → server-side batch order), so a put-then-get pair inside
// one routed batch observes itself.
func TestClusterBatchOrder(t *testing.T) {
	c := newTestCluster(t, 3, store.Options{Shards: 4})
	cl := c.Dial(0)
	defer cl.Close()

	var reqs []store.Request
	const n = 60
	for i := 0; i < n; i++ {
		key := workload.Key(uint64(i))
		reqs = append(reqs,
			store.Request{Op: store.OpPut, Key: key, Value: []byte(fmt.Sprintf("v%d", i))},
			store.Request{Op: store.OpGet, Key: key})
	}
	resps, err := cl.ExecBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != len(reqs) {
		t.Fatalf("%d responses for %d requests", len(resps), len(reqs))
	}
	for i := 0; i < n; i++ {
		put, get := resps[2*i], resps[2*i+1]
		if put.Status != store.StatusOK || !put.Created {
			t.Fatalf("put %d: %+v", i, put)
		}
		if get.Status != store.StatusOK || !bytes.Equal(get.Value, []byte(fmt.Sprintf("v%d", i))) {
			t.Fatalf("get %d after put in same batch: %+v", i, get)
		}
	}
}

// TestClusterScanMerge: a routed scan equals the same scan against one
// store holding all the data — globally sorted, limit respected.
func TestClusterScanMerge(t *testing.T) {
	c := newTestCluster(t, 4, store.Options{Shards: 4})
	cl := c.Dial(0)
	defer cl.Close()

	single := store.New(store.Options{Shards: 4})
	defer single.Close()
	ref := single.NewHandle(0)

	for i := uint64(0); i < 300; i++ {
		key := workload.Key(i)
		if _, err := cl.Put(key, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		ref.Put(key, []byte{byte(i)})
	}
	check := func(when string) {
		t.Helper()
		for _, limit := range []int{0, 1, 7, 50} {
			got, err := cl.Scan("key-000001", limit) // keys 100..199
			if err != nil {
				t.Fatal(err)
			}
			want := ref.Scan("key-000001", limit)
			if len(got) != len(want) {
				t.Fatalf("%s, limit %d: %d entries, single-store scan has %d", when, limit, len(got), len(want))
			}
			for i := range got {
				if got[i].Key != want[i].Key || !bytes.Equal(got[i].Value, want[i].Value) {
					t.Fatalf("%s, limit %d: entry %d is %q=%v, want %q=%v (merge order or owner rule broken)",
						when, limit, i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
				}
			}
		}
	}
	check("one copy per key")

	// A resize's copy window, planted by hand: a key inside every limit's
	// window also held, with another value, by the first member in merge
	// order, which does not own it. The merge meets both copies side by
	// side and must take the key once — the owner's copy — and still
	// count it once against the limit.
	first := c.Members()[0]
	dup := -1
	for i := 100; i < 107; i++ {
		if cl.Owner(workload.Key(uint64(i))) != first {
			dup = i
			break
		}
	}
	if dup < 0 {
		t.Fatal("member 0 owns every key of the first window: pick another range")
	}
	c.Store(first).NewHandle(0).Put(workload.Key(uint64(dup)), []byte("stale copy"))
	check(fmt.Sprintf("%s also on non-owner %d", workload.Key(uint64(dup)), first))
}

// TestClusterWorkloadDriver: the scenario engine drives a routed cluster
// conn through store.Driver — batched, pipelined, every engine — and the
// counted ops survive the split/reassembly.
func TestClusterWorkloadDriver(t *testing.T) {
	for _, eng := range store.Engines {
		eng := eng
		t.Run(string(eng), func(t *testing.T) {
			t.Parallel()
			c := newTestCluster(t, 3, store.Options{Shards: 4, Engine: eng, Lock: locks.TICKET})
			scenario := workload.Scenario{
				Keys:      512,
				Mix:       workload.Mix{Get: 80, Put: 15, Scan: 5},
				Preload:   256,
				Phases:    []workload.Phase{{Name: "steady", Clients: 4, Ops: 600}},
				Batch:     8,
				Pipeline:  4,
				ScanLimit: 8,
			}
			results, err := workload.Run(scenario, func(i int) (workload.Conn, error) {
				return store.Driver{C: c.Dial(4)}, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			steady := results[len(results)-1]
			if want := uint64(4 * 600); steady.Ops != want {
				t.Fatalf("counted %d ops, want %d", steady.Ops, want)
			}
			if steady.Hits == 0 || steady.Created == 0 {
				t.Fatalf("no hits (%d) or creates (%d) in a preloaded mixed run", steady.Hits, steady.Created)
			}
		})
	}
}

// TestClusterOwnerAgreesWithClient: the client's routing is exactly the
// ring's (no second hashing path to drift).
func TestClusterOwnerAgreesWithClient(t *testing.T) {
	c := newTestCluster(t, 5, store.Options{})
	cl := c.Dial(1)
	defer cl.Close()
	for i := uint64(0); i < 2000; i++ {
		key := workload.Key(i)
		if cl.Owner(key) != c.Ring().Owner(key) {
			t.Fatalf("client and ring disagree on %q", key)
		}
	}
}

// TestForeignBatchNotExecutedLocally sends batch frames whose point ops
// all belong to the other node, on a fresh connection each (so the
// filter has no warmed-up state to lean on): a non-ring-aware client,
// or one on a stale ring, produces exactly these. The receiving node
// must forward every sub-op and execute none — a put or delete applied
// on a non-owner leaves phantom keys its local scans return and a later
// arc move can resurrect. The forwarded responses look right either
// way, so the check is on the receiving store itself.
func TestForeignBatchNotExecutedLocally(t *testing.T) {
	for _, eng := range store.Engines {
		t.Run(string(eng), func(t *testing.T) {
			c := newTestCluster(t, 2, store.Options{Engine: eng, Shards: 4})
			var keys []string
			var entries []store.Entry
			for i := uint64(0); len(keys) < 8; i++ {
				if k := workload.Key(i); c.Ring().Owner(k) == 1 {
					keys = append(keys, k)
					entries = append(entries, store.Entry{Key: k, Value: []byte("v-" + k)})
				}
			}
			onNode0 := func(f func(cl *store.Client)) {
				t.Helper()
				cl := c.Server(0).PipeClient()
				defer cl.Close()
				f(cl)
			}
			h0, h1 := c.Store(0).NewHandle(0), c.Store(1).NewHandle(0)
			assertUntouched := func(after string) {
				t.Helper()
				if n := h0.Len(); n != 0 {
					t.Fatalf("after %s: node 0 holds %d keys it does not own", after, n)
				}
				var ops store.Counters
				for _, sh := range h0.ShardStats() {
					ops.Gets += sh.Gets
					ops.Puts += sh.Puts
					ops.Deletes += sh.Deletes
				}
				if ops.Total() != 0 {
					t.Fatalf("after %s: node 0 executed foreign point ops: %+v", after, ops)
				}
			}

			onNode0(func(cl *store.Client) {
				created, err := cl.MPut(entries)
				if err != nil || created != len(entries) {
					t.Fatalf("MPut via node 0: created %d of %d, err %v", created, len(entries), err)
				}
			})
			assertUntouched("a foreign MPut")
			if n := h1.Len(); n != len(keys) {
				t.Fatalf("node 1 holds %d keys, want %d", n, len(keys))
			}
			onNode0(func(cl *store.Client) {
				if got, err := cl.Scan("", 0); err != nil || len(got) != 0 {
					t.Fatalf("node 0's local scan returned %d entries (err %v), want none", len(got), err)
				}
			})

			onNode0(func(cl *store.Client) {
				vals, err := cl.MGet(keys)
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range vals {
					if !bytes.Equal(v, entries[i].Value) {
						t.Fatalf("MGet via node 0: key %q = %q, want %q", keys[i], v, entries[i].Value)
					}
				}
			})
			assertUntouched("a foreign MGet")

			onNode0(func(cl *store.Client) {
				resps, err := cl.ExecBatch([]store.Request{
					{Op: store.OpDelete, Key: keys[0]},
					{Op: store.OpPut, Key: keys[1], Value: []byte("again")},
					{Op: store.OpGet, Key: keys[0]},
				})
				if err != nil {
					t.Fatal(err)
				}
				if resps[0].Status != store.StatusOK || resps[1].Created || resps[2].Status != store.StatusNotFound {
					t.Fatalf("mixed foreign batch answered %+v", resps)
				}
			})
			assertUntouched("a foreign mixed batch")
			if _, ok := h1.Get(keys[0]); ok {
				t.Fatal("the forwarded delete did not reach node 1")
			}
			if v, _ := h1.Get(keys[1]); string(v) != "again" {
				t.Fatalf("the forwarded put did not reach node 1: %q", v)
			}
		})
	}
}
