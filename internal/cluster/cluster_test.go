package cluster

import (
	"bytes"
	"fmt"
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
