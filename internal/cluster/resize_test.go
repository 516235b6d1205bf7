package cluster

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ssync/internal/locks"
	"ssync/internal/store"
)

func resizeTestCluster(t *testing.T, nodes int, eng store.Engine) *Cluster {
	t.Helper()
	c := New(Options{Nodes: nodes, Vnodes: 32, Store: store.Options{
		Shards: 2, Buckets: 8, Engine: eng, Lock: locks.MCS, MaxThreads: 16, Nodes: 2,
	}})
	t.Cleanup(c.Close)
	return c
}

// checkPartition asserts the single-owner invariant at rest: every key
// is present on exactly the node the current ring owns it to, with the
// expected value, and retired nodes hold nothing.
func checkPartition(t *testing.T, c *Cluster, want map[string]string) {
	t.Helper()
	ring := c.Ring()
	members := ring.Members()
	handles := map[int]*store.Handle{}
	total := 0
	for _, m := range members {
		h := c.Store(m).NewHandle(0)
		handles[m] = h
		total += h.Len()
	}
	if total != len(want) {
		t.Fatalf("members hold %d entries total, want %d", total, len(want))
	}
	for k, v := range want {
		owner := ring.Owner(k)
		got, ok := handles[owner].Get(k)
		if !ok || string(got) != v {
			t.Fatalf("key %q: owner %d has (%q, %v), want (%q, true)", k, owner, got, ok, v)
		}
	}
}

// TestClusterResizeDataIntegrity: grow then shrink a loaded cluster;
// after each resize every key lives exactly on its new owner with its
// value intact, and the routing client (retargeted automatically)
// serves all of them.
func TestClusterResizeDataIntegrity(t *testing.T) {
	for _, eng := range store.Engines {
		eng := eng
		t.Run(string(eng), func(t *testing.T) {
			t.Parallel()
			c := resizeTestCluster(t, 3, eng)
			cl := c.Dial(0)
			defer cl.Close()

			want := map[string]string{}
			var entries []store.Entry
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("resize-%05d", i)
				want[k] = k
				entries = append(entries, store.Entry{Key: k, Value: []byte(k)})
			}
			if _, err := cl.MPut(entries); err != nil {
				t.Fatal(err)
			}

			id, err := c.AddNode()
			if err != nil {
				t.Fatalf("AddNode: %v", err)
			}
			if id != 3 || c.Nodes() != 4 || !c.Ring().Has(3) {
				t.Fatalf("after grow: id=%d members=%v", id, c.Members())
			}
			checkPartition(t, c, want)
			if h := c.Store(3).NewHandle(0); h.Len() == 0 {
				t.Fatal("new node took over no keys")
			}

			if err := c.RemoveNode(1); err != nil {
				t.Fatalf("RemoveNode: %v", err)
			}
			if got := fmt.Sprint(c.Members()); got != "[0 2 3]" {
				t.Fatalf("after shrink: members %s", got)
			}
			checkPartition(t, c, want)
			if h := c.Store(1).NewHandle(0); h.Len() != 0 {
				t.Fatalf("retired node still holds %d entries", h.Len())
			}

			// The registered client followed both resizes.
			for i := 0; i < 2000; i += 97 {
				k := fmt.Sprintf("resize-%05d", i)
				v, ok, err := cl.Get(k)
				if err != nil || !ok || string(v) != k {
					t.Fatalf("client Get(%q) after resizes: (%q, %v, %v)", k, v, ok, err)
				}
			}
			// And a full scan still returns exactly the key set.
			es, err := cl.Scan("resize-", 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(es) != len(want) {
				t.Fatalf("scan returned %d entries, want %d", len(es), len(want))
			}
		})
	}
}

// TestClusterResizeStaleClient: a client that never learns about a
// resize keeps working — the ex-owners' filters forward its ops to the
// new owners — and its writes are visible to an up-to-date client.
func TestClusterResizeStaleClient(t *testing.T) {
	c := resizeTestCluster(t, 3, store.EngineLocked)
	oldRing := c.Ring()
	conns := make([]*store.AsyncClient, 3)
	for i := range conns {
		conns[i] = c.Server(i).PipeAsyncClient(4)
	}
	stale, err := NewClient(oldRing, conns) // hand-built: not registered, never retargeted
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Close()
	fresh := c.Dial(0)
	defer fresh.Close()

	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("stale-%04d", i)
		if _, err := stale.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.AddNode(); err != nil {
		t.Fatal(err)
	}

	moved, forwardedWrites := 0, 0
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("stale-%04d", i)
		if oldRing.Owner(k) != c.Ring().Owner(k) {
			moved++
		}
		// Reads through the stale view: the op lands on the old owner,
		// which forwards it when the key moved.
		v, ok, err := stale.Get(k)
		if err != nil || !ok || string(v) != k {
			t.Fatalf("stale Get(%q): (%q, %v, %v)", k, v, ok, err)
		}
		// Writes through the stale view must land on the new owner.
		nv := k + "+updated"
		if _, err := stale.Put(k, []byte(nv)); err != nil {
			t.Fatal(err)
		}
		if oldRing.Owner(k) != c.Ring().Owner(k) {
			forwardedWrites++
		}
		v, ok, err = fresh.Get(k)
		if err != nil || !ok || string(v) != nv {
			t.Fatalf("fresh Get(%q) after stale write: (%q, %v, %v)", k, v, ok, err)
		}
	}
	if moved == 0 || forwardedWrites == 0 {
		t.Fatalf("resize moved %d keys (%d forwarded writes); the forwarding path was not exercised", moved, forwardedWrites)
	}
	// The forwarded values live only on the new owners.
	wantAll := map[string]string{}
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("stale-%04d", i)
		wantAll[k] = k + "+updated"
	}
	checkPartition(t, c, wantAll)
}

// TestClusterMigrationKilledMidCopy: fault injection — the migration
// dies after its first export chunk. The cluster must degrade to
// exactly its pre-resize state: ring unchanged, partial copy purged,
// no forwarding window stuck (ops and later resizes proceed normally),
// and closing clients resolves every pending future.
func TestClusterMigrationKilledMidCopy(t *testing.T) {
	c := resizeTestCluster(t, 3, store.EngineActor)
	cl := c.Dial(8)
	defer cl.Close()
	want := map[string]string{}
	var entries []store.Entry
	for i := 0; i < 1500; i++ {
		k := fmt.Sprintf("kill-%05d", i)
		want[k] = k
		entries = append(entries, store.Entry{Key: k, Value: []byte(k)})
	}
	if _, err := cl.MPut(entries); err != nil {
		t.Fatal(err)
	}

	// Keep traffic in flight across the abort.
	var futs []*store.Future
	for i := 0; i < 64; i++ {
		futs = append(futs, cl.GetAsync(fmt.Sprintf("kill-%05d", i)))
	}

	id, err := c.addNode(migOptions{chunk: 64, slots: 64, failAfter: 3})
	if err == nil {
		t.Fatal("fault-injected AddNode reported success")
	}
	if !strings.Contains(err.Error(), "fault injection") {
		t.Fatalf("unexpected abort error: %v", err)
	}
	if id != -1 || c.Nodes() != 3 || c.Ring().Has(3) {
		t.Fatalf("after abort: id=%d members=%v", id, c.Members())
	}
	for _, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Fatalf("pending future failed across abort: %v", err)
		}
	}
	// No data moved, none lost, no tracker left behind.
	checkPartition(t, c, want)
	for i := 0; i < 1500; i += 131 {
		k := fmt.Sprintf("kill-%05d", i)
		if v, ok, err := cl.Get(k); err != nil || !ok || string(v) != k {
			t.Fatalf("Get(%q) after abort: (%q, %v, %v)", k, v, ok, err)
		}
	}
	for _, m := range c.Members() {
		if f := c.node(m).filter; func() bool { f.mu.Lock(); defer f.mu.Unlock(); return f.mig != nil }() {
			t.Fatalf("node %d still has a migration tracker after abort", m)
		}
	}
	// A subsequent resize succeeds (the aborted id stays burned).
	id, err = c.AddNode()
	if err != nil {
		t.Fatalf("AddNode after abort: %v", err)
	}
	if id != 4 {
		t.Fatalf("post-abort AddNode reused id %d, want 4", id)
	}
	checkPartition(t, c, want)
}

// TestRemoveNodeErrors: membership guard rails.
func TestRemoveNodeErrors(t *testing.T) {
	c := resizeTestCluster(t, 2, store.EngineLocked)
	if err := c.RemoveNode(7); err == nil {
		t.Fatal("removing an unknown id succeeded")
	}
	if err := c.RemoveNode(1); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveNode(1); err == nil {
		t.Fatal("removing a retired id succeeded")
	}
	if err := c.RemoveNode(0); err == nil {
		t.Fatal("removing the last member succeeded")
	}
}

// TestClusterLinearizableAcrossMigration is the headline: per-key
// histories recorded while the cluster grows AND shrinks under load
// must linearize, for every shard engine, for lock-step, deep-async and
// batch-frame clients alike. The resizes are paced by a shared op counter so
// both migrations overlap live traffic. Run with -race; CI's migration
// leg does.
func TestClusterLinearizableAcrossMigration(t *testing.T) {
	const (
		nClients = 4
		nKeys    = 8
		depth    = 16
	)
	ops := 280
	if testing.Short() {
		ops = 120
	}
	for _, eng := range store.Engines {
		for _, kind := range []string{"lockstep", "async", "batch"} {
			eng, kind := eng, kind
			t.Run(string(eng)+"/"+kind, func(t *testing.T) {
				t.Parallel()
				c := New(Options{Nodes: 3, Vnodes: 32, Store: store.Options{
					Shards: 2, Buckets: 4, Engine: eng, Lock: locks.MCS,
					MaxThreads: nClients + 2, Nodes: 2,
				}})
				defer c.Close()
				hists := newClusterHistories(nKeys)
				var done atomic.Uint64
				tick := func() { done.Add(1) }
				total := uint64(nClients * ops)

				// The resizer: grow after a quarter of the ops, shrink an
				// original member after half — both while clients hammer.
				var resizeWG sync.WaitGroup
				resizeWG.Add(1)
				go func() {
					defer resizeWG.Done()
					waitUntil := func(n uint64) {
						for done.Load() < n {
							runtime.Gosched()
						}
					}
					waitUntil(total / 4)
					if _, err := c.AddNode(); err != nil {
						t.Errorf("AddNode under load: %v", err)
						return
					}
					waitUntil(total / 2)
					if err := c.RemoveNode(1); err != nil {
						t.Errorf("RemoveNode under load: %v", err)
					}
				}()

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
							runRoutedLinearClient(t, cl, cli, nKeys, ops, hists, tick)
						case "async":
							cl := c.Dial(depth)
							defer cl.Close()
							runRoutedAsyncLinearClient(t, cl, cli, nKeys, ops, depth, hists, tick)
						case "batch":
							cl := c.Dial(depth)
							defer cl.Close()
							runRoutedBatchLinearClient(t, cl, cli, nKeys, ops, depth, hists, tick)
						}
					}()
				}
				wg.Wait()
				resizeWG.Wait()
				if t.Failed() {
					return
				}
				if got := fmt.Sprint(c.Members()); got != "[0 2 3]" {
					t.Fatalf("members %s after grow+shrink, want [0 2 3]", got)
				}
				clusterCheckHistories(t, string(eng)+"/"+kind+"/migrating", hists)
			})
		}
	}
}
