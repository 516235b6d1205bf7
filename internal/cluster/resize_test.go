package cluster

import (
	"fmt"
	"reflect"
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
			// And a full scan still returns exactly the key set, in key
			// order, each key once with its value.
			es, err := cl.Scan("resize-", 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(es) != len(want) {
				t.Fatalf("scan returned %d entries, want %d", len(es), len(want))
			}
			for i, e := range es {
				if k := fmt.Sprintf("resize-%05d", i); e.Key != k || string(e.Value) != want[k] {
					t.Fatalf("scan entry %d = (%q, %q), want (%q, %q)", i, e.Key, e.Value, k, want[k])
				}
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

// arcEntries returns every entry of h in arcs, by key.
func arcEntries(h *store.Handle, arcs []store.Arc) map[string]string {
	m := map[string]string{}
	exportAll(h, arcs, func(e store.Entry) { m[e.Key] = string(e.Value) })
	return m
}

// TestReconcileRepair drives reconcile's repair path on its own. The
// target starts with three kinds of divergence inside the moved arcs —
// a key only it holds, a stale value, a key it misses — plus a key
// outside them; reconcile must leave the target holding exactly the
// source's arcs and must not touch anything else. A target whose
// engine has stopped applying writes cannot converge, and reconcile
// must say so rather than let the commit go ahead.
func TestReconcileRepair(t *testing.T) {
	arcs := []store.Arc{{Lo: 0, Hi: 1 << 62}, {Lo: 3 << 62, Hi: 1 << 60}} // the second wraps
	var in, out []string
	for i := 0; len(in) < 64 || len(out) < 2; i++ {
		k := fmt.Sprintf("rec-%04d", i)
		if store.ArcsContain(arcs, store.KeyPos(k)) {
			in = append(in, k)
		} else {
			out = append(out, k)
		}
	}
	// load fills src with in[1:] and out[0], and dst with the same arcs
	// content diverged: in[0] only on dst, in[1] stale, in[2] missing,
	// plus out[1] outside the arcs.
	load := func(eng store.Engine) (src, dst *store.Store) {
		opt := store.Options{Shards: 2, Buckets: 8, Engine: eng, Lock: locks.MCS, MaxThreads: 4, Nodes: 1}
		src, dst = store.New(opt), store.New(opt)
		t.Cleanup(src.Close)
		t.Cleanup(dst.Close)
		sh, dh := src.NewHandle(0), dst.NewHandle(0)
		for _, k := range append(in[1:], out[0]) {
			sh.Put(k, []byte("v-"+k))
		}
		for _, k := range in[3:] {
			dh.Put(k, []byte("v-"+k))
		}
		dh.Put(in[0], []byte("target-only"))
		dh.Put(in[1], []byte("stale"))
		dh.Put(out[1], []byte("outside"))
		return src, dst
	}

	for _, eng := range store.Engines {
		eng := eng
		t.Run(string(eng), func(t *testing.T) {
			src, dst := load(eng)
			sh, dh := src.NewHandle(0), dst.NewHandle(0)
			want := arcEntries(sh, arcs)
			if err := reconcile(sh, dh, arcs, 64); err != nil {
				t.Fatalf("reconcile: %v", err)
			}
			if got := arcEntries(dh, arcs); !reflect.DeepEqual(got, want) {
				t.Fatalf("target arcs after repair = %v, want %v", got, want)
			}
			if v, ok := dh.Get(out[1]); !ok || string(v) != "outside" {
				t.Fatalf("key outside the arcs: (%q, %v), want (\"outside\", true)", v, ok)
			}
			if n := dh.Len(); n != len(want)+1 {
				t.Fatalf("target holds %d entries, want %d", n, len(want)+1)
			}
			if got := arcEntries(sh, arcs); !reflect.DeepEqual(got, want) {
				t.Fatal("reconcile changed the source")
			}
		})
	}
	t.Run("target-stopped", func(t *testing.T) {
		// A closed actor engine executes nothing and exports nothing, so
		// the repair lands nowhere and the digests still differ.
		src, dst := load(store.EngineActor)
		dst.Close()
		if err := reconcile(src.NewHandle(0), dst.NewHandle(0), arcs, 64); err == nil {
			t.Fatal("reconcile reported a target that applies nothing as repaired")
		}
	})
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

// TestClusterLinearizableAcrossMigration is the migration axis: per-key
// histories recorded while a 3-node cluster grows AND shrinks under load
// must linearize, for every shard engine and every driver. The resizes
// are paced by a shared op counter so both migrations overlap live
// traffic. Run with -race; CI's migration leg does.
func TestClusterLinearizableAcrossMigration(t *testing.T) {
	t.Parallel()
	const clients = 4
	ops := linOps()
	for _, eng := range store.Engines {
		for _, drv := range drivers {
			eng, drv := eng, drv
			t.Run(string(eng)+"/"+drv.name, func(t *testing.T) {
				t.Parallel()
				c := New(Options{Nodes: 3, Vnodes: 32, Store: linOptions(eng)})
				defer c.Close()
				var done atomic.Uint64
				total := uint64(clients * ops)

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
				defer resizeWG.Wait() // before c.Close, should the check below fail
				linearizable(t, func(_, depth int) store.BatchConn { return c.Dial(depth) }, drv, clients, ops,
					func() { done.Add(1) })
				resizeWG.Wait()
				if got := fmt.Sprint(c.Members()); !t.Failed() && got != "[0 2 3]" {
					t.Fatalf("members %s after grow+shrink, want [0 2 3]", got)
				}
			})
		}
	}
}
