package store_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"ssync/internal/cluster"
	"ssync/internal/store"
)

// settledGoroutines waits until the goroutine count stops moving — what
// earlier tests left behind has exited — and returns it.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for same := 0; same < 5; {
		time.Sleep(2 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

// backTo fails the test unless the goroutine count returns to base: after
// Close, the server goroutines exit on their own schedule.
func backTo(t *testing.T, base int, what string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() != base; {
		if time.Now().After(deadline) {
			t.Fatalf("after closing %s: %d goroutines, want the %d before", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAsyncClientGoroutines pins the windowed connection's cost in
// goroutines: one of its own, the reader, beside the one the server runs
// per connection — submitters write their own frames. The server's share
// is measured, not assumed: a lock-step PipeClient has no goroutine of its
// own, so what it adds is the server's. Both a store's PipeAsyncClients
// and a 4-node cluster's Dial, one windowed connection per member, are
// held to it, and Close gives every goroutine back.
func TestAsyncClientGoroutines(t *testing.T) {
	s := store.New(store.Options{Engine: store.EngineLocked})
	defer s.Close()
	srv := store.NewServer(s, 1)

	base := settledGoroutines()
	lc := srv.PipeClient()
	serving := runtime.NumGoroutine() - base
	if serving != 1 {
		t.Fatalf("a lock-step PipeClient adds %d goroutines, want the server's one", serving)
	}
	lc.Close()
	backTo(t, base, "the lock-step client")

	const conns = 3
	var cs []*store.AsyncClient
	for i := 0; i < conns; i++ {
		cs = append(cs, srv.PipeAsyncClient(8))
	}
	if got := runtime.NumGoroutine() - base; got != conns*(serving+1) {
		t.Errorf("%d PipeAsyncClients add %d goroutines, want %d: one reader and one server each",
			conns, got, conns*(serving+1))
	}
	for _, c := range cs {
		if _, err := c.Put("k", []byte("v")); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	backTo(t, base, "the windowed clients")

	const nodes = 4
	cl := cluster.New(cluster.Options{Nodes: nodes, Store: store.Options{Engine: store.EngineLocked}})
	defer cl.Close()
	base = settledGoroutines()
	rc := cl.Dial(8)
	if got := runtime.NumGoroutine() - base; got != nodes*(serving+1) {
		t.Errorf("a %d-node Dial adds %d goroutines: want %d, one reader and one server per member",
			nodes, got, nodes*(serving+1))
	}
	if _, err := rc.MPut([]store.Entry{{Key: "a", Value: []byte("1")}, {Key: "b", Value: []byte("2")}}); err != nil {
		t.Fatal(err)
	}
	rc.Close()
	backTo(t, base, "the routed client")
}

// TestEngineActorClosed pins what a closed actor store answers: the
// owners are gone, so every visit kind — point ops, scans, exports,
// entry counts and counter snapshots — gets its zero reply instead of
// blocking. A get hands dst back unchanged and an export reports the
// walk done. The store holds keys when it closes, so every zero below
// is the reply's, not the data's. A visit gives up at either of its two
// waits, whichever select picks, so the probes repeat. A second Close
// returns, and no owner goroutine outlives the first.
func TestEngineActorClosed(t *testing.T) {
	const shards, keys = 4, 32
	everywhere := []store.Arc{{Lo: 0, Hi: 1 << 63}, {Lo: 1 << 63, Hi: 0}}
	base := settledGoroutines()
	s := store.New(store.Options{Shards: shards, Buckets: 8, Engine: store.EngineActor})
	if got := runtime.NumGoroutine() - base; got != shards {
		t.Errorf("an actor store of %d shards adds %d goroutines, want one owner per shard", shards, got)
	}
	h := s.NewHandle(0)
	for i := 0; i < keys; i++ {
		h.Put(fmt.Sprintf("k%02d", i), []byte("v"))
	}
	if n := len(h.Scan("k", 0)); n != keys {
		t.Fatalf("open store scans %d entries, want %d", n, keys)
	}
	if entries, _, done := h.ExportRange(0, 0, 0, everywhere); len(entries) != keys || !done {
		t.Fatalf("open store exports %d entries (done %v), want %d in one chunk", len(entries), done, keys)
	}

	s.Close()
	backTo(t, base, "the actor store")
	dst := []byte("dst")
	for round := 0; round < 16 && !t.Failed(); round++ {
		if v, ok := h.Get("k00"); ok || v != nil {
			t.Errorf("round %d: Get after Close = (%q, %v), want a miss", round, v, ok)
		}
		if v, ok := h.GetAppend("k00", dst); ok || string(v) != "dst" || &v[0] != &dst[0] {
			t.Errorf("round %d: GetAppend after Close = (%q, %v), want dst back unchanged and a miss", round, v, ok)
		}
		if h.Put("k00", []byte("w")) || h.Put("new", []byte("w")) {
			t.Errorf("round %d: Put after Close reported a create", round)
		}
		if h.Delete("k01") {
			t.Errorf("round %d: Delete after Close reported a removal", round)
		}
		if got := h.Scan("k", 0); len(got) != 0 {
			t.Errorf("round %d: Scan after Close = %d entries, want none", round, len(got))
		}
		if entries, next, done := h.ExportRange(0, 0, 0, everywhere); len(entries) != 0 || next != 0 || !done {
			t.Errorf("round %d: ExportRange after Close = (%d entries, %d, %v), want (0, 0, true)", round, len(entries), next, done)
		}
		if n := h.Len(); n != 0 {
			t.Errorf("round %d: Len after Close = %d, want 0", round, n)
		}
		for i, c := range h.ShardStats() {
			if c != (store.Counters{}) {
				t.Errorf("round %d: ShardStats after Close: shard %d = %+v, want zero", round, i, c)
			}
		}
	}
	s.Close()
}
