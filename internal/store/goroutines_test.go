package store_test

import (
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
