package cluster

import (
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"ssync/internal/locks"
	"ssync/internal/store"
	"ssync/internal/workload"
)

// The transport table: every connection kind the repository has, one row
// each, and every per-transport property — conformance, linearizability,
// the frame-lifetime audit, the Issue allocation gate, the workload
// engine and Close under un-awaited flights — written once and ranging
// over it. This package is the one that can build all five rows. A new
// transport is one more row, and inherits every property.

// transport is one row of the table.
type transport struct {
	name string
	// open builds the row's backend over opts: one store, or a cluster
	// whose every node is built from opts.
	open func(t *testing.T, opts store.Options) backend
	// mute dials the row, with an in-flight window of depth frames per
	// connection, over peers that read every frame and answer none; nil
	// for a row without a window.
	mute func(t *testing.T, depth int) store.BatchConn
	// issue is the row's exact object count for Driver.Issue(ops).Wait():
	// one op, a group of any size and hit count, a group with a scan.
	issue [3]float64
	// local marks the row without a wire: no frame bound to overflow, and
	// views that alias the engine's own memory, so every engine is audited.
	local bool
}

// backend is an opened row: the stores behind it and its dialer.
type backend struct {
	stores []*store.Store
	// dial opens connection i with an in-flight window of depth where the
	// row has one. In process, i picks the handle's NUMA node, so
	// hierarchical locks see two.
	dial func(i, depth int) store.BatchConn
}

var transports = []transport{
	{name: "in-process", local: true, issue: [3]float64{1, 2, 2}, open: func(t *testing.T, opts store.Options) backend {
		s := openStore(t, opts)
		return backend{[]*store.Store{s}, func(i, _ int) store.BatchConn { return s.NewLocalConn(i % 2) }}
	}},
	{name: "lock-step", issue: [3]float64{1, 2, 2}, open: func(t *testing.T, opts store.Options) backend {
		s := openStore(t, opts)
		srv := store.NewServer(s, 2)
		return backend{[]*store.Store{s}, func(int, int) store.BatchConn { return srv.PipeClient() }}
	}},
	{name: "windowed", issue: [3]float64{2, 3, 3}, open: func(t *testing.T, opts store.Options) backend {
		s := openStore(t, opts)
		srv := store.NewServer(s, 2)
		return backend{[]*store.Store{s}, func(_, depth int) store.BatchConn { return srv.PipeAsyncClient(depth) }}
	}, mute: func(t *testing.T, depth int) store.BatchConn { return store.NewAsyncClient(mutePeer(t), depth) }},
	routed(1, [3]float64{2, 4, 6}),
	routed(3, [3]float64{2, 6, 6}),
}

// routed is the row of a cluster of nodes behind a routing client.
func routed(nodes int, issue [3]float64) transport {
	return transport{name: fmt.Sprintf("routed-%d", nodes), issue: issue,
		open: func(t *testing.T, opts store.Options) backend {
			c := newTestCluster(t, nodes, opts)
			b := backend{dial: func(_, depth int) store.BatchConn { return c.Dial(depth) }}
			for _, m := range c.Members() {
				b.stores = append(b.stores, c.Store(m))
			}
			return b
		},
		mute: func(t *testing.T, depth int) store.BatchConn {
			conns := make([]*store.AsyncClient, nodes)
			for i := range conns {
				conns[i] = store.NewAsyncClient(mutePeer(t), depth)
			}
			cl, err := NewClient(NewRing(nodes, DefaultVnodes), conns)
			if err != nil {
				t.Fatal(err)
			}
			return cl
		},
	}
}

// only returns the rows named, in table order.
func only(names ...string) []transport {
	var rows []transport
	for _, tr := range transports {
		for _, name := range names {
			if tr.name == name {
				rows = append(rows, tr)
			}
		}
	}
	return rows
}

func openStore(t *testing.T, opts store.Options) *store.Store {
	s := store.New(opts)
	t.Cleanup(s.Close)
	return s
}

// mutePeer is the client end of a pipe whose far end reads every frame
// and answers none, so what a client puts in flight stays in flight.
func mutePeer(t *testing.T) net.Conn {
	client, peer := net.Pipe()
	go func() { _, _ = io.Copy(io.Discard, peer) }()
	t.Cleanup(func() { peer.Close() })
	return client
}

// futures is the async surface of the rows with a window: a point op
// submitted now, a Future to await later.
type futures interface {
	GetAsync(key string) *store.Future
	PutAsync(key string, value []byte) *store.Future
	DeleteAsync(key string) *store.Future
}

// batchFrame returns how c sends reqs as one batch frame, unsplit: its
// own BatchAsync when windowed, and when routed the BatchAsync of the
// node owning the first key, whose filter must execute what it owns
// straight out of the frame and forward the rest. It is nil on a row
// without a window.
func batchFrame(c store.BatchConn) func(reqs []store.Request) *store.Future {
	switch c := c.(type) {
	case *store.AsyncClient:
		return c.BatchAsync
	case *Client:
		return func(reqs []store.Request) *store.Future { return c.Node(c.Owner(reqs[0].Key)).BatchAsync(reqs) }
	}
	return nil
}

// ops sums every shard counter of every store behind the backend.
func (b backend) ops() (n uint64) {
	for _, s := range b.stores {
		for _, c := range s.NewHandle(0).ShardStats() {
			n += c.Total()
		}
	}
	return n
}

// TestClusterWorkloadDriver drives the scenario engine over every engine
// and row through store.Driver, the way `ssync store` and `ssync cluster`
// do.
func TestClusterWorkloadDriver(t *testing.T) {
	t.Parallel()
	for _, eng := range store.Engines {
		eng := eng
		t.Run(string(eng), func(t *testing.T) {
			t.Parallel()
			for _, tr := range transports {
				tr := tr
				t.Run(tr.name, func(t *testing.T) {
					t.Parallel()
					booksBalance(t, tr.open(t, store.Options{Shards: 8, Buckets: 16, Engine: eng, Lock: locks.MCS, MaxThreads: 10}))
				})
			}
		})
	}
}

// booksBalance runs zipfian keys over a preloaded population, a
// get/put/scan mix, ramp and steady phases over b — once op by op through
// the blocking surface, once as groups of 8 kept 4 deep through Issue —
// and checks the books: every op counted once, the population hit and
// written, and the stores' shard counters covering every op the clients
// issued (scans touch every shard, so they exceed it).
func booksBalance(t *testing.T, b backend) {
	const clients, opsPerClient = 4, 400
	for _, batch := range []int{1, 8} {
		before := b.ops()
		phases, err := workload.Run(workload.Scenario{
			Dist:      workload.NewZipfian(512, 0),
			Mix:       workload.Mix{Get: 80, Put: 15, Scan: 5},
			ValueSize: 32,
			ScanLimit: 8,
			Preload:   256,
			Phases:    workload.RampSteady(clients, opsPerClient),
			Batch:     batch,
			Pipeline:  batch / 2,
		}, func(i int) (workload.Conn, error) { return store.Driver{C: b.dial(i, 4)}, nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(phases) != 2 || phases[0].Name != "ramp" || phases[1].Name != "steady" {
			t.Fatalf("batch %d: phases = %+v", batch, phases)
		}
		steady := phases[1]
		if steady.Ops != clients*opsPerClient || steady.Hits == 0 || steady.Created == 0 {
			t.Fatalf("batch %d: steady phase counted %d ops (want %d), %d hits, %d creates",
				batch, steady.Ops, clients*opsPerClient, steady.Hits, steady.Created)
		}
		if counted, issued := b.ops()-before, 256+phases[0].Ops+steady.Ops; counted < issued {
			t.Fatalf("batch %d: shard counters saw %d ops, clients issued %d", batch, counted, issued)
		}
	}
}

// TestCloseFailsEveryFlight: on every row with a window, Close with a
// window of flights un-awaited. To peers that never answer, every flight
// must fail with ErrClientClosed. To a live backend, Close races real
// answers: every flight resolves with its answer or that error, and a
// flight started after Close fails at once. Neither Close nor any Wait
// may hang.
func TestCloseFailsEveryFlight(t *testing.T) {
	const window = 8
	for _, tr := range transports {
		if tr.mute == nil {
			continue
		}
		tr := tr
		t.Run(tr.name, func(t *testing.T) {
			for i, err := range closeInFlight(t, tr.mute(t, window), window) {
				if !errors.Is(err, store.ErrClientClosed) {
					t.Errorf("mute peers: flight %d: %v, want ErrClientClosed", i, err)
				}
			}
			dial := tr.open(t, store.Options{}).dial
			for round := 0; round < 10; round++ {
				c := dial(round, window)
				for i, err := range closeInFlight(t, c, window) {
					if err != nil && !errors.Is(err, store.ErrClientClosed) {
						t.Errorf("round %d: flight %d: %v, want an answer or ErrClientClosed", round, i, err)
					}
				}
				if _, err := c.(futures).GetAsync("late").Wait(); !errors.Is(err, store.ErrClientClosed) {
					t.Fatalf("round %d: a get after Close: %v, want ErrClientClosed", round, err)
				}
			}
		})
	}
}

// closeInFlight puts window flights on c — point futures, batch frames
// and Issue'd groups, split over the nodes on a routed row — closes c
// with none awaited, and returns what each one's Wait says.
func closeInFlight(t *testing.T, c store.BatchConn, window int) []error {
	t.Helper()
	waits := []func() error{c.Close}
	for i := 0; i < window; i++ {
		a, b := workload.Key(uint64(2*i)), workload.Key(uint64(2*i+1))
		switch i % 3 {
		case 0:
			f := c.(futures).PutAsync(a, []byte("v"))
			waits = append(waits, func() error { _, err := f.Wait(); return err })
		case 1:
			f := batchFrame(c)([]store.Request{{Op: store.OpGet, Key: a}, {Op: store.OpDelete, Key: b}})
			waits = append(waits, func() error { _, err := f.WaitBatch(); return err })
		default:
			p := c.Issue([]workload.Op{{Kind: workload.KindGet, Key: a}, {Kind: workload.KindPut, Key: b, Value: []byte("v")}})
			waits = append(waits, func() error { _, err := p.Wait(); return err })
		}
	}
	errs := make([]error, len(waits))
	done := make(chan struct{}, len(waits))
	for i, w := range waits {
		i, w := i, w
		go func() { errs[i] = w(); done <- struct{}{} }()
	}
	timeout := time.After(10 * time.Second)
	for range waits {
		select {
		case <-done:
		case <-timeout:
			t.Fatal("Close or a Wait hangs with flights in flight")
		}
	}
	return errs[1:]
}
