package store

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"

	"ssync/internal/locks"
	"ssync/internal/workload"
	"ssync/internal/xrand"
)

// Pipelining stress: many deep-window async clients against one server.
// The reader verifies every echoed tag, so "no response/tag mismatch"
// is enforced on every single frame — any error here fails the run.
// These tests run twice under -race in CI (`-run Pipeline -count=2`).

// stressAsyncClients runs nClients async clients at the given depth
// against freshly dialed connections, each issuing ops mixed scalar and
// batch requests while keeping the window saturated, and verifies
// responses against ground truth where it is stable (per-client private
// keys).
func stressAsyncClients(t *testing.T, dial func() (net.Conn, error), nClients, depth, ops int) {
	t.Helper()
	var wg sync.WaitGroup
	for c := 0; c < nClients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := dial()
			if err != nil {
				t.Error(err)
				return
			}
			cl := NewAsyncClient(conn, depth)
			defer cl.Close()
			rng := xrand.New(uint64(c)*31337 + 13)
			window := make([]*Future, 0, depth)
			expect := make(map[*Future]string) // future -> private value expected (gets only)
			settle := func(f *Future) bool {
				if f.batch {
					if _, err := f.WaitBatch(); err != nil {
						t.Errorf("client %d: batch: %v", c, err)
						return false
					}
					return true
				}
				resp, err := f.Wait()
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return false
				}
				if want, ok := expect[f]; ok {
					delete(expect, f)
					if resp.Status != StatusOK || string(resp.Value) != want {
						t.Errorf("client %d: private get = %q (status %d), want %q",
							c, resp.Value, resp.Status, want)
						return false
					}
				}
				return true
			}
			// Seed the private key so gets on it always hit.
			priv := fmt.Sprintf("priv-%03d", c)
			val := fmt.Sprintf("val-%03d", c)
			if _, err := cl.Put(priv, []byte(val)); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < ops; i++ {
				var f *Future
				switch rng.Uint64() % 5 {
				case 0:
					f = cl.GetAsync(priv)
					// The private key is only ever written once, so the
					// response value is exact ground truth for tag matching:
					// a cross-matched response would carry another client's
					// value or a shared-key payload.
					expect[f] = val
				case 1:
					f = cl.PutAsync(workload.Key(rng.Uint64()%512), []byte{byte(i)})
				case 2:
					f = cl.GetAsync(workload.Key(rng.Uint64() % 512))
				case 3:
					f = cl.DeleteAsync(workload.Key(rng.Uint64() % 512))
				default:
					keys := make([]string, 4)
					for j := range keys {
						keys[j] = workload.Key(rng.Uint64() % 512)
					}
					f = cl.MGetAsync(keys)
				}
				if len(window) == depth {
					oldest := window[0]
					window = append(window[:0], window[1:]...)
					if !settle(oldest) {
						return
					}
				}
				window = append(window, f)
			}
			for _, f := range window {
				if !settle(f) {
					return
				}
			}
			if err := cl.Err(); err != nil {
				t.Errorf("client %d: client died during stress: %v", c, err)
			}
		}()
	}
	wg.Wait()
}

func TestPipelineStressPipe(t *testing.T) {
	s := New(Options{Shards: 4, Buckets: 8, Lock: locks.MCS})
	srv := NewServer(s, 2)
	ops := 2000
	if testing.Short() {
		ops = 400
	}
	stressAsyncClients(t, func() (net.Conn, error) { return netPipe(srv), nil }, 8, 64, ops)
}

// netPipe dials srv over net.Pipe, which has no buffer: every Write waits
// for the peer's Read. Tests use it where the in-process transport's
// buffering would hide a writer blocked against a writer.
func netPipe(srv *Server) net.Conn {
	clientEnd, serverEnd := net.Pipe()
	go func() {
		defer serverEnd.Close()
		_ = srv.ServeConn(serverEnd)
	}()
	return clientEnd
}

func TestPipelineStressTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer ln.Close()
	s := New(Options{Shards: 4, Buckets: 8, Lock: locks.TICKET})
	srv := NewServer(s, 2)
	go func() { _ = srv.Serve(ln) }()
	ops := 2000
	if testing.Short() {
		ops = 400
	}
	stressAsyncClients(t, func() (net.Conn, error) {
		return net.Dial("tcp", ln.Addr().String())
	}, 6, 64, ops)
}

// TestPipelineWindowExhaustion floods a tiny window from many submitter
// goroutines: every op must complete (window backpressure, no deadlock)
// even though submissions outnumber the window 100:1 — over the
// in-process transport and over net.Pipe, where a submitter blocked in
// Write holds the write lock until the server reads.
func TestPipelineWindowExhaustion(t *testing.T) {
	s := New(Options{Shards: 2, Buckets: 4, Lock: locks.TICKET})
	srv := NewServer(s, 2)
	for name, conn := range map[string]net.Conn{"in-process": srv.pipeConn(), "net.Pipe": netPipe(srv)} {
		t.Run(name, func(t *testing.T) { exhaustWindow(t, NewAsyncClient(conn, 2)) })
	}
}

func exhaustWindow(t *testing.T, cl *AsyncClient) {
	defer cl.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("w%d-%d", g, i)
				if _, err := cl.Put(key, []byte{1}); err != nil {
					t.Errorf("put %s: %v", key, err)
					return
				}
				if _, found, err := cl.Get(key); err != nil || !found {
					t.Errorf("get %s = %v, %v", key, found, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPipelineOversizedBatchFailsOneFuture: a batch whose encoding
// exceeds MaxFrame fails its own future at submission; the connection
// and every other in-flight future stay healthy.
func TestPipelineOversizedBatchFailsOneFuture(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates several MB of values")
	}
	s := New(Options{Shards: 2, Buckets: 4, Lock: locks.TICKET})
	cl := NewServer(s, 1).PipeAsyncClient(8)
	defer cl.Close()
	ok := cl.PutAsync("fine", []byte("v"))
	var entries []Entry
	for i := 0; i < 6; i++ {
		entries = append(entries, Entry{Key: fmt.Sprintf("h%d", i), Value: make([]byte, MaxValueLen)})
	}
	huge := cl.MPutAsync(entries) // the raw single-frame primitive
	if _, err := huge.WaitBatch(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized batch future: err = %v, want ErrFrameTooLarge", err)
	}
	if _, err := ok.Wait(); err != nil {
		t.Fatalf("unrelated future collateral damage: %v", err)
	}
	if _, found, err := cl.Get("fine"); err != nil || !found {
		t.Fatalf("client dead after oversized batch: %v, %v", found, err)
	}
	// The chunking MPut wrapper handles the same entries fine.
	if created, err := cl.MPut(entries); err != nil || created != 6 {
		t.Fatalf("chunked MPut = %d, %v", created, err)
	}
	vals, err := cl.MGet([]string{"h0", "h5", "missing"})
	if err != nil || len(vals[0]) != MaxValueLen || len(vals[1]) != MaxValueLen || vals[2] != nil {
		t.Fatalf("MGet after chunked MPut: %v (lens %d,%d)", err, len(vals[0]), len(vals[1]))
	}
}

// TestPipelineTaggedScanFrameBound: a scan whose untagged response
// encodes to exactly MaxFrame must still fit once the 4-byte tag is
// prepended — the server trims one more entry for tagged connections
// instead of dying on WriteFrame.
func TestPipelineTaggedScanFrameBound(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates several MB of values")
	}
	s := New(Options{Shards: 2, Buckets: 4, Lock: locks.TICKET})
	srv := NewServer(s, 1)
	// Three max-size values plus one sized so the scan response body is
	// exactly MaxFrame: 1 status + 4 count + 4×(2 + 2-byte key + 4) + values.
	h := s.NewHandle(0)
	pad := MaxFrame - (1 + 4) - 4*(2+2+4) - 3*MaxValueLen
	if pad <= 0 || pad > MaxValueLen {
		t.Fatalf("bad pad %d — protocol bounds changed, resize the test", pad)
	}
	for i, size := range []int{MaxValueLen, MaxValueLen, MaxValueLen, pad} {
		h.Put(fmt.Sprintf("s%d", i), make([]byte, size))
	}

	// Untagged lock-step client: the exact-fit response carries all 4.
	c := srv.PipeClient()
	defer c.Close()
	entries, err := c.Scan("s", 0)
	if err != nil || len(entries) != 4 {
		t.Fatalf("lock-step scan = %d entries, %v", len(entries), err)
	}

	// Tagged async client: one entry is trimmed, the connection lives.
	a := srv.PipeAsyncClient(4)
	defer a.Close()
	entries, err = a.Scan("s", 0)
	if err != nil {
		t.Fatalf("tagged scan at the frame bound: %v", err)
	}
	if len(entries) != 3 {
		t.Fatalf("tagged scan = %d entries, want 3 (one trimmed for the tag)", len(entries))
	}
	if _, found, err := a.Get("s0"); err != nil || !found {
		t.Fatalf("connection dead after bound-fitting scan: %v, %v", found, err)
	}
}
