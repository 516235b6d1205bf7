package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"testing"

	"ssync/internal/locks"
)

// TestClientNoBufferAliasing is the regression test for the encode/read
// scratch split in Client: with one shared buffer, a large Get response
// landed in the same backing array the next Put request was encoded
// into, so correctness silently depended on every parse path copying
// out of the frame. The test interleaves large Get responses with Put
// encodes and holds onto every returned value across later round trips
// — any aliasing shows up as retained slices changing underneath us.
func TestClientNoBufferAliasing(t *testing.T) {
	s := New(Options{Shards: 2, Buckets: 8, Lock: locks.TICKET})
	c := NewServer(s, 1).PipeClient()
	defer c.Close()

	big := make([]byte, 128<<10)
	for i := range big {
		big[i] = byte(i * 7)
	}
	if _, err := c.Put("big", big); err != nil {
		t.Fatal(err)
	}

	var retained [][]byte
	for i := 0; i < 8; i++ {
		// A large response fills the read scratch...
		v, found, err := c.Get("big")
		if err != nil || !found {
			t.Fatalf("Get(big) #%d: %v, %v", i, found, err)
		}
		retained = append(retained, v)
		// ...then a Put encode reuses whatever scratch the client holds.
		small := fmt.Sprintf("small-%02d", i)
		if _, err := c.Put(small, bytes.Repeat([]byte{byte(i + 1)}, 512)); err != nil {
			t.Fatal(err)
		}
		// And a small response follows a big one, shrinking the frame.
		sv, found, err := c.Get(small)
		if err != nil || !found || len(sv) != 512 || sv[0] != byte(i+1) {
			t.Fatalf("Get(%s) = %d bytes, %v, %v", small, len(sv), found, err)
		}
		retained = append(retained, sv)
	}
	// Every value returned along the way must still be intact.
	for i, v := range retained {
		if i%2 == 0 {
			if !bytes.Equal(v, big) {
				t.Fatalf("retained big value %d corrupted by later round trips", i)
			}
		} else if len(v) != 512 || v[0] != byte(i/2+1) {
			t.Fatalf("retained small value %d corrupted: % x...", i, v[:8])
		}
	}
}

// TestAsyncClientNoBufferAliasing extends the aliasing audit to the
// multiplexed client, whose buffers churn through sync.Pools: request
// bodies return to framePool the moment the writer copies them out, and
// the read loop's frame scratch is recycled across clients. A future's
// decoded value must survive all of that — including the client being
// closed (scratch returned to the pool) while values are still
// retained, and a second client immediately reusing the pooled buffers.
func TestAsyncClientNoBufferAliasing(t *testing.T) {
	s := New(Options{Shards: 2, Buckets: 8, Lock: locks.TICKET})
	srv := NewServer(s, 1)
	c := srv.PipeAsyncClient(8)

	big := make([]byte, 128<<10)
	for i := range big {
		big[i] = byte(i * 7)
	}
	if _, err := c.Put("big", big); err != nil {
		t.Fatal(err)
	}

	var retained [][]byte
	for i := 0; i < 8; i++ {
		// A window of big gets and small puts in flight together: the
		// read scratch refills while earlier futures' values are held.
		gets := []*Future{c.GetAsync("big"), c.GetAsync("big")}
		small := fmt.Sprintf("async-small-%02d", i)
		if _, err := c.Put(small, bytes.Repeat([]byte{byte(i + 1)}, 512)); err != nil {
			t.Fatal(err)
		}
		sf := c.GetAsync(small)
		for _, f := range gets {
			resp, err := f.Wait()
			if err != nil || resp.Status != StatusOK {
				t.Fatalf("async Get(big) #%d: %+v, %v", i, resp, err)
			}
			retained = append(retained, resp.Value)
		}
		resp, err := sf.Wait()
		if err != nil || len(resp.Value) != 512 || resp.Value[0] != byte(i+1) {
			t.Fatalf("async Get(%s) = %d bytes, %v", small, len(resp.Value), err)
		}
	}
	// Close returns the client's pooled scratch; a second client then
	// stomps over whatever buffers the pool hands back out.
	c.Close()
	c2 := srv.PipeAsyncClient(8)
	defer c2.Close()
	for i := 0; i < 4; i++ {
		if _, _, err := c2.Get("big"); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range retained {
		if !bytes.Equal(v, big) {
			t.Fatalf("retained async value %d corrupted by pooled-buffer reuse", i)
		}
	}
}

// TestBatchEndToEnd drives the batch surface of all three connection
// kinds — lock-step Client, LocalConn and AsyncClient — against one
// store and expects identical semantics.
func TestBatchEndToEnd(t *testing.T) {
	s := New(Options{Shards: 4, Buckets: 8, Lock: locks.MCS})
	srv := NewServer(s, 2)
	conns := map[string]BatchConn{
		"client": srv.PipeClient(),
		"local":  s.NewLocalConn(0),
		"async":  srv.PipeAsyncClient(8),
	}
	for name, c := range conns {
		c := c
		t.Run(name, func(t *testing.T) {
			prefix := name + "-"
			entries := []Entry{
				{Key: prefix + "a", Value: []byte("1")},
				{Key: prefix + "b", Value: []byte("2")},
				{Key: prefix + "c", Value: []byte("3")},
			}
			created, err := c.MPut(entries)
			if err != nil || created != 3 {
				t.Fatalf("MPut = %d, %v", created, err)
			}
			// Re-putting is not a create.
			created, err = c.MPut(entries[:2])
			if err != nil || created != 0 {
				t.Fatalf("re-MPut = %d, %v", created, err)
			}
			vals, err := c.MGet([]string{prefix + "b", prefix + "missing", prefix + "a"})
			if err != nil {
				t.Fatal(err)
			}
			if string(vals[0]) != "2" || vals[1] != nil || string(vals[2]) != "1" {
				t.Fatalf("MGet = %q", vals)
			}
			// A mixed batch: get, put, delete, scan — one frame, per-slot
			// responses in request order.
			resps, err := c.ExecBatch([]Request{
				{Op: OpGet, Key: prefix + "c"},
				{Op: OpPut, Key: prefix + "d", Value: []byte("4")},
				{Op: OpDelete, Key: prefix + "a"},
				{Op: OpScan, Key: prefix, Limit: 10},
				{Op: OpGet, Key: prefix + "a"}, // deleted by slot 2: batch order within a shard...
			})
			if err != nil {
				t.Fatal(err)
			}
			if resps[0].Status != StatusOK || string(resps[0].Value) != "3" {
				t.Fatalf("batch get = %+v", resps[0])
			}
			if resps[1].Status != StatusOK || !resps[1].Created {
				t.Fatalf("batch put = %+v", resps[1])
			}
			if resps[2].Status != StatusOK {
				t.Fatalf("batch delete = %+v", resps[2])
			}
			if resps[3].Status != StatusOK || len(resps[3].Entries) == 0 {
				t.Fatalf("batch scan = %+v", resps[3])
			}
			// Slots 2 and 4 hit the same key: if they land on the same
			// shard group they apply in batch order, so the get sees the
			// delete.
			if resps[4].Status != StatusNotFound {
				t.Fatalf("batch get-after-delete = %+v", resps[4])
			}
		})
	}
	for _, c := range conns {
		c.Close()
	}
}

// TestBatchLockAmortization exercises ExecBatch's grouped execution on
// a single-shard store: every sub-op still executes (the shard op
// counters advance once per op) and per-slot results land in request
// order, with puts visible to the gets batched behind them.
func TestBatchLockAmortization(t *testing.T) {
	s := New(Options{Shards: 1, Buckets: 4, Lock: locks.TICKET})
	h := s.NewHandle(0)
	var reqs []Request
	for i := 0; i < 16; i++ {
		reqs = append(reqs, Request{Op: OpPut, Key: fmt.Sprintf("k%02d", i), Value: []byte{byte(i)}})
	}
	for i := 0; i < 16; i++ {
		reqs = append(reqs, Request{Op: OpGet, Key: fmt.Sprintf("k%02d", i)})
	}
	resps := h.ExecBatch(reqs)
	for i := 0; i < 16; i++ {
		if resps[i].Status != StatusOK || !resps[i].Created {
			t.Fatalf("put %d = %+v", i, resps[i])
		}
		if resps[16+i].Status != StatusOK || resps[16+i].Value[0] != byte(i) {
			t.Fatalf("get %d = %+v", i, resps[16+i])
		}
	}
	// The shard counters saw all 32 ops even though the lock was taken
	// once per class grouping.
	stats := h.ShardStats()
	if stats[0].Gets != 16 || stats[0].Puts != 16 {
		t.Fatalf("shard counters = %+v", stats[0])
	}
}

// TestBatchResponseFrameBound: a multi-get whose values cannot fit one
// response frame degrades the tail sub-responses to StatusError instead
// of killing the connection, and the connection stays usable.
func TestBatchResponseFrameBound(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates several MB of values")
	}
	s := New(Options{Shards: 2, Buckets: 4, Lock: locks.TICKET})
	c := NewServer(s, 1).PipeClient()
	defer c.Close()
	big := bytes.Repeat([]byte{0xCD}, MaxValueLen)
	var keys []string
	var entries []Entry
	for i := 0; i < 6; i++ { // 6 MB of values vs a 4 MB frame bound
		k := fmt.Sprintf("huge-%d", i)
		keys = append(keys, k)
		entries = append(entries, Entry{Key: k, Value: big})
	}
	// MPut chunks the over-frame request client-side: all 6 MB land.
	created, err := c.MPut(entries)
	if err != nil || created != 6 {
		t.Fatalf("chunked MPut = %d, %v", created, err)
	}
	reqs := make([]Request, len(keys))
	for i, k := range keys {
		reqs[i] = Request{Op: OpGet, Key: k}
	}
	resps, err := c.ExecBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	okCount, errCount := 0, 0
	for _, r := range resps {
		switch r.Status {
		case StatusOK:
			okCount++
			if !bytes.Equal(r.Value, big) {
				t.Fatal("oversized batch corrupted a delivered value")
			}
		case StatusError:
			errCount++
		default:
			t.Fatalf("unexpected status %d", r.Status)
		}
	}
	if okCount == 0 || errCount == 0 {
		t.Fatalf("want a mix of delivered and degraded sub-responses, got %d ok / %d err", okCount, errCount)
	}
	// The connection survived the over-full batch.
	if _, found, err := c.Get(keys[0]); err != nil || !found {
		t.Fatalf("connection unusable after bounded batch: %v, %v", found, err)
	}
	// MGet transparently re-fetches the degraded tail key by key, so the
	// convenience surface succeeds even when one frame cannot carry it.
	vals, err := c.MGet(keys)
	if err != nil {
		t.Fatalf("MGet over frame bound: %v", err)
	}
	for i, v := range vals {
		if !bytes.Equal(v, big) {
			t.Fatalf("MGet[%d] lost the degraded value: %d bytes", i, len(v))
		}
	}
}

// TestServerRejectsTaggedMalformed: a malformed tagged request gets a
// tagged error response — the echoed tag first, then the scalar error
// body — so a multiplexed client can attribute the failure instead of
// reporting stream corruption.
func TestServerRejectsTaggedMalformed(t *testing.T) {
	s := New(Options{})
	srv := NewServer(s, 1)
	clientEnd, serverEnd := net.Pipe()
	done := make(chan error, 1)
	go func() {
		defer serverEnd.Close()
		done <- srv.ServeConn(serverEnd)
	}()
	// A tagged batch frame whose batch body is truncated garbage.
	body := AppendTaggedRequest(nil, 0xABCD1234)
	body = append(body, OpBatch, 0xFF, 0xFF)
	if err := WriteFrame(clientEnd, body); err != nil {
		t.Fatal(err)
	}
	resp, err := ReadFrame(clientEnd, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) < 4 || binary.BigEndian.Uint32(resp[:4]) != 0xABCD1234 {
		t.Fatalf("reject response does not echo the tag: % x", resp)
	}
	r, err := ParseResponse(0, resp[4:])
	if err != nil || r.Status != StatusError || r.Msg == "" {
		t.Fatalf("reject body = %+v, %v", r, err)
	}
	if err := <-done; err == nil {
		t.Fatal("server must close the connection after a bad tagged request")
	}
	clientEnd.Close()
}

// TestPipelineRejectSurfacesServerError: when a tagged batch is
// rejected, the async client's future fails with the server's message,
// not a tag-mismatch diagnostic. The malformed frame is injected by a
// corrupting transport, since the client's own encoders never produce
// one.
func TestPipelineRejectSurfacesServerError(t *testing.T) {
	s := New(Options{})
	srv := NewServer(s, 1)
	clientEnd, serverEnd := net.Pipe()
	go func() {
		defer serverEnd.Close()
		_ = srv.ServeConn(serverEnd)
	}()
	cl := NewAsyncClient(&corruptBatches{Conn: clientEnd}, 4)
	defer cl.Close()
	_, err := cl.MGet([]string{"a", "b"})
	if err == nil {
		t.Fatal("corrupted batch must fail")
	}
	if !strings.Contains(err.Error(), "server error:") {
		t.Fatalf("err = %v, want the server's reject message", err)
	}
}

// corruptBatches truncates the body of every outgoing batch frame so
// the server's parser rejects it.
type corruptBatches struct {
	net.Conn
	scan []byte
}

func (c *corruptBatches) Write(p []byte) (int, error) {
	// Frames arrive whole from bufio.Flush; find tagged batch bodies and
	// clobber their count fields (offset: 4 hdr + 1 OpTagged + 4 tag).
	c.scan = append(c.scan[:0], p...)
	if len(c.scan) >= 12 && c.scan[4] == OpTagged && c.scan[9] == OpMGet {
		c.scan[10], c.scan[11] = 0xFF, 0xFF
	}
	n, err := c.Conn.Write(c.scan)
	if n > len(p) {
		n = len(p)
	}
	return n, err
}

// TestPipelineSendsFewerFrames states what pipelining buys as a count,
// not a speed: the same N ops cost the lock-step Client one request
// frame (and one round trip) each, and an AsyncClient submitting
// batches of 8 through a window of 16 at most ⌈N/8⌉ frames. Exact and
// repeatable; throughput itself is measured only by benchmark/run.sh.
func TestPipelineSendsFewerFrames(t *testing.T) {
	const n, batch, window = 250, 8, 16
	reqs := make([]Request, n)
	for i := range reqs {
		key := fmt.Sprintf("k%03d", i%50)
		if i%5 == 0 {
			reqs[i] = Request{Op: OpPut, Key: key, Value: []byte{byte(i)}}
		} else {
			reqs[i] = Request{Op: OpGet, Key: key}
		}
	}
	// A fresh store each, so both clients see the same puts and gets.
	dial := func() *frameCounter {
		srv := NewServer(New(Options{Shards: 4, Buckets: 8, Lock: locks.TICKET}), 1)
		return &frameCounter{Conn: srv.pipeConn()}
	}

	lockConn := dial()
	lock := NewClient(lockConn)
	defer lock.Close()
	want := make([]Response, n)
	for i, req := range reqs {
		resp, err := lock.roundTrip(req)
		if err != nil {
			t.Fatalf("lock-step op %d: %v", i, err)
		}
		want[i] = resp
	}
	if lockConn.frames != n {
		t.Fatalf("lock-step client sent %d request frames for %d ops, want one per op", lockConn.frames, n)
	}

	asyncConn := dial()
	async := NewAsyncClient(asyncConn, window)
	defer async.Close()
	var futs []*Future
	for lo := 0; lo < n; lo += batch {
		futs = append(futs, async.BatchAsync(reqs[lo:min(lo+batch, n)]))
	}
	var got []Response
	for i, f := range futs {
		resps, err := f.WaitBatch()
		if err != nil {
			t.Fatalf("async batch %d: %v", i, err)
		}
		got = append(got, resps...)
	}
	// Every response has been read, so every request frame was written.
	if limit := (n + batch - 1) / batch; asyncConn.frames == 0 || asyncConn.frames > limit {
		t.Fatalf("async client sent %d request frames for %d ops in batches of %d, want 1..%d",
			asyncConn.frames, n, batch, limit)
	}
	if len(got) != n {
		t.Fatalf("async client returned %d responses, want %d", len(got), n)
	}
	for i := range want {
		if got[i].Status != want[i].Status || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("op %d: async %+v, lock-step %+v", i, got[i], want[i])
		}
	}
}

// frameCounter counts the request frames written through it by walking
// the 4-byte length prefixes of the byte stream; a frame may straddle
// Write calls.
type frameCounter struct {
	net.Conn
	frames int
	hdr    [4]byte
	nhdr   int // header bytes of the next frame seen so far
	body   int // body bytes of the current frame still to come
}

func (c *frameCounter) Write(p []byte) (int, error) {
	for q := p; len(q) > 0; {
		if c.body > 0 {
			skip := min(c.body, len(q))
			c.body -= skip
			q = q[skip:]
			continue
		}
		c.hdr[c.nhdr] = q[0]
		c.nhdr++
		q = q[1:]
		if c.nhdr == len(c.hdr) {
			c.frames++
			c.body = int(binary.BigEndian.Uint32(c.hdr[:]))
			c.nhdr = 0
		}
	}
	return c.Conn.Write(p)
}
