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
