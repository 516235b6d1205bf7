package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"

	"ssync/internal/locks"
)

// keeper holds on to what a client returned together with a deep copy
// taken on the spot, so that whatever a later frame overwrites — a value,
// a scan entry or a message still aliasing a read buffer, a pooled frame
// or an arena — shows when check compares the two at the end.
type keeper struct{ kept []keptResult }

type keptResult struct {
	what      string
	got, snap any
}

func (k *keeper) keep(what string, got any) {
	k.kept = append(k.kept, keptResult{what, got, deepCopy(got)})
}

func (k *keeper) check(t *testing.T) {
	t.Helper()
	for _, r := range k.kept {
		if !reflect.DeepEqual(r.got, r.snap) {
			t.Errorf("%s: retained result changed under later frames", r.what)
		}
	}
}

func deepCopy(v any) any {
	switch v := v.(type) {
	case []byte:
		return bytes.Clone(v)
	case [][]byte:
		out := make([][]byte, len(v))
		for i := range v {
			out[i] = bytes.Clone(v[i])
		}
		return out
	case []Entry:
		if v == nil {
			return v
		}
		out := make([]Entry, len(v))
		for i, e := range v {
			out[i] = Entry{Key: strings.Clone(e.Key), Value: bytes.Clone(e.Value)}
		}
		return out
	case Response:
		v.Value, v.Msg = bytes.Clone(v.Value), strings.Clone(v.Msg)
		v.Entries = deepCopy(v.Entries).([]Entry)
		return v
	case []Response:
		out := make([]Response, len(v))
		for i := range v {
			out[i] = deepCopy(v[i]).(Response)
		}
		return out
	}
	panic(fmt.Sprintf("deepCopy: %T", v))
}

// aliasBig is the audits' large value: big enough to grow every read
// buffer, and 40 of them in one batch overflow a response frame.
func aliasBig() []byte {
	big := make([]byte, 128<<10)
	for i := range big {
		big[i] = byte(i * 7)
	}
	return big
}

// keepBlockingSeven runs every blocking method of conn once, over a big
// value and round's small keys, and keeps all they return: values,
// multi-get values, batch responses with their scan entries, and the
// MsgBatchOverflow messages of a batch answer too large for one frame.
func keepBlockingSeven(t *testing.T, k *keeper, conn BatchConn, round int) {
	t.Helper()
	small := fmt.Sprintf("alias-small-%02d", round)
	fill := bytes.Repeat([]byte{byte(round + 1)}, 512)
	if _, err := conn.Put(small, fill); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.MPut([]Entry{{Key: small + "-m", Value: fill[:100]}}); err != nil {
		t.Fatal(err)
	}
	// A large response fills the read scratch, then a small one follows
	// it, shrinking the frame.
	for _, key := range []string{"big", small} {
		v, found, err := conn.Get(key)
		if err != nil || !found {
			t.Fatalf("Get(%s): %v, %v", key, found, err)
		}
		k.keep("Get "+key, v)
	}
	if v, _, _ := conn.Get(small); !bytes.Equal(v, fill) {
		t.Fatalf("Get(%s) = %d bytes starting % x", small, len(v), v[:min(len(v), 4)])
	}
	vals, err := conn.MGet([]string{"big", small, "alias-absent", "big"})
	if err != nil {
		t.Fatal(err)
	}
	k.keep("MGet", vals)
	entries, err := conn.Scan("alias-small-", 0)
	if err != nil || len(entries) < 2 {
		t.Fatalf("Scan = %d entries, %v", len(entries), err)
	}
	k.keep("Scan", entries)
	resps, err := conn.ExecBatch([]Request{{Op: OpGet, Key: "big"}, {Op: OpScan, Key: "alias-small-"},
		{Op: OpGet, Key: small}, {Op: OpDelete, Key: small + "-m"}})
	if err != nil {
		t.Fatal(err)
	}
	k.keep("ExecBatch", resps)
	if round > 0 {
		return
	}
	// 40 × 128 KiB do not fit one response frame: the server degrades the
	// tail to StatusError sub-responses, whose messages are kept too.
	gets := make([]Request, 40)
	for i := range gets {
		gets[i] = Request{Op: OpGet, Key: "big"}
	}
	resps, err = conn.ExecBatch(gets)
	if err != nil {
		t.Fatal(err)
	}
	if last := resps[len(resps)-1]; last.Status != StatusError || last.Msg != MsgBatchOverflow {
		t.Fatalf("the tail of a 5 MiB batch answer = status %d %q, want it degraded", last.Status, last.Msg)
	}
	k.keep("ExecBatch past one frame", resps)
}

// TestClientNoBufferAliasing is the frame-lifetime audit of the
// lock-step client, whose views alias one read scratch that the next
// frame overwrites, and whose request encodes reuse a second one: every
// value, entry and message the blocking seven return is the caller's to
// keep. The test interleaves large and small responses with Put encodes,
// holds onto everything returned across more than a thousand later
// frames, and compares at the end — any aliasing shows up as a retained
// result changing underneath us.
func TestClientNoBufferAliasing(t *testing.T) {
	s := New(Options{Shards: 2, Buckets: 8, Lock: locks.TICKET})
	c := NewServer(s, 1).PipeClient()
	defer c.Close()
	if _, err := c.Put("big", aliasBig()); err != nil {
		t.Fatal(err)
	}
	var k keeper
	for round := 0; round < 8; round++ {
		keepBlockingSeven(t, &k, c, round)
	}
	// Later frames of every shape stomp over the scratch buffers.
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("alias-small-%02d", i%8)
		var err error
		switch i % 4 {
		case 0:
			_, err = c.Put(key, bytes.Repeat([]byte{byte(i)}, 300+i%300))
		case 1:
			_, _, err = c.Get(key)
		case 2:
			_, err = c.MGet([]string{key, "big", key})
		default:
			_, err = c.Scan("alias-small-", 3)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	k.check(t)
}

// TestAsyncClientNoBufferAliasing extends the audit to the multiplexed
// client, whose buffers churn through sync.Pools: request bodies return
// to framePool the moment the writer copies them out, and every response
// frame is handed to its future and goes back to the pool when that
// future has been awaited. What the blocking seven, GetAsync(...).Wait()
// and WaitBatch() return must survive all of that — more than a thousand
// later frames at full window, the client being closed while results are
// still retained, and a second client immediately reusing the pooled
// buffers.
func TestAsyncClientNoBufferAliasing(t *testing.T) {
	const window = 8
	s := New(Options{Shards: 2, Buckets: 8, Lock: locks.TICKET})
	srv := NewServer(s, 1)
	c := srv.PipeAsyncClient(window)
	big := aliasBig()
	if _, err := c.Put("big", big); err != nil {
		t.Fatal(err)
	}

	var k keeper
	for round := 0; round < 8; round++ {
		keepBlockingSeven(t, &k, c, round)
		// A window of big gets, a scan and a batch in flight together:
		// frames are handed over and recycled while earlier futures'
		// results are held.
		small := fmt.Sprintf("alias-small-%02d", round)
		scalars := []*Future{c.GetAsync("big"), c.GetAsync(small), c.ScanAsync("alias-small-", 0), c.GetAsync("big")}
		batches := []*Future{c.MGetAsync([]string{"big", small}), c.ScanAsync("alias-small-", 2),
			c.BatchAsync([]Request{{Op: OpGet, Key: small}, {Op: OpScan, Key: "alias-small-"}})}
		for i, f := range scalars {
			resp, err := f.Wait()
			if err != nil || resp.Status != StatusOK {
				t.Fatalf("round %d: async scalar %d: %+v, %v", round, i, resp.Status, err)
			}
			k.keep("Wait", resp)
		}
		for i, f := range batches {
			resps, err := f.WaitBatch()
			if err != nil {
				t.Fatalf("round %d: async batch %d: %v", round, i, err)
			}
			k.keep("WaitBatch", resps)
		}
	}
	churnWindow(t, c, window, 1000)
	// Close returns the client's pooled scratch; a second client then
	// stomps over whatever buffers the pool hands back out.
	c.Close()
	c2 := srv.PipeAsyncClient(window)
	defer c2.Close()
	for i := 0; i < 4; i++ {
		if _, _, err := c2.Get("big"); err != nil {
			t.Fatal(err)
		}
	}
	churnWindow(t, c2, window, 200)
	k.check(t)
}

// churnWindow pushes at least frames more frames of mixed shapes through
// c, window at a time, so pooled buffers of every size change hands.
func churnWindow(t *testing.T, c *AsyncClient, window, frames int) {
	t.Helper()
	futs := make([]*Future, window)
	for sent := 0; sent < frames; sent += window {
		for i := range futs {
			key := fmt.Sprintf("alias-small-%02d", (sent+i)%8)
			switch i % 4 {
			case 0:
				futs[i] = c.PutAsync(key, bytes.Repeat([]byte{byte(sent + i)}, 300+(sent+i)%300))
			case 1:
				futs[i] = c.GetAsync(key)
			case 2:
				futs[i] = c.MGetAsync([]string{key, "big", key})
			default:
				futs[i] = c.ScanAsync("alias-small-", 3)
			}
		}
		for _, f := range futs {
			if _, err := f.WaitBatch(); err != nil {
				t.Fatal(err)
			}
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
