package store

import (
	"bufio"
	"fmt"
	"io"
	"sync"

	"ssync/internal/workload"
)

// Client drives a Server over a byte stream (net.Conn, net.Pipe). It
// keeps one request in flight and is not safe for concurrent use — give
// each goroutine its own connection, exactly like real client traffic.
// For a multiplexed connection that keeps a window of requests in
// flight, see AsyncClient (async.go). It is the lock-step transport of
// the client Core: Start writes the group's frame, reads its response on
// the caller's goroutine, and returns the group resolved.
type Client struct {
	Core
	conn io.ReadWriteCloser
	br   *bufio.Reader
	bw   *bufio.Writer
	// Encode and frame-read scratch are deliberately distinct buffers:
	// the views Start returns alias rbuf until the next Start, and that
	// Start encodes its request into ebuf before it reads anything.
	// TestClientNoBufferAliasing pins this down.
	//
	// Both come from clientScratch and go back at Close. Returning them
	// is safe because the Core copies out of the views whatever its
	// caller keeps before it returns, so no caller-visible value aliases
	// a pooled buffer.
	ebuf []byte // request encode scratch
	rbuf []byte // response frame-read scratch
	// Pool handles for ebuf/rbuf; nil once Close returned them, which
	// makes a double Close (or a misbehaving post-Close call) unable to
	// hand the same backing array out twice.
	ebufp, rbufp *[]byte
	views        []ResponseView // the last reply's views over rbuf, reused
}

// clientScratch pools lock-step clients' encode and read buffers, so a
// dial-per-worker benchmark or a chain of short-lived connections does
// not pay two fresh frame buffers per client.
var clientScratch = sync.Pool{New: func() any { return new([]byte) }}

// NewClient wraps an established connection.
//
//ssync:ignore poolaudit the Client owns ebuf/rbuf until Close, the single release point; the Core copies out of the views first
func NewClient(conn io.ReadWriteCloser) *Client {
	ep := clientScratch.Get().(*[]byte)
	rp := clientScratch.Get().(*[]byte)
	c := &Client{
		conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn),
		ebuf: *ep, rbuf: *rp, ebufp: ep, rbufp: rp,
	}
	c.Core = NewCore(c.Start)
	return c
}

// Close closes the underlying connection and releases the scratch
// buffers; only the first Close releases them.
func (c *Client) Close() error {
	if c.ebufp != nil {
		putBuf(&clientScratch, c.ebufp, c.ebuf)
		putBuf(&clientScratch, c.rbufp, c.rbuf)
		c.ebufp, c.rbufp = nil, nil
		c.ebuf, c.rbuf = nil, nil
	}
	return c.conn.Close()
}

// Start is the lock-step transport: one request frame out, one response
// frame in, decoded on the caller's goroutine into views over rbuf —
// valid until the next Start.
func (c *Client) Start(req Request, b Batch) Reply {
	var rbody []byte
	var err error
	if b.Op != 0 {
		rbody, err = c.exchange(AppendBatchRequest(c.ebuf[:0], b))
	} else {
		rbody, err = c.exchange(AppendRequest(c.ebuf[:0], req))
	}
	if err == nil {
		c.views, err = replyViews(b.Op != 0, req.Op, b.Reqs, rbody, c.views)
	}
	return Reply{Views: c.views, Err: err}
}

// exchange takes a request just encoded onto ebuf (or the encoder's
// error), writes it as one frame and reads one response frame.
func (c *Client) exchange(body []byte, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	c.ebuf = body[:0]
	if err := WriteFrame(c.bw, body); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	rbody, err := ReadFrame(c.br, c.rbuf)
	if err != nil {
		return nil, err
	}
	c.rbuf = rbody[:0]
	return rbody, nil
}

// migRoundTrip sends one migration frame and decodes its response.
func (c *Client) migRoundTrip(req MigrateRequest) (MigrateResponse, error) {
	rbody, err := c.exchange(AppendMigrateRequest(c.ebuf[:0], req))
	if err != nil {
		return MigrateResponse{}, err
	}
	resp, err := ParseMigrateResponse(req.Op, rbody)
	if err == nil {
		err = serverErr(resp.Status, resp.Msg)
	}
	if err != nil {
		return MigrateResponse{}, err
	}
	return resp, nil
}

// MigExport requests one chunk of the server's entries whose ring
// positions fall in arcs, resuming from cursor (0 starts the walk; pass
// the returned cursor until done).
func (c *Client) MigExport(cursor uint64, max int, arcs []Arc) (entries []Entry, next uint64, done bool, err error) {
	if max <= 0 || max > MaxBatchOps {
		max = MaxBatchOps
	}
	resp, err := c.migRoundTrip(MigrateRequest{Op: OpMigExport, Cursor: cursor, Max: uint16(max), Arcs: arcs})
	if err != nil {
		return nil, 0, false, err
	}
	return resp.Entries, resp.Next, resp.Done, nil
}

// MigDigest fetches the server's order-independent checksums for arcs.
func (c *Client) MigDigest(arcs []Arc, slots int) ([]uint64, error) {
	if slots <= 0 || slots > MaxDigestSlots {
		return nil, ErrBadSlots
	}
	resp, err := c.migRoundTrip(MigrateRequest{Op: OpMigDigest, Slots: uint16(slots), Arcs: arcs})
	if err != nil {
		return nil, err
	}
	if len(resp.Digests) != slots {
		return nil, fmt.Errorf("store: digest count %d, want %d", len(resp.Digests), slots)
	}
	return resp.Digests, nil
}

// MigApply lands migrated entries and deletes on the server's local
// store (bypassing any Router), chunked under the frame and count
// bounds; it returns the number of ops applied.
func (c *Client) MigApply(puts []Entry, dels []string) (int, error) {
	applied := 0
	for _, chunk := range mputChunks(puts) {
		if len(chunk) == 0 {
			continue
		}
		resp, err := c.migRoundTrip(MigrateRequest{Op: OpMigApply, Puts: chunk})
		if err != nil {
			return applied, err
		}
		applied += int(resp.Applied)
	}
	for _, chunk := range mgetChunks(dels) {
		if len(chunk) == 0 {
			continue
		}
		resp, err := c.migRoundTrip(MigrateRequest{Op: OpMigApply, Dels: chunk})
		if err != nil {
			return applied, err
		}
		applied += int(resp.Applied)
	}
	return applied, nil
}

// LocalConn is the in-process transport of the client Core: a Handle
// behind the same surface as a remote client, so the workload engine can
// drive a store with no wire in between. Like Handle, it is
// single-goroutine.
type LocalConn struct {
	Core
	h     *Handle
	views []ResponseView // the last reply, reused
	val   []byte         // a single get's value, reused
}

// NewLocalConn creates an in-process connection; node is the NUMA hint.
func (s *Store) NewLocalConn(node int) *LocalConn {
	c := &LocalConn{h: s.NewHandle(node)}
	c.Core = NewCore(c.Start)
	return c
}

// Start is the in-process transport: the group runs on the handle before
// it returns — a batch as one grouped execution on the handle's reused
// response slice and arena, exactly as ExecViews serves a frame, so
// direct connections amortize shard locking like the wire path and
// allocate as little; a single scan on the handle's scan result. The
// views — scan entries included — alias that storage: valid until the
// next Start (TestLocalConnNoBufferAliasing).
func (c *LocalConn) Start(req Request, b Batch) Reply {
	if b.Op != 0 {
		resps := c.h.execReqs(b.Reqs)
		if cap(c.views) < len(resps) {
			c.views = make([]ResponseView, len(resps))
		}
		c.views = c.views[:len(resps)]
		for i := range resps {
			r := &resps[i]
			c.views[i] = ResponseView{Status: r.Status, Created: r.Created, Value: r.Value,
				Msg: []byte(r.Msg), Scanned: len(r.Entries), Entries: r.Entries}
		}
		return Reply{Views: c.views}
	}
	v := ResponseView{Status: StatusNotFound}
	var ok bool
	switch req.Op {
	case OpGet:
		c.val, ok = c.h.GetAppend(req.Key, recycle(c.val))
		v.Value = c.val
	case OpPut:
		v.Created, ok = c.h.Put(req.Key, req.Value), true
	case OpDelete:
		ok = c.h.Delete(req.Key)
	case OpScan:
		v.Entries, ok = c.h.scan(keyOf(req.Key), scanLimit(req.Limit)), true
		v.Scanned = len(v.Entries)
	default:
		return Reply{Err: ErrBadOp}
	}
	if ok {
		v.Status = StatusOK
	}
	c.views = append(c.views[:0], v)
	return Reply{Views: c.views}
}

// Close is a no-op.
func (c *LocalConn) Close() error { return nil }

// Conn is the scalar method set every connection kind shares.
type Conn interface {
	Get(key string) ([]byte, bool, error)
	Put(key string, value []byte) (bool, error)
	Delete(key string) (bool, error)
	Scan(prefix string, limit int) ([]Entry, error)
	Close() error
}

// BatchConn is the whole surface the Core gives a connection kind: Conn
// plus groups of scalar ops in one call — one round trip on the wire,
// one lock acquisition per touched shard on the server — blocking
// (ExecBatch, MGet, MPut) or started now and awaited later (Issue).
type BatchConn interface {
	Conn
	ExecBatch(reqs []Request) ([]Response, error)
	// MGet returns values[i] nil when keys[i] is absent, and non-nil —
	// zero-length for an empty value — when it is present.
	MGet(keys []string) ([][]byte, error)
	MPut(entries []Entry) (int, error)
	Issue(ops []workload.Op) workload.Pending
}

var (
	_ BatchConn = (*Client)(nil)
	_ BatchConn = (*LocalConn)(nil)
	_ BatchConn = (*AsyncClient)(nil)
)
