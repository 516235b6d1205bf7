package store

import (
	"bufio"
	"fmt"
	"io"
	"sync"
)

// Client drives a Server over a byte stream (net.Conn, net.Pipe). It
// keeps one request in flight and is not safe for concurrent use — give
// each goroutine its own connection, exactly like real client traffic.
// For a multiplexed connection that keeps a window of requests in
// flight, see AsyncClient (async.go).
type Client struct {
	conn io.ReadWriteCloser
	br   *bufio.Reader
	bw   *bufio.Writer
	// Encode and frame-read scratch are deliberately distinct buffers:
	// sharing one backing array would let a response body alias the next
	// request's encode buffer (and vice versa), which is only safe while
	// every parse path copies out of the frame — an invariant too easy to
	// break at a distance. TestClientNoBufferAliasing pins this down.
	//
	// Both come from clientScratch and go back at Close. Returning them
	// is safe because every decode copies out of rbuf before the call
	// returns (the same invariant), so no caller-visible value aliases a
	// pooled buffer.
	ebuf []byte // request encode scratch
	rbuf []byte // response frame-read scratch
	// Pool handles for ebuf/rbuf; nil once Close returned them, which
	// makes a double Close (or a misbehaving post-Close call) unable to
	// hand the same backing array out twice.
	ebufp, rbufp *[]byte
}

// clientScratch pools lock-step clients' encode and read buffers, so a
// dial-per-worker benchmark or a chain of short-lived connections does
// not pay two fresh frame buffers per client.
var clientScratch = sync.Pool{New: func() any { return new([]byte) }}

// NewClient wraps an established connection.
//
//ssync:ignore poolaudit the Client owns ebuf/rbuf until Close, the single release point; every decode copies out first
func NewClient(conn io.ReadWriteCloser) *Client {
	ep := clientScratch.Get().(*[]byte)
	rp := clientScratch.Get().(*[]byte)
	return &Client{
		conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn),
		ebuf: *ep, rbuf: *rp, ebufp: ep, rbufp: rp,
	}
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

// roundTrip sends req and decodes the response.
func (c *Client) roundTrip(req Request) (Response, error) {
	body, err := AppendRequest(c.ebuf[:0], req)
	if err != nil {
		return Response{}, err
	}
	c.ebuf = body[:0]
	rbody, err := c.exchange(body)
	if err != nil {
		return Response{}, err
	}
	resp, err := ParseResponse(req.Op, rbody)
	if err != nil {
		return Response{}, err
	}
	if resp.Status == StatusError {
		return Response{}, fmt.Errorf("store: server error: %s", resp.Msg)
	}
	return resp, nil
}

// exchange writes one request frame and reads one response frame.
func (c *Client) exchange(body []byte) ([]byte, error) {
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

// batchRoundTrip sends one batch frame and decodes its sub-responses.
func (c *Client) batchRoundTrip(b Batch) ([]Response, error) {
	body, err := AppendBatchRequest(c.ebuf[:0], b)
	if err != nil {
		return nil, err
	}
	c.ebuf = body[:0]
	rbody, err := c.exchange(body)
	if err != nil {
		return nil, err
	}
	return ParseBatchResponse(b.SubOps(), rbody)
}

// ExecBatch sends one batch frame and decodes its sub-responses: N ops,
// one round trip, and server-side one shard-lock acquisition per touched
// shard. Sub-ops that fail individually come back as StatusError
// responses rather than an error. The single frame is the contract: an
// encoded batch larger than MaxFrame fails with ErrFrameTooLarge (the
// MGet/MPut wrappers chunk instead).
func (c *Client) ExecBatch(reqs []Request) ([]Response, error) {
	return c.batchRoundTrip(Batch{Op: OpBatch, Reqs: reqs})
}

// MGet fetches many keys, chunked under the frame and count bounds like
// MPut; values[i] is nil when keys[i] is absent.
func (c *Client) MGet(keys []string) ([][]byte, error) {
	vals := make([][]byte, 0, len(keys))
	for _, chunk := range mgetChunks(keys) {
		resps, err := c.batchRoundTrip(MGetBatch(chunk))
		if err != nil {
			return nil, err
		}
		vs, err := mgetValues(resps, chunk, c.Get)
		if err != nil {
			return nil, err
		}
		vals = append(vals, vs...)
	}
	return vals, nil
}

// MPut stores many entries, chunked so every request frame stays under
// MaxFrame; it reports how many were newly inserted.
func (c *Client) MPut(entries []Entry) (created int, err error) {
	for _, chunk := range mputChunks(entries) {
		resps, err := c.batchRoundTrip(MPutBatch(chunk))
		if err != nil {
			return created, err
		}
		n, err := mputCreated(resps)
		created += n
		if err != nil {
			return created, err
		}
	}
	return created, nil
}

// mgetValues converts multi-get sub-responses into a value-per-key
// slice, surfacing any sub-error. A sub-response the server degraded to
// keep the batch under the frame bound (MsgBatchOverflow) is re-fetched
// through get — a single value always fits a frame on its own, so a
// multi-get whose values sum past MaxFrame still succeeds, just with
// extra round trips for the oversized tail.
func mgetValues(resps []Response, keys []string, get func(string) ([]byte, bool, error)) ([][]byte, error) {
	vals := make([][]byte, len(resps))
	for i, r := range resps {
		switch {
		case r.Status == StatusOK:
			vals[i] = r.Value
		case r.Status == StatusNotFound:
		case r.Status == StatusError && r.Msg == MsgBatchOverflow:
			v, found, err := get(keys[i])
			if err != nil {
				return nil, fmt.Errorf("store: mget[%d]: overflow refetch: %w", i, err)
			}
			if found {
				vals[i] = v
			}
		default:
			return nil, fmt.Errorf("store: mget[%d]: server error: %s", i, r.Msg)
		}
	}
	return vals, nil
}

// mputChunks splits entries so each chunk's encoded multi-put request
// stays under the frame bound with headroom (and under MaxBatchOps) —
// every entry is individually legal on the wire, so a multi-put of any
// total size succeeds, it just costs more frames past ~4MB.
func mputChunks(entries []Entry) [][]Entry {
	return chunkBy(entries, func(e Entry) int { return 2 + len(e.Key) + 4 + len(e.Value) })
}

// mgetChunks does the same for multi-get keys (here the count cap is
// the bound that usually binds; key bytes rarely approach a frame).
func mgetChunks(keys []string) [][]string {
	return chunkBy(keys, func(k string) int { return 2 + len(k) })
}

// chunkBy splits items greedily so each chunk holds at most MaxBatchOps
// items whose encoded sizes sum under the frame budget. An empty input
// still yields one empty chunk (one frame goes out either way).
func chunkBy[T any](items []T, size func(T) int) [][]T {
	const budget = MaxFrame - 1024
	var chunks [][]T
	start, sum := 0, 0
	for i, it := range items {
		sz := size(it)
		if i > start && (sum+sz > budget || i-start == MaxBatchOps) {
			chunks = append(chunks, items[start:i])
			start, sum = i, 0
		}
		sum += sz
	}
	if start < len(items) || len(items) == 0 {
		chunks = append(chunks, items[start:])
	}
	return chunks
}

// mputCreated counts newly inserted keys, surfacing any sub-error.
func mputCreated(resps []Response) (int, error) {
	created := 0
	for i, r := range resps {
		if r.Status != StatusOK {
			return 0, fmt.Errorf("store: mput[%d]: server error: %s", i, r.Msg)
		}
		if r.Created {
			created++
		}
	}
	return created, nil
}

// Get fetches the value under key.
func (c *Client) Get(key string) ([]byte, bool, error) {
	resp, err := c.roundTrip(Request{Op: OpGet, Key: key})
	if err != nil {
		return nil, false, err
	}
	return resp.Value, resp.Status == StatusOK, nil
}

// Put stores value under key; it reports whether the key was newly
// inserted.
func (c *Client) Put(key string, value []byte) (bool, error) {
	resp, err := c.roundTrip(Request{Op: OpPut, Key: key, Value: value})
	if err != nil {
		return false, err
	}
	return resp.Created, nil
}

// Delete removes key; it reports whether the key was present.
func (c *Client) Delete(key string) (bool, error) {
	resp, err := c.roundTrip(Request{Op: OpDelete, Key: key})
	if err != nil {
		return false, err
	}
	return resp.Status == StatusOK, nil
}

// Scan returns up to limit entries with the given key prefix, sorted by
// key (limit 0 = unlimited, subject to the frame bound).
func (c *Client) Scan(prefix string, limit int) ([]Entry, error) {
	if limit < 0 {
		limit = 0
	}
	resp, err := c.roundTrip(Request{Op: OpScan, Key: prefix, Limit: uint32(limit)})
	if err != nil {
		return nil, err
	}
	return resp.Entries, nil
}

// migRoundTrip sends one migration frame and decodes its response.
func (c *Client) migRoundTrip(req MigrateRequest) (MigrateResponse, error) {
	body, err := AppendMigrateRequest(c.ebuf[:0], req)
	if err != nil {
		return MigrateResponse{}, err
	}
	c.ebuf = body[:0]
	rbody, err := c.exchange(body)
	if err != nil {
		return MigrateResponse{}, err
	}
	resp, err := ParseMigrateResponse(req.Op, rbody)
	if err != nil {
		return MigrateResponse{}, err
	}
	if resp.Status == StatusError {
		return MigrateResponse{}, fmt.Errorf("store: server error: %s", resp.Msg)
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

// LocalConn adapts a Handle to the Client method set, so the workload
// engine can drive a store in-process (no wire) through the same
// interface as a remote client. Like Handle, it is single-goroutine.
type LocalConn struct {
	h *Handle
}

// NewLocalConn creates an in-process connection; node is the NUMA hint.
func (s *Store) NewLocalConn(node int) *LocalConn {
	return &LocalConn{h: s.NewHandle(node)}
}

// Get fetches the value under key.
func (c *LocalConn) Get(key string) ([]byte, bool, error) {
	v, ok := c.h.Get(key)
	return v, ok, nil
}

// Put stores value under key.
func (c *LocalConn) Put(key string, value []byte) (bool, error) {
	return c.h.Put(key, value), nil
}

// Delete removes key.
func (c *LocalConn) Delete(key string) (bool, error) {
	return c.h.Delete(key), nil
}

// Scan returns up to limit entries with the given key prefix.
func (c *LocalConn) Scan(prefix string, limit int) ([]Entry, error) {
	return c.h.Scan(prefix, limit), nil
}

// ExecBatch executes a batch in-process through Handle.ExecBatch, so
// direct connections amortize shard locking exactly like the wire path.
func (c *LocalConn) ExecBatch(reqs []Request) ([]Response, error) {
	return c.h.ExecBatch(reqs), nil
}

// MGet fetches many keys in one batched call.
func (c *LocalConn) MGet(keys []string) ([][]byte, error) {
	return mgetValues(c.h.ExecBatch(MGetBatch(keys).Reqs), keys, c.Get)
}

// MPut stores many entries in one batched call.
func (c *LocalConn) MPut(entries []Entry) (int, error) {
	return mputCreated(c.h.ExecBatch(MPutBatch(entries).Reqs))
}

// Close is a no-op.
func (c *LocalConn) Close() error { return nil }

// Conn is the method set shared by Client, LocalConn and AsyncClient.
type Conn interface {
	Get(key string) ([]byte, bool, error)
	Put(key string, value []byte) (bool, error)
	Delete(key string) (bool, error)
	Scan(prefix string, limit int) ([]Entry, error)
	Close() error
}

// BatchConn is a Conn that can execute many scalar ops in one call —
// one round trip on the wire, one lock acquisition per touched shard on
// the server.
type BatchConn interface {
	Conn
	ExecBatch(reqs []Request) ([]Response, error)
	MGet(keys []string) ([][]byte, error)
	MPut(entries []Entry) (int, error)
}

var (
	_ BatchConn = (*Client)(nil)
	_ BatchConn = (*LocalConn)(nil)
)
