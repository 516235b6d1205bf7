package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"unsafe"
)

// connScratch pools the per-connection frame buffers (read body and
// response encode). A buffer's ownership rule is strict: it belongs to
// exactly one connection between Get and Put, and nothing a request
// handler produces may alias it past the response write — engines copy
// on insert, parse paths copy out, and RequestView.Owned exists for
// anything (forwarding) that must outlive the frame.
var connScratch = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBuf is the largest buffer a frame pool (or a handle's value
// arena) keeps. A buffer grows to the largest frame it ever carried —
// MaxFrame is 4 MiB — and without a cap one such frame pins that much
// on every buffer it passed through for as long as the pool lives.
const maxPooledBuf = 64 << 10

// recycle is the keep-or-drop decision for a reusable buffer or scratch
// slice: emptied if it is worth keeping, nil if its backing array
// outgrew maxPooledBuf bytes.
func recycle[T any](buf []T) []T {
	var elem T
	if uintptr(cap(buf))*unsafe.Sizeof(elem) > maxPooledBuf {
		return nil
	}
	return buf[:0]
}

// putBuf hands buf back to pool through its handle bp, subject to
// recycle.
func putBuf(pool *sync.Pool, bp *[]byte, buf []byte) {
	*bp = recycle(buf)
	pool.Put(bp)
}

// Server serves the wire protocol over byte streams. One goroutine per
// connection owns a Handle, so every lock token stays goroutine-local;
// connections are striped over NUMA nodes round-robin for the
// hierarchical lock algorithms.
type Server struct {
	store  *Store
	nodes  int
	next   atomic.Uint64 // round-robin NUMA-node assignment
	router Router
}

// Router intercepts point ops so a layer above the store (the cluster's
// per-node migration filter) can decide where each executes: locally
// through the handle, or forwarded to the node that owns the key now.
// Scans bypass it: they are fanned out by clients and always read the
// local store. A resize's copies bypass the server altogether — the
// migration driver writes the target store through a Handle, since it
// must reach a node even (especially) when the ring says the keys
// belong elsewhere.
//
// A Router is handed views: keys and values alias the connection's
// request frame and die at its next ReadFrame. Executing locally
// (Handle.ExecView, Handle.ExecViewsOnly) needs no copy; whatever leaves
// the connection's goroutine or outlives the call takes
// RequestView.Owned first.
type Router interface {
	// Route executes one point op that has taken hops forwarding hops so
	// far (0 for a freshly arrived op) and appends its encoded response
	// to out.
	Route(h *Handle, req RequestView, hops int, out []byte) ([]byte, error)
	// RouteBatch executes a batch's sub-ops, routing each; resps[i]
	// answers reqs[i]. The result is encoded before the connection reads
	// its next frame, so it may be (and for the local subset is) the
	// handle's own ExecViewsOnly result.
	RouteBatch(h *Handle, reqs []RequestView) []Response
}

// SetRouter installs r on the server. It must be called before any
// connection is served.
func (sv *Server) SetRouter(r Router) { sv.router = r }

// NewServer wraps a store. nodes is the NUMA-node count to stripe
// connections over (values below 1 mean 1).
func NewServer(s *Store, nodes int) *Server {
	if nodes < 1 {
		nodes = 1
	}
	return &Server{store: s, nodes: nodes}
}

// Store returns the served store.
func (sv *Server) Store() *Store { return sv.store }

// Serve accepts connections until ln fails, handling each on its own
// goroutine. It returns the accept error (net.ErrClosed after Close).
func (sv *Server) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go func() {
			defer conn.Close()
			_ = sv.ServeConn(conn)
		}()
	}
}

// ServeConn handles one connection until EOF or failure. A malformed
// request gets a StatusError response and closes the stream (framing
// cannot be trusted after a parse error); store operations themselves
// cannot fail. Requests are answered strictly in arrival order —
// together with the tag echo this is the ordering guarantee the
// pipelined client's FIFO matching relies on. Responses are flushed
// lazily: while more complete frames are already buffered, the reply
// stays in the write buffer, so a pipelined burst is answered with a
// coalesced burst.
func (sv *Server) ServeConn(conn io.ReadWriter) error {
	seq := int(sv.next.Add(1) - 1)
	node := seq % sv.nodes
	if pl := sv.store.Placement(); pl != nil {
		// Under a placement, connections stripe over the LLC domains
		// instead of abstract node indices: the goroutine pins itself to
		// its domain for the connection's lifetime, and the hierarchical
		// locks get that domain's actual memory node as their NUMA hint —
		// so a connection's lock spinning, frame buffers and shard visits
		// all agree on where "local" is.
		if domain, memNode := pl.ConnDomain(seq); domain >= 0 {
			undo := pl.Pin(domain)
			defer undo()
			node = memNode % sv.nodes
		}
	}
	h := sv.store.NewHandle(node)
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	inp := connScratch.Get().(*[]byte)
	outp := connScratch.Get().(*[]byte)
	in, out := *inp, *outp
	defer func() {
		putBuf(&connScratch, inp, in)
		putBuf(&connScratch, outp, out)
	}()
	var views []RequestView // batch sub-requests, reused across frames
	for {
		body, err := ReadFrame(br, in)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		in = body[:0]
		out = out[:0]

		// Peel an optional tag; the response echoes it first.
		inner := body
		if len(body) > 0 && body[0] == OpTagged {
			tag, rest, terr := ParseTag(body)
			if terr != nil {
				return sv.reject(bw, out, terr)
			}
			inner = rest
			out = binary.BigEndian.AppendUint32(out, tag)
		}

		if len(inner) > 0 && (inner[0] == OpBatch || inner[0] == OpMGet || inner[0] == OpMPut) {
			// The batch executes straight out of the frame: views alias
			// body, hit values land in the handle's arena, and both are
			// dead once the response below is encoded.
			views, err = ParseBatchRequestView(inner, views)
			if err != nil {
				return sv.reject(bw, out, err) // out keeps the echoed tag
			}
			var resps []Response
			if sv.router != nil {
				resps = sv.router.RouteBatch(h, views)
			} else {
				resps = h.ExecViews(views)
			}
			out = appendBatchBounded(out, views, resps)
		} else if len(inner) > 0 && inner[0] == OpForward {
			freq, err := ParseMigrateRequest(inner)
			if err != nil {
				return sv.reject(bw, out, err) // out keeps the echoed tag
			}
			out, err = sv.forward(h, freq, out)
			if err != nil {
				return err
			}
		} else {
			view, err := ParseRequestView(inner)
			if err != nil {
				return sv.reject(bw, out, err) // out keeps the echoed tag
			}
			if sv.router != nil && view.Op >= OpGet && view.Op <= OpDelete {
				out, err = sv.router.Route(h, view, 0, out)
			} else {
				out, err = h.ExecView(view, out)
			}
			if err != nil {
				return err
			}
		}
		if err := WriteFrame(bw, out); err != nil {
			return err
		}
		if br.Buffered() >= 4 {
			continue // more requests already in hand: batch the flush
		}
		if err := bw.Flush(); err != nil {
			return err
		}
	}
}

// reject sends the terminal StatusError response for an unparseable
// request and reports why the connection is closing.
func (sv *Server) reject(bw *bufio.Writer, out []byte, err error) error {
	out, _ = AppendResponse(out, 0, Response{Status: StatusError, Msg: err.Error()})
	if werr := WriteFrame(bw, out); werr != nil {
		return werr
	}
	if werr := bw.Flush(); werr != nil {
		return werr
	}
	return fmt.Errorf("store: closing connection after bad request: %w", err)
}

// appendBatchBounded encodes a batch response, keeping the frame under
// MaxFrame: 64 bytes are reserved for every not-yet-encoded sub-response,
// and a sub-response that would overflow the remaining budget is replaced
// by a (small) StatusError — so one over-full multi-get degrades its tail
// instead of killing the connection.
func appendBatchBounded(dst []byte, reqs []RequestView, resps []Response) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(resps)))
	n := len(resps)
	for i := range resps {
		allowed := MaxFrame - 64*(n-1-i)
		mark := len(dst)
		enc, err := AppendResponse(dst, reqs[i].Op, trimResp(reqs[i].Op, resps[i]))
		if err != nil || len(enc) > allowed {
			enc, _ = AppendResponse(dst[:mark], reqs[i].Op,
				Response{Status: StatusError, Msg: MsgBatchOverflow})
		}
		dst = enc
	}
	return dst
}

// trimResp applies the scan frame-trim policy to a sub-response (the
// batch path's per-sub budget check degrades anything that still does
// not fit, so no extra overhead is threaded here).
func trimResp(op byte, r Response) Response {
	if op == OpScan && r.Status == StatusOK {
		r.Entries = trimToFrame(r.Entries, 0)
	}
	return r
}

// PipeClient connects a new in-process client to the server over a
// buffered in-memory connection (memConn), with the server side on its
// own goroutine — the transport `ssync store`, the harness experiments,
// the cluster and the e2e tests share.
func (sv *Server) PipeClient() *Client {
	return NewClient(sv.pipeConn())
}

// PipeAsyncClient is PipeClient's multiplexed sibling: a new async
// client with the given in-flight window over the same in-memory
// connection. It adds one goroutine beside the server's: its reader.
func (sv *Server) PipeAsyncClient(window int) *AsyncClient {
	return NewAsyncClient(sv.pipeConn(), window)
}

// pipeConn is the one in-process dial: a memConn whose far end the
// server serves on a goroutine of its own.
func (sv *Server) pipeConn() net.Conn {
	clientEnd, serverEnd := memPipe()
	go func() {
		defer serverEnd.Close()
		_ = sv.ServeConn(serverEnd)
	}()
	return clientEnd
}

// ExecView runs one zero-copy scalar request against the handle,
// encoding the response directly onto out (which already carries the
// echoed tag; its length is the overhead a trimmed scan must respect).
// Nothing on this path allocates in steady state: the key stays a
// frame-aliasing byte slice all the way into the engine, a get's value
// is appended by the engine straight into the response buffer behind a
// status byte and length placeholder, and a scan is encoded from the
// handle's merge scratch. A point op is placed by req.Hash(), so a
// router that hashed the key to check its owner hands that hash on.
func (h *Handle) ExecView(req RequestView, out []byte) ([]byte, error) {
	var hash uint64
	var sh int
	if req.Op >= OpGet && req.Op <= OpDelete {
		hash = req.Hash()
		sh = h.s.shardOf(hash)
	}
	key := keyBytes(req.Key)
	switch req.Op {
	case OpGet:
		mark := len(out)
		out = append(out, StatusOK, 0, 0, 0, 0)
		ext, ok := h.acc.get(sh, hash, key, out)
		if !ok {
			return append(ext[:mark], StatusNotFound), nil
		}
		n := len(ext) - mark - 5
		if n > MaxValueLen {
			// Matches AppendResponse's bound for values stored through a
			// direct handle, which the wire's parse limit never saw.
			return out, ErrValueTooLong
		}
		binary.BigEndian.PutUint32(ext[mark+1:mark+5], uint32(n))
		return ext, nil
	case OpPut:
		created := byte(0)
		if h.acc.put(sh, hash, key, req.Value) {
			created = 1
		}
		return append(out, StatusOK, created), nil
	case OpDelete:
		if h.acc.del(sh, hash, key) {
			return append(out, StatusOK), nil
		}
		return append(out, StatusNotFound), nil
	case OpScan:
		entries := h.scan(key, scanLimit(req.Limit))
		return AppendResponse(out, OpScan, Response{Status: StatusOK, Entries: trimToFrame(entries, len(out))})
	}
	return AppendResponse(out, req.Op, Response{Status: StatusError, Msg: ErrBadOp.Error()})
}

// forward serves a forwarded point op: through the Router when one is
// installed (the whole point of the frame), or locally without one,
// which keeps a store-only deployment honest.
func (sv *Server) forward(h *Handle, freq MigrateRequest, out []byte) ([]byte, error) {
	in := freq.Inner
	view := RequestView{Op: in.Op, Key: []byte(in.Key), Value: in.Value}
	if sv.router != nil {
		return sv.router.Route(h, view, int(freq.Hops), out)
	}
	return h.ExecView(view, out)
}

// trimToFrame drops trailing scan entries until the encoded response
// (overhead + status + count + per-entry headers and payloads) fits one
// frame.
func trimToFrame(entries []Entry, overhead int) []Entry {
	size := overhead + 1 + 4
	for i, e := range entries {
		size += 2 + len(e.Key) + 4 + len(e.Value)
		if size > MaxFrame {
			return entries[:i]
		}
	}
	return entries
}
