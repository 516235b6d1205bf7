package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// AsyncClient is the multiplexed replacement for the lock-step Client:
// instead of one request in flight per connection, it keeps a window of
// tagged requests outstanding and overlaps their round trips. A writer
// goroutine drains a submission channel and coalesces queued frames
// into single flushes; a reader goroutine matches responses to futures
// FIFO (the server answers in arrival order) and verifies every echoed
// tag. Submission is safe from any number of goroutines; each submitted
// op returns a *Future resolved when its response arrives.
//
// The in-flight window is the client-side pacing knob: submissions past
// the window block until responses drain, so a slow server applies
// backpressure instead of growing an unbounded queue. It is the windowed
// transport of the client Core: Start puts a group on the wire as one
// frame and returns at once, so the blocking surface and Issue the Core
// adds are submit-then-wait and submit-now-wait-later over the same path.
type AsyncClient struct {
	Core
	conn io.ReadWriteCloser
	bw   *bufio.Writer // owned by writeLoop
	br   *bufio.Reader // owned by readLoop

	reqCh chan *Future  // unbuffered hand-off to the writer
	pend  chan *Future  // written-or-being-written, FIFO; cap = window
	tags  atomic.Uint32 // tag allocator

	done    chan struct{} // closed on shutdown
	drained chan struct{} // closed once every pending future is resolved
	once    sync.Once
	wg      sync.WaitGroup

	mu  sync.Mutex
	err error // first fatal error
}

// ErrClientClosed is the failure every future resolves with when the
// client is shut down before its response arrived.
var ErrClientClosed = errors.New("store: async client closed")

// DefaultWindow is the in-flight window used when NewAsyncClient gets a
// non-positive one.
const DefaultWindow = 32

// NewAsyncClient wraps an established connection with a multiplexed
// client keeping up to window requests in flight.
func NewAsyncClient(conn io.ReadWriteCloser, window int) *AsyncClient {
	if window < 1 {
		window = DefaultWindow
	}
	c := &AsyncClient{
		conn:    conn,
		bw:      bufio.NewWriter(conn),
		br:      bufio.NewReader(conn),
		reqCh:   make(chan *Future),
		pend:    make(chan *Future, window),
		done:    make(chan struct{}),
		drained: make(chan struct{}),
	}
	c.Core = NewCore(c.Start)
	c.wg.Add(2)
	go c.writeLoop()
	go c.readLoop()
	go func() {
		c.wg.Wait()
		c.drainPending()
		close(c.drained)
	}()
	return c
}

// Err returns the error that shut the client down, or nil while it is
// healthy.
func (c *AsyncClient) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// fatal records the first failure and initiates shutdown.
func (c *AsyncClient) fatal(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
	c.once.Do(func() {
		close(c.done)
		c.conn.Close()
	})
}

// Close shuts the client down: the connection closes, both loops exit,
// and every future still in flight resolves with ErrClientClosed (or the
// earlier fatal error). It returns once all of that has happened, so
// after Close no future is left unresolved.
func (c *AsyncClient) Close() error {
	c.fatal(ErrClientClosed)
	<-c.drained
	return nil
}

// drainPending fails every future still queued in the window after both
// loops have exited.
func (c *AsyncClient) drainPending() {
	err := c.Err()
	for {
		select {
		case f := <-c.pend:
			f.fail(err)
		default:
			return
		}
	}
}

// Future is one in-flight request frame. It owns the encoded request
// until the writer has sent it and, from the moment the reader hands it
// over, the response frame: the reader only checks the frame's length and
// tag, and the goroutine that waits decodes it — as views aliasing the
// frame for the Core, copied out for a caller of Wait or WaitBatch — and
// returns the buffer to its pool. A future is awaited once, by one
// goroutine, and must not be copied or moved once submitted.
type Future struct {
	c     *AsyncClient
	op    byte      // scalar opcode, or the batch's top-level opcode
	batch bool      // the frame is a batch: count × sub-responses come back
	reqs  []Request // a batch's sub-requests; sub-response j decodes with reqs[j].Op
	tag   uint32
	body  []byte  // encoded tagged request frame body
	bufp  *[]byte // pooled backing buffer for body

	// done is released exactly once, by whoever resolves the future: the
	// reader with the response frame, or fail with err. Embedded, so
	// nothing is allocated per frame to wait on.
	done  sync.WaitGroup
	resp  []byte  // tagged response frame body
	respp *[]byte // pooled backing buffer for resp
	err   error
}

// Future misuse errors.
var (
	// ErrBatchFuture is what Wait returns on the future of a batch frame
	// (BatchAsync, MGetAsync, MPutAsync, FrameAsync): a batch has no one
	// response; resolve it with WaitBatch.
	ErrBatchFuture = errors.New("store: Wait on a batch future; use WaitBatch")
	// errFutureAwaited is what a second Wait or WaitBatch returns: the
	// first one decoded the response out of the frame and released it.
	errFutureAwaited = errors.New("store: future already awaited")
)

// framePool recycles frame buffers, request and response alike: a request
// body is dead the moment WriteFrame copies it into the connection's
// write buffer and a response frame the moment its future has been
// awaited, so pooling removes two per-frame allocations from exactly the
// hot path the multiplexed client exists to speed up.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// releaseBody returns f's request frame buffer to the pool. Ownership is
// unambiguous: the goroutine that failed to hand f over releases it, or
// the writer does after the write attempt.
func (f *Future) releaseBody() {
	if f.bufp == nil {
		return
	}
	putBuf(&framePool, f.bufp, f.body)
	f.bufp, f.body = nil, nil
}

// fail resolves f with err instead of a response frame.
func (f *Future) fail(err error) {
	f.err = err
	f.done.Done()
}

// await blocks until f is resolved and decodes its response frame into
// dst[:0]: a batch's sub-responses, or a scalar request's one as a batch
// of one, so whoever gathers frames of both kinds reads them the same
// way. The views alias the frame until release. A frame that does not
// decode is stream corruption and kills the connection from here.
func (f *Future) await(dst []ResponseView) ([]ResponseView, error) {
	f.done.Wait()
	if f.err != nil {
		return nil, f.err
	}
	views, err := replyViews(f.batch, f.op, f.reqs, f.resp[4:], dst)
	if err != nil {
		f.c.fatal(err)
		f.release()
		f.err = err
		return nil, err
	}
	return views, nil
}

// release returns the awaited response frame to the pool — the single
// release point of the buffer the reader handed over; whatever was
// decoded from it is dead.
func (f *Future) release() {
	if f.respp == nil {
		return
	}
	putBuf(&framePool, f.respp, f.resp)
	f.respp, f.resp = nil, nil
	f.err = errFutureAwaited
}

// Wait blocks until the scalar response arrives and returns it, copied
// out of the frame: the caller's to keep. Like the lock-step client, a
// StatusError response surfaces as an error. On the future of a batch
// frame it returns ErrBatchFuture at once.
func (f *Future) Wait() (Response, error) {
	if f.batch {
		return Response{}, ErrBatchFuture
	}
	var one [1]ResponseView
	views, err := f.await(one[:0])
	if err != nil {
		return Response{}, err
	}
	defer f.release()
	if err := views[0].err(); err != nil {
		return Response{}, err
	}
	return views[0].Owned(), nil
}

// WaitBatch blocks until the batch's sub-responses arrive and returns
// them, copied out of the frame: the caller's to keep. Sub-ops that fail
// individually come back as StatusError responses, not an error; neither
// does a scalar request's lone response, whatever its status, which
// comes back as a batch of one (Wait, on the other hand, refuses a batch
// future with ErrBatchFuture).
func (f *Future) WaitBatch() ([]Response, error) {
	vp := viewPool.Get().(*[]ResponseView)
	defer viewPool.Put(vp)
	views, err := f.await((*vp)[:0])
	if err != nil {
		return nil, err
	}
	resps := ownedBatch(views)
	f.release()
	*vp = views[:0]
	return resps, nil
}

// submit encodes a tagged frame for the request into f — a zero Future
// at its final address — and hands it to the writer. Encoding happens on
// the caller's goroutine, so concurrent submitters don't serialize on
// the writer for it.
func (c *AsyncClient) submit(f *Future, op byte, batch bool, reqs []Request, enc func(dst []byte) ([]byte, error)) *Future {
	f.c, f.op, f.batch, f.reqs = c, op, batch, reqs
	f.done.Add(1)
	f.tag = c.tags.Add(1)
	bufp := framePool.Get().(*[]byte)
	body, err := enc(AppendTaggedRequest((*bufp)[:0], f.tag))
	//ssync:ignore poolaudit the Future owns the frame; releaseBody is the single release point on every path
	f.body, f.bufp = body, bufp
	if err != nil {
		f.releaseBody()
		f.fail(err)
		return f
	}
	if len(body) > MaxFrame {
		// Catch the oversized frame here, where it fails only this
		// future; from the write loop it would be connection-fatal and
		// take every unrelated in-flight future down with it.
		f.releaseBody()
		f.fail(ErrFrameTooLarge)
		return f
	}
	select {
	case c.reqCh <- f:
	case <-c.done:
		f.releaseBody()
		f.fail(c.closedErr())
	}
	return f
}

func (c *AsyncClient) closedErr() error {
	if err := c.Err(); err != nil {
		return err
	}
	return ErrClientClosed
}

// Submit begins one request group as one tagged frame — req as a scalar
// frame, or with b.Op set b as a batch frame in the encoding it names —
// resolving f, which must be a zero Future at the address it will be
// awaited at (a Flight's frame, or new(Future)). A batch's requests are
// read again when the response is decoded: they stay unchanged until
// then. It returns f.
func (c *AsyncClient) Submit(f *Future, req Request, b Batch) *Future {
	if b.Op != 0 {
		return c.submit(f, b.Op, true, b.Reqs, func(dst []byte) ([]byte, error) { return AppendBatchRequest(dst, b) })
	}
	return c.submit(f, req.Op, false, nil, func(dst []byte) ([]byte, error) { return AppendRequest(dst, req) })
}

// asyncFlight is a windowed group's whole in-flight state in one heap
// object: the flight and its one frame, future included.
type asyncFlight struct {
	Flight
	frame [1]Frame
}

// Start is the windowed transport: the group goes out as one tagged
// frame and the reply is the flight carrying its future.
func (c *AsyncClient) Start(req Request, b Batch) Reply {
	fl := new(asyncFlight)
	c.Submit(&fl.frame[0].Fut, req, b)
	fl.Frames = fl.frame[:]
	return Reply{Flight: &fl.Flight}
}

// GetAsync submits a get; the future's response is StatusOK with the
// value, or StatusNotFound.
func (c *AsyncClient) GetAsync(key string) *Future {
	return c.Submit(new(Future), Request{Op: OpGet, Key: key}, Batch{})
}

// PutAsync submits a put.
func (c *AsyncClient) PutAsync(key string, value []byte) *Future {
	return c.Submit(new(Future), Request{Op: OpPut, Key: key, Value: value}, Batch{})
}

// DeleteAsync submits a delete.
func (c *AsyncClient) DeleteAsync(key string) *Future {
	return c.Submit(new(Future), Request{Op: OpDelete, Key: key}, Batch{})
}

// ScanAsync submits a prefix scan.
func (c *AsyncClient) ScanAsync(prefix string, limit int) *Future {
	return c.Submit(new(Future), scanRequest(prefix, limit), Batch{})
}

// ForwardAsync submits a point op wrapped in an OpForward frame: the
// receiving node's Router executes it as an op that has already taken
// hops forwarding hops. The future resolves with the inner op's plain
// scalar response — this is the transport a cluster node uses to pass
// an op it no longer owns to the node that does.
func (c *AsyncClient) ForwardAsync(req Request, hops int) *Future {
	return c.submit(new(Future), req.Op, false, nil, func(dst []byte) ([]byte, error) {
		return AppendMigrateRequest(dst, MigrateRequest{Op: OpForward, Hops: byte(hops), Inner: req})
	})
}

// FrameAsync submits b as one batch frame, whichever of the three batch
// encodings b.Op names; resolve it with WaitBatch. The frame is the
// contract: no chunking, an over-size batch fails with ErrFrameTooLarge.
func (c *AsyncClient) FrameAsync(b Batch) *Future { return c.Submit(new(Future), Request{}, b) }

// BatchAsync submits a mixed batch of scalar sub-requests as one frame.
// reqs must stay unchanged until the future has been awaited.
func (c *AsyncClient) BatchAsync(reqs []Request) *Future {
	return c.FrameAsync(Batch{Op: OpBatch, Reqs: reqs})
}

// MGetAsync submits a compact multi-get as one frame.
func (c *AsyncClient) MGetAsync(keys []string) *Future { return c.FrameAsync(MGetBatch(keys)) }

// MPutAsync submits a compact multi-put as one frame.
func (c *AsyncClient) MPutAsync(entries []Entry) *Future { return c.FrameAsync(MPutBatch(entries)) }

// writeLoop drains submissions, acquires window slots, and writes
// frames, flushing once per burst: after a blocking receive it keeps
// writing as long as more submissions are immediately available, and
// only then flushes — the message-coalescing the paper's
// communication-cost analysis argues for.
func (c *AsyncClient) writeLoop() {
	defer c.wg.Done()
	for {
		select {
		case <-c.done:
			return
		case f := <-c.reqCh:
			if !c.writeOne(f) {
				return
			}
			for more := true; more; {
				select {
				case f2 := <-c.reqCh:
					if !c.writeOne(f2) {
						return
					}
				default:
					more = false
				}
			}
			if err := c.bw.Flush(); err != nil {
				c.fatal(err)
				return
			}
		}
	}
}

// writeOne acquires a window slot for f (flushing first if the window is
// full, so the server can drain it) and writes f's frame. The slot is
// acquired before the write, and the reader pops slots FIFO, so pend
// order always equals write order.
func (c *AsyncClient) writeOne(f *Future) bool {
	select {
	case c.pend <- f:
	default:
		// Window full: everything buffered must reach the server before
		// blocking, or responses could never arrive to free a slot.
		if err := c.bw.Flush(); err != nil {
			c.fatal(err)
			f.releaseBody()
			f.fail(c.Err()) // first recorded error wins (Close vs transport)
			return false
		}
		select {
		case c.pend <- f:
		case <-c.done:
			f.releaseBody()
			f.fail(c.closedErr())
			return false
		}
	}
	err := WriteFrame(c.bw, f.body)
	f.releaseBody() // the body is copied (or dead) after the write attempt
	if err != nil {
		c.fatal(err)
		return false // f is in pend; drainPending resolves it
	}
	return true
}

// readLoop reads response frames, matches each to its future and hands
// the frame over, buffer and all: decoding is the waiter's.
func (c *AsyncClient) readLoop() {
	defer c.wg.Done()
	for {
		bufp := framePool.Get().(*[]byte)
		body, err := ReadFrame(c.br, *bufp)
		if err != nil {
			putBuf(&framePool, bufp, *bufp)
			c.fatal(err)
			return
		}
		f, err := c.match(body)
		if err != nil {
			putBuf(&framePool, bufp, body)
			c.fatal(err)
			if f != nil {
				f.fail(c.Err())
			}
			return
		}
		//ssync:ignore poolaudit the Future owns its response frame from here; release, run by its one waiter, is the single release point
		f.resp, f.respp = body, bufp
		f.done.Done()
	}
}

// match pops the future a response frame answers — FIFO, the server
// answers in arrival order — and verifies the tag the frame echoes.
func (c *AsyncClient) match(body []byte) (*Future, error) {
	var f *Future
	select {
	case f = <-c.pend:
	default:
		return nil, errors.New("store: response with no request in flight")
	}
	if len(body) < 4 {
		return f, ErrTruncated
	}
	if tag := binary.BigEndian.Uint32(body[:4]); tag != f.tag {
		return f, fmt.Errorf("store: response tag %d for request tag %d", tag, f.tag)
	}
	return f, nil
}
