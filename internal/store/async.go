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
// tagged requests outstanding and overlaps their round trips. A submitter
// writes its own frame: under the connection's write lock it encodes the
// request into the one encode scratch, takes a window slot and writes the
// frame into the buffered stream, and the last submitter queued on the
// lock flushes — a burst from many goroutines goes out in one flush. The
// connection's one goroutine, its reader, matches responses to futures
// FIFO (the server answers in arrival order) and verifies every echoed
// tag. Submission is safe from any number of goroutines; each submitted
// op returns a *Future resolved when its response arrives. The reader
// stays a goroutine of its own because over net.Pipe or TCP a submitter
// may block in Write until the server reads, and a server connection
// reads only as its responses are read.
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
	br   *bufio.Reader // owned by readLoop

	// The write side. Whoever holds wmu encodes into ebuf, takes a slot in
	// pend and writes into bw; queued counts the submitters holding or
	// waiting for it, so the last one flushes.
	wmu    sync.Mutex
	bw     *bufio.Writer
	ebuf   []byte // request encode scratch
	tag    uint32 // the last tag issued
	shut   bool   // set as the reader exits: nothing enters pend after it
	queued atomic.Int32

	pend chan *Future // written-or-being-written, FIFO; cap = window

	done    chan struct{} // closed on shutdown
	drained chan struct{} // closed once every pending future is resolved
	once    sync.Once

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
// client keeping up to window requests in flight. It starts one
// goroutine, the reader, which exits when the client shuts down.
func NewAsyncClient(conn io.ReadWriteCloser, window int) *AsyncClient {
	if window < 1 {
		window = DefaultWindow
	}
	c := &AsyncClient{
		conn:    conn,
		bw:      bufio.NewWriter(conn),
		br:      bufio.NewReader(conn),
		pend:    make(chan *Future, window),
		done:    make(chan struct{}),
		drained: make(chan struct{}),
	}
	c.Core = NewCore(c.Start)
	go c.readLoop()
	return c
}

// Err returns the error that shut the client down, or nil while it is
// healthy.
func (c *AsyncClient) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// fatal records the first failure and initiates shutdown: closing the
// connection ends the reader's Read and any submitter's blocked Write.
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

// Close shuts the client down: the connection closes, the reader exits,
// and every future still in flight resolves with ErrClientClosed (or the
// earlier fatal error). It returns once all of that has happened, so
// after Close no future is left unresolved.
func (c *AsyncClient) Close() error {
	c.fatal(ErrClientClosed)
	<-c.drained
	return nil
}

// shutdown is the reader's exit, after fatal. It marks the connection
// shut under the write lock, which a submitter blocked on a window slot
// lets go of at done and one blocked writing at the closed connection;
// from then on no future enters pend. It then fails every future still
// in the window and reports the client drained.
func (c *AsyncClient) shutdown() {
	c.wmu.Lock()
	c.shut = true
	c.wmu.Unlock()
	err := c.Err()
	for {
		select {
		case f := <-c.pend:
			f.fail(err)
		default:
			close(c.drained)
			return
		}
	}
}

// Future is one in-flight request frame. It carries no request bytes —
// its submitter wrote them into the connection's buffered stream before
// Submit returned — and from the moment the reader hands it over it owns
// the response frame: the reader only checks the frame's length and tag,
// and the goroutine that waits decodes it — as views aliasing the frame
// for the Core, copied out for a caller of Wait or WaitBatch — and
// returns the buffer to its pool. A future is awaited once, by one
// goroutine, and must not be copied or moved once submitted.
type Future struct {
	c     *AsyncClient
	op    byte      // scalar opcode, or the batch's top-level opcode
	batch bool      // the frame is a batch: count × sub-responses come back
	reqs  []Request // a batch's sub-requests; sub-response j decodes with reqs[j].Op
	tag   uint32

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

// framePool recycles response frame buffers: a frame is dead the moment
// its future has been awaited, so pooling removes a per-frame allocation
// from exactly the hot path the multiplexed client exists to speed up.
// (Requests need no pool: each is encoded into the connection's one
// scratch and copied into the write buffer before the lock is let go.)
var framePool = sync.Pool{New: func() any { return new([]byte) }}

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

// submit resolves f — a zero Future at its final address — through the
// connection: the submitter writes its own frame under the write lock
// (enqueue), and if no other submitter is queued behind it, flushes.
func (c *AsyncClient) submit(f *Future, op byte, batch bool, reqs []Request, enc func(dst []byte) ([]byte, error)) *Future {
	f.c, f.op, f.batch, f.reqs = c, op, batch, reqs
	f.done.Add(1)
	c.queued.Add(1)
	c.wmu.Lock()
	if err := c.enqueue(f, enc); err != nil {
		f.fail(err)
	}
	if c.queued.Add(-1) == 0 {
		if err := c.bw.Flush(); err != nil {
			c.fatal(err) // the futures in pend fail as the reader exits
		}
	}
	c.wmu.Unlock()
	return f
}

// enqueue, under wmu, tags f, encodes its frame into the scratch, takes a
// window slot for it (flushing first if the window is full, so the server
// can drain it) and writes the frame into the buffered stream. The slot
// is taken before the write and the reader pops slots FIFO, so pend order
// is write order. An error return fails f alone; once f holds a slot it
// is the reader's to resolve, whatever happens to the write.
func (c *AsyncClient) enqueue(f *Future, enc func(dst []byte) ([]byte, error)) error {
	if c.shut {
		return c.closedErr()
	}
	c.tag++
	f.tag = c.tag
	body, err := enc(AppendTaggedRequest(c.ebuf[:0], f.tag))
	c.ebuf = recycle(body) // body stays valid until wmu is let go
	if err != nil {
		return err
	}
	if len(body) > MaxFrame {
		// Catch the oversized frame here, where it fails only this
		// future; from WriteFrame it would be connection-fatal and take
		// every unrelated in-flight future down with it.
		return ErrFrameTooLarge
	}
	select {
	case c.pend <- f:
	default:
		// Window full: everything buffered must reach the server before
		// blocking, or responses could never arrive to free a slot. The
		// wait keeps wmu, so the next frame written is this one; done
		// ends it, so shutdown can take wmu.
		if err := c.bw.Flush(); err != nil {
			c.fatal(err)
			return c.Err() // first recorded error wins (Close vs transport)
		}
		select {
		case c.pend <- f:
		case <-c.done:
			return c.closedErr()
		}
	}
	if err := WriteFrame(c.bw, body); err != nil {
		c.fatal(err) // f is in pend: shutdown resolves it
	}
	return nil
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

// Start is the windowed transport: the group goes out as one tagged
// frame and the reply is the flight carrying its future — fl, or a new
// one when fl is nil.
func (c *AsyncClient) Start(fl *Flight, req Request, b Batch) Reply {
	fl = fl.Ready(1)
	c.Submit(&fl.Frames[0].Fut, req, b)
	return Reply{Flight: fl}
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

// readLoop reads response frames, matches each to its future and hands
// the frame over, buffer and all: decoding is the waiter's.
func (c *AsyncClient) readLoop() {
	defer c.shutdown()
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
