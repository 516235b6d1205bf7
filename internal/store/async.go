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

// Future is one in-flight request frame. Wait blocks until the response
// frame arrives (or the client dies).
type Future struct {
	op    byte   // scalar opcode, or the batch top-level opcode
	subs  []byte // sub-opcodes when the request is a batch, else nil
	tag   uint32
	body  []byte  // encoded tagged frame body
	bufp  *[]byte // pooled backing buffer for body
	ready chan struct{}
	once  sync.Once

	resp  [1]Response // scalar result
	batch []Response  // batch result
	err   error
}

// framePool recycles request frame buffers: a body is dead the moment
// WriteFrame copies it into the connection's write buffer, so pooling
// removes one per-op allocation from exactly the hot path the
// multiplexed client exists to speed up.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// releaseBody returns f's frame buffer to the pool. Ownership is
// unambiguous: the goroutine that failed to hand f over releases it, or
// the writer does after the write attempt.
func (f *Future) releaseBody() {
	if f.bufp == nil {
		return
	}
	putBuf(&framePool, f.bufp, f.body)
	f.bufp, f.body = nil, nil
}

func (f *Future) fail(err error) {
	f.once.Do(func() {
		f.err = err
		close(f.ready)
	})
}

// complete resolves f with its response: a batch's sub-responses, or a
// scalar request's one — which WaitBatch hands out as a batch of one, so
// whoever gathers frames of both kinds reads them the same way.
func (f *Future) complete(resp Response, batch []Response) {
	f.once.Do(func() {
		f.resp[0], f.batch = resp, batch
		if f.subs == nil {
			f.batch = f.resp[:]
		}
		close(f.ready)
	})
}

// Wait blocks until the scalar response arrives. Like the lock-step
// client, a StatusError response surfaces as an error.
func (f *Future) Wait() (Response, error) {
	<-f.ready
	err := f.err
	if err == nil {
		err = serverErr(f.resp[0].Status, f.resp[0].Msg)
	}
	if err != nil {
		return Response{}, err
	}
	return f.resp[0], nil
}

// WaitBatch blocks until the batch's sub-responses arrive. Sub-ops that
// fail individually come back as StatusError responses, not an error;
// neither does a scalar request's lone response, whatever its status.
func (f *Future) WaitBatch() ([]Response, error) {
	<-f.ready
	if f.err != nil {
		return nil, f.err
	}
	return f.batch, nil
}

// opAt is the opcode of the request response j answers.
func (f *Future) opAt(j int) byte {
	if f.subs != nil {
		return f.subs[j]
	}
	return f.op
}

// submit encodes a tagged frame for the request into f and hands it to
// the writer. Encoding happens on the caller's goroutine, so concurrent
// submitters don't serialize on the writer for it.
func (c *AsyncClient) submit(f *Future, op byte, subs []byte, enc func(dst []byte) ([]byte, error)) *Future {
	f.op, f.subs, f.ready = op, subs, make(chan struct{})
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

func (c *AsyncClient) submitScalar(f *Future, req Request) *Future {
	return c.submit(f, req.Op, nil, func(dst []byte) ([]byte, error) { return AppendRequest(dst, req) })
}

func (c *AsyncClient) submitBatch(f *Future, b Batch) *Future {
	return c.submit(f, b.Op, b.SubOps(), func(dst []byte) ([]byte, error) { return AppendBatchRequest(dst, b) })
}

// asyncFlight is a windowed group's whole in-flight state in one heap
// object: the flight, its one frame and that frame's future.
type asyncFlight struct {
	Flight
	frame [1]Frame
	fut   Future
}

// Start is the windowed transport: the group goes out as one tagged
// frame and the reply is the flight carrying its future.
func (c *AsyncClient) Start(req Request, b Batch) Reply {
	fl := new(asyncFlight)
	if b.Op != 0 {
		c.submitBatch(&fl.fut, b)
	} else {
		c.submitScalar(&fl.fut, req)
	}
	fl.frame[0].Fut = &fl.fut
	fl.Frames = fl.frame[:]
	return Reply{Flight: &fl.Flight}
}

// GetAsync submits a get; the future's response is StatusOK with the
// value, or StatusNotFound.
func (c *AsyncClient) GetAsync(key string) *Future {
	return c.submitScalar(new(Future), Request{Op: OpGet, Key: key})
}

// PutAsync submits a put.
func (c *AsyncClient) PutAsync(key string, value []byte) *Future {
	return c.submitScalar(new(Future), Request{Op: OpPut, Key: key, Value: value})
}

// DeleteAsync submits a delete.
func (c *AsyncClient) DeleteAsync(key string) *Future {
	return c.submitScalar(new(Future), Request{Op: OpDelete, Key: key})
}

// ScanAsync submits a prefix scan.
func (c *AsyncClient) ScanAsync(prefix string, limit int) *Future {
	return c.submitScalar(new(Future), scanRequest(prefix, limit))
}

// ForwardAsync submits a point op wrapped in an OpForward frame: the
// receiving node's Router executes it as an op that has already taken
// hops forwarding hops. The future resolves with the inner op's plain
// scalar response — this is the transport a cluster node uses to pass
// an op it no longer owns to the node that does.
func (c *AsyncClient) ForwardAsync(req Request, hops int) *Future {
	return c.submit(new(Future), req.Op, nil, func(dst []byte) ([]byte, error) {
		return AppendMigrateRequest(dst, MigrateRequest{Op: OpForward, Hops: byte(hops), Inner: req})
	})
}

// FrameAsync submits b as one batch frame, whichever of the three batch
// encodings b.Op names; resolve it with WaitBatch. The frame is the
// contract: no chunking, an over-size batch fails with ErrFrameTooLarge.
func (c *AsyncClient) FrameAsync(b Batch) *Future { return c.submitBatch(new(Future), b) }

// BatchAsync submits a mixed batch of scalar sub-requests as one frame.
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

// readLoop reads response frames, matches them FIFO against the window,
// and verifies the echoed tag of every response.
func (c *AsyncClient) readLoop() {
	defer c.wg.Done()
	// The frame-read scratch is pooled across clients; releasing it when
	// the loop exits is safe because every parse path below copies all
	// variable-length data out of the frame before the future resolves.
	scratchp := framePool.Get().(*[]byte)
	scratch := *scratchp
	defer func() { putBuf(&framePool, scratchp, scratch) }()
	for {
		body, err := ReadFrame(c.br, scratch)
		if err != nil {
			c.fatal(err)
			return
		}
		scratch = body[:0] // parse paths copy all variable-length data
		var f *Future
		select {
		case f = <-c.pend:
		default:
			c.fatal(errors.New("store: response with no request in flight"))
			return
		}
		if len(body) < 4 {
			c.fatal(ErrTruncated)
			f.fail(c.Err())
			return
		}
		tag := binary.BigEndian.Uint32(body[:4])
		if tag != f.tag {
			c.fatal(fmt.Errorf("store: response tag %d for request tag %d", tag, f.tag))
			f.fail(c.Err())
			return
		}
		if f.subs != nil {
			resps, err := ParseBatchResponse(f.subs, body[4:])
			if err != nil {
				// A reject of a tagged batch carries a scalar error body,
				// not a batch body: recover the server's message rather
				// than reporting it as stream corruption.
				if r, perr := ParseResponse(0, body[4:]); perr == nil && r.Status == StatusError {
					err = serverErr(r.Status, r.Msg)
				}
				c.fatal(err)
				f.fail(c.Err())
				return
			}
			f.complete(Response{}, resps)
		} else {
			resp, err := ParseResponse(f.op, body[4:])
			if err != nil {
				c.fatal(err)
				f.fail(c.Err())
				return
			}
			f.complete(resp, nil)
		}
	}
}
