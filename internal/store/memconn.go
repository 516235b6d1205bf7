package store

import (
	"errors"
	"io"
	"net"
	"sync"
	"time"
)

// memConn is one end of the in-process transport: a buffered duplex
// net.Conn. net.Pipe, which it replaces, is a rendezvous — every Write
// parks until the peer has Read it — and on the pipelined paths that
// hand-off, not framing or the engine, was the largest share of CPU.
// Here a Write appends to the peer's backlog and returns, like a send
// into a socket buffer, and a Read takes whatever is buffered, up to
// len(p), blocking only while the backlog is empty.
//
// The backlog has no bound of its own because every writer in the
// repository is already bounded by a window: an AsyncClient keeps at most
// its window of frames in flight, a lock-step Client one, and a server
// connection answers one frame per request it read. A drained backlog
// keeps its array under the recycle rule, so one 4 MiB frame does not pin
// 4 MiB for the connection's lifetime.
//
// Closing either end lets the peer read what was written before the
// close, then io.EOF; a Write to or from a closed end, and a Read on the
// closed end itself, fail with io.ErrClosedPipe. Deadlines are not
// supported.
type memConn struct {
	in, out *backlog
}

// backlog is one direction of a memConn: the bytes its writer has sent
// and its reader has not yet taken.
type backlog struct {
	mu    sync.Mutex
	ready sync.Cond // signalled when bytes arrive on an empty backlog, broadcast on close
	buf   []byte    // buf[off:] is unread
	off   int
	// eof: the writing end closed, so the reader gets io.EOF once drained.
	// gone: the reading end closed, so nothing more will be read.
	eof, gone bool
}

func newBacklog() *backlog {
	b := new(backlog)
	b.ready.L = &b.mu
	return b
}

// memPipe returns the two ends of a new in-process connection.
func memPipe() (*memConn, *memConn) {
	ab, ba := newBacklog(), newBacklog()
	return &memConn{in: ba, out: ab}, &memConn{in: ab, out: ba}
}

func (c *memConn) Read(p []byte) (int, error) {
	b := c.in
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.off == len(b.buf) {
		switch {
		case b.gone:
			return 0, io.ErrClosedPipe
		case b.eof:
			return 0, io.EOF
		}
		b.ready.Wait()
	}
	n := copy(p, b.buf[b.off:])
	b.off += n
	if b.off == len(b.buf) {
		b.buf, b.off = recycle(b.buf), 0
	}
	return n, nil
}

func (c *memConn) Write(p []byte) (int, error) {
	b := c.out
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.eof || b.gone {
		return 0, io.ErrClosedPipe
	}
	if b.off == len(b.buf) {
		b.ready.Signal() // the reader can only be waiting on an empty backlog
	}
	b.buf = append(b.buf, p...)
	return len(p), nil
}

// Close shuts both directions: the peer drains what this end wrote and
// then reads io.EOF, and what the peer wrote that this end never read is
// dropped. It is idempotent.
func (c *memConn) Close() error {
	c.out.mu.Lock()
	c.out.eof = true
	c.out.ready.Broadcast()
	c.out.mu.Unlock()
	c.in.mu.Lock()
	c.in.gone = true
	c.in.buf, c.in.off = nil, 0
	c.in.ready.Broadcast()
	c.in.mu.Unlock()
	return nil
}

// memAddr is both ends' address.
type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }

var errNoDeadline = errors.New("store: in-process connection has no deadlines")

func (c *memConn) LocalAddr() net.Addr              { return memAddr{} }
func (c *memConn) RemoteAddr() net.Addr             { return memAddr{} }
func (c *memConn) SetDeadline(time.Time) error      { return errNoDeadline }
func (c *memConn) SetReadDeadline(time.Time) error  { return errNoDeadline }
func (c *memConn) SetWriteDeadline(time.Time) error { return errNoDeadline }

var _ net.Conn = (*memConn)(nil)
