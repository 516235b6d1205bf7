package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ssync/internal/workload"
)

// The other end of a Future's life: what Wait says when the future is
// the wrong kind, when the client shuts down under un-awaited flights,
// and when the frame it was handed does not decode — which the waiter,
// not the reader, finds.

// TestWaitOnBatchFuture: Wait on the future of a batch frame is
// ErrBatchFuture, on every batch constructor — never a zero Response and
// a nil error, which, StatusOK being 0, reads as "found, empty value" —
// and the future is still good for WaitBatch.
func TestWaitOnBatchFuture(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	c := NewServer(s, 1).PipeAsyncClient(4)
	defer c.Close()
	if _, err := c.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]*Future{
		"BatchAsync": c.BatchAsync([]Request{{Op: OpGet, Key: "k"}}),
		"MGetAsync":  c.MGetAsync([]string{"k"}),
		"MPutAsync":  c.MPutAsync([]Entry{{Key: "k2", Value: []byte("w")}}),
		"FrameAsync": c.FrameAsync(Batch{Op: OpBatch}), // an empty batch is a batch all the same
	} {
		if resp, err := f.Wait(); !errors.Is(err, ErrBatchFuture) {
			t.Errorf("%s: Wait = %+v, %v; want ErrBatchFuture", name, resp, err)
		}
		resps, err := f.WaitBatch()
		if want := min(1, len(f.reqs)); err != nil || len(resps) != want {
			t.Errorf("%s: WaitBatch after the refused Wait = %d responses, %v; want %d", name, len(resps), err, want)
		}
		// The frame went back to its pool with the first WaitBatch.
		if _, err := f.WaitBatch(); err == nil {
			t.Errorf("%s: a second WaitBatch succeeded", name)
		}
	}
	// The scalar kind the other way round stays what it was: a batch of one.
	resps, err := c.GetAsync("k").WaitBatch()
	if err != nil || len(resps) != 1 || string(resps[0].Value) != "v" {
		t.Errorf("WaitBatch on a scalar future = %+v, %v", resps, err)
	}
}

// scriptedPeer stands in for a server on the far end of a pipe: it reads
// tagged request frames and answers the i-th with reply(i, tag), or not
// at all when that is nil — still reading, so the client's writer never
// blocks. It returns the client's end and its own.
func scriptedPeer(t *testing.T, reply func(i int, tag uint32) []byte) (clientEnd, peerEnd net.Conn) {
	t.Helper()
	clientEnd, peerEnd = net.Pipe()
	t.Cleanup(func() { peerEnd.Close() })
	go func() {
		for i := 0; ; i++ {
			body, err := ReadFrame(peerEnd, nil)
			if err != nil {
				return
			}
			tag, _, err := ParseTag(body)
			if err != nil {
				t.Errorf("scripted peer: request %d: %v", i, err)
				return
			}
			if out := reply(i, tag); out != nil && WriteFrame(peerEnd, out) != nil {
				return
			}
		}
	}()
	return clientEnd, peerEnd
}

// tagged builds a tagged response frame body.
func tagged(tag uint32, inner ...byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, tag), inner...)
}

// waiter is something in flight that can be awaited for its error.
type waiter func() error

// inFlight puts depth two-get batch frames in flight on c, alternately as
// a raw future and as an Issue'd group, and returns their waits in
// submission order.
func inFlight(c *AsyncClient, depth int) []waiter {
	waits := make([]waiter, depth)
	for i := range waits {
		if i%2 == 0 {
			f := c.MGetAsync([]string{"a", "b"})
			waits[i] = func() error { _, err := f.WaitBatch(); return err }
		} else {
			p := Driver{C: c}.Issue([]workload.Op{{Kind: workload.KindGet, Key: "a"}, {Kind: workload.KindGet, Key: "b"}})
			waits[i] = func() error { _, err := p.Wait(); return err }
		}
	}
	return waits
}

// awaitAll runs every wait on its own goroutine and fails the test if any
// is still blocked after a generous bound.
func awaitAll(t *testing.T, waits []waiter) []error {
	t.Helper()
	errs := make([]error, len(waits))
	done := make(chan int, len(waits))
	for i, w := range waits {
		i, w := i, w
		go func() { errs[i] = w(); done <- i }()
	}
	timeout := time.After(10 * time.Second)
	for range waits {
		select {
		case <-done:
		case <-timeout:
			t.Fatal("a Wait hangs after the connection died")
		}
	}
	return errs
}

// TestShutdownFailsEveryFlight: with eight flights un-awaited at depth 8
// and two more submitters waiting for a slot in the full window — one of
// them holding the write lock — the client closing or the peer hanging up
// resolves every one of them with the first fatal error: no Wait hangs,
// none panics, whether it is a future's or an Issue'd group's, and no
// submitter is left blocked.
func TestShutdownFailsEveryFlight(t *testing.T) {
	const depth, waiting = 8, 2
	for _, tc := range []struct {
		name string
		kill func(c *AsyncClient, peer net.Conn)
		want error
	}{
		{"Close", func(c *AsyncClient, _ net.Conn) { c.Close() }, ErrClientClosed},
		{"peer hangs up", func(c *AsyncClient, peer net.Conn) {
			peer.Close()
			<-c.drained
		}, io.EOF},
	} {
		t.Run(tc.name, func(t *testing.T) {
			written := make(chan struct{}) // closed once the peer has read all depth frames
			conn, peer := scriptedPeer(t, func(i int, _ uint32) []byte {
				if i == depth-1 {
					close(written)
				}
				return nil
			})
			c := NewAsyncClient(conn, depth)
			defer c.Close()
			waits := inFlight(c, depth)
			<-written
			late := make(chan *Future, waiting)
			for i := 0; i < waiting; i++ {
				go func() { late <- c.MGetAsync([]string{"a", "b"}) }()
				waits = append(waits, func() error { _, err := (<-late).WaitBatch(); return err })
			}
			for deadline := time.Now().Add(10 * time.Second); c.queued.Load() < waiting; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the late submitters never reached the write lock")
				}
			}
			inTime(t, tc.name, func() { tc.kill(c, peer) })
			for i, err := range awaitAll(t, waits) {
				if !errors.Is(err, tc.want) {
					t.Errorf("flight %d: %v, want %v", i, err, tc.want)
				}
			}
			if err := c.Err(); !errors.Is(err, tc.want) {
				t.Errorf("client died with %v, want %v", err, tc.want)
			}
		})
	}
}

// stallConn wraps one end of a net.Pipe: it counts the Writes in
// progress, and its Reads wait until gate is closed or the end is.
type stallConn struct {
	net.Conn
	gate, closed chan struct{}
	once         sync.Once
	writing      atomic.Int32
}

func newStallConn(c net.Conn, gate chan struct{}) *stallConn {
	return &stallConn{Conn: c, gate: gate, closed: make(chan struct{})}
}

func (s *stallConn) Read(p []byte) (int, error) {
	select {
	case <-s.gate:
	case <-s.closed:
	}
	return s.Conn.Read(p)
}

func (s *stallConn) Write(p []byte) (int, error) {
	s.writing.Add(1)
	defer s.writing.Add(-1)
	return s.Conn.Write(p)
}

func (s *stallConn) Close() error {
	s.once.Do(func() { close(s.closed) })
	return s.Conn.Close()
}

// TestBlockedWriterOverPipe: over net.Pipe, which has no buffer, a full
// window of un-awaited batch frames from concurrent submitters is held in
// the state a submitter-writes-its-own-frame client must survive — the
// server blocked writing a large response nobody is reading yet, so it
// reads no requests, and a submitter blocked in Write with the
// connection's write lock held. Released, every flight completes with its
// answer; closed instead, every flight fails with ErrClientClosed. Nothing
// may hang.
func TestBlockedWriterOverPipe(t *testing.T) {
	const window, keys = 8, 8
	s := New(Options{})
	defer s.Close()
	h := s.NewHandle(0)
	// Long keys make each request frame larger than the bufio buffers on
	// both ends, so the request stream backs up as soon as the server
	// stops reading; large values do the same to every response.
	frames := make([][]string, window)
	want := map[string][]byte{}
	for i := range frames {
		for j := 0; j < keys; j++ {
			k := fmt.Sprintf("%d/%d/%s", i, j, strings.Repeat("k", 600))
			want[k] = bytes.Repeat([]byte{byte(i*keys + j)}, 16<<10)
			h.Put(k, want[k])
			frames[i] = append(frames[i], k)
		}
	}
	for _, closeIt := range []bool{false, true} {
		name := "released"
		if closeIt {
			name = "Close"
		}
		t.Run(name, func(t *testing.T) {
			clientEnd, serverEnd := net.Pipe()
			gate := make(chan struct{})
			open := make(chan struct{})
			close(open)
			srvSide := newStallConn(serverEnd, open)
			go func() {
				defer serverEnd.Close()
				_ = NewServer(s, 1).ServeConn(srvSide)
			}()
			cliSide := newStallConn(clientEnd, gate)
			c := NewAsyncClient(cliSide, window)
			defer c.Close()

			futs := make(chan *Future, window)
			for i := range frames {
				i := i
				go func() { futs <- c.MGetAsync(frames[i]) }()
			}
			deadline := time.Now().Add(10 * time.Second)
			for srvSide.writing.Load() == 0 || cliSide.writing.Load() == 0 {
				if time.Now().After(deadline) {
					t.Fatal("never reached a server blocked writing and a submitter blocked in Write")
				}
				time.Sleep(time.Millisecond)
			}
			if closeIt {
				go c.Close()
			} else {
				close(gate)
			}
			waits := make([]waiter, window)
			timeout := time.After(10 * time.Second)
			for i := range waits {
				select {
				case f := <-futs:
					waits[i] = func() error {
						resps, err := f.WaitBatch()
						if err != nil {
							return err
						}
						for j, r := range resps {
							if k := f.reqs[j].Key; !bytes.Equal(r.Value, want[k]) {
								return fmt.Errorf("%.8s…: %d bytes, want its %d", k, len(r.Value), len(want[k]))
							}
						}
						return nil
					}
				case <-timeout:
					t.Fatal("a submitter hangs")
				}
			}
			for i, err := range awaitAll(t, waits) {
				switch {
				case closeIt && !errors.Is(err, ErrClientClosed):
					t.Errorf("flight %d: %v, want ErrClientClosed", i, err)
				case !closeIt && err != nil:
					t.Errorf("flight %d: %v", i, err)
				}
			}
		})
	}
}

// TestCorruptStreamKillsConnection: a response frame that does not
// decode is found by the goroutine awaiting its future (a bad tag by the
// reader), and whichever finds it the outcome is the same: the
// connection dies with that error, the frames answered before it are
// good, and every flight behind it fails with it too.
func TestCorruptStreamKillsConnection(t *testing.T) {
	const depth, bad = 8, 3
	good := []byte{0, 2, StatusNotFound, StatusNotFound}
	for _, tc := range []struct {
		name  string
		reply func(tag uint32) []byte
		want  string
	}{
		{"truncated sub-response", func(tag uint32) []byte {
			return tagged(tag, 0, 2, StatusOK, 0, 0, 0, 5, 'x')
		}, ErrTruncated.Error()},
		{"wrong count", func(tag uint32) []byte {
			return tagged(tag, 0, 3, StatusNotFound, StatusNotFound, StatusNotFound)
		}, ErrBatchCount.Error()},
		{"bad tag", func(tag uint32) []byte {
			return tagged(tag+1, good...)
		}, fmt.Sprintf("store: response tag %d for request tag %d", bad+2, bad+1)},
		{"rejected batch's scalar error body", func(tag uint32) []byte {
			return tagged(tag, StatusError, 0, 4, 'n', 'o', 'p', 'e')
		}, "store: server error: nope"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, _ := scriptedPeer(t, func(i int, tag uint32) []byte {
				switch {
				case i < bad:
					return tagged(tag, good...)
				case i == bad:
					return tc.reply(tag)
				}
				return nil
			})
			c := NewAsyncClient(conn, depth)
			defer c.Close()
			waits := inFlight(c, depth)
			// Awaited in submission order, so flight `bad` is the first to
			// meet the corrupt frame.
			for i, w := range waits {
				err := awaitAll(t, []waiter{w})[0]
				switch {
				case i < bad && err != nil:
					t.Errorf("flight %d, answered before the corrupt frame: %v", i, err)
				case i >= bad && (err == nil || err.Error() != tc.want):
					t.Errorf("flight %d: %v, want %q", i, err, tc.want)
				}
			}
			if err := c.Err(); err == nil || err.Error() != tc.want {
				t.Errorf("client died with %v, want %q", err, tc.want)
			}
		})
	}
}
