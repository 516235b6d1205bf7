package store

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"
)

// inTime runs f on its own goroutine and fails the test if it has not
// returned after a generous bound.
func inTime(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); f() }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s hangs", what)
	}
}

// TestMemConnContract holds the in-process connection to what its callers
// assume of a socket: ordered bytes, reads that return what is there,
// writes that do not wait for a reader, a close the peer drains to EOF,
// and a drained backlog that lets go of a large frame's array.
func TestMemConnContract(t *testing.T) {
	t.Run("bytes arrive in order", func(t *testing.T) {
		a, b := memPipe()
		defer b.Close()
		const writes = 5000
		total := 0
		for i := 0; i < writes; i++ {
			total += 1 + i%61
		}
		go func() {
			var seq byte
			buf := make([]byte, 61)
			for i := 0; i < writes; i++ {
				p := buf[:1+i%61]
				for j := range p {
					p[j] = seq
					seq++
				}
				if _, err := a.Write(p); err != nil {
					t.Errorf("write %d: %v", i, err)
					break
				}
			}
			a.Close()
		}()
		var want byte
		n, p := 0, make([]byte, 37)
		for {
			k, err := b.Read(p)
			for _, got := range p[:k] {
				if got != want {
					t.Fatalf("byte %d = %d, want %d", n, got, want)
				}
				want++
				n++
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if n != total {
			t.Fatalf("read %d bytes, wrote %d", n, total)
		}
	})

	t.Run("a read returns what is buffered", func(t *testing.T) {
		a, b := memPipe()
		defer a.Close()
		defer b.Close()
		if _, err := a.Write([]byte("abc")); err != nil {
			t.Fatal(err)
		}
		inTime(t, "a Read with fewer bytes buffered than asked for", func() {
			p := make([]byte, 100)
			if n, err := b.Read(p); err != nil || string(p[:n]) != "abc" {
				t.Errorf("Read = %q, %v; want the 3 buffered bytes", p[:n], err)
			}
		})
	})

	t.Run("the peer drains a closed end, then EOF", func(t *testing.T) {
		a, b := memPipe()
		defer b.Close()
		for _, s := range []string{"first ", "second"} {
			if _, err := a.Write([]byte(s)); err != nil {
				t.Fatal(err)
			}
		}
		a.Close()
		got, err := io.ReadAll(b)
		if err != nil || string(got) != "first second" {
			t.Fatalf("after the writer closed: %q, %v", got, err)
		}
		if n, err := b.Read(make([]byte, 1)); n != 0 || err != io.EOF {
			t.Fatalf("Read past the drained backlog = %d, %v; want io.EOF", n, err)
		}
	})

	t.Run("a write after either end closes fails", func(t *testing.T) {
		for _, closeLocal := range []bool{true, false} {
			a, b := memPipe()
			if closeLocal {
				a.Close()
			} else {
				b.Close()
			}
			if _, err := a.Write([]byte("x")); !errors.Is(err, io.ErrClosedPipe) {
				t.Errorf("closed local end %v: Write = %v, want io.ErrClosedPipe", closeLocal, err)
			}
			a.Close()
			b.Close()
		}
	})

	t.Run("close unblocks a blocked read", func(t *testing.T) {
		for _, tc := range []struct {
			name string
			want error
			kill func(a, b *memConn)
		}{
			{"closing the reading end", io.ErrClosedPipe, func(_, b *memConn) { b.Close() }},
			{"closing the peer", io.EOF, func(a, _ *memConn) { a.Close() }},
		} {
			a, b := memPipe()
			errc := make(chan error, 1)
			go func() {
				_, err := b.Read(make([]byte, 8))
				errc <- err
			}()
			time.Sleep(time.Millisecond) // most likely parked by now; either way the Read must end
			tc.kill(a, b)
			inTime(t, tc.name, func() {
				if err := <-errc; err != tc.want {
					t.Errorf("%s: blocked Read = %v, want %v", tc.name, err, tc.want)
				}
			})
			a.Close()
			b.Close()
		}
	})

	t.Run("a MaxFrame frame passes and its array is let go", func(t *testing.T) {
		a, b := memPipe()
		defer a.Close()
		defer b.Close()
		body := bytes.Repeat([]byte{0xA5}, MaxFrame)
		if err := WriteFrame(a, body); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFrame(b, nil)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("ReadFrame = %d bytes, %v; want the %d written", len(got), err, len(body))
		}
		if c := cap(b.in.buf); c > maxPooledBuf {
			t.Fatalf("drained backlog keeps %d bytes of capacity, want at most %d", c, maxPooledBuf)
		}
		if err := WriteFrame(a, []byte("small")); err != nil {
			t.Fatal(err)
		}
		if got, err := ReadFrame(b, nil); err != nil || string(got) != "small" {
			t.Fatalf("the next frame = %q, %v", got, err)
		}
	})
}
