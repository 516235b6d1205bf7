package store

import (
	"net"
	"strings"
	"testing"
)

func TestClientRejectsOversizedRequests(t *testing.T) {
	s := New(Options{})
	c := NewServer(s, 1).PipeClient()
	defer c.Close()
	if _, err := c.Put("k", make([]byte, MaxValueLen+1)); err == nil {
		t.Fatal("oversized value must fail client-side")
	}
	if _, err := c.Put(strings.Repeat("k", MaxKeyLen+1), nil); err == nil {
		t.Fatal("oversized key must fail client-side")
	}
	// The connection is still usable — nothing was written.
	if _, err := c.Put("ok", []byte("v")); err != nil {
		t.Fatalf("connection unusable after rejected request: %v", err)
	}
}

func TestServerRejectsMalformedFrame(t *testing.T) {
	s := New(Options{})
	srv := NewServer(s, 1)
	clientEnd, serverEnd := net.Pipe()
	done := make(chan error, 1)
	go func() {
		defer serverEnd.Close()
		done <- srv.ServeConn(serverEnd)
	}()
	// A frame whose body is one unknown opcode byte.
	if err := WriteFrame(clientEnd, []byte{0xFF}); err != nil {
		t.Fatal(err)
	}
	body, err := ReadFrame(clientEnd, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ParseResponse(0, body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusError || resp.Msg == "" {
		t.Fatalf("want StatusError with a message, got %+v", resp)
	}
	if err := <-done; err == nil {
		t.Fatal("server must close the connection after a bad request")
	}
	clientEnd.Close()
}

// TestServedTCP exercises the accept loop over real TCP when the
// environment allows loopback listening.
func TestServedTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer ln.Close()
	s := New(Options{})
	srv := NewServer(s, 1)
	go func() { _ = srv.Serve(ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn)
	defer c.Close()
	if _, err := c.Put("tcp-key", []byte("tcp-val")); err != nil {
		t.Fatal(err)
	}
	v, found, err := c.Get("tcp-key")
	if err != nil || !found || string(v) != "tcp-val" {
		t.Fatalf("Get over TCP = %q, %v, %v", v, found, err)
	}
}
