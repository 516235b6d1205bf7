package store

import (
	"bytes"
	"fmt"
	"testing"

	"ssync/internal/hashkit"
)

// A RequestView carries its key's hash once something has asked for it
// (RequestView.Hash), and every layer of the server places the key by
// that one value. These tests pin that the carried hash is never
// another key's: not after a reused views slice is parsed over, not on a
// view built by hand, and not on the way from a router into an engine.

// TestViewHashReusedSlice: a views slice hashed for frame A and then
// parsed over with frame B's different keys hashes B's keys.
func TestViewHashReusedSlice(t *testing.T) {
	keys := func(prefix string) []string {
		ks := make([]string, 8)
		for i := range ks {
			ks[i] = fmt.Sprintf("%s-%d", prefix, i)
		}
		return ks
	}
	views, err := ParseBatchRequestView(mustBatch(t, MGetBatch(keys("frame-a"))), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range views {
		views[i].Hash()
	}
	first := &views[0]
	views, err = ParseBatchRequestView(mustBatch(t, MGetBatch(keys("frame-b"))), views)
	if err != nil {
		t.Fatal(err)
	}
	if &views[0] != first {
		t.Fatal("frame B was not parsed into frame A's slice")
	}
	for i := range views {
		if got, want := views[i].Hash(), hashkit.FNV1aBytes(views[i].Key); got != want {
			t.Fatalf("view %d (%q): hash %#x, want %#x — frame A's hash survived the parse", i, views[i].Key, got, want)
		}
	}
}

// TestViewHashHandBuilt: a view built field by field, the way the
// server unwraps a forwarded op, hashes its key on first use.
func TestViewHashHandBuilt(t *testing.T) {
	in := Request{Op: OpPut, Key: "forwarded", Value: []byte("v")}
	view := RequestView{Op: in.Op, Key: []byte(in.Key), Value: in.Value}
	if got, want := view.Hash(), hashkit.FNV1aBytes([]byte(in.Key)); got != want {
		t.Fatalf("hash %#x, want %#x", got, want)
	}
}

// hashingRouter owns every key but, like a cluster node's filter, hashes
// each point op's view for its ownership check before the engine sees
// it — so a wrong carried hash would place the key where a string-keyed
// lookup cannot find it.
type hashingRouter struct{ allLocal }

func (r *hashingRouter) Route(h *Handle, req RequestView, hops int, out []byte) ([]byte, error) {
	req.Hash()
	return r.allLocal.Route(h, req, hops, out)
}

func (r *hashingRouter) RouteBatch(h *Handle, reqs []RequestView) []Response {
	for i := range reqs {
		if reqs[i].Op != OpScan {
			reqs[i].Hash()
		}
	}
	return r.allLocal.RouteBatch(h, reqs)
}

// TestViewHashPlacesKeys: on every engine, keys written through routed
// batches (two frames on one connection, so the second reuses the
// first's hashed views), a routed scalar and a forwarded op are all
// found by Handle.Get, which hashes the string key afresh.
func TestViewHashPlacesKeys(t *testing.T) {
	for _, eng := range Engines {
		t.Run(string(eng), func(t *testing.T) {
			s := New(Options{Engine: eng, Shards: 8})
			defer s.Close()
			srv := NewServer(s, 1)
			srv.SetRouter(&hashingRouter{})
			var stream []byte
			var written []string
			put := func(prefix string, n int) Batch {
				b := Batch{Op: OpBatch}
				for i := 0; i < n; i++ {
					key := fmt.Sprintf("%s-%d", prefix, i)
					b.Reqs = append(b.Reqs, Request{Op: OpPut, Key: key, Value: []byte(key)}, Request{Op: OpGet, Key: key})
					written = append(written, key)
				}
				return b
			}
			stream = frame(stream, 0, mustBatch(t, put("batch-a", 8)))
			stream = frame(stream, 0, mustBatch(t, put("batch-b", 8)))
			scalar, err := AppendRequest(nil, Request{Op: OpPut, Key: "scalar", Value: []byte("scalar")})
			if err != nil {
				t.Fatal(err)
			}
			stream = frame(stream, 0, scalar)
			fwd, err := AppendMigrateRequest(nil, MigrateRequest{Op: OpForward, Hops: 1,
				Inner: Request{Op: OpPut, Key: "forwarded", Value: []byte("forwarded")}})
			if err != nil {
				t.Fatal(err)
			}
			stream = frame(stream, 0, fwd)
			written = append(written, "scalar", "forwarded")
			if err := srv.ServeConn(&replay{Reader: bytes.NewReader(stream)}); err != nil {
				t.Fatal(err)
			}
			h := s.NewHandle(0)
			for _, key := range written {
				if got, ok := h.Get(key); !ok || string(got) != key {
					t.Errorf("key %q: Get = %q, %v after a routed write", key, got, ok)
				}
			}
			if n := h.Len(); n != len(written) {
				t.Errorf("%d keys stored, want %d", n, len(written))
			}
		})
	}
}
