package store

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

func TestMigrateRequestRoundTrip(t *testing.T) {
	reqs := []MigrateRequest{
		{Op: OpForward, Hops: 2, Inner: Request{Op: OpPut, Key: "k", Value: []byte("v")}},
		{Op: OpForward, Inner: Request{Op: OpGet, Key: "k"}},
		{Op: OpForward, Hops: MaxForwardHops, Inner: Request{Op: OpDelete, Key: "gone"}},
	}
	for _, req := range reqs {
		body, err := AppendMigrateRequest(nil, req)
		if err != nil {
			t.Fatalf("encode %+v: %v", req, err)
		}
		got, err := ParseMigrateRequest(body)
		if err != nil {
			t.Fatalf("parse %+v: %v", req, err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("round trip mangled %+v into %+v", req, got)
		}
	}
}

func TestMigrateRejects(t *testing.T) {
	// Forwarded scans and over-hopped forwards are refused, encoded or
	// parsed.
	if _, err := AppendMigrateRequest(nil, MigrateRequest{Op: OpForward, Inner: Request{Op: OpScan, Key: "p"}}); !errors.Is(err, ErrForwardOp) {
		t.Errorf("forwarded scan: err = %v, want ErrForwardOp", err)
	}
	if _, err := ParseMigrateRequest([]byte{OpForward, 0, OpScan, 0, 1, 'p', 0, 0, 0, 0}); !errors.Is(err, ErrForwardOp) {
		t.Errorf("parsed forwarded scan: err = %v, want ErrForwardOp", err)
	}
	if _, err := AppendMigrateRequest(nil, MigrateRequest{Op: OpForward, Hops: MaxForwardHops + 1, Inner: Request{Op: OpGet, Key: "k"}}); !errors.Is(err, ErrHopLimit) {
		t.Errorf("hop overflow: err = %v, want ErrHopLimit", err)
	}
	if _, err := ParseMigrateRequest([]byte{OpForward, MaxForwardHops + 1, OpGet, 0, 1, 'k'}); !errors.Is(err, ErrHopLimit) {
		t.Errorf("parsed hop overflow: err = %v, want ErrHopLimit", err)
	}
	// Scalar and batch bodies are not forwarding frames.
	if _, err := AppendMigrateRequest(nil, MigrateRequest{Op: OpGet, Inner: Request{Op: OpGet, Key: "k"}}); !errors.Is(err, ErrBadOp) {
		t.Errorf("non-forward opcode: err = %v, want ErrBadOp", err)
	}
	for _, body := range [][]byte{{OpGet, 0, 1, 'k'}, {OpBatch, 0, 0}, {}} {
		if _, err := ParseMigrateRequest(body); err == nil {
			t.Errorf("body % x parsed as a forwarding request", body)
		}
	}
	// Truncation and trailing garbage die like the batch frames.
	good, err := AppendMigrateRequest(nil, MigrateRequest{Op: OpForward, Hops: 1, Inner: Request{Op: OpPut, Key: "k", Value: []byte("v")}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseMigrateRequest(good[:len(good)-1]); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated forward: err = %v, want ErrTruncated", err)
	}
	if _, err := ParseMigrateRequest(append(append([]byte(nil), good...), 'X')); !errors.Is(err, ErrTrailingBytes) {
		t.Errorf("trailing bytes: err = %v, want ErrTrailingBytes", err)
	}
}

// FuzzParseMigrateRequest mirrors FuzzParseBatchRequest (CI runs it):
// arbitrary bytes must never panic, and anything that parses must
// re-encode byte-identically and re-parse to the same request.
func FuzzParseMigrateRequest(f *testing.F) {
	seeds := []MigrateRequest{
		{Op: OpForward, Hops: 1, Inner: Request{Op: OpDelete, Key: "k"}},
		{Op: OpForward, Inner: Request{Op: OpGet, Key: "k"}},
		{Op: OpForward, Hops: 2, Inner: Request{Op: OpPut, Key: "k", Value: []byte("v")}},
		{Op: OpForward, Hops: MaxForwardHops, Inner: Request{Op: OpPut, Key: "", Value: []byte("v")}},
	}
	for _, s := range seeds {
		body, err := AppendMigrateRequest(nil, s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte{OpForward, 0xFF})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := ParseMigrateRequest(body)
		if err != nil {
			return
		}
		enc, err := AppendMigrateRequest(nil, req)
		if err != nil {
			t.Fatalf("parsed forward request fails to encode: %+v: %v", req, err)
		}
		if !bytes.Equal(enc, body) {
			t.Fatalf("non-canonical encoding:\nparsed %+v\nfrom % x\nre-enc % x", req, body, enc)
		}
		again, err := ParseMigrateRequest(enc)
		if err != nil {
			t.Fatalf("re-encoded forward request fails to parse: %v", err)
		}
		if !reflect.DeepEqual(req, again) {
			t.Fatalf("round trip drifted: %+v vs %+v", req, again)
		}
	})
}
