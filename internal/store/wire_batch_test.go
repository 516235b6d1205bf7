package store

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

func TestBatchRequestRoundTrip(t *testing.T) {
	batches := []Batch{
		{Op: OpBatch, Reqs: []Request{
			{Op: OpGet, Key: "a"},
			{Op: OpPut, Key: "b", Value: []byte("v")},
			{Op: OpDelete, Key: "c"},
			{Op: OpScan, Key: "pre", Limit: 9},
		}},
		{Op: OpBatch},
		MGetBatch([]string{"x", "", "y"}),
		MGetBatch(nil),
		MPutBatch([]Entry{{Key: "k1", Value: []byte("v1")}, {Key: "", Value: nil}}),
	}
	for _, b := range batches {
		body, err := AppendBatchRequest(nil, b)
		if err != nil {
			t.Fatalf("encode %+v: %v", b, err)
		}
		got, err := ParseBatchRequest(body)
		if err != nil {
			t.Fatalf("parse %+v: %v", b, err)
		}
		if got.Op != b.Op || len(got.Reqs) != len(b.Reqs) {
			t.Fatalf("round trip mangled %+v into %+v", b, got)
		}
		for i := range got.Reqs {
			if got.Reqs[i].Op != b.Reqs[i].Op || got.Reqs[i].Key != b.Reqs[i].Key ||
				got.Reqs[i].Limit != b.Reqs[i].Limit ||
				!bytes.Equal(got.Reqs[i].Value, b.Reqs[i].Value) {
				t.Fatalf("sub %d mangled: %+v vs %+v", i, got.Reqs[i], b.Reqs[i])
			}
		}
	}
}

func TestBatchResponseRoundTrip(t *testing.T) {
	ops := []byte{OpGet, OpGet, OpPut, OpDelete, OpScan}
	resps := []Response{
		{Status: StatusOK, Value: []byte("v")},
		{Status: StatusNotFound},
		{Status: StatusOK, Created: true},
		{Status: StatusOK},
		{Status: StatusOK, Entries: []Entry{{Key: "k", Value: []byte("e")}}},
	}
	body, err := AppendBatchResponse(nil, ops, resps)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseBatchResponse(ops, body)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(resps) {
		t.Fatalf("got %d sub-responses, want %d", len(got), len(resps))
	}
	for i := range got {
		if got[i].Status != resps[i].Status || got[i].Created != resps[i].Created ||
			!bytes.Equal(got[i].Value, resps[i].Value) || len(got[i].Entries) != len(resps[i].Entries) {
			t.Fatalf("sub %d mangled: %+v vs %+v", i, got[i], resps[i])
		}
	}
}

func TestBatchRejects(t *testing.T) {
	// Nested batches and tags cannot hide inside OpBatch.
	for _, inner := range []byte{OpBatch, OpMGet, OpMPut, OpTagged, 0xEE} {
		body := []byte{OpBatch, 0, 1, inner, 0, 0}
		if _, err := ParseBatchRequest(body); err == nil {
			t.Errorf("batch with inner op %d must be rejected", inner)
		}
	}
	if _, err := ParseBatchRequest([]byte{OpGet, 0, 0}); !errors.Is(err, ErrBadOp) {
		t.Errorf("scalar body as batch: err = %v, want ErrBadOp", err)
	}
	if _, err := ParseBatchRequest([]byte{OpMGet, 0, 2, 0, 1, 'k'}); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated mget: err = %v, want ErrTruncated", err)
	}
	// Trailing garbage after the last sub-request.
	if _, err := ParseBatchRequest([]byte{OpMGet, 0, 1, 0, 1, 'k', 'X'}); !errors.Is(err, ErrTrailingBytes) {
		t.Errorf("trailing bytes: err = %v, want ErrTrailingBytes", err)
	}
	// Encoder rejects sub-ops that don't fit the top opcode.
	if _, err := AppendBatchRequest(nil, Batch{Op: OpMGet, Reqs: []Request{{Op: OpPut, Key: "k"}}}); !errors.Is(err, ErrBatchOp) {
		t.Errorf("mget with put sub: err = %v, want ErrBatchOp", err)
	}
	if _, err := AppendBatchRequest(nil, Batch{Op: OpBatch, Reqs: []Request{{Op: OpBatch}}}); !errors.Is(err, ErrBatchOp) {
		t.Errorf("nested batch: err = %v, want ErrBatchOp", err)
	}
	if _, err := AppendBatchRequest(nil, Batch{Op: OpBatch, Reqs: make([]Request, MaxBatchOps+1)}); !errors.Is(err, ErrBatchTooLarge) {
		t.Errorf("oversized batch: err = %v, want ErrBatchTooLarge", err)
	}
	// The in-process transport refuses what the encoder refuses, before
	// running any of it: the put in each batch never lands.
	s := New(Options{Shards: 2})
	lc := s.NewLocalConn(0)
	for _, tc := range []struct {
		name string
		b    Batch
		want error
	}{
		{"mget with put sub", Batch{Op: OpMGet, Reqs: []Request{{Op: OpGet, Key: "k"}, {Op: OpPut, Key: "k"}}}, ErrBatchOp},
		{"mput with get sub", Batch{Op: OpMPut, Reqs: []Request{{Op: OpPut, Key: "k"}, {Op: OpGet, Key: "k"}}}, ErrBatchOp},
		{"unknown sub-op", Batch{Op: OpBatch, Reqs: []Request{{Op: OpPut, Key: "k"}, {Op: 0x7f, Key: "k"}}}, ErrBatchOp},
		{"unknown batch op", Batch{Op: 0x7f, Reqs: []Request{{Op: OpPut, Key: "k"}}}, ErrBadOp},
	} {
		if _, err := AppendBatchRequest(nil, tc.b); !errors.Is(err, tc.want) {
			t.Errorf("%s: encoder err = %v, want %v", tc.name, err, tc.want)
		}
		if rep := lc.Start(nil, Request{}, tc.b); !errors.Is(rep.Err, tc.want) {
			t.Errorf("%s: LocalConn err = %v, want %v", tc.name, rep.Err, tc.want)
		}
	}
	if n := s.NewHandle(0).Len(); n != 0 {
		t.Errorf("refused batches stored %d keys, want 0", n)
	}
	// Response count must match the request's sub-ops.
	body, err := AppendBatchResponse(nil, []byte{OpGet}, []Response{{Status: StatusNotFound}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseBatchResponse([]byte{OpGet, OpGet}, body); !errors.Is(err, ErrBatchCount) {
		t.Errorf("count mismatch: err = %v, want ErrBatchCount", err)
	}
}

func TestTagRoundTrip(t *testing.T) {
	body := AppendTaggedRequest(nil, 0xDEADBEEF)
	inner, err := AppendRequest(body, Request{Op: OpGet, Key: "k"})
	if err != nil {
		t.Fatal(err)
	}
	tag, rest, err := ParseTag(inner)
	if err != nil || tag != 0xDEADBEEF {
		t.Fatalf("ParseTag = %x, %v", tag, err)
	}
	req, err := ParseRequest(rest)
	if err != nil || req.Key != "k" {
		t.Fatalf("inner request mangled: %+v, %v", req, err)
	}
	if _, _, err := ParseTag([]byte{OpGet, 0, 0}); !errors.Is(err, ErrNotTagged) {
		t.Errorf("untagged body: err = %v, want ErrNotTagged", err)
	}
	if _, _, err := ParseTag([]byte{OpTagged, 1, 2}); !errors.Is(err, ErrTruncated) {
		t.Errorf("short tag: err = %v, want ErrTruncated", err)
	}
}

// batchRequestSeeds is the seed corpus the two batch-request fuzzers
// (owning, and view-against-owning) share.
var batchRequestSeeds = [][]byte{
	{OpBatch, 0, 2, OpGet, 0, 1, 'k', OpPut, 0, 1, 'p', 0, 0, 0, 1, 'v'},
	{OpMGet, 0, 2, 0, 1, 'a', 0, 1, 'b'},
	{OpMPut, 0, 1, 0, 1, 'k', 0, 0, 0, 2, 'v', 'w'},
	{OpBatch, 0, 0},
	{OpMGet, 0xFF, 0xFF},
	{OpTagged, 0, 0, 0, 1, OpGet, 0, 1, 'k'},
	{},
}

// FuzzParseBatchRequest mirrors the scalar wire fuzzers (CI runs it):
// arbitrary bytes must never panic, and anything that parses must
// re-encode byte-identically and re-parse to the same batch.
func FuzzParseBatchRequest(f *testing.F) {
	for _, s := range batchRequestSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		b, err := ParseBatchRequest(body)
		if err != nil {
			return
		}
		enc, err := AppendBatchRequest(nil, b)
		if err != nil {
			t.Fatalf("parsed batch fails to encode: %+v: %v", b, err)
		}
		if !bytes.Equal(enc, body) {
			t.Fatalf("non-canonical batch encoding:\nparsed %+v\nfrom % x\nre-enc % x", b, body, enc)
		}
		again, err := ParseBatchRequest(enc)
		if err != nil {
			t.Fatalf("re-encoded batch fails to parse: %v", err)
		}
		if !reflect.DeepEqual(b, again) {
			t.Fatalf("round trip drifted: %+v vs %+v", b, again)
		}
	})
}

// batchResponseSeeds is the seed corpus the two batch-response fuzzers
// share: the sub-opcode context and the body.
var batchResponseSeeds = []struct{ ops, body []byte }{
	{[]byte{OpGet, OpPut}, []byte{0, 2, StatusOK, 0, 0, 0, 1, 'v', StatusOK, 1}},
	{[]byte{OpDelete}, []byte{0, 1, StatusNotFound}},
	{[]byte{OpScan}, []byte{0, 1, StatusOK, 0, 0, 0, 0}},
	{[]byte{}, []byte{0, 0}},
	{[]byte{OpGet}, []byte{0, 1, StatusError, 0, 2, 'n', 'o'}},
	{[]byte{OpScan, OpGet}, []byte{0, 2, StatusOK, 0, 0, 0, 1, 0, 1, 'k', 0, 0, 0, 2, 'v', 'w', StatusOK, 0, 0, 0, 1, 'z'}},
}

// FuzzParseBatchResponse holds the batch response parser to the same
// standard: the sub-opcode context comes from the fuzzer too.
func FuzzParseBatchResponse(f *testing.F) {
	for _, s := range batchResponseSeeds {
		f.Add(s.ops, s.body)
	}
	f.Fuzz(func(t *testing.T, ops []byte, body []byte) {
		resps, err := ParseBatchResponse(ops, body)
		if err != nil {
			return
		}
		enc, err := AppendBatchResponse(nil, ops, resps)
		if err != nil {
			t.Fatalf("parsed batch response fails to encode: %+v: %v", resps, err)
		}
		if !bytes.Equal(enc, body) {
			t.Fatalf("non-canonical batch response:\nparsed %+v\nfrom % x\nre-enc % x", resps, body, enc)
		}
	})
}

// FuzzParseBatchResponseView is FuzzParseResponseView for a batch body:
// same accept/reject and error as ParseBatchResponse, and every view
// held to the owning sub-response it stands for.
func FuzzParseBatchResponseView(f *testing.F) {
	for _, s := range batchResponseSeeds {
		f.Add(s.ops, s.body)
	}
	f.Fuzz(func(t *testing.T, ops []byte, body []byte) {
		resps, err := ParseBatchResponse(ops, body)
		views, verr := ParseBatchResponseView(ops, body, nil)
		if !sameErr(err, verr) {
			t.Fatalf("owning parser: %v, view parser: %v", err, verr)
		}
		if len(views) != len(resps) {
			t.Fatalf("%d views for %d owning sub-responses", len(views), len(resps))
		}
		for i := range views {
			checkView(t, body, &views[i], resps[i])
		}
	})
}

func TestMPutChunks(t *testing.T) {
	val := func(n int) []byte { return make([]byte, n) }
	// Small entries stay in one chunk.
	small := []Entry{{Key: "a", Value: val(8)}, {Key: "b", Value: val(8)}}
	if got := mputChunks(small); len(got) != 1 || len(got[0]) != 2 {
		t.Fatalf("small chunks = %v", got)
	}
	// An empty multi-put still issues exactly one (empty) frame.
	if got := mputChunks(nil); len(got) != 1 || len(got[0]) != 0 {
		t.Fatalf("empty chunks = %v", got)
	}
	// 6 × 1MB values split so every chunk's encoding fits a frame.
	var big []Entry
	for i := 0; i < 6; i++ {
		big = append(big, Entry{Key: fmt.Sprintf("k%d", i), Value: val(MaxValueLen)})
	}
	chunks := mputChunks(big)
	if len(chunks) < 2 {
		t.Fatalf("6MB of entries in %d chunk(s)", len(chunks))
	}
	total := 0
	for _, ch := range chunks {
		total += len(ch)
		size := 0
		for _, e := range ch {
			size += 2 + len(e.Key) + 4 + len(e.Value)
		}
		if size > MaxFrame-1024 {
			t.Fatalf("chunk encodes to %d bytes, over budget", size)
		}
	}
	if total != len(big) {
		t.Fatalf("chunks cover %d entries, want %d", total, len(big))
	}
	// The count cap binds too.
	many := make([]Entry, MaxBatchOps+10)
	chunks = mputChunks(many)
	if len(chunks) != 2 || len(chunks[0]) != MaxBatchOps || len(chunks[1]) != 10 {
		t.Fatalf("count-capped chunks = %d/%v", len(chunks), len(chunks[0]))
	}
}
