package store

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

func TestRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		{Op: OpGet, Key: "k"},
		{Op: OpGet, Key: ""},
		{Op: OpDelete, Key: "gone"},
		{Op: OpPut, Key: "k", Value: []byte("v")},
		{Op: OpPut, Key: "k", Value: []byte{}},
		{Op: OpPut, Key: strings.Repeat("K", MaxKeyLen), Value: bytes.Repeat([]byte{7}, 1024)},
		{Op: OpScan, Key: "prefix-", Limit: 42},
		{Op: OpScan, Key: "", Limit: 0},
	}
	for _, req := range reqs {
		body, err := AppendRequest(nil, req)
		if err != nil {
			t.Fatalf("encode %+v: %v", req.Op, err)
		}
		got, err := ParseRequest(body)
		if err != nil {
			t.Fatalf("parse %+v: %v", req.Op, err)
		}
		// Encoding does not distinguish nil from empty value.
		if got.Op != req.Op || got.Key != req.Key || got.Limit != req.Limit ||
			!bytes.Equal(got.Value, req.Value) {
			t.Fatalf("round trip mangled %+v into %+v", req, got)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cases := []struct {
		op   byte
		resp Response
	}{
		{OpGet, Response{Status: StatusOK, Value: []byte("v")}},
		{OpGet, Response{Status: StatusNotFound}},
		{OpPut, Response{Status: StatusOK, Created: true}},
		{OpPut, Response{Status: StatusOK, Created: false}},
		{OpDelete, Response{Status: StatusOK}},
		{OpDelete, Response{Status: StatusNotFound}},
		{OpScan, Response{Status: StatusOK, Entries: []Entry{
			{Key: "a", Value: []byte("1")},
			{Key: "b", Value: []byte{}},
		}}},
		{OpScan, Response{Status: StatusOK}},
		{OpGet, Response{Status: StatusError, Msg: "boom"}},
	}
	for _, c := range cases {
		body, err := AppendResponse(nil, c.op, c.resp)
		if err != nil {
			t.Fatalf("encode op %d: %v", c.op, err)
		}
		got, err := ParseResponse(c.op, body)
		if err != nil {
			t.Fatalf("parse op %d: %v", c.op, err)
		}
		if got.Status != c.resp.Status || got.Created != c.resp.Created ||
			got.Msg != c.resp.Msg || !bytes.Equal(got.Value, c.resp.Value) ||
			len(got.Entries) != len(c.resp.Entries) {
			t.Fatalf("round trip mangled %+v into %+v", c.resp, got)
		}
		for i := range got.Entries {
			if got.Entries[i].Key != c.resp.Entries[i].Key ||
				!bytes.Equal(got.Entries[i].Value, c.resp.Entries[i].Value) {
				t.Fatalf("entry %d mangled: %+v vs %+v", i, got.Entries[i], c.resp.Entries[i])
			}
		}
	}
}

func TestParseRequestRejects(t *testing.T) {
	cases := []struct {
		name string
		body []byte
		err  error
	}{
		{"empty", []byte{}, ErrTruncated},
		{"bad op", []byte{0xFF, 0, 0}, ErrBadOp},
		{"zero op", []byte{0, 0, 0}, ErrBadOp},
		{"truncated key len", []byte{OpGet, 0}, ErrTruncated},
		{"truncated key", []byte{OpGet, 0, 5, 'a'}, ErrTruncated},
		{"trailing bytes", []byte{OpGet, 0, 1, 'a', 'X'}, ErrTrailingBytes},
		{"put missing value", []byte{OpPut, 0, 1, 'a'}, ErrTruncated},
		{"put oversized value", append([]byte{OpPut, 0, 1, 'a'},
			0xFF, 0xFF, 0xFF, 0xFF), ErrValueTooLong},
		{"scan missing limit", []byte{OpScan, 0, 0, 0, 0}, ErrTruncated},
	}
	for _, c := range cases {
		if _, err := ParseRequest(c.body); !errors.Is(err, c.err) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.err)
		}
	}
}

func TestFrameIO(t *testing.T) {
	var buf bytes.Buffer
	bodies := [][]byte{{}, []byte("one"), bytes.Repeat([]byte{9}, 5000)}
	for _, b := range bodies {
		if err := WriteFrame(&buf, b); err != nil {
			t.Fatal(err)
		}
	}
	var scratch []byte
	for _, want := range bodies {
		got, err := ReadFrame(&buf, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame mangled: %d bytes vs %d", len(got), len(want))
		}
		scratch = got[:0]
	}
	// An over-long frame header is rejected without allocating the body.
	buf.Reset()
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadFrame(&buf, nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: err = %v", err)
	}
	if err := WriteFrame(&buf, make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized write: err = %v", err)
	}
}

// FuzzParseRequest is the wire-protocol parser fuzz target (CI runs it):
// arbitrary bytes must never panic, and anything that parses must
// re-encode and re-parse to the identical request (the parser and
// encoder agree on the format).
func FuzzParseRequest(f *testing.F) {
	seed := [][]byte{
		{OpGet, 0, 1, 'k'},
		{OpDelete, 0, 0},
		{OpPut, 0, 1, 'k', 0, 0, 0, 2, 'v', 'w'},
		{OpScan, 0, 3, 'p', 'r', 'e', 0, 0, 0, 16},
		{0xFF},
		{},
	}
	for _, s := range seed {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := ParseRequest(body)
		if err != nil {
			return
		}
		// Valid parse: the round trip must be exact and canonical.
		enc, err := AppendRequest(nil, req)
		if err != nil {
			t.Fatalf("parsed request fails to encode: %+v: %v", req, err)
		}
		if !bytes.Equal(enc, body) {
			t.Fatalf("non-canonical encoding:\nparsed %+v\nfrom % x\nre-enc % x", req, body, enc)
		}
		again, err := ParseRequest(enc)
		if err != nil {
			t.Fatalf("re-encoded request fails to parse: %v", err)
		}
		if !reflect.DeepEqual(req, again) {
			t.Fatalf("round trip drifted: %+v vs %+v", req, again)
		}
	})
}

// responseSeeds is the seed corpus the two scalar-response fuzzers share.
var responseSeeds = []struct {
	op   byte
	body []byte
}{
	{OpGet, []byte{StatusOK, 0, 0, 0, 1, 'v'}},
	{OpPut, []byte{StatusOK, 1}},
	{OpDelete, []byte{StatusNotFound}},
	{OpScan, []byte{StatusOK, 0, 0, 0, 0}},
	{OpGet, []byte{StatusError, 0, 2, 'n', 'o'}},
	{OpScan, []byte{StatusOK, 0, 0, 0, 2, 0, 1, 'a', 0, 0, 0, 1, 'x', 0, 2, 'b', 'c', 0, 0, 0, 0}},
}

// FuzzParseResponse holds the response parser to the same standard, per
// opcode.
func FuzzParseResponse(f *testing.F) {
	for _, s := range responseSeeds {
		f.Add(s.op, s.body)
	}
	f.Fuzz(func(t *testing.T, op byte, body []byte) {
		resp, err := ParseResponse(op, body)
		if err != nil {
			return
		}
		if op != OpGet && op != OpPut && op != OpDelete && op != OpScan {
			return // parse succeeded only for status-only bodies
		}
		enc, err := AppendResponse(nil, op, resp)
		if err != nil {
			t.Fatalf("parsed response fails to encode: %+v: %v", resp, err)
		}
		if !bytes.Equal(enc, body) {
			t.Fatalf("non-canonical response encoding:\nparsed %+v\nfrom % x\nre-enc % x", resp, body, enc)
		}
	})
}

// FuzzParseResponseView is the differential fuzzer of the response view
// decoder, with the owning parser as oracle: the same inputs accepted and
// rejected with the same error, the view's copy-out equal to the owning
// result, and nothing in the view reaching outside the body.
func FuzzParseResponseView(f *testing.F) {
	for _, s := range responseSeeds {
		f.Add(s.op, s.body)
	}
	f.Fuzz(func(t *testing.T, op byte, body []byte) {
		resp, err := ParseResponse(op, body)
		view, verr := ParseResponseView(op, body)
		if !sameErr(err, verr) {
			t.Fatalf("owning parser: %v, view parser: %v", err, verr)
		}
		checkView(t, body, &view, resp)
	})
}

// sameErr: both nil, or the same text (the decoders format some of their
// errors, so two runs never return the same value).
func sameErr(a, b error) bool { return fmt.Sprint(a) == fmt.Sprint(b) }

// checkView holds one decoded view to the owning response it stands for.
func checkView(t *testing.T, body []byte, v *ResponseView, want Response) {
	t.Helper()
	if got := v.Owned(); !reflect.DeepEqual(got, want) {
		t.Fatalf("view.Owned() = %+v, owning parser: %+v", got, want)
	}
	if v.Scanned != len(want.Entries) || v.Entries != nil {
		t.Fatalf("view counts %d scan entries (decoded: %v), owning parser has %d", v.Scanned, v.Entries != nil, len(want.Entries))
	}
	for name, field := range map[string][]byte{"Value": v.Value, "Msg": v.Msg, "Raw": v.Raw} {
		if !within(body, field) {
			t.Fatalf("view.%s reaches outside the body it was decoded from", name)
		}
	}
}

// within reports whether b's bytes lie inside body's.
func within(body, b []byte) bool {
	if len(b) == 0 {
		return true
	}
	lo, p := uintptr(unsafe.Pointer(unsafe.SliceData(body))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return len(body) > 0 && p >= lo && p+uintptr(len(b)) <= lo+uintptr(len(body))
}
