package store

import (
	"encoding/binary"
	"errors"
)

// Batched and tagged extensions of the wire protocol. The paper's
// lesson — amortize coordination, do more work per lock acquisition and
// per message — shows up here twice: a batch frame carries N sub-ops so
// one round trip (and, server-side, one shard-lock acquisition per
// touched shard) covers N keys, and a tag prefix lets a multiplexed
// client keep a window of frames in flight and match responses back to
// requests.
//
// Batch request body (one frame):
//
//	OpBatch: op uint8, count uint16, count × scalar request bodies
//	OpMGet:  op uint8, count uint16, count × (keyLen uint16, key)
//	OpMPut:  op uint8, count uint16, count × (keyLen uint16, key,
//	         valLen uint32, val)
//
// MGET/MPUT are the compact first-class encodings of the two batch
// shapes real workloads issue constantly; OpBatch frames any mix of the
// four scalar ops. Batches never nest: a sub-request must be a scalar
// op, so the parsers reject OpBatch/OpMGet/OpMPut/OpTagged inside one.
//
// Batch response body:
//
//	count uint16, count × scalar response bodies (sub-response i is
//	decoded with sub-request i's opcode; the count must match)
//
// Tagged framing (the pipelined client always uses it):
//
//	request:  OpTagged uint8, tag uint32, inner request body
//	response: tag uint32, inner response body
//
// The server echoes the tag of each tagged request on its response and
// answers requests of one connection strictly in arrival order, so a
// client that matches responses FIFO can verify every echoed tag; a
// mismatch means the stream is corrupt and the connection must die.

// Extended opcodes (the scalar ones are 1..4 in wire.go).
const (
	// OpBatch frames a mixed batch of scalar sub-requests.
	OpBatch byte = iota + OpScan + 1
	// OpMGet is a compact multi-get (all sub-ops are OpGet).
	OpMGet
	// OpMPut is a compact multi-put (all sub-ops are OpPut).
	OpMPut
	// OpTagged wraps any request with a client-chosen tag.
	OpTagged
)

// MaxBatchOps bounds the sub-operations of one batch frame.
const MaxBatchOps = 4096

// MsgBatchOverflow is the StatusError message a server substitutes for
// a sub-response that would overflow MaxFrame (see appendBatchBounded):
// the op executed, only its payload was too large to ship alongside the
// rest of the batch. Clients treat it as "retry this key alone", not as
// a server fault.
const MsgBatchOverflow = "store: batch response exceeds frame"

// Batch wire-format errors.
var (
	ErrBatchTooLarge = errors.New("store: batch exceeds MaxBatchOps")
	ErrBatchOp       = errors.New("store: batch sub-request must be a scalar op")
	ErrBatchCount    = errors.New("store: batch response count mismatch")
	ErrNotTagged     = errors.New("store: not a tagged request")
)

// Batch is one decoded batch request: the top-level opcode (OpBatch,
// OpMGet or OpMPut) plus its scalar sub-requests. For OpMGet every
// sub-request is an OpGet, for OpMPut an OpPut.
type Batch struct {
	Op   byte
	Reqs []Request
}

// SubOps returns the sub-request opcodes in order — the context a batch
// response is decoded against.
func (b Batch) SubOps() []byte {
	ops := make([]byte, len(b.Reqs))
	for i, r := range b.Reqs {
		ops[i] = r.Op
	}
	return ops
}

// MGetBatch builds the compact multi-get batch for keys.
func MGetBatch(keys []string) Batch {
	reqs := make([]Request, len(keys))
	for i, k := range keys {
		reqs[i] = Request{Op: OpGet, Key: k}
	}
	return Batch{Op: OpMGet, Reqs: reqs}
}

// MPutBatch builds the compact multi-put batch for entries.
func MPutBatch(entries []Entry) Batch {
	reqs := make([]Request, len(entries))
	for i, e := range entries {
		reqs[i] = Request{Op: OpPut, Key: e.Key, Value: e.Value}
	}
	return Batch{Op: OpMPut, Reqs: reqs}
}

// check reports why no transport may carry b: its opcode is not one of
// the three batch encodings (ErrBadOp), or a sub-request is not one that
// encoding holds — an op other than get, put, delete or scan in OpBatch,
// a non-get in OpMGet, a non-put in OpMPut (ErrBatchOp). The wire
// encoder and the in-process LocalConn both run it before anything is
// sent or executed, so every transport refuses the same batches, and
// refuses them whole.
func (b Batch) check() error {
	var want byte // the one sub-opcode a multi-op holds; 0 for OpBatch
	switch b.Op {
	case OpBatch:
	case OpMGet:
		want = OpGet
	case OpMPut:
		want = OpPut
	default:
		return ErrBadOp
	}
	for i := range b.Reqs {
		if op := b.Reqs[i].Op; want != 0 && op != want || op < OpGet || op > OpScan {
			return ErrBatchOp
		}
	}
	return nil
}

// AppendBatchRequest encodes b onto dst and returns the extended slice.
func AppendBatchRequest(dst []byte, b Batch) ([]byte, error) {
	if len(b.Reqs) > MaxBatchOps {
		return dst, ErrBatchTooLarge
	}
	if err := b.check(); err != nil {
		return dst, err
	}
	dst = append(dst, b.Op)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(b.Reqs)))
	for _, r := range b.Reqs {
		var err error
		switch b.Op {
		case OpBatch:
			dst, err = AppendRequest(dst, r)
		case OpMGet:
			dst, err = appendKey(dst, r.Key)
		case OpMPut:
			if dst, err = appendKey(dst, r.Key); err != nil {
				return dst, err
			}
			if len(r.Value) > MaxValueLen {
				return dst, ErrValueTooLong
			}
			dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Value)))
			dst = append(dst, r.Value...)
		}
		if err != nil {
			return dst, err
		}
	}
	return dst, nil
}

func appendKey(dst []byte, key string) ([]byte, error) {
	if len(key) > MaxKeyLen {
		return dst, ErrKeyTooLong
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(key)))
	return append(dst, key...), nil
}

// batchHeader decodes a batch request's top-level opcode and sub-op
// count. fit is the count capped by what the remaining bytes could
// possibly hold — what a decoder presizes by, so a three-byte frame
// claiming MaxBatchOps sub-ops buys no memory.
func (p *parser) batchHeader() (op byte, n, fit int) {
	op = p.u8()
	minSub := 1
	switch op {
	case OpBatch:
		minSub = 3 // opcode, key length
	case OpMGet:
		minSub = 2 // key length
	case OpMPut:
		minSub = 6 // key length, value length
	default:
		if p.err == nil {
			p.err = ErrBadOp
		}
	}
	n = int(p.u16())
	if p.err == nil && n > MaxBatchOps {
		p.err = ErrBatchTooLarge
	}
	if p.err != nil {
		return op, 0, 0
	}
	return op, n, min(n, (len(p.buf)-p.off)/minSub)
}

// batchSub decodes one sub-request of a batch whose top-level opcode is
// top, aliasing the parsed buffer. Batches never nest: requestView
// accepts the four scalar opcodes and nothing else.
func (p *parser) batchSub(top byte) RequestView {
	switch top {
	case OpMGet:
		return RequestView{Op: OpGet, Key: p.bytes16()}
	case OpMPut:
		return RequestView{Op: OpPut, Key: p.bytes16(), Value: p.bytes32(MaxValueLen)}
	}
	return p.requestView()
}

// ParseBatchRequest decodes one batch request body (OpBatch, OpMGet or
// OpMPut) into owning sub-requests, rejecting nested batches,
// truncation and trailing garbage.
func ParseBatchRequest(body []byte) (Batch, error) {
	p := parser{buf: body}
	op, n, fit := p.batchHeader()
	b := Batch{Op: op}
	if fit > 0 {
		b.Reqs = make([]Request, 0, fit)
	}
	for i := 0; i < n && p.err == nil; i++ {
		b.Reqs = append(b.Reqs, p.batchSub(op).Owned())
	}
	if err := p.finish(); err != nil {
		return Batch{}, err
	}
	return b, nil
}

// ParseBatchRequestView is ParseBatchRequest without the copies: it
// appends the sub-requests to dst[:0] as views aliasing body, with
// exactly the owning parser's validation and errors (they share the
// decoder). The server's batch path parses every frame into one reused
// slice this way.
func ParseBatchRequestView(body []byte, dst []RequestView) ([]RequestView, error) {
	p := parser{buf: body}
	op, n, _ := p.batchHeader()
	dst = dst[:0]
	for i := 0; i < n && p.err == nil; i++ {
		dst = append(dst, p.batchSub(op))
	}
	if err := p.finish(); err != nil {
		return dst[:0], err
	}
	return dst, nil
}

// AppendBatchResponse encodes the sub-responses of a batch whose
// sub-request opcodes were ops. len(resps) must equal len(ops).
func AppendBatchResponse(dst []byte, ops []byte, resps []Response) ([]byte, error) {
	if len(ops) != len(resps) {
		return dst, ErrBatchCount
	}
	if len(resps) > MaxBatchOps {
		return dst, ErrBatchTooLarge
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(resps)))
	for i, r := range resps {
		var err error
		if dst, err = AppendResponse(dst, ops[i], r); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// subOps is the sub-request opcodes a batch response is decoded
// against: listed, or read off the requests the batch was sent with —
// exactly one of the two is set.
type subOps struct {
	ops  []byte
	reqs []Request
}

func (s subOps) len() int { return len(s.ops) + len(s.reqs) }

func (s subOps) at(i int) byte {
	if s.reqs != nil {
		return s.reqs[i].Op
	}
	return s.ops[i]
}

// batchResponseViews is the one batch response decoder: it appends the
// sub-responses of body to dst[:0] as views aliasing it, sub-response i
// decoded with sub-request i's opcode.
func batchResponseViews(subs subOps, body []byte, dst []ResponseView) ([]ResponseView, error) {
	p := parser{buf: body}
	n := int(p.u16())
	if p.err == nil && (n != subs.len() || n > MaxBatchOps) {
		p.err = ErrBatchCount
	}
	dst = dst[:0]
	// Room for the whole batch at once, capped by the bytes actually
	// there: every sub-response is at least its status byte.
	if fit := min(n, len(body)-p.off); p.err == nil && fit > cap(dst) {
		dst = make([]ResponseView, 0, fit)
	}
	for i := 0; i < n && p.err == nil; i++ {
		dst = append(dst, ResponseView{})
		p.responseView(subs.at(i), &dst[i])
	}
	if err := p.finish(); err != nil {
		return dst[:0], err
	}
	return dst, nil
}

// ParseBatchResponseView decodes a batch response body against the
// sub-request opcodes the batch was sent with, without copying: it
// appends the sub-responses to dst[:0] as views aliasing body.
func ParseBatchResponseView(ops []byte, body []byte, dst []ResponseView) ([]ResponseView, error) {
	return batchResponseViews(subOps{ops: ops}, body, dst)
}

// ParseBatchResponse is ParseBatchResponseView plus the copy-out that
// makes the result owning: one slice, and one arena for the hit values.
func ParseBatchResponse(ops []byte, body []byte) ([]Response, error) {
	vp := viewPool.Get().(*[]ResponseView)
	defer viewPool.Put(vp)
	views, err := ParseBatchResponseView(ops, body, (*vp)[:0])
	*vp = views[:0]
	if err != nil {
		return nil, err
	}
	return ownedBatch(views), nil
}

// AppendTaggedRequest starts a tagged request: the OpTagged marker and
// the tag. The caller appends the inner (scalar or batch) request body.
func AppendTaggedRequest(dst []byte, tag uint32) []byte {
	dst = append(dst, OpTagged)
	return binary.BigEndian.AppendUint32(dst, tag)
}

// ParseTag splits a tagged request body into its tag and inner body.
func ParseTag(body []byte) (tag uint32, inner []byte, err error) {
	if len(body) == 0 || body[0] != OpTagged {
		return 0, nil, ErrNotTagged
	}
	if len(body) < 5 {
		return 0, nil, ErrTruncated
	}
	return binary.BigEndian.Uint32(body[1:5]), body[5:], nil
}
