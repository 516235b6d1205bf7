package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// The wire protocol is length-prefixed binary frames over any byte
// stream (net.Conn, net.Pipe). A frame is a big-endian uint32 body
// length followed by the body; requests and responses use the same
// framing, so the parser below is shared by server, client and the fuzz
// target.
//
// Request body:
//
//	op      uint8            (OpGet, OpPut, OpDelete, OpScan)
//	keyLen  uint16           key / scan-prefix length
//	key     keyLen bytes
//	PUT:    valLen uint32, val valLen bytes
//	SCAN:   limit  uint32    (0 = unlimited)
//
// Response body:
//
//	status  uint8            (StatusOK, StatusNotFound, StatusError)
//	GET ok:    valLen uint32, val valLen bytes
//	PUT ok:    created uint8 (1 = newly inserted)
//	SCAN ok:   count uint32, then count × (keyLen uint16, key,
//	           valLen uint32, val)
//	error:     msgLen uint16, msg msgLen bytes
//
// Every length is bounded (MaxKeyLen, MaxValueLen, MaxFrame) and the
// parsers reject truncated or over-long input, so a malicious peer can
// make a connection fail but not allocate unboundedly.

// Request opcodes.
const (
	OpGet byte = iota + 1
	OpPut
	OpDelete
	OpScan
)

// Response status codes.
const (
	StatusOK byte = iota
	StatusNotFound
	StatusError
)

// Protocol bounds.
const (
	// MaxKeyLen bounds keys and scan prefixes.
	MaxKeyLen = 1<<16 - 1
	// MaxValueLen bounds a single value.
	MaxValueLen = 1 << 20
	// MaxFrame bounds a whole frame body (scan responses chunk under it).
	MaxFrame = 4 << 20
)

// Wire-format errors.
var (
	ErrFrameTooLarge = errors.New("store: frame exceeds MaxFrame")
	ErrTruncated     = errors.New("store: truncated message")
	ErrTrailingBytes = errors.New("store: trailing bytes after message")
	ErrBadOp         = errors.New("store: unknown opcode")
	ErrKeyTooLong    = errors.New("store: key exceeds MaxKeyLen")
	ErrValueTooLong  = errors.New("store: value exceeds MaxValueLen")
)

// Request is one decoded client request.
type Request struct {
	Op    byte
	Key   string // the scan prefix for OpScan
	Value []byte // OpPut only
	Limit uint32 // OpScan only; 0 = unlimited
}

// Response is one decoded server response.
type Response struct {
	Status  byte
	Created bool    // OpPut
	Value   []byte  // OpGet
	Entries []Entry // OpScan
	Msg     string  // StatusError detail
}

// WriteFrame writes one length-prefixed frame. A *bufio.Writer takes
// the specialized path: byte-at-a-time header writes into the
// already-buffered stream, because a stack hdr array passed through the
// io.Writer interface escapes — one heap allocation per frame on
// exactly the path the pooling work flattened.
func WriteFrame(w io.Writer, body []byte) error {
	if len(body) > MaxFrame {
		return ErrFrameTooLarge
	}
	if bw, ok := w.(*bufio.Writer); ok {
		return writeFrameBuf(bw, body)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// writeFrameBuf is WriteFrame's allocation-free form for buffered
// writers (length already validated).
func writeFrameBuf(bw *bufio.Writer, body []byte) error {
	n := uint32(len(body))
	bw.WriteByte(byte(n >> 24))
	bw.WriteByte(byte(n >> 16))
	bw.WriteByte(byte(n >> 8))
	if err := bw.WriteByte(byte(n)); err != nil {
		return err
	}
	_, err := bw.Write(body)
	return err
}

// ReadFrame reads one frame body, reusing buf when it is large enough.
// Like WriteFrame, a *bufio.Reader reads the header without the escape
// allocation of a stack array passed through io.Reader.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	var n uint32
	if br, ok := r.(*bufio.Reader); ok {
		for i := 0; i < 4; i++ {
			b, err := br.ReadByte()
			if err != nil {
				if i > 0 && err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
				return nil, err
			}
			n = n<<8 | uint32(b)
		}
	} else {
		var hdr [4]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil, err
		}
		n = binary.BigEndian.Uint32(hdr[:])
	}
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// AppendRequest encodes req onto dst and returns the extended slice.
func AppendRequest(dst []byte, req Request) ([]byte, error) {
	if len(req.Key) > MaxKeyLen {
		return dst, ErrKeyTooLong
	}
	dst = append(dst, req.Op)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(req.Key)))
	dst = append(dst, req.Key...)
	switch req.Op {
	case OpGet, OpDelete:
	case OpPut:
		if len(req.Value) > MaxValueLen {
			return dst, ErrValueTooLong
		}
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(req.Value)))
		dst = append(dst, req.Value...)
	case OpScan:
		dst = binary.BigEndian.AppendUint32(dst, req.Limit)
	default:
		return dst, ErrBadOp
	}
	return dst, nil
}

// RequestView is a zero-copy decoded scalar request: Key and Value
// alias the frame body they were parsed from, so a view is only valid
// until that buffer is reused or returned to a pool — on a server
// connection, until its next ReadFrame. It is the server hot path's
// decode shape, scalar frames and batch sub-requests alike; the owning
// Request (string key, copied value) exists for everything that must
// outlive the frame: router forwarding, migration payloads.
type RequestView struct {
	Op    byte
	Key   []byte // aliases the frame; the scan prefix for OpScan
	Value []byte // aliases the frame; OpPut only
	Limit uint32 // OpScan only; 0 = unlimited
}

// Owned returns the owning copy of v — the one copy-out a view is
// allowed, taken by whatever must outlive the frame.
func (v RequestView) Owned() Request {
	req := Request{Op: v.Op, Key: string(v.Key), Limit: v.Limit}
	if v.Op == OpPut {
		req.Value = append([]byte(nil), v.Value...)
	}
	return req
}

// ParseRequestView decodes one request body without copying key or
// value, with exactly ParseRequest's validation.
func ParseRequestView(body []byte) (RequestView, error) {
	p := parser{buf: body}
	v := p.requestView()
	if err := p.finish(); err != nil {
		return RequestView{}, err
	}
	return v, nil
}

// ParseRequest decodes one request body into an owning Request. It
// rejects unknown opcodes, truncated bodies, oversized fields and
// trailing garbage.
func ParseRequest(body []byte) (Request, error) {
	p := parser{buf: body}
	req := p.request()
	if err := p.finish(); err != nil {
		return Request{}, err
	}
	return req, nil
}

// requestView decodes one scalar request at the cursor (the encoding is
// self-delimiting, so batch bodies concatenate these) with key and
// value aliasing the parsed buffer.
func (p *parser) requestView() RequestView {
	var v RequestView
	v.Op = p.u8()
	v.Key = p.bytes16()
	switch v.Op {
	case OpGet, OpDelete:
	case OpPut:
		v.Value = p.bytes32(MaxValueLen)
	case OpScan:
		v.Limit = p.u32()
	default:
		if p.err == nil {
			p.err = ErrBadOp
		}
	}
	return v
}

// request is requestView plus the copies that make the result owning.
func (p *parser) request() Request { return p.requestView().Owned() }

// AppendResponse encodes resp for a request with opcode op.
func AppendResponse(dst []byte, op byte, resp Response) ([]byte, error) {
	dst = append(dst, resp.Status)
	if resp.Status == StatusError {
		msg := resp.Msg
		if len(msg) > MaxKeyLen {
			msg = msg[:MaxKeyLen]
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(msg)))
		return append(dst, msg...), nil
	}
	if resp.Status != StatusOK {
		return dst, nil
	}
	switch op {
	case OpGet:
		if len(resp.Value) > MaxValueLen {
			return dst, ErrValueTooLong
		}
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(resp.Value)))
		dst = append(dst, resp.Value...)
	case OpPut:
		if resp.Created {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	case OpDelete:
	case OpScan:
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(resp.Entries)))
		for _, e := range resp.Entries {
			if len(e.Key) > MaxKeyLen {
				return dst, ErrKeyTooLong
			}
			if len(e.Value) > MaxValueLen {
				return dst, ErrValueTooLong
			}
			dst = binary.BigEndian.AppendUint16(dst, uint16(len(e.Key)))
			dst = append(dst, e.Key...)
			dst = binary.BigEndian.AppendUint32(dst, uint32(len(e.Value)))
			dst = append(dst, e.Value...)
		}
	default:
		return dst, ErrBadOp
	}
	return dst, nil
}

// ResponseView is a zero-copy decoded scalar response — the client's
// mirror of RequestView: Value, Raw and Msg alias the frame body they
// were parsed from, so a view is only valid until that buffer is reused
// or returned to a pool. It is the only shape a client transport hands
// the Core, scalar frames and batch sub-responses alike; the owning
// Response exists for what a caller keeps (Owned is the one copy-out).
type ResponseView struct {
	Status  byte
	Created bool   // OpPut
	Value   []byte // OpGet hit; aliases the frame
	Msg     []byte // StatusError detail; aliases the frame
	// An OpScan's result is Scanned entries: still in wire form in Raw
	// (aliasing the frame), or — from a transport with no frame to alias,
	// in-process execution and a routed scan's merge — decoded in Entries,
	// aliasing that transport's scratch like Raw aliases a frame.
	Scanned int
	Raw     []byte
	Entries []Entry
}

// Owned returns the owning copy of v — the one copy-out a view is
// allowed, taken for whatever the caller keeps past the frame.
func (v *ResponseView) Owned() Response {
	return Response{Status: v.Status, Created: v.Created, Value: append([]byte(nil), v.Value...),
		Entries: v.entries(), Msg: string(v.Msg)}
}

// ownResponses is the copy-out of a whole frame: dst[j] (dst[at[j]] when
// at is set) becomes views[j]'s owning copy, with every hit value in one
// arena, capacity-clipped so nothing appended to one value can grow into
// the next — two allocations a frame, not one a hit.
func ownResponses(dst []Response, at []int, views []ResponseView) {
	size := 0
	for i := range views {
		size += len(views[i].Value)
	}
	var arena []byte
	if size > 0 {
		arena = make([]byte, 0, size)
	}
	for j := range views {
		v, r := &views[j], &dst[j]
		if at != nil {
			r = &dst[at[j]]
		}
		*r = Response{Status: v.Status, Created: v.Created, Entries: v.entries(), Msg: string(v.Msg)}
		if len(v.Value) > 0 {
			lo := len(arena)
			arena = append(arena, v.Value...)
			r.Value = arena[lo:len(arena):len(arena)]
		}
	}
}

// ownedBatch is a whole frame's owning copy: nil for an empty one.
func ownedBatch(views []ResponseView) []Response {
	if len(views) == 0 {
		return nil
	}
	resps := make([]Response, len(views))
	ownResponses(resps, nil, views)
	return resps
}

// entries is the owning copy of a scan view's entry list. Entries a
// transport carried decoded may alias its scratch (in process, the
// handle's scan result) just as raw ones alias a frame, so they are
// copied out too: one slice and one value arena (ownEntries). Raw
// entries are decoded without one string and one slice allocation per
// entry: the raw entry bytes are copied out twice up front — once as the
// backing string for every key, once as the backing array for every
// value — and the entries point into those two blobs. Result slices
// therefore share backing storage: retaining any single entry pins
// roughly the whole scan, which is the right trade for scan results that
// are consumed and dropped.
func (v *ResponseView) entries() []Entry {
	if v.Entries != nil || v.Scanned == 0 {
		return ownEntries(v.Entries)
	}
	keyBlob := string(v.Raw)
	valBlob := append([]byte(nil), v.Raw...)
	entries := make([]Entry, v.Scanned)
	p := parser{buf: v.Raw} // validated when the view was decoded
	for i := range entries {
		k := p.bytes16()
		val := p.bytes32(MaxValueLen)
		kStart := p.off - len(val) - 4 - len(k)
		entries[i].Key = keyBlob[kStart : kStart+len(k)]
		if len(val) > 0 {
			vStart := p.off - len(val)
			entries[i].Value = valBlob[vStart:p.off:p.off]
		}
	}
	return entries
}

// ParseResponseView decodes one response body for a request with opcode
// op without copying anything out of it, with exactly ParseResponse's
// validation.
func ParseResponseView(op byte, body []byte) (v ResponseView, err error) {
	p := parser{buf: body}
	p.responseView(op, &v)
	if err := p.finish(); err != nil {
		return ResponseView{}, err
	}
	return v, nil
}

// ParseResponse decodes one response body for a request with opcode op
// into an owning Response.
func ParseResponse(op byte, body []byte) (Response, error) {
	var v ResponseView
	p := parser{buf: body}
	p.responseView(op, &v)
	if err := p.finish(); err != nil {
		return Response{}, err
	}
	return v.Owned(), nil
}

// responseView decodes one scalar response at the cursor for a request
// with opcode op (self-delimiting, shared with the batch response
// decoder) into the zero view v, aliasing the parsed buffer. A scan's
// entries are walked — every length checked — but not materialised.
func (p *parser) responseView(op byte, v *ResponseView) {
	v.Status = p.u8()
	switch {
	case v.Status == StatusError:
		v.Msg = p.bytes16()
	case v.Status == StatusNotFound:
	case v.Status == StatusOK:
		switch op {
		case OpGet:
			v.Value = p.bytes32(MaxValueLen)
		case OpPut:
			switch flag := p.u8(); flag {
			case 0:
			case 1:
				v.Created = true
			default:
				if p.err == nil {
					p.err = fmt.Errorf("store: invalid created flag %d", flag)
				}
			}
		case OpDelete:
		case OpScan:
			n := p.u32()
			lo := p.off
			for i := uint32(0); i < n && p.err == nil; i++ {
				p.bytes16()
				p.bytes32(MaxValueLen)
			}
			if p.err == nil {
				v.Scanned, v.Raw = int(n), p.buf[lo:p.off]
			}
		default:
			if p.err == nil {
				p.err = ErrBadOp
			}
		}
	default:
		if p.err == nil {
			p.err = fmt.Errorf("store: unknown status %d", v.Status)
		}
	}
}

// parser is a cursor over a message body; the first failure sticks and
// every later read returns zero values.
type parser struct {
	buf []byte
	off int
	err error
}

func (p *parser) take(n int) []byte {
	if p.err != nil {
		return nil
	}
	if n < 0 || len(p.buf)-p.off < n {
		p.err = ErrTruncated
		return nil
	}
	b := p.buf[p.off : p.off+n]
	p.off += n
	return b
}

func (p *parser) u8() byte {
	b := p.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (p *parser) u16() uint16 {
	b := p.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (p *parser) u32() uint32 {
	b := p.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// bytes16 reads a uint16-prefixed byte string.
func (p *parser) bytes16() []byte { return p.take(int(p.u16())) }

// bytes32 reads a uint32-prefixed byte string bounded by max.
func (p *parser) bytes32(max int) []byte {
	n := p.u32()
	if p.err == nil && n > uint32(max) {
		p.err = ErrValueTooLong
		return nil
	}
	return p.take(int(n))
}

// finish reports the sticky error, or trailing garbage.
func (p *parser) finish() error {
	if p.err != nil {
		return p.err
	}
	if p.off != len(p.buf) {
		return ErrTrailingBytes
	}
	return nil
}
