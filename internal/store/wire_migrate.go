package store

import "errors"

// The forwarding frame of the wire protocol: it carries a point op
// across an ownership flip, from a node that no longer (or does not yet)
// own the key to the node that does.
//
//	OpForward    op uint8, hops uint8, inner scalar request body
//	response:    the inner op's plain scalar response
//
// hops bounds re-forwarding so routing disagreements cannot loop. Like
// the batch frames, the parser is strict and canonical: anything that
// parses re-encodes byte-identically.

// OpForward wraps a point op routed on behalf of another node (the
// batch opcodes are 5..8 in wire_batch.go).
const OpForward byte = OpTagged + 1

// MaxForwardHops bounds re-forwarding of one op. Forwarding re-reads
// the shared ring at every hop, so two hops settle any single resize;
// the cap only exists to turn a routing bug into an error instead of a
// loop.
const MaxForwardHops = 8

// Forwarding wire-format errors.
var (
	ErrForwardOp = errors.New("store: forwarded op must be a point op")
	ErrHopLimit  = errors.New("store: forward hop limit exceeded")
)

// MigrateRequest is one decoded forwarding request: the point op Inner,
// which has taken Hops forwarding hops so far.
type MigrateRequest struct {
	Op    byte    // OpForward
	Hops  byte    // hops taken so far
	Inner Request // the forwarded point op
}

// isPointOp reports whether op may be forwarded.
func isPointOp(op byte) bool { return op == OpGet || op == OpPut || op == OpDelete }

// AppendMigrateRequest encodes req onto dst.
func AppendMigrateRequest(dst []byte, req MigrateRequest) ([]byte, error) {
	dst = append(dst, req.Op)
	switch {
	case req.Op != OpForward:
		return dst, ErrBadOp
	case req.Hops > MaxForwardHops:
		return dst, ErrHopLimit
	case !isPointOp(req.Inner.Op):
		return dst, ErrForwardOp
	}
	dst = append(dst, req.Hops)
	return AppendRequest(dst, req.Inner)
}

// ParseMigrateRequest decodes one forwarding request body, rejecting
// other opcodes, a hop count over the cap, a non-point inner op,
// truncation and trailing garbage.
func ParseMigrateRequest(body []byte) (MigrateRequest, error) {
	p := parser{buf: body}
	var req MigrateRequest
	req.Op = p.u8()
	if p.err == nil && req.Op != OpForward {
		p.err = ErrBadOp
	}
	req.Hops = p.u8()
	if p.err == nil && req.Hops > MaxForwardHops {
		p.err = ErrHopLimit
	}
	req.Inner = p.request()
	if p.err == nil && !isPointOp(req.Inner.Op) {
		p.err = ErrForwardOp
	}
	if err := p.finish(); err != nil {
		return MigrateRequest{}, err
	}
	return req, nil
}
