package store

import (
	"fmt"

	"ssync/internal/workload"
)

// One client core, four transports. A connection kind is a transport:
// one function, Start, that begins a request group — a single Request
// (a scalar frame) or a Batch (one batch frame) — and returns a Reply
// holding either the finished responses or the Flight still carrying
// them. The in-process LocalConn and the lock-step Client resolve a
// group before Start returns; the windowed AsyncClient puts one frame in
// flight; the routed cluster.Client splits a group per ring owner over
// windowed connections. Everything above Start is written once, here:
// the blocking surface with its chunking and overflow refetch, Issue,
// the outcome tally and the server-error wrap.

// Reply is what Start returns: the group's responses when the transport
// resolved it at start, else the Flight to gather them from.
type Reply struct {
	Resp   Response   // a single Request's response
	Resps  []Response // a Batch's sub-responses, in request order
	Err    error
	Flight *Flight
}

// Flight is a started group still on the wire: the frames it went out
// as, each with the future its responses arrive on.
type Flight struct {
	Frames []Frame
	// Merge folds a fanned-out scan's per-member shares (in frame order)
	// into one sorted, limit-trimmed result. Routed transports set it.
	Merge func(shares [][]Entry, limit int) []Entry

	// Set by Issue, whose tally runs at Wait: who refetches a degraded
	// sub-response, and the requests to refetch from.
	core *Core
	reqs []Request
}

// Frame is one request frame of a Flight.
type Frame struct {
	Fut *Future
	// At[j] is the group position the frame's response j answers; nil
	// when the frame is the whole group, in order.
	At []int
	// Fan > 0 marks a scan fanned out to Fan members: this frame and the
	// Fan-1 after it each carry one member's share of the scan at At[0],
	// trimmed to Limit once merged.
	Fan, Limit int
}

func (fr Frame) at(j int) int {
	if fr.At == nil {
		return j
	}
	return fr.At[j]
}

// gather waits for the flight's frames in order and yields every
// response with its group position, its request's opcode and its scan
// entry count, stopping at the first error. With countOnly a fanned-out
// scan yields the entry count its merge would have, without merging.
func (fl *Flight) gather(countOnly bool, yield func(at int, op byte, r Response, scanned int) error) error {
	for i := 0; i < len(fl.Frames); i++ {
		fr := fl.Frames[i]
		if fr.Fan > 0 {
			r, n, err := fl.fanIn(fl.Frames[i:i+fr.Fan], countOnly)
			if err == nil {
				err = yield(fr.at(0), OpScan, r, n)
			}
			if err != nil {
				return err
			}
			i += fr.Fan - 1
			continue
		}
		resps, err := fr.Fut.WaitBatch()
		if err != nil {
			return err
		}
		for j, r := range resps {
			if err := yield(fr.at(j), fr.Fut.opAt(j), r, len(r.Entries)); err != nil {
				return err
			}
		}
	}
	return nil
}

// fanIn folds one fanned-out scan: the merged response, or with
// countOnly just min(sum of shares, limit) — what the merge would
// return unless a resize's copy window holds a moving key twice; a
// statistic, not an answer.
func (fl *Flight) fanIn(frames []Frame, countOnly bool) (Response, int, error) {
	var shares [][]Entry
	if !countOnly {
		shares = make([][]Entry, 0, len(frames))
	}
	n, limit := 0, frames[0].Limit
	for _, fr := range frames {
		r, err := fr.Fut.Wait()
		if err != nil {
			return Response{}, 0, err
		}
		n += len(r.Entries)
		if !countOnly {
			shares = append(shares, r.Entries)
		}
	}
	if countOnly {
		if limit > 0 && n > limit {
			n = limit
		}
		return Response{Status: StatusOK}, n, nil
	}
	entries := fl.Merge(shares, limit)
	return Response{Status: StatusOK, Entries: entries}, len(entries), nil
}

// Core is the client surface every connection kind shares, written over
// its transport's Start: the blocking seven (Get, Put, Delete, Scan,
// ExecBatch, MGet, MPut) and the workload engine's Issue. Connection
// types embed it. It holds no state of its own, so it is as safe for
// concurrent use as the transport underneath.
type Core struct {
	start func(req Request, b Batch) Reply
}

// NewCore builds the surface over a transport's Start. Start gets a
// single request (b.Op == 0) or one batch, never both.
func NewCore(start func(req Request, b Batch) Reply) Core { return Core{start: start} }

// serverErr is the error a StatusError response stands for (nil for any
// other status): the one place a server's message becomes a Go error.
func serverErr(status byte, msg string) error {
	if status != StatusError {
		return nil
	}
	return fmt.Errorf("store: server error: %s", msg)
}

// roundTrip runs one request to completion; a StatusError response
// surfaces as an error.
func (c *Core) roundTrip(req Request) (Response, error) {
	rep := c.start(req, Batch{})
	if rep.Flight != nil {
		rep.Err = rep.Flight.gather(false, func(_ int, _ byte, r Response, _ int) error {
			rep.Resp = r
			return nil
		})
	}
	if rep.Err != nil {
		return Response{}, rep.Err
	}
	return c.settle(nil, 0, rep.Resp)
}

// finish awaits a started batch: resps[i] answers b.Reqs[i].
func finish(rep Reply, b Batch) ([]Response, error) {
	fl := rep.Flight
	if fl == nil {
		return rep.Resps, rep.Err
	}
	if len(fl.Frames) == 1 && fl.Frames[0].At == nil && fl.Frames[0].Fan == 0 {
		return fl.Frames[0].Fut.WaitBatch() // one frame carried the whole group
	}
	resps := make([]Response, len(b.Reqs))
	if err := fl.gather(false, func(at int, _ byte, r Response, _ int) error {
		resps[at] = r
		return nil
	}); err != nil {
		return nil, err
	}
	return resps, nil
}

// settle passes a response through unless it is a StatusError, which it
// turns into an error — except for a batch sub-response the server
// degraded to keep the batch under the frame bound (MsgBatchOverflow):
// that request runs again on its own, since a single value always fits a
// frame. reqs is nil for a group of one, which is never degraded.
func (c *Core) settle(reqs []Request, at int, r Response) (Response, error) {
	switch {
	case r.Status != StatusError:
		return r, nil
	case reqs == nil:
		return Response{}, serverErr(r.Status, r.Msg)
	case r.Msg != MsgBatchOverflow:
		return Response{}, fmt.Errorf("store: batch[%d]: %w", at, serverErr(r.Status, r.Msg))
	}
	r, err := c.roundTrip(reqs[at])
	if err != nil {
		return Response{}, fmt.Errorf("store: batch[%d]: overflow refetch: %w", at, err)
	}
	return r, nil
}

// Get fetches the value under key.
func (c *Core) Get(key string) ([]byte, bool, error) {
	resp, err := c.roundTrip(Request{Op: OpGet, Key: key})
	return resp.Value, err == nil && resp.Status == StatusOK, err
}

// Put stores value under key; it reports whether the key was newly
// inserted.
func (c *Core) Put(key string, value []byte) (bool, error) {
	resp, err := c.roundTrip(Request{Op: OpPut, Key: key, Value: value})
	return resp.Created, err
}

// Delete removes key; it reports whether the key was present.
func (c *Core) Delete(key string) (bool, error) {
	resp, err := c.roundTrip(Request{Op: OpDelete, Key: key})
	return err == nil && resp.Status == StatusOK, err
}

// Scan returns up to limit entries with the given key prefix, sorted by
// key (limit 0 = unlimited, subject to the frame bound). A routed
// connection fans the scan out to every member and merges.
func (c *Core) Scan(prefix string, limit int) ([]Entry, error) {
	resp, err := c.roundTrip(scanRequest(prefix, limit))
	return resp.Entries, err
}

func scanRequest(prefix string, limit int) Request {
	return Request{Op: OpScan, Key: prefix, Limit: uint32(max(limit, 0))}
}

// ExecBatch executes a mixed batch as one group — one frame and one
// round trip on a wire connection, one frame per owning node on a routed
// one, and server-side one shard-lock acquisition per touched shard —
// and returns resps[i] for reqs[i]. Sub-ops that fail individually come
// back as StatusError responses rather than an error. One frame per
// connection is the contract: an encoded batch larger than MaxFrame
// fails with ErrFrameTooLarge (MGet and MPut chunk instead).
func (c *Core) ExecBatch(reqs []Request) ([]Response, error) {
	b := Batch{Op: OpBatch, Reqs: reqs}
	return finish(c.start(Request{}, b), b)
}

// started is one batch on the wire (or already answered) and the reply
// its Start gave.
type started struct {
	b   Batch
	rep Reply
}

// startChunks starts one batch per chunk, every one before any is
// awaited, so they overlap on a pipelined transport.
func startChunks[T any](c *Core, chunks [][]T, batch func([]T) Batch) []started {
	sts := make([]started, len(chunks))
	for i, chunk := range chunks {
		b := batch(chunk)
		sts[i] = started{b, c.start(Request{}, b)}
	}
	return sts
}

// settleAll awaits the batches in order and hands each sub-response,
// settled, to each.
func (c *Core) settleAll(sts []started, each func(r Response)) error {
	for _, st := range sts {
		resps, err := finish(st.rep, st.b)
		if err != nil {
			return err
		}
		for j, r := range resps {
			if r, err = c.settle(st.b.Reqs, j, r); err != nil {
				return err
			}
			each(r)
		}
	}
	return nil
}

// MGet fetches many keys, chunked under the frame and count bounds like
// MPut. values[i] is nil when keys[i] is absent and non-nil — empty for
// an empty value — when it is present. A multi-get whose values sum past
// MaxFrame still succeeds: the server degrades the sub-responses that do
// not fit and settle refetches those keys one by one.
func (c *Core) MGet(keys []string) ([][]byte, error) {
	vals := make([][]byte, 0, len(keys))
	err := c.settleAll(startChunks(c, mgetChunks(keys), MGetBatch), func(r Response) {
		switch {
		case r.Status != StatusOK:
			vals = append(vals, nil)
		case r.Value == nil:
			vals = append(vals, []byte{}) // present: not the nil that says absent
		default:
			vals = append(vals, r.Value)
		}
	})
	if err != nil {
		return nil, err
	}
	return vals, nil
}

// MPut stores many entries, chunked so every request frame stays under
// MaxFrame; it reports how many were newly inserted.
func (c *Core) MPut(entries []Entry) (created int, err error) {
	err = c.settleAll(startChunks(c, mputChunks(entries), MPutBatch), func(r Response) {
		if r.Created {
			created++
		}
	})
	return created, err
}

// mputChunks splits entries so each chunk's encoded multi-put request
// stays under the frame bound with headroom (and under MaxBatchOps) —
// every entry is individually legal on the wire, so a multi-put of any
// total size succeeds, it just costs more frames past ~4MB.
func mputChunks(entries []Entry) [][]Entry {
	return chunkBy(entries, func(e Entry) int { return 2 + len(e.Key) + 4 + len(e.Value) })
}

// mgetChunks does the same for multi-get keys (here the count cap is
// the bound that usually binds; key bytes rarely approach a frame).
func mgetChunks(keys []string) [][]string {
	return chunkBy(keys, func(k string) int { return 2 + len(k) })
}

// chunkBy splits items greedily so each chunk holds at most MaxBatchOps
// items whose encoded sizes sum under the frame budget. An empty input
// still yields one empty chunk (one frame goes out either way).
func chunkBy[T any](items []T, size func(T) int) [][]T {
	const budget = MaxFrame - 1024
	var chunks [][]T
	start, sum := 0, 0
	for i, it := range items {
		sz := size(it)
		if i > start && (sum+sz > budget || i-start == MaxBatchOps) {
			chunks = append(chunks, items[start:i])
			start, sum = i, 0
		}
		sum += sz
	}
	if start < len(items) || len(items) == 0 {
		chunks = append(chunks, items[start:])
	}
	return chunks
}

// Issue starts one op group for the workload engine: a single op as a
// scalar request, several as one batch. On a transport that resolves at
// start the returned Pending already holds the tally; otherwise it holds
// the flight, and Wait gathers and tallies it.
func (c *Core) Issue(ops []workload.Op) workload.Pending {
	var req Request
	var b Batch
	if len(ops) == 1 {
		req.from(&ops[0])
	} else {
		b = Batch{Op: OpBatch, Reqs: make([]Request, len(ops))}
		for i := range ops {
			b.Reqs[i].from(&ops[i])
		}
	}
	rep := c.start(req, b)
	if fl := rep.Flight; fl != nil {
		fl.core, fl.reqs = c, b.Reqs
		return &pending{fl: fl}
	}
	var out workload.Outcome
	err := rep.Err
	switch {
	case err != nil:
	case b.Op == 0:
		err = c.tally(&out, nil, 0, req.Op, &rep.Resp, len(rep.Resp.Entries))
	default:
		for i := 0; i < len(rep.Resps) && err == nil; i++ {
			err = c.tally(&out, b.Reqs, i, b.Reqs[i].Op, &rep.Resps[i], len(rep.Resps[i].Entries))
		}
	}
	return &pending{out: out, err: err}
}

// from sets r to the wire request for one workload op. It fills r in
// place: Issue runs it once per op on the engine-hot path, where building
// the request and then copying it into the group's slice showed.
func (r *Request) from(op *workload.Op) {
	switch op.Kind {
	case workload.KindGet:
		*r = Request{Op: OpGet, Key: op.Key}
	case workload.KindPut:
		*r = Request{Op: OpPut, Key: op.Key, Value: op.Value}
	case workload.KindDelete:
		*r = Request{Op: OpDelete, Key: op.Key}
	default:
		*r = scanRequest(op.Key, op.Limit)
	}
}

// pending is the one workload.Pending: a group resolved at start carries
// its finished tally, any other the flight Wait tallies.
type pending struct {
	out workload.Outcome
	err error
	fl  *Flight
}

// Wait implements workload.Pending.
func (p *pending) Wait() (workload.Outcome, error) {
	if fl := p.fl; fl != nil {
		p.fl = nil
		p.err = fl.gather(true, func(at int, op byte, r Response, scanned int) error {
			return fl.core.tally(&p.out, fl.reqs, at, op, &r, scanned)
		})
	}
	return p.out, p.err
}

// tally counts one answered request into out — the one place responses
// become an Outcome. A failed request returns its error and is not
// counted.
func (c *Core) tally(out *workload.Outcome, reqs []Request, at int, op byte, r *Response, scanned int) error {
	if r.Status == StatusError {
		settled, err := c.settle(reqs, at, *r)
		if err != nil {
			return err
		}
		r, scanned = &settled, len(settled.Entries)
	}
	out.Ops++
	switch op {
	case OpGet:
		if r.Status == StatusOK {
			out.Hits++
		} else {
			out.Misses++
		}
	case OpPut:
		if r.Created {
			out.Created++
		}
	case OpScan:
		out.Scanned += uint64(scanned)
	}
	return nil
}
