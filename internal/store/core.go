package store

import (
	"fmt"
	"slices"
	"sync"

	"ssync/internal/workload"
)

// One client core, four transports. A connection kind is a transport:
// one function, Start, that begins a request group — a single Request
// (a scalar frame) or a Batch (one batch frame) — and returns a Reply
// holding either the group's responses or the Flight still carrying
// them — the flight Start was handed, filled, or a new one when it was
// handed none. The in-process LocalConn and the lock-step Client resolve
// a group before Start returns; the windowed AsyncClient puts one frame
// in flight; the routed cluster.Client splits a group per ring owner
// over windowed connections. Everything above Start is written once, here:
// the blocking surface with its chunking and overflow refetch, Issue,
// the outcome tally and the server-error wrap.
//
// Every transport hands the Core views (ResponseView), never owning
// responses: they alias the transport's read buffer, the handle's arena
// or the response frame a Future owns. The Core is the one place a
// response is copied out — once per frame for the blocking surface,
// whose results are the caller's to keep, and not at all for Issue,
// whose tally reads statuses and counts off the views.

// Reply is what Start returns: the group's responses when the transport
// resolved it at start, else the Flight to gather them from.
type Reply struct {
	// Views answers the group's requests in order (one view for a single
	// Request). It aliases the transport's own buffers: valid until that
	// transport's next Start.
	Views  []ResponseView
	Err    error
	Flight *Flight
}

// Flight is a started group still on the wire: the frames it went out
// as, each holding the future its responses arrive on. Issue hands
// Start a recycled one, whose arrays keep their capacity and whose
// every element is zero; the blocking surface hands it nil.
type Flight struct {
	Frames []Frame
	// Merge folds a fanned-out scan's per-member shares (in frame order)
	// into one sorted, limit-trimmed result. Routed transports set it.
	Merge func(shares [][]Entry, limit int) []Entry
	// Order and Sub are the storage a routed transport splits a group
	// into: the group positions its frames answer, frame by frame (each
	// Frame.At slices Order), and the point requests in that order (each
	// frame's sub-batch slices Sub).
	Order []int
	Sub   []Request

	// Set by Issue, whose tally runs at Wait: who refetches a degraded
	// sub-response, and the requests to refetch from.
	core *Core
	reqs []Request
}

// Ready readies fl to carry n frames and returns it: a recycled flight
// reuses its frame array, whose frames are zero; a nil one — the
// blocking surface's — is allocated.
func (fl *Flight) Ready(n int) *Flight {
	if fl == nil {
		fl = new(Flight)
	}
	fl.Frames = slices.Grow(fl.Frames[:0], n)[:n]
	return fl
}

// Frame is one request frame of a Flight. It holds its Future, which the
// connection's reader resolves in place: a Frame is filled where it
// lies (AsyncClient.Submit into &frame.Fut) and never copied or moved
// afterwards. A recycled flight zeroes its frames in place once every
// future has been awaited.
type Frame struct {
	Fut Future
	// At[j] is the group position the frame's response j answers; nil
	// when the frame is the whole group, in order.
	At []int
	// Fan > 0 marks a scan fanned out to Fan members: this frame and the
	// Fan-1 after it each carry one member's share of the scan at At[0],
	// trimmed to Limit once merged.
	Fan, Limit int
}

// viewPool recycles the slices gather decodes frames into. A flight is
// awaited on whatever goroutine calls Wait, so the scratch cannot live
// on the connection; a decoded view never outlives the yield it is
// handed to, so it need not live on the flight either.
var viewPool = sync.Pool{New: func() any { return new([]ResponseView) }}

// gather waits for the flight's frames in order, decodes each response
// frame — on this, the waiter's, goroutine — and yields its views with
// the frame they answer, stopping at the first error. The views alias
// the frame the future owns, which goes back to its pool when yield
// returns. A fanned-out scan is yielded as one merged view under its
// first frame; with countOnly it carries only the entry count the merge
// would have, without merging.
func (fl *Flight) gather(countOnly bool, yield func(fr *Frame, views []ResponseView) error) error {
	vp := viewPool.Get().(*[]ResponseView)
	defer viewPool.Put(vp)
	for i := 0; i < len(fl.Frames); i++ {
		fr := &fl.Frames[i]
		if fr.Fan > 0 {
			merged, err := fl.fanIn(fl.Frames[i:i+fr.Fan], countOnly, (*vp)[:0])
			if err != nil {
				return err
			}
			*vp = append((*vp)[:0], merged)
			err = yield(fr, *vp)
			(*vp)[0] = ResponseView{} // the pool must not pin a merged scan
			if err != nil {
				return err
			}
			i += fr.Fan - 1
			continue
		}
		views, err := fr.Fut.await((*vp)[:0])
		if err != nil {
			return err
		}
		*vp = views
		err = yield(fr, views)
		fr.Fut.release()
		if err != nil {
			return err
		}
	}
	return nil
}

// fanIn folds one fanned-out scan into a view: the merged entries, or
// with countOnly just min(sum of shares, limit) — what the merge would
// return unless a resize's copy window holds a moving key twice; a
// statistic, not an answer.
func (fl *Flight) fanIn(frames []Frame, countOnly bool, scratch []ResponseView) (ResponseView, error) {
	var shares [][]Entry
	if !countOnly {
		shares = make([][]Entry, 0, len(frames))
	}
	n, limit := 0, frames[0].Limit
	for i := range frames {
		f := &frames[i].Fut
		views, err := f.await(scratch)
		if err != nil {
			return ResponseView{}, err
		}
		share := &views[0]
		if err = share.err(); err == nil {
			n += share.Scanned
			if !countOnly {
				shares = append(shares, share.entries())
			}
		}
		f.release()
		if err != nil {
			return ResponseView{}, err
		}
	}
	if countOnly {
		if limit > 0 && n > limit {
			n = limit
		}
		return ResponseView{Status: StatusOK, Scanned: n}, nil
	}
	entries := fl.Merge(shares, limit)
	return ResponseView{Status: StatusOK, Scanned: len(entries), Entries: entries}, nil
}

// replyViews decodes one response frame body into dst[:0] — the one
// decode every wire transport runs: a batch's sub-responses against the
// requests it was sent with, or a single request's one response.
func replyViews(batch bool, op byte, reqs []Request, body []byte, dst []ResponseView) ([]ResponseView, error) {
	if !batch {
		dst = append(dst[:0], ResponseView{})
		p := parser{buf: body}
		p.responseView(op, &dst[0])
		if err := p.finish(); err != nil {
			return dst[:0], err
		}
		return dst, nil
	}
	views, err := batchResponseViews(subOps{reqs: reqs}, body, dst)
	if err != nil {
		// A reject of a batch carries a scalar error body, not a batch
		// body: recover the server's message rather than reporting it as
		// stream corruption.
		if v, perr := ParseResponseView(0, body); perr == nil && v.Status == StatusError {
			err = v.err()
		}
	}
	return views, err
}

// Core is the client surface every connection kind shares, written over
// its transport's Start: the blocking seven (Get, Put, Delete, Scan,
// ExecBatch, MGet, MPut) and the workload engine's Issue. Connection
// types embed it. It holds no state of its own, so it is as safe for
// concurrent use as the transport underneath.
type Core struct {
	start func(fl *Flight, req Request, b Batch) Reply
}

// NewCore builds the surface over a transport's Start. Start gets a
// single request (b.Op == 0) or one batch, never both. A transport that
// leaves the group in flight fills fl — fl.Ready(n) — and returns it as
// Reply.Flight; with fl nil, Ready allocates one.
func NewCore(start func(fl *Flight, req Request, b Batch) Reply) Core { return Core{start: start} }

// serverErr is the error a StatusError response stands for (nil for any
// other status): the one place a server's message becomes a Go error.
func serverErr(status byte, msg string) error {
	if status != StatusError {
		return nil
	}
	return fmt.Errorf("store: server error: %s", msg)
}

func (v *ResponseView) err() error {
	if v.Status != StatusError {
		return nil
	}
	return serverErr(v.Status, string(v.Msg))
}

// roundTrip runs one request to completion and returns its response,
// copied out; a StatusError response surfaces as an error.
func (c *Core) roundTrip(req Request) (resp Response, err error) {
	own := func(_ *Frame, views []ResponseView) error {
		if err := views[0].err(); err != nil {
			return err
		}
		resp = views[0].Owned()
		return nil
	}
	rep := c.start(nil, req, Batch{})
	switch {
	case rep.Flight != nil:
		err = rep.Flight.gather(false, own)
	case rep.Err != nil:
		err = rep.Err
	default:
		err = own(nil, rep.Views)
	}
	return resp, err
}

// started is one batch begun for the blocking surface: the flight it is
// on, or — from a transport that resolved it at start, whose views die
// at its next Start — the responses, already copied out.
type started struct {
	b     Batch
	resps []Response
	err   error
	fl    *Flight
}

func (c *Core) begin(b Batch) started {
	rep := c.start(nil, Request{}, b)
	st := started{b: b, err: rep.Err, fl: rep.Flight}
	if st.fl == nil && st.err == nil {
		st.resps = ownedBatch(rep.Views)
	}
	return st
}

// finish awaits the batch: resps[i] answers b.Reqs[i], copied out frame
// by frame — the group's one slice, and one value arena per frame.
func (st *started) finish() ([]Response, error) {
	if st.fl == nil {
		return st.resps, st.err
	}
	resps := make([]Response, len(st.b.Reqs))
	if err := st.fl.gather(false, func(fr *Frame, views []ResponseView) error {
		ownResponses(resps, fr.At, views)
		return nil
	}); err != nil {
		return nil, err
	}
	return resps, nil
}

// settle passes a batch's sub-response through unless it is a
// StatusError, which it turns into an error — except for one the server
// degraded to keep the batch under the frame bound (MsgBatchOverflow):
// that request runs again on its own, since a single value always fits a
// frame.
func (c *Core) settle(reqs []Request, at int, r Response) (Response, error) {
	switch {
	case r.Status != StatusError:
		return r, nil
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
	st := c.begin(Batch{Op: OpBatch, Reqs: reqs})
	return st.finish()
}

// startChunks starts one batch per chunk, every one before any is
// awaited, so they overlap on a pipelined transport.
func startChunks[T any](c *Core, chunks [][]T, batch func([]T) Batch) []started {
	sts := make([]started, len(chunks))
	for i, chunk := range chunks {
		sts[i] = c.begin(batch(chunk))
	}
	return sts
}

// settleAll awaits the batches in order and hands each sub-response,
// settled, to each.
func (c *Core) settleAll(sts []started, each func(r Response)) error {
	for i := range sts {
		resps, err := sts[i].finish()
		if err != nil {
			return err
		}
		for j, r := range resps {
			if r, err = c.settle(sts[i].b.Reqs, j, r); err != nil {
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
// the flight, and Wait gathers and tallies it. Either way the tally
// reads the views and copies nothing out of them. The group's whole
// state — the pending, its requests and its flight — comes from
// groupPool, and allocates nothing once the pool is warm.
//
//ssync:pooled the state is the returned Pending's until its Wait succeeds, which puts it back
func (c *Core) Issue(ops []workload.Op) workload.Pending {
	g := groupPool.Get().(*group)
	var req Request
	var b Batch
	if len(ops) == 1 {
		req.from(&ops[0])
	} else {
		g.reqs = slices.Grow(g.reqs[:0], len(ops))[:len(ops)]
		for i := range ops {
			g.reqs[i].from(&ops[i])
		}
		b = Batch{Op: OpBatch, Reqs: g.reqs}
	}
	rep := c.start(&g.fl, req, b)
	switch {
	case rep.Flight != nil:
		g.fl.core, g.fl.reqs = c, b.Reqs
	case rep.Err != nil:
		g.err = rep.Err
	default:
		g.err = c.tally(&g.out, b.Reqs, req.Op, nil, rep.Views)
	}
	return &g.pending
}

// from sets r to the wire request for one workload op. It fills r in
// place: Issue runs it once per op on the engine-hot path, where building
// the request and then copying it into the group's slice showed. An
// unknown kind becomes a request with the zero opcode, which every
// transport refuses (ErrBadOp alone, ErrBatchOp in a group), so its
// group's Wait fails instead of running something else.
func (r *Request) from(op *workload.Op) {
	switch op.Kind {
	case workload.KindGet:
		*r = Request{Op: OpGet, Key: op.Key}
	case workload.KindPut:
		*r = Request{Op: OpPut, Key: op.Key, Value: op.Value}
	case workload.KindDelete:
		*r = Request{Op: OpDelete, Key: op.Key}
	case workload.KindScan:
		*r = scanRequest(op.Key, op.Limit)
	default:
		*r = Request{Key: op.Key}
	}
}

// pending is the one workload.Pending: a group resolved at start carries
// its finished tally, any other its flight (g.fl, with its core set),
// which Wait tallies. It is dead once Wait returns.
type pending struct {
	out workload.Outcome
	err error
	g   *group
}

// group is one op group's whole state, recycled through groupPool: the
// pending Issue returns, the group's request slice and the flight its
// transport fills, every array kept with its capacity. The pending owns
// it from Issue to the end of a successful Wait, which zeroes it and
// puts it back. A failed group is left to the collector instead: gather
// stops at the first error, and the connection's reader or shutdown may
// still resolve the group's later futures.
type group struct {
	pending
	reqs []Request
	fl   Flight
}

var groupPool = sync.Pool{New: func() any {
	g := new(group)
	g.g = g
	return g
}}

// release zeroes g in place — frames, futures and all, every reference
// to the caller's keys, values and response frames dropped — and puts it
// back in the pool. Every future of the flight has been awaited and
// released, so no reader or waiter touches the frames any more.
func (g *group) release() {
	fl := &g.fl
	clear(g.reqs)
	clear(fl.Frames)
	clear(fl.Sub)
	g.reqs = g.reqs[:0]
	*fl = Flight{Frames: fl.Frames[:0], Order: fl.Order[:0], Sub: fl.Sub[:0]}
	g.out = workload.Outcome{}
	groupPool.Put(g)
}

// Wait implements workload.Pending.
func (p *pending) Wait() (workload.Outcome, error) {
	g := p.g
	if fl := &g.fl; fl.core != nil {
		p.err = fl.gather(true, func(fr *Frame, views []ResponseView) error {
			return fl.core.tally(&p.out, fl.reqs, fr.Fut.op, fr.At, views)
		})
	}
	out, err := p.out, p.err
	if err == nil {
		g.release()
	}
	return out, err
}

// tally counts one frame's answers into out — the one place responses
// become an Outcome, read off the views with nothing copied. views[j]
// answers reqs[at[j]] (reqs[j] with at nil), or a group of one's lone
// request, whose opcode is one, when reqs is nil. A failed request
// returns its error and is not counted. A sub-response the server
// degraded (MsgBatchOverflow, recognised in the frame's bytes) is
// refetched through settle after the frame's other views have been
// read: the refetch is another Start, and on a transport that resolves
// at start that is the end of these views.
func (c *Core) tally(out *workload.Outcome, reqs []Request, one byte, at []int, views []ResponseView) error {
	var refetch []int
	for j := range views {
		v, pos, op := &views[j], j, one
		if at != nil {
			pos = at[j]
		}
		if reqs != nil {
			op = reqs[pos].Op
		}
		switch {
		case v.Status != StatusError:
			count(out, op, v.Status == StatusOK, v.Created, v.Scanned)
		case reqs == nil:
			return v.err()
		case string(v.Msg) == MsgBatchOverflow:
			refetch = append(refetch, pos)
		default:
			_, err := c.settle(reqs, pos, Response{Status: StatusError, Msg: string(v.Msg)})
			return err
		}
	}
	for _, pos := range refetch {
		r, err := c.settle(reqs, pos, Response{Status: StatusError, Msg: MsgBatchOverflow})
		if err != nil {
			return err
		}
		count(out, reqs[pos].Op, r.Status == StatusOK, r.Created, len(r.Entries))
	}
	return nil
}

// count adds one answered request to out.
func count(out *workload.Outcome, op byte, ok, created bool, scanned int) {
	out.Ops++
	switch op {
	case OpGet:
		if ok {
			out.Hits++
		} else {
			out.Misses++
		}
	case OpPut:
		if created {
			out.Created++
		}
	case OpScan:
		out.Scanned += uint64(scanned)
	}
}
