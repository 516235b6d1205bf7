package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"ssync/internal/cluster"
	"ssync/internal/locks"
	"ssync/internal/store"
	"ssync/internal/workload"
)

// tracer is one traced run: the workload replayed with one client and a
// fixed op count, so every count repeats for a seed, and every layer's
// public functions timed from outside over that same stream. Each replay
// starts from a freshly preloaded system, so the reference model's
// expectations hold for all of them.
type tracer struct {
	sp     spec
	cfg    config
	log    *spanLog
	stream []sop
	expect []workload.Outcome
	res    *result
}

func (t *tracer) add(name string, value float64, unit string) {
	t.res.Metrics = append(t.res.Metrics, metric{name, value, unit})
}

// fail books n failed ops and keeps the first reason.
func (t *tracer) fail(n uint64, err error) {
	t.res.Failed += n
	if t.res.Err == nil {
		t.res.Err = err
	}
}

// runTrace produces the per-layer metrics for one workload.
func runTrace(sp spec, cfg config) (result, error) {
	runtime.GOMAXPROCS(cfg.Clients)
	res := result{Workload: sp.Name}
	groups := cfg.TraceOps / sp.Group
	t := &tracer{sp: sp, cfg: cfg, log: newSpanLog(4 * groups), res: &res}
	cal := newCalibrator(cfg.Clients)
	index := []float64{cal.measure().Index}
	cpuBefore := readCPUStat()

	// workload: the generator alone.
	gen := t.liveGen()
	t.stream = make([]sop, groups*sp.Group)
	d := t.log.phase("workload.gen", func() {
		for i := range t.stream {
			t.stream[i] = gen.next()
		}
	})
	t.expect = expectGroups(t.stream, sp.Keys, sp.Group)
	t.add("workload.gen_ns_per_op", perOp(d, len(t.stream)), "ns/op")

	steps := []func() error{t.ownSeam, t.wire, t.engines, t.ladder}
	for _, step := range steps {
		if err := step(); err != nil {
			return res, err
		}
		index = append(index, cal.measure().Index)
	}
	t.locks()

	t.add("host.speed_index", median(index), "ratio")
	t.add("host.speed_index_cv", cv(index), "ratio")
	t.add("host.steal_pct", stealPct(cpuBefore, readCPUStat()), "%")
	t.log.end(spanRoot)
	t.add("trace.spans", float64(len(t.log.spans)), "count")
	if cfg.TraceOut != "" {
		if err := t.log.write(cfg.TraceOut, sp.Name); err != nil {
			return res, fmt.Errorf("writing spans: %w", err)
		}
	}
	return res, nil
}

func perOp(d time.Duration, ops int) float64 { return ratio(float64(d.Nanoseconds()), float64(ops)) }

// ratio is num/den, and 0 where there is nothing to divide by: a count
// the workload never produces.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// replayed is what one single-client replay measured.
type replayed struct {
	ops     int
	wall    time.Duration
	mallocs uint64
	gcs     uint32
	gcPause uint64
	hist    *histogram
}

func (r replayed) kops() float64 { return float64(r.ops) / r.wall.Seconds() / 1e3 }

// replay builds sp's system, drives ops ops from gen through one client,
// checking every group against the reference model, and tears it down.
// before and after, when set, see the system just before the replay and
// just after it, ahead of teardown.
func (t *tracer) replay(sp spec, label string, gen *generator, ops int, spans *spanLog, before, after func(*system)) (replayed, error) {
	sys, err := setUp(sp, 1)
	if err != nil {
		return replayed{}, err
	}
	defer sys.close()
	c := newClient(sys, sys.conns[0], gen, time.Now())
	c.expect, c.spans = t.expect, spans
	if before != nil {
		before(sys)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	wall := t.log.phase(label, func() { c.run(0, ops/sp.Group) })
	runtime.ReadMemStats(&m1)
	t.res.Attempted += c.ops
	if c.err != nil {
		t.fail(c.failed, fmt.Errorf("%s: %w", label, c.err))
	}
	if after != nil {
		after(sys)
	}
	return replayed{
		ops: ops, wall: wall, mallocs: m1.Mallocs - m0.Mallocs,
		gcs: m1.NumGC - m0.NumGC, gcPause: m1.PauseTotalNs - m0.PauseTotalNs, hist: &c.hist,
	}, nil
}

// liveGen draws client 0's stream afresh: the stream t.stream records.
func (t *tracer) liveGen() *generator {
	return newGenerator(newDist(t.sp), t.sp.Mix, t.cfg.Seed, 0)
}

// ownSeam replays the workload through its own seam twice — with spans
// around gen, Issue and Wait, then without — and reads the cluster's
// fan-out counters where there is a cluster.
func (t *tracer) ownSeam() error {
	sp, n := t.sp, len(t.stream)
	// Per-node point ops and shard scan visits are deltas of the nodes' own
	// counters across the traced replay.
	var point0, point1 []uint64
	var visits0, visits1 uint64
	traced, err := t.replay(sp, "replay.traced", t.liveGen(), n, t.log,
		func(sys *system) { point0, visits0 = nodeCounters(sys) },
		func(sys *system) { point1, visits1 = nodeCounters(sys) })
	if err != nil {
		return err
	}
	goroutines := 0
	plain, err := t.replay(sp, "replay.untraced", t.liveGen(), n, nil, nil,
		func(*system) { goroutines = runtime.NumGoroutine() })
	if err != nil {
		return err
	}
	var scans uint64
	for _, s := range t.stream {
		if s.kind == workload.KindScan {
			scans++
		}
	}

	var ownerNs, issueNs, waitNs, skew, visits float64
	if sp.Seam.routed() {
		ring := cluster.NewRing(sp.Seam.nodes(), cluster.DefaultVnodes)
		keys := renderKeys(sp.Keys)
		owners := 0
		d := t.log.phase("cluster.ring_owner", func() {
			for _, s := range t.stream {
				owners += ring.Owner(keys[s.idx])
			}
		})
		sink.Add(uint64(owners))
		ownerNs = perOp(d, n)
		issueNs = perOp(t.log.selfTime(spanIssue), n)
		waitNs = perOp(t.log.selfTime(spanWait), n)
		var maxOps, sum uint64
		for i := range point1 {
			d := point1[i] - point0[i]
			sum += d
			maxOps = max(maxOps, d)
		}
		skew = ratio(float64(maxOps)*float64(len(point1)), float64(sum))
		visits = ratio(float64(visits1-visits0), float64(scans))
	}
	t.add("cluster.ring_owner_ns_per_key", ownerNs, "ns/key")
	t.add("cluster.issue_ns_per_op", issueNs, "ns/op")
	t.add("cluster.wait_ns_per_op", waitNs, "ns/op")
	t.add("cluster.node_ops_skew", skew, "ratio")
	t.add("cluster.scan_shard_visits_per_scan", visits, "count")

	t.add("host.raw_throughput_kops", plain.kops(), "Kops/s")
	t.add("loadgen.latency_p99_us", plain.hist.quantile(0.99)/1e3, "us")
	t.add("loadgen.latency_p999_us", plain.hist.quantile(0.999)/1e3, "us")
	t.add("runtime.gc_cycles", float64(plain.gcs), "count")
	t.add("runtime.gc_pause_total_ms", float64(plain.gcPause)/1e6, "ms")
	t.add("runtime.goroutines", float64(goroutines), "count")
	t.add("trace.overhead_pct", 100*(plain.kops()-traced.kops())/plain.kops(), "%")
	return nil
}

// nodeCounters reads every cluster node's own counters: point ops per
// node, and shard scan visits summed over the nodes. Nil without a cluster.
func nodeCounters(sys *system) (point []uint64, visits uint64) {
	if sys.cl == nil {
		return nil, 0
	}
	for _, id := range sys.cl.Members() {
		var n uint64
		for _, c := range sys.cl.Store(id).NewHandle(0).ShardStats() {
			n += c.Gets + c.Puts + c.Deletes
			visits += c.Scans
		}
		point = append(point, n)
	}
	return point, visits
}

// tap records both directions of one client connection.
type tap struct {
	net.Conn
	sent, received []byte
}

func (t *tap) Write(p []byte) (int, error) {
	t.sent = append(t.sent, p...)
	return t.Conn.Write(p)
}

func (t *tap) Read(p []byte) (int, error) {
	n, err := t.Conn.Read(p)
	t.received = append(t.received, p[:n]...)
	return n, err
}

// serveTapped starts srv on one end of a pipe and returns the other end,
// tapped.
func serveTapped(srv *store.Server) *tap {
	clientEnd, serverEnd := net.Pipe()
	go func() {
		defer serverEnd.Close()
		_ = srv.ServeConn(serverEnd) // ends on the EOF the client's Close causes
	}()
	return &tap{Conn: clientEnd}
}

// servers lists the wire servers a workload's frames reach, by node.
func (sys *system) servers() []*store.Server {
	if sys.cl == nil {
		return []*store.Server{sys.srv}
	}
	var out []*store.Server
	for _, id := range sys.cl.Members() {
		out = append(out, sys.cl.Server(id))
	}
	return out
}

// frames splits a recorded byte stream into frame bodies.
func frames(stream []byte) ([][]byte, error) {
	var out [][]byte
	for len(stream) > 0 {
		if len(stream) < 4 {
			return nil, fmt.Errorf("%d stray bytes after the last frame", len(stream))
		}
		n := int(binary.BigEndian.Uint32(stream))
		if len(stream) < 4+n {
			return nil, fmt.Errorf("frame of %d bytes cut short at %d", n, len(stream)-4)
		}
		out = append(out, stream[4:4+n])
		stream = stream[4+n:]
	}
	return out, nil
}

// exchange is one request frame and its response, decoded.
type exchange struct {
	tagged bool
	tag    uint32
	batch  bool
	b      store.Batch   // batch
	subs   []byte        // batch: sub-opcodes
	req    store.Request // scalar
	resp   store.Response
	resps  []store.Response
}

// wireCosts is what the codec and server replays measured, summed over
// the workload's servers. The zero value is a workload with no wire.
type wireCosts struct {
	ops, groups, bytes, frames                int
	encReq, parseReq, encResp, parseResp, srv time.Duration
	parseAllocs, srvAllocs                    uint64
}

// wire reports the store's wire codec and server on the workload's own
// frames; a workload that has no wire reports 0 throughout.
func (t *tracer) wire() error {
	var c wireCosts
	if t.sp.Seam >= seamWire {
		var err error
		if c, err = t.measureWire(); err != nil {
			return err
		}
	}
	ops := float64(c.ops)
	t.add("store.wire.encode_request_ns_per_op", ratio(float64(c.encReq), ops), "ns/op")
	t.add("store.wire.parse_request_ns_per_op", ratio(float64(c.parseReq), ops), "ns/op")
	t.add("store.wire.encode_response_ns_per_op", ratio(float64(c.encResp), ops), "ns/op")
	t.add("store.wire.parse_response_ns_per_op", ratio(float64(c.parseResp), ops), "ns/op")
	t.add("store.wire.parse_request_allocs_per_op", ratio(float64(c.parseAllocs), ops), "allocs/op")
	t.add("store.wire.bytes_per_op", ratio(float64(c.bytes), ops), "B/op")
	t.add("store.wire.frames_per_op", ratio(float64(c.frames), ops), "frames/op")
	sub := 0.0
	if t.sp.Seam.routed() {
		sub = ratio(float64(c.frames/2), float64(c.groups)) // half the frames are requests
	}
	t.add("cluster.subbatches_per_group", sub, "count")
	t.add("store.server.serve_ns_per_op", ratio(float64(c.srv), ops), "ns/op")
	t.add("store.server.serve_allocs_per_op", ratio(float64(c.srvAllocs), ops), "allocs/op")
	return nil
}

// measureWire captures the frames the workload really sends — a tapped
// client of the workload's own kind drives the first CaptureOps ops — then
// times the four codec directions over them and replays each server's
// request stream straight into ServeConn.
func (t *tracer) measureWire() (wireCosts, error) {
	c := wireCosts{ops: min(t.cfg.CaptureOps, len(t.stream)) / t.sp.Group * t.sp.Group}
	c.groups = c.ops / t.sp.Group
	taps, err := t.capture(c.ops)
	if err != nil {
		return c, err
	}
	for node, tp := range taps {
		reqs, err := frames(tp.sent)
		if err != nil {
			return c, fmt.Errorf("node %d requests: %w", node, err)
		}
		resps, err := frames(tp.received)
		if err != nil {
			return c, fmt.Errorf("node %d responses: %w", node, err)
		}
		if len(reqs) != len(resps) {
			return c, fmt.Errorf("node %d: %d request frames, %d response frames", node, len(reqs), len(resps))
		}
		c.bytes += len(tp.sent) + len(tp.received)
		c.frames += len(reqs) + len(resps)
		ex := make([]exchange, len(reqs))

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var perr error
		c.parseReq += t.log.phase("store.wire.parse_request", func() { perr = parseRequests(reqs, ex) })
		runtime.ReadMemStats(&after)
		if perr != nil {
			return c, fmt.Errorf("node %d: %w", node, perr)
		}
		c.parseAllocs += after.Mallocs - before.Mallocs
		for i := range ex {
			if ex[i].batch {
				ex[i].subs = ex[i].b.SubOps()
			}
		}
		c.parseResp += t.log.phase("store.wire.parse_response", func() { perr = parseResponses(resps, ex) })
		if perr != nil {
			return c, fmt.Errorf("node %d: %w", node, perr)
		}
		var buf []byte
		c.encReq += t.log.phase("store.wire.encode_request", func() { buf, perr = encodeRequests(ex, buf, nil) })
		if perr == nil {
			c.encResp += t.log.phase("store.wire.encode_response", func() { buf, perr = encodeResponses(ex, buf, nil) })
		}
		// The codec must round-trip: what it encodes from what it parsed
		// is, byte for byte, what was on the wire.
		if perr == nil {
			_, perr = encodeRequests(ex, buf, reqs)
		}
		if perr == nil {
			_, perr = encodeResponses(ex, buf, resps)
		}
		if perr != nil {
			t.fail(uint64(c.ops), fmt.Errorf("node %d: %w", node, perr))
		}
	}
	c.srv, c.srvAllocs, err = t.serve(taps, c.ops)
	return c, err
}

// capture drives ops ops through a tapped client and returns the taps, one
// per server, closed.
func (t *tracer) capture(ops int) ([]*tap, error) {
	sys, err := setUp(t.sp, 1)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	var taps []*tap
	for _, srv := range sys.servers() {
		taps = append(taps, serveTapped(srv))
	}
	var conn store.BatchConn
	if sys.cl == nil {
		conn = store.NewClient(taps[0])
	} else {
		conns := make([]*store.AsyncClient, len(taps))
		for i, tp := range taps {
			conns[i] = store.NewAsyncClient(tp, asyncWindow)
		}
		if conn, err = cluster.NewClient(sys.cl.Ring(), conns); err != nil {
			return nil, err
		}
	}
	c := newClient(sys, conn, &generator{stream: t.stream}, time.Now())
	c.expect = t.expect
	t.log.phase("wire.capture", func() { c.run(0, ops/t.sp.Group) })
	t.res.Attempted += c.ops
	if c.err != nil {
		t.fail(c.failed, fmt.Errorf("wire.capture: %w", c.err))
	}
	return taps, conn.Close()
}

func parseRequests(reqs [][]byte, ex []exchange) error {
	for i, body := range reqs {
		e := &ex[i]
		inner := body
		var err error
		if len(body) > 0 && body[0] == store.OpTagged {
			e.tagged = true
			if e.tag, inner, err = store.ParseTag(body); err != nil {
				return err
			}
		}
		if len(inner) > 0 && inner[0] >= store.OpBatch && inner[0] <= store.OpMPut {
			e.batch = true
			e.b, err = store.ParseBatchRequest(inner)
		} else {
			var v store.RequestView
			v, err = store.ParseRequestView(inner)
			// Key aliases the recorded frame, which outlives the exchange.
			e.req = store.Request{Op: v.Op, Key: string(v.Key), Value: v.Value, Limit: v.Limit}
		}
		if err != nil {
			return fmt.Errorf("request frame %d: %w", i, err)
		}
	}
	return nil
}

func parseResponses(resps [][]byte, ex []exchange) error {
	for i, body := range resps {
		e := &ex[i]
		if e.tagged {
			if len(body) < 4 || binary.BigEndian.Uint32(body) != e.tag {
				return fmt.Errorf("response frame %d does not echo tag %d", i, e.tag)
			}
			body = body[4:]
		}
		var err error
		if e.batch {
			e.resps, err = store.ParseBatchResponse(e.subs, body)
		} else {
			e.resp, err = store.ParseResponse(e.req.Op, body)
		}
		if err != nil {
			return fmt.Errorf("response frame %d: %w", i, err)
		}
	}
	return nil
}

// encodeRequests re-encodes every exchange's request into buf. With want
// set it also compares each encoding with the recorded frame.
func encodeRequests(ex []exchange, buf []byte, want [][]byte) ([]byte, error) {
	for i := range ex {
		e := &ex[i]
		buf = buf[:0]
		if e.tagged {
			buf = store.AppendTaggedRequest(buf, e.tag)
		}
		var err error
		if e.batch {
			buf, err = store.AppendBatchRequest(buf, e.b)
		} else {
			buf, err = store.AppendRequest(buf, e.req)
		}
		if err != nil {
			return buf, fmt.Errorf("request %d: %w", i, err)
		}
		if want != nil && !bytes.Equal(buf, want[i]) {
			return buf, fmt.Errorf("request %d re-encodes to %x, was %x on the wire", i, buf, want[i])
		}
	}
	return buf, nil
}

func encodeResponses(ex []exchange, buf []byte, want [][]byte) ([]byte, error) {
	for i := range ex {
		e := &ex[i]
		buf = buf[:0]
		if e.tagged {
			buf = binary.BigEndian.AppendUint32(buf, e.tag)
		}
		var err error
		if e.batch {
			buf, err = store.AppendBatchResponse(buf, e.subs, e.resps)
		} else {
			buf, err = store.AppendResponse(buf, e.req.Op, e.resp)
		}
		if err != nil {
			return buf, fmt.Errorf("response %d: %w", i, err)
		}
		if want != nil && !bytes.Equal(buf, want[i]) {
			return buf, fmt.Errorf("response %d re-encodes to %x, was %x on the wire", i, buf, want[i])
		}
	}
	return buf, nil
}

// feed is ServeConn's connection for the server replay: requests come
// from memory, responses are collected to be compared afterwards.
type feed struct {
	*bytes.Reader
	out []byte
}

func (f *feed) Write(p []byte) (int, error) {
	f.out = append(f.out, p...)
	return len(p), nil
}

// serve feeds each server of a fresh system the request stream recorded
// for it: parse + route + execute + encode, with no client and no pipe.
// The responses must be the recorded ones, byte for byte.
func (t *tracer) serve(taps []*tap, ops int) (busy time.Duration, mallocs uint64, err error) {
	sys, err := setUp(t.sp, 1)
	if err != nil {
		return 0, 0, err
	}
	defer sys.close()
	for node, srv := range sys.servers() {
		f := &feed{Reader: bytes.NewReader(taps[node].sent), out: make([]byte, 0, len(taps[node].received))}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var serr error
		busy += t.log.phase("store.server.serve", func() { serr = srv.ServeConn(f) })
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		if serr != nil {
			return 0, 0, fmt.Errorf("node %d: ServeConn: %w", node, serr)
		}
		if !bytes.Equal(f.out, taps[node].received) {
			t.fail(uint64(ops), fmt.Errorf("node %d: ServeConn wrote %d bytes that differ from the %d recorded", node, len(f.out), len(taps[node].received)))
		}
	}
	t.res.Attempted += uint64(ops)
	return busy, mallocs, nil
}

// engineRun is one engine's scalar replay.
type engineRun struct {
	busy    time.Duration
	mallocs uint64
	stats   store.Counters // summed over shards, preload excluded
	skew    float64        // busiest shard's ops over the mean
	hits    uint64
	entries uint64 // returned by scans
}

// engines replays the stream through a Handle on each engine, one thread,
// one engine visit per op, and checks every value and scan byte for byte.
func (t *tracer) engines() error {
	runs := map[store.Engine]engineRun{}
	for _, e := range []store.Engine{store.EngineLocked, store.EngineOptimistic, store.EngineActor} {
		run, err := t.engineDirect(e)
		if err != nil {
			return err
		}
		runs[e] = run
		t.add("store.engine.exec_ns_per_op."+string(e), perOp(run.busy, len(t.stream)), "ns/op")
	}
	own := runs[t.sp.Engine]
	// Counters.Scans counts shard visits; a scan visits every shard.
	scans := float64(own.stats.Scans) / float64(t.sp.Shards)
	t.add("store.engine.hit_ratio", ratio(float64(own.hits), float64(own.stats.Gets)), "ratio")
	t.add("store.engine.shard_ops_skew", own.skew, "ratio")
	t.add("store.engine.gets", float64(own.stats.Gets), "count")
	t.add("store.engine.puts", float64(own.stats.Puts), "count")
	t.add("store.engine.deletes", float64(own.stats.Deletes), "count")
	t.add("store.engine.scans", scans, "count")
	t.add("store.engine.scan_entries_per_scan", ratio(float64(own.entries), scans), "count")
	t.add("seam.engine-direct.ns_per_op", perOp(own.busy, len(t.stream)), "ns/op")
	t.add("seam.engine-direct.allocs_per_op", float64(own.mallocs)/float64(len(t.stream)), "allocs/op")
	return nil
}

// engineDirect runs the stream in chunks: render (untimed), execute
// (timed, results kept), verify (untimed). Within a group the point ops
// run first and the scans after them, the order every other seam uses.
func (t *tracer) engineDirect(engine store.Engine) (engineRun, error) {
	sp := t.sp
	sp.Seam, sp.Engine = seamEngineDirect, engine
	sys, err := setUp(sp, 1)
	if err != nil {
		return engineRun{}, err
	}
	defer sys.close()
	h := sys.store.NewHandle(0)
	base := h.ShardStats()

	const chunkGroups = 64
	n := chunkGroups * sp.Group
	ops := make([]workload.Op, n)
	vals := make([]byte, n*valueSize)
	got := make([]byte, n*valueSize)
	type outcome struct {
		value   []byte
		ok      bool // get: found; put: created
		entries []store.Entry
	}
	results := make([]outcome, n)
	var run engineRun
	var before, after runtime.MemStats
	label := "store.engine." + string(engine)
	for g0 := 0; g0 < len(t.expect); g0 += chunkGroups {
		g1 := min(g0+chunkGroups, len(t.expect))
		chunk := t.stream[g0*sp.Group : g1*sp.Group]
		for i, s := range chunk {
			ops[i] = render(s, sys.keys, vals[i*valueSize:(i+1)*valueSize])
		}
		runtime.ReadMemStats(&before)
		run.busy += t.log.phase(label, func() {
			for g := 0; g < g1-g0; g++ {
				group := ops[g*sp.Group : (g+1)*sp.Group]
				for i, op := range group {
					r := &results[g*sp.Group+i]
					switch op.Kind {
					case workload.KindGet:
						at := (g*sp.Group + i) * valueSize
						r.value, r.ok = h.GetAppend(op.Key, got[at:at:at+valueSize])
					case workload.KindPut:
						r.ok = h.Put(op.Key, op.Value)
					case workload.KindDelete:
						h.Delete(op.Key)
					}
				}
				for i, op := range group {
					if op.Kind == workload.KindScan {
						results[g*sp.Group+i].entries = h.Scan(op.Key, op.Limit)
					}
				}
			}
		})
		runtime.ReadMemStats(&after)
		run.mallocs += after.Mallocs - before.Mallocs
		for g := g0; g < g1; g++ {
			have := workload.Outcome{Ops: uint64(sp.Group)}
			var bad error
			for i := 0; i < sp.Group; i++ {
				at := (g-g0)*sp.Group + i
				s, r := chunk[at], results[at]
				switch s.kind {
				case workload.KindGet:
					switch {
					case !r.ok:
						have.Misses++
					case payloadOK(r.value, s.idx):
						have.Hits++
						run.hits++
					default:
						bad = fmt.Errorf("get %s returned %x", ops[at].Key, r.value)
					}
				case workload.KindPut:
					if r.ok {
						have.Created++
					}
				case workload.KindScan:
					have.Scanned += uint64(len(r.entries))
					run.entries += uint64(len(r.entries))
					if err := checkScan(r.entries, ops[at].Key); err != nil && bad == nil {
						bad = fmt.Errorf("scan %s: %w", ops[at].Key, err)
					}
				}
			}
			if bad == nil && have != t.expect[g] {
				bad = fmt.Errorf("outcome %+v, reference model says %+v", have, t.expect[g])
			}
			if bad != nil {
				t.fail(uint64(sp.Group), fmt.Errorf("%s: group %d: %w", label, g, bad))
			}
		}
	}
	t.res.Attempted += uint64(len(t.stream))

	var maxOps, sum uint64
	for i, c := range h.ShardStats() {
		d := c.Sub(base[i])
		run.stats.Gets += d.Gets
		run.stats.Puts += d.Puts
		run.stats.Deletes += d.Deletes
		run.stats.Scans += d.Scans
		point := d.Gets + d.Puts + d.Deletes
		sum += point
		maxOps = max(maxOps, point)
	}
	run.skew = ratio(float64(maxOps)*float64(sp.Shards), float64(sum))
	return run, nil
}

// ladder drives the first LadderOps ops of the stream through every seam
// above the engine in turn, one client each. The cost of a layer is the
// difference between adjacent rungs.
func (t *tracer) ladder() error {
	ops := min(t.cfg.LadderOps, len(t.stream)) / t.sp.Group * t.sp.Group
	for s := seamHandle; s <= seamRouted4; s++ {
		sp := t.sp
		sp.Seam = s
		r, err := t.replay(sp, "seam."+seamNames[s], &generator{stream: t.stream}, ops, nil, nil, nil)
		if err != nil {
			return err
		}
		t.add("seam."+seamNames[s]+".ns_per_op", perOp(r.wall, ops), "ns/op")
		t.add("seam."+seamNames[s]+".allocs_per_op", float64(r.mallocs)/float64(ops), "allocs/op")
	}
	return nil
}

// locks times the shard lock on its own: an uncontended acquire/release
// pair, and the same pair with every client goroutine on one lock.
func (t *tracer) locks() {
	const pairs = 1 << 20
	lock := locks.New(locks.TICKET, locks.Options{})
	tok := lock.NewToken(0)
	d := t.log.phase("locks.ticket_pair", func() {
		for i := 0; i < pairs; i++ {
			lock.Acquire(tok)
			lock.Release(tok)
		}
	})
	t.add("locks.ticket_pair_ns", perOp(d, pairs), "ns")

	workers := t.cfg.Clients
	each := pairs / 4 / workers
	d = t.log.phase("locks.ticket_contended_pair", func() {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tok := lock.NewToken(0)
				for i := 0; i < each; i++ {
					lock.Acquire(tok)
					lock.Release(tok)
				}
			}()
		}
		wg.Wait()
	})
	t.add("locks.ticket_contended_pair_ns", perOp(d, each*workers), "ns")
}
