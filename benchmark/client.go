package main

import (
	"fmt"
	"time"

	"ssync/internal/store"
	"ssync/internal/workload"
)

// slot is one in-flight op group. Each slot owns its op and value
// buffers, so nothing handed to Issue is reused before its Wait returned.
type slot struct {
	ops     []workload.Op
	vals    []byte
	pending workload.Pending
	issued  int64 // ns since the client's epoch
	gets    int
	scans   int
	group   int   // ordinal of the group in the client's stream
	span    int32 // the group's span, when tracing
}

// client is one closed-loop caller: it keeps Depth groups in flight
// through the repository's own load surface (store.Driver's Issue, a
// Pending's Wait) and waits for the oldest before issuing the next. It
// checks each group's Outcome as it settles — exactly, against the
// reference model, when expect is set (one client, so the stream's state
// is known); by the counts a group must add up to otherwise.
type client struct {
	conn  workload.PipeConn
	keys  []string
	gen   *generator
	slots []slot
	epoch time.Time

	expect []workload.Outcome // per group; nil under concurrent clients
	spans  *spanLog           // nil when not tracing

	hist   histogram // group latencies since the last reset, ns
	groups int       // groups issued over the client's life
	ops    uint64    // ops in settled groups since the last reset
	failed uint64    // of those, ops in groups that erred or miscounted
	err    error     // first failure
}

func newClient(sys *system, conn store.BatchConn, gen *generator, epoch time.Time) *client {
	c := &client{
		conn:  store.Driver{C: conn},
		keys:  sys.keys,
		gen:   gen,
		slots: make([]slot, sys.sp.Depth),
		epoch: epoch,
	}
	for i := range c.slots {
		c.slots[i].ops = make([]workload.Op, sys.sp.Group)
		c.slots[i].vals = make([]byte, sys.sp.Group*valueSize)
	}
	return c
}

func (c *client) resetTallies() {
	c.hist.reset()
	c.ops, c.failed = 0, 0
}

func (c *client) now() int64 { return int64(time.Since(c.epoch)) }

// run issues groups until the deadline (ns since epoch; 0 = none) has
// passed or maxGroups more groups have been issued (0 = no limit), then
// drains the window. Every group issued is settled before run returns.
func (c *client) run(deadline int64, maxGroups int) {
	head, inflight, issued := 0, 0, 0
	for maxGroups == 0 || issued < maxGroups {
		s := &c.slots[head]
		if inflight == len(c.slots) {
			t := c.settle(s)
			inflight--
			if deadline > 0 && t >= deadline {
				break
			}
		}
		c.issue(s)
		issued++
		inflight++
		head = (head + 1) % len(c.slots)
	}
	// The oldest in-flight slot is inflight steps behind head.
	for i := (head - inflight + 2*len(c.slots)) % len(c.slots); inflight > 0; i = (i + 1) % len(c.slots) {
		c.settle(&c.slots[i])
		inflight--
	}
}

func (c *client) issue(s *slot) {
	s.group = c.groups
	c.groups++
	s.span = c.spans.begin(spanGroup, spanRoot, int32(s.group))
	gen := c.spans.begin(spanGen, s.span, int32(s.group))
	s.gets, s.scans = 0, 0
	for i := range s.ops {
		d := c.gen.next()
		switch d.kind {
		case workload.KindGet:
			s.gets++
		case workload.KindScan:
			s.scans++
		}
		s.ops[i] = render(d, c.keys, s.vals[i*valueSize:(i+1)*valueSize])
	}
	c.spans.end(gen)
	is := c.spans.begin(spanIssue, s.span, int32(s.group))
	s.issued = c.now()
	s.pending = c.conn.Issue(s.ops)
	c.spans.end(is)
}

// settle waits for the slot's group, records its latency and checks its
// outcome. It returns the time the wait returned.
func (c *client) settle(s *slot) int64 {
	ws := c.spans.begin(spanWait, s.span, int32(s.group))
	out, err := s.pending.Wait()
	t1 := c.now()
	c.spans.end(ws)
	c.spans.end(s.span)
	s.pending = nil
	c.hist.record(t1 - s.issued)
	n := uint64(len(s.ops))
	c.ops += n
	if err == nil {
		err = c.check(s, out)
	}
	if err != nil {
		c.failed += n
		if c.err == nil {
			c.err = fmt.Errorf("group %d: %w", s.group, err)
		}
	}
	return t1
}

func (c *client) check(s *slot, out workload.Outcome) error {
	if c.expect != nil {
		if want := c.expect[s.group]; out != want {
			return fmt.Errorf("outcome %+v, reference model says %+v", out, want)
		}
		return nil
	}
	if out.Ops != uint64(len(s.ops)) || out.Hits+out.Misses != uint64(s.gets) || out.Scanned > uint64(s.scans*scanLimit) {
		return fmt.Errorf("outcome %+v does not add up to %d ops, %d gets, %d scans", out, len(s.ops), s.gets, s.scans)
	}
	return nil
}
