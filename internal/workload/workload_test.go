package workload

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// memConn is a trivial thread-safe backend for engine tests. Its Issue
// resolves the group before returning, which PipeConn's contract allows,
// and records the group and the window it was issued into.
type memConn struct {
	mu     *sync.Mutex
	m      map[string][]byte
	closed bool
	failAt int // fail the Nth op with errBoom (0 = never)
	ops    int

	groups      [][]Op // every issued group
	inFlight    int
	maxInFlight int
}

var errBoom = errors.New("boom")

func (c *memConn) tick() error {
	c.ops++
	if c.failAt > 0 && c.ops >= c.failAt {
		return errBoom
	}
	return nil
}

func (c *memConn) Get(key string) ([]byte, bool, error) {
	if err := c.tick(); err != nil {
		return nil, false, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	return v, ok, nil
}

func (c *memConn) Put(key string, value []byte) (bool, error) {
	if err := c.tick(); err != nil {
		return false, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, existed := c.m[key]
	c.m[key] = append([]byte(nil), value...)
	return !existed, nil
}

func (c *memConn) Delete(key string) (bool, error) {
	if err := c.tick(); err != nil {
		return false, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, existed := c.m[key]
	delete(c.m, key)
	return existed, nil
}

func (c *memConn) Scan(prefix string, limit int) (int, error) {
	if err := c.tick(); err != nil {
		return 0, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for k := range c.m {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			n++
			if limit > 0 && n == limit {
				break
			}
		}
	}
	return n, nil
}

func (c *memConn) Close() error { c.closed = true; return nil }

// memBackend tracks every dialed conn.
type memBackend struct {
	mu    sync.Mutex
	conns []*memConn
	m     map[string][]byte
}

func newMemBackend() *memBackend { return &memBackend{m: map[string][]byte{}} }

func (b *memBackend) dial(failAt int) func(int) (PipeConn, error) {
	return func(int) (PipeConn, error) {
		b.mu.Lock()
		defer b.mu.Unlock()
		c := &memConn{mu: &b.mu, m: b.m, failAt: failAt}
		b.conns = append(b.conns, c)
		return c, nil
	}
}

func TestRunPhases(t *testing.T) {
	b := newMemBackend()
	s := Scenario{
		Keys:      128,
		Mix:       Mix{Get: 50, Put: 40, Scan: 10},
		ValueSize: 8,
		Preload:   64,
		Phases: []Phase{
			{Name: "ramp", Clients: 2, Ops: 100},
			{Name: "steady", Clients: 4, Ops: 200},
		},
	}
	results, err := Run(s, b.dial(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d phase results", len(results))
	}
	ramp, steady := results[0], results[1]
	if ramp.Name != "ramp" || ramp.Clients != 2 || ramp.Ops != 200 {
		t.Fatalf("ramp = %+v", ramp)
	}
	if steady.Name != "steady" || steady.Clients != 4 || steady.Ops != 800 {
		t.Fatalf("steady = %+v", steady)
	}
	if steady.Hits+steady.Misses == 0 {
		t.Fatal("no gets recorded despite a 50% get mix")
	}
	if steady.Hits == 0 {
		t.Fatal("no hits despite preload")
	}
	if steady.Duration <= 0 {
		t.Fatal("zero duration")
	}
	// Preload dialed one conn; each phase dialed its clients; all closed.
	if len(b.conns) != 1+2+4 {
		t.Fatalf("dialed %d conns, want 7", len(b.conns))
	}
	for i, c := range b.conns {
		if !c.closed {
			t.Fatalf("conn %d left open", i)
		}
	}
}

func TestRunDeterministicOps(t *testing.T) {
	// Same seed ⇒ same tallies (durations aside), run to run. One client:
	// with several, hits depend on how their writes interleave.
	run := func() []PhaseResult {
		b := newMemBackend()
		res, err := Run(Scenario{Keys: 64, Preload: 32, Seed: 99,
			Phases: []Phase{{Name: "p", Clients: 1, Ops: 450}}}, b.dial(0))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a[0].Hits != b[0].Hits || a[0].Misses != b[0].Misses || a[0].Created != b[0].Created {
		t.Fatalf("nondeterministic tallies: %+v vs %+v", a[0], b[0])
	}
}

func TestRunReportsClientErrors(t *testing.T) {
	b := newMemBackend()
	s := Scenario{Keys: 32, Phases: []Phase{{Name: "p", Clients: 2, Ops: 50}}}
	results, err := Run(s, b.dial(10))
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want errBoom", err)
	}
	if len(results) != 1 {
		t.Fatalf("failed run must still report its phases, got %d", len(results))
	}
	if results[0].Ops >= 100 {
		t.Fatalf("clients kept going after failure: %d ops", results[0].Ops)
	}
}

func TestRunDialError(t *testing.T) {
	dial := func(i int) (PipeConn, error) {
		return nil, fmt.Errorf("refused %d", i)
	}
	if _, err := Run(Scenario{Preload: 1, Phases: []Phase{{Name: "p", Clients: 1, Ops: 1}}}, dial); err == nil {
		t.Fatal("preload dial failure must surface")
	}
}

func TestRampSteadyShape(t *testing.T) {
	ph := RampSteady(8, 1000)
	if len(ph) != 2 || ph[0].Name != "ramp" || ph[1].Name != "steady" {
		t.Fatalf("phases = %+v", ph)
	}
	if ph[0].Clients != 4 || ph[0].Ops != 100 || ph[1].Clients != 8 || ph[1].Ops != 1000 {
		t.Fatalf("phases = %+v", ph)
	}
	tiny := RampSteady(1, 5)
	if tiny[0].Clients != 1 || tiny[0].Ops != 1 {
		t.Fatalf("tiny ramp = %+v", tiny[0])
	}
}

func TestParseMix(t *testing.T) {
	m, err := ParseMix("95:5")
	if err != nil || m != (Mix{Get: 95, Put: 5}) {
		t.Fatalf("95:5 = %+v, %v", m, err)
	}
	m, err = ParseMix("90:8:2")
	if err != nil || m != (Mix{Get: 90, Put: 8, Scan: 2}) {
		t.Fatalf("90:8:2 = %+v, %v", m, err)
	}
	if m.String() != "90:8:2" {
		t.Fatalf("String = %q", m.String())
	}
	for _, bad := range []string{"", "100", "50:49", "50:49:2", "a:b", "-5:105", "25:25:25:25"} {
		if _, err := ParseMix(bad); err == nil {
			t.Fatalf("ParseMix(%q) must fail", bad)
		}
	}
}

func TestKeyFormat(t *testing.T) {
	if k := Key(7); k != "key-00000007" {
		t.Fatalf("Key(7) = %q", k)
	}
	// Fixed width keeps lexicographic order aligned with numeric order.
	if Key(9) >= Key(10) {
		t.Fatal("key order broken")
	}
}

func TestPhaseValidation(t *testing.T) {
	b := newMemBackend()
	_, err := Run(Scenario{Phases: []Phase{{Name: "bad", Clients: 0, Ops: 10}}}, b.dial(0))
	if err == nil {
		t.Fatal("zero-client phase must fail")
	}
}

type memPending struct {
	c   *memConn
	out Outcome
	err error
}

func (p *memPending) Wait() (Outcome, error) {
	p.c.inFlight--
	return p.out, p.err
}

func (c *memConn) Issue(ops []Op) Pending {
	c.groups = append(c.groups, append([]Op(nil), ops...))
	c.inFlight++
	if c.inFlight > c.maxInFlight {
		c.maxInFlight = c.inFlight
	}
	var out Outcome
	for _, op := range ops {
		out.Ops++
		switch op.Kind {
		case KindGet:
			_, found, err := c.Get(op.Key)
			if err != nil {
				return &memPending{c: c, err: err}
			}
			if found {
				out.Hits++
			} else {
				out.Misses++
			}
		case KindPut:
			created, err := c.Put(op.Key, op.Value)
			if err != nil {
				return &memPending{c: c, err: err}
			}
			if created {
				out.Created++
			}
		case KindDelete:
			if _, err := c.Delete(op.Key); err != nil {
				return &memPending{c: c, err: err}
			}
		case KindScan:
			n, err := c.Scan(op.Key, op.Limit)
			if err != nil {
				return &memPending{c: c, err: err}
			}
			out.Scanned += uint64(n)
		}
	}
	return &memPending{c: c, out: out}
}

// TestPipelinedEngine drives the client loop against a recording
// PipeConn: groups are Batch-sized, at most Pipeline are in flight,
// every op is accounted, and the op stream is the same for the same seed
// whatever the batch and pipeline settings.
func TestPipelinedEngine(t *testing.T) {
	const clients, ops = 1, 203 // odd op count: final short group
	run := func(batch, pipeline int) (*memConn, PhaseResult) {
		b := newMemBackend()
		res, err := Run(Scenario{
			Keys: 64, Preload: 32, Seed: 7,
			Mix:      Mix{Get: 60, Put: 30, Scan: 10},
			Phases:   []Phase{{Name: "p", Clients: clients, Ops: ops}},
			Batch:    batch,
			Pipeline: pipeline,
		}, b.dial(0))
		if err != nil {
			t.Fatal(err)
		}
		return b.conns[len(b.conns)-1], res[0]
	}

	pc, res := run(8, 4)
	if res.Ops != ops {
		t.Fatalf("pipelined ops = %d, want %d", res.Ops, ops)
	}
	if len(pc.groups) != (ops+7)/8 {
		t.Fatalf("issued %d groups, want %d", len(pc.groups), (ops+7)/8)
	}
	for i, g := range pc.groups[:len(pc.groups)-1] {
		if len(g) != 8 {
			t.Fatalf("group %d has %d ops, want 8", i, len(g))
		}
	}
	if last := pc.groups[len(pc.groups)-1]; len(last) != ops%8 {
		t.Fatalf("last group has %d ops, want %d", len(last), ops%8)
	}
	if pc.maxInFlight > 4 {
		t.Fatalf("window overflowed: %d groups in flight, cap 4", pc.maxInFlight)
	}

	// Batch = Pipeline = 1: one op per group, one group in flight, and
	// the same logical op stream.
	scalar, sres := run(1, 1)
	if len(scalar.groups) != ops || scalar.maxInFlight != 1 {
		t.Fatalf("lock-step run issued %d groups with up to %d in flight, want %d and 1",
			len(scalar.groups), scalar.maxInFlight, ops)
	}
	if sres.Hits != res.Hits || sres.Misses != res.Misses || sres.Created != res.Created || sres.Scanned != res.Scanned {
		t.Fatalf("batched tallies diverge from lock-step: %+v vs %+v", res, sres)
	}

	// Pipeline-only (batch 1): every group is a single op.
	solo, _ := run(1, 8)
	if len(solo.groups) != ops {
		t.Fatalf("pipeline-only issued %d groups, want %d", len(solo.groups), ops)
	}
}

// TestPipelinedFallback: a connection that resolves each group inside
// Issue, as a LocalConn does, runs scenarios that ask for batching and
// pipelining; every op is accounted.
func TestPipelinedFallback(t *testing.T) {
	b := newMemBackend()
	res, err := Run(Scenario{
		Keys: 32, Preload: 16, Seed: 3,
		Phases: []Phase{{Name: "p", Clients: 2, Ops: 100}},
		Batch:  8, Pipeline: 4,
	}, b.dial(0))
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Ops != 200 {
		t.Fatalf("fallback ops = %d, want 200", res[0].Ops)
	}
}

// TestPipelinedErrorPropagation: a backend failure inside a group stops
// the client and surfaces through Run.
func TestPipelinedErrorPropagation(t *testing.T) {
	b := newMemBackend()
	res, err := Run(Scenario{
		Keys:   32,
		Phases: []Phase{{Name: "p", Clients: 1, Ops: 500}},
		Batch:  4, Pipeline: 2,
	}, b.dial(30))
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want errBoom", err)
	}
	if res[0].Ops >= 500 {
		t.Fatalf("client kept going after failure: %d ops", res[0].Ops)
	}
}
