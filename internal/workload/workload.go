package workload

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"ssync/internal/xrand"
)

// OpKind tags one logical operation of an op group.
type OpKind uint8

// The op kinds the engine draws, mirroring the PipeConn surface.
const (
	KindGet OpKind = iota
	KindPut
	KindDelete
	KindScan
)

// Op is one logical operation drawn by the engine — the unit op groups
// are built from when a scenario batches or pipelines.
type Op struct {
	Kind  OpKind
	Key   string // the scan prefix for KindScan
	Value []byte // KindPut only
	Limit int    // KindScan only
}

// Outcome tallies what a completed op group did, in the same terms as
// PhaseResult.
type Outcome struct {
	Ops     uint64 // logical operations completed
	Hits    uint64 // gets that found the key
	Misses  uint64 // gets that did not
	Created uint64 // puts that inserted a new key
	Scanned uint64 // entries returned by scans
}

// Add accumulates p into o.
func (o *Outcome) Add(p Outcome) {
	o.Ops += p.Ops
	o.Hits += p.Hits
	o.Misses += p.Misses
	o.Created += p.Created
	o.Scanned += p.Scanned
}

// Pending is one in-flight op group; Wait blocks until its responses
// arrive and reports the group's outcome. When Wait returns an error the
// Outcome counts the ops answered before it and never the op that
// failed: zero if the group's frame never came back, the leading ops if
// a later one was refused. Wait is called exactly once: a Pending is
// dead once Wait returns, and an implementation may hand its state to
// the next group Issue starts.
type Pending interface {
	Wait() (Outcome, error)
}

// PipeConn is what a workload client drives. store.Driver adapts every
// connection kind to it: store.LocalConn (a handle, no wire),
// store.Client and store.AsyncClient (the wire protocol, over the
// in-process buffered connection or any net.Conn) and the routed
// cluster.Client. Issue starts a whole op group without waiting for its
// results, so a client can keep several groups in flight (the in-flight
// window) and the backend can execute a group as one batch (one
// message, one lock acquisition per touched shard). A backend that can
// only batch — or only run ops one at a time — still satisfies the
// contract by resolving the work before Issue returns; only true
// pipelining overlaps it. Scan reports how many entries it returned. A
// PipeConn is used by one goroutine at a time.
type PipeConn interface {
	Get(key string) (value []byte, found bool, err error)
	Put(key string, value []byte) (created bool, err error)
	Delete(key string) (existed bool, err error)
	Scan(prefix string, limit int) (entries int, err error)
	Issue(ops []Op) Pending
	Close() error
}

// Mix is an operation mix in percent; the fields must sum to 100.
// Deletes ride on the Put share (one in eight writes deletes, which keeps
// the store from growing without bound under write-heavy mixes).
type Mix struct {
	Get  int
	Put  int
	Scan int
}

// ParseMix parses "get:put" or "get:put:scan" percentages, e.g. "95:5"
// or "90:8:2".
func ParseMix(spec string) (Mix, error) {
	parts := strings.Split(strings.TrimSpace(spec), ":")
	if len(parts) != 2 && len(parts) != 3 {
		return Mix{}, fmt.Errorf("workload: mix %q must be get:put or get:put:scan", spec)
	}
	vals := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 0 {
			return Mix{}, fmt.Errorf("workload: bad mix component %q", p)
		}
		vals[i] = v
	}
	m := Mix{Get: vals[0], Put: vals[1]}
	if len(vals) == 3 {
		m.Scan = vals[2]
	}
	if m.Get+m.Put+m.Scan != 100 {
		return Mix{}, fmt.Errorf("workload: mix %q sums to %d, want 100", spec, m.Get+m.Put+m.Scan)
	}
	return m, nil
}

// String renders the mix as "get:put:scan".
func (m Mix) String() string { return fmt.Sprintf("%d:%d:%d", m.Get, m.Put, m.Scan) }

// Phase is one stage of a scenario: Clients goroutines each issuing Ops
// operations.
type Phase struct {
	// Name labels the phase in results ("ramp", "steady").
	Name string
	// Clients is the concurrent client count for this phase.
	Clients int
	// Ops is the operation count per client.
	Ops int
}

// RampSteady is the standard two-phase shape: a ramp at half the clients
// and a tenth of the operations to warm caches and locks, then the
// measured steady phase.
func RampSteady(clients, ops int) []Phase {
	rampClients := clients / 2
	if rampClients < 1 {
		rampClients = 1
	}
	rampOps := ops / 10
	if rampOps < 1 {
		rampOps = 1
	}
	return []Phase{
		{Name: "ramp", Clients: rampClients, Ops: rampOps},
		{Name: "steady", Clients: clients, Ops: ops},
	}
}

// Scenario is a full workload description.
type Scenario struct {
	// Dist draws key indices; nil means uniform over Keys.
	Dist Dist
	// Keys is the key-space size (used when Dist is nil). Default 16384.
	Keys uint64
	// Mix is the operation mix; a zero Mix means 95% gets, 5% puts.
	Mix Mix
	// ValueSize is the put payload size in bytes. Default 64.
	ValueSize int
	// ScanLimit bounds each scan. Default 16.
	ScanLimit int
	// Preload inserts keys 0..Preload-1 before the first phase.
	Preload int
	// Phases run in order; empty means RampSteady(8, 10000).
	Phases []Phase
	// Seed makes client RNG streams reproducible. 0 is a fixed default.
	Seed uint64
	// Batch groups this many consecutive ops into one Issue. Default 1:
	// one op per group.
	Batch int
	// Pipeline is how many op groups a client keeps in flight. Default
	// 1 = lock-step.
	Pipeline int
}

func (s Scenario) withDefaults() Scenario {
	if s.Keys == 0 {
		s.Keys = 16384
	}
	if s.Dist == nil {
		s.Dist = NewUniform(s.Keys)
	}
	if s.Mix == (Mix{}) {
		s.Mix = Mix{Get: 95, Put: 5}
	}
	if s.ValueSize <= 0 {
		s.ValueSize = 64
	}
	if s.ScanLimit <= 0 {
		s.ScanLimit = 16
	}
	if len(s.Phases) == 0 {
		s.Phases = RampSteady(8, 10000)
	}
	if s.Seed == 0 {
		s.Seed = 0x5eed5eed5eed5eed
	}
	if s.Batch < 1 {
		s.Batch = 1
	}
	if s.Pipeline < 1 {
		s.Pipeline = 1
	}
	return s
}

// PhaseResult aggregates one phase across its clients.
type PhaseResult struct {
	Name     string
	Clients  int
	Ops      uint64
	Duration time.Duration
	Hits     uint64 // gets that found the key
	Misses   uint64 // gets that did not
	Created  uint64 // puts that inserted a new key
	Scanned  uint64 // entries returned by scans
}

// Kops returns the phase throughput in thousands of operations per
// second.
func (r PhaseResult) Kops() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Duration.Seconds() / 1e3
}

func (r PhaseResult) String() string {
	return fmt.Sprintf("%s: %d clients, %d ops in %v (%.1f Kops/s, %d hits, %d misses)",
		r.Name, r.Clients, r.Ops, r.Duration.Round(time.Millisecond), r.Kops(), r.Hits, r.Misses)
}

// Key formats a key index the way every load generator in the repository
// does: fixed width, so lexicographic prefix scans align with numeric
// ranges.
func Key(i uint64) string { return fmt.Sprintf("key-%08d", i) }

// Run executes the scenario's phases in order. dial(i) opens client i's
// backend connection; each phase dials its clients fresh and closes them,
// like real traffic arriving and leaving. Clients that fail stop early;
// Run reports every failure joined, alongside the completed phases.
func Run(s Scenario, dial func(client int) (PipeConn, error)) ([]PhaseResult, error) {
	s = s.withDefaults()
	if s.Preload > 0 {
		c, err := dial(0)
		if err != nil {
			return nil, fmt.Errorf("workload: preload dial: %w", err)
		}
		err = Preload(c, s.Preload, s.ValueSize)
		if cerr := c.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("workload: preload: %w", err)
		}
	}
	var results []PhaseResult
	var errs []error
	for pi, ph := range s.Phases {
		res, err := runPhase(s, pi, ph, dial)
		results = append(results, res)
		if err != nil {
			errs = append(errs, fmt.Errorf("phase %q: %w", ph.Name, err))
		}
	}
	return results, errors.Join(errs...)
}

func runPhase(s Scenario, phaseIdx int, ph Phase, dial func(int) (PipeConn, error)) (PhaseResult, error) {
	if ph.Clients < 1 || ph.Ops < 1 {
		return PhaseResult{Name: ph.Name}, fmt.Errorf("workload: phase needs positive clients and ops")
	}
	tallies := make([]Outcome, ph.Clients)
	cerrs := make([]error, ph.Clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < ph.Clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			tallies[c], cerrs[c] = runClient(s, phaseIdx, ph, c, dial)
		}()
	}
	wg.Wait()
	var total Outcome
	var errs []error
	for c := range tallies {
		total.Add(tallies[c])
		if cerrs[c] != nil {
			errs = append(errs, fmt.Errorf("client %d: %w", c, cerrs[c]))
		}
	}
	return PhaseResult{
		Name: ph.Name, Clients: ph.Clients, Duration: time.Since(start),
		Ops: total.Ops, Hits: total.Hits, Misses: total.Misses,
		Created: total.Created, Scanned: total.Scanned,
	}, errors.Join(errs...)
}

// drawOp draws one logical operation from the scenario's distribution
// and mix. The rng consumption order matches the pre-batching engine
// exactly, so a given seed produces the same op stream whatever the
// batch and pipeline settings.
func drawOp(s Scenario, rng *xrand.Rand, value []byte) Op {
	key := Key(s.Dist.Next(rng))
	switch draw := int(rng.Uint64n(100)); {
	case draw < s.Mix.Get:
		return Op{Kind: KindGet, Key: key}
	case draw < s.Mix.Get+s.Mix.Put:
		// One write in eight deletes, so write-heavy mixes exercise
		// removal and the store's population reaches a fixpoint.
		if rng.Uint64n(8) == 0 {
			return Op{Kind: KindDelete, Key: key}
		}
		return Op{Kind: KindPut, Key: key, Value: value}
	default:
		// Scan a narrow prefix around the drawn key: chop the last two
		// digits so the prefix covers a 100-key band.
		return Op{Kind: KindScan, Key: key[:len(key)-2], Limit: s.ScanLimit}
	}
}

// runClient is one client's loop: it draws op groups of up to Batch ops,
// keeps up to Pipeline groups in flight through PipeConn.Issue, and
// waits for the oldest group only when the window is full — so a deep
// window over a slow transport overlaps round trips instead of paying
// them one by one. It stops issuing at the first error and reports what
// the groups in flight completed.
func runClient(s Scenario, phaseIdx int, ph Phase, c int, dial func(int) (PipeConn, error)) (total Outcome, err error) {
	conn, err := dial(c)
	if err != nil {
		return total, err
	}
	defer conn.Close()
	rng := xrand.New(s.Seed + uint64(phaseIdx)*0x9e3779b97f4a7c15 + uint64(c)*0x2545f4914f6cdd1d)
	value := payload(s.ValueSize, uint64(c))
	window := make([]Pending, 0, s.Pipeline)
	settle := func(p Pending) {
		out, werr := p.Wait()
		total.Add(out)
		if err == nil {
			err = werr
		}
	}
	for left := ph.Ops; left > 0; {
		n := s.Batch
		if n > left {
			n = left
		}
		left -= n
		group := make([]Op, n)
		for j := range group {
			group[j] = drawOp(s, rng, value)
		}
		if len(window) == s.Pipeline {
			settle(window[0])
			window = append(window[:0], window[1:]...)
			if err != nil {
				break
			}
		}
		window = append(window, conn.Issue(group))
	}
	for _, p := range window {
		settle(p)
	}
	return total, err
}

// Preload inserts keys 0..n-1 with valueSize-byte payloads over conn —
// the population step callers run before measuring, so warm-up writes
// never pollute measured counters.
func Preload(c PipeConn, n, valueSize int) error {
	if valueSize <= 0 {
		valueSize = 64
	}
	value := payload(valueSize, 0)
	for i := 0; i < n; i++ {
		if _, err := c.Put(Key(uint64(i)), value); err != nil {
			return fmt.Errorf("put %d: %w", i, err)
		}
	}
	return nil
}

// payload builds a deterministic value of the given size.
func payload(size int, tag uint64) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(uint64(i) + tag)
	}
	return b
}
