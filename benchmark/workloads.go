package main

import (
	"encoding/binary"
	"fmt"

	"ssync/internal/cluster"
	"ssync/internal/locks"
	"ssync/internal/store"
	"ssync/internal/workload"
	"ssync/internal/xrand"
)

// seam names how far up the client→cluster→wire→engine path a connection
// reaches. A workload runs at one seam; the traced run's ladder drives the
// same op stream through each in turn, so the cost of a layer is the
// difference between two adjacent seams.
type seam int

const (
	seamEngineDirect seam = iota // scalar Handle calls, one engine visit per op
	seamHandle                   // store.LocalConn → Handle.ExecBatch, one call per group
	seamWire                     // store.Client over net.Pipe, one batch frame per group, lock-step
	seamAsync                    // store.AsyncClient over net.Pipe, Depth groups in flight
	seamRouted1                  // cluster.Client over a 1-node cluster
	seamRouted4                  // cluster.Client over a 4-node cluster
)

var seamNames = [...]string{
	"engine-direct", "handle-execbatch", "wire-lockstep", "async-pipelined", "routed-1n", "routed-4n",
}

func (s seam) routed() bool { return s >= seamRouted1 }

func (s seam) nodes() int {
	if s == seamRouted4 {
		return 4
	}
	return 1
}

const (
	valueSize = 64
	scanLimit = 16
	// bandKeys is how many keys one scan prefix covers: the prefix is the
	// key minus its last two digits, as workload's own scans chop it.
	bandKeys = 100
	// asyncWindow is every async connection's in-flight frame window, the
	// value `ssync bench` dials its cluster and async clients with.
	asyncWindow = 8
)

// spec is one workload: which seam it drives and the traffic it draws.
type spec struct {
	Name   string
	Why    string
	Seam   seam
	Engine store.Engine
	Shards int     // per store (per node on a cluster)
	Keys   int     // resident keys, all preloaded
	Theta  float64 // zipfian skew; 0 = uniform
	Mix    workload.Mix
	Group  int // ops per group (one Issue)
	Depth  int // groups a client keeps in flight
}

// specs are the benchmark's workloads. Each Why is the reason it exists;
// README.md has the layer each is expected to expose.
var specs = []spec{
	{
		Name: "wire-point-lockstep",
		Why:  "framing, ServeConn and the pipe rendezvous are ~97% of each op and cluster is bypassed: a wire/server/client change shows here, an engine or cluster change must not",
		Seam: seamWire, Engine: store.EngineLocked, Shards: 8, Keys: 4096,
		Mix: workload.Mix{Get: 95, Put: 5}, Group: 1, Depth: 1,
	},
	{
		Name: "cluster-batch-pipelined",
		Why:  "the BENCH_9 cell behind ROADMAP's two gaps (4-node = half of 1-node; 11-18 allocs/op): per-node split, sub-batch copies, futures and async hops do the work, the engine little",
		Seam: seamRouted4, Engine: store.EngineLocked, Shards: 8, Keys: 65536, Theta: 0.99,
		Mix: workload.Mix{Get: 95, Put: 5}, Group: 8, Depth: 8,
	},
	{
		Name: "engine-hot-rw",
		Why:  "no wire and no cluster: shard lock plus table are all the work; the paper's high-contention case and the control on which wire/cluster optimisations predict no change",
		Seam: seamHandle, Engine: store.EngineLocked, Shards: 4, Keys: 64, Theta: 0.99,
		Mix: workload.Mix{Get: 50, Put: 50}, Group: 16, Depth: 1,
	},
	{
		Name: "cluster-scan-write-mix",
		Why:  "same layers used differently: scans fan out to every node and walk every shard, writes pay copy-on-write, so a point-read gain bought with scan or write cost shows as a regression",
		Seam: seamRouted4, Engine: store.EngineOptimistic, Shards: 8, Keys: 4096,
		Mix: workload.Mix{Get: 70, Put: 20, Scan: 10}, Group: 4, Depth: 4,
	},
}

func findSpec(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.Name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// payloadInto writes key idx's value: every put of a key writes these
// bytes, so any value the store ever returns for the key can be checked
// against its index alone, whatever order concurrent clients wrote in.
func payloadInto(dst []byte, idx uint32) {
	x := (uint64(idx) + 1) * 0x9e3779b97f4a7c15
	for w := 0; w < valueSize; w += 8 {
		binary.LittleEndian.PutUint64(dst[w:], x)
		x = x*0x2545f4914f6cdd1d + 0x632be59bd9b4e019
	}
}

func payloadOK(v []byte, idx uint32) bool {
	var want [valueSize]byte
	payloadInto(want[:], idx)
	return string(v) == string(want[:])
}

// keyIndex recovers the index from a key rendered by workload.Key.
func keyIndex(key string) (uint32, bool) {
	const prefix = "key-"
	if len(key) != len(prefix)+8 || key[:len(prefix)] != prefix {
		return 0, false
	}
	var n uint32
	for _, c := range []byte(key[len(prefix):]) {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + uint32(c-'0')
	}
	return n, true
}

// system is one constructed store or cluster with its client connections:
// everything setup_s pays for.
type system struct {
	sp    spec
	keys  []string // pre-rendered once; scan prefixes are substrings
	dist  workload.Dist
	store *store.Store     // single-store seams
	srv   *store.Server    // seamWire, seamAsync
	cl    *cluster.Cluster // routed seams
	conns []store.BatchConn
}

// setUp builds the key table, the distribution, the store or cluster,
// preloads every key and dials one connection per client.
func setUp(sp spec, clients int) (*system, error) {
	sys := &system{sp: sp, keys: renderKeys(sp.Keys), dist: newDist(sp)}
	opt := store.Options{Shards: sp.Shards, Engine: sp.Engine, Lock: locks.TICKET}
	if sp.Seam.routed() {
		sys.cl = cluster.New(cluster.Options{Nodes: sp.Seam.nodes(), Store: opt})
	} else {
		sys.store = store.New(opt)
		if sp.Seam == seamWire || sp.Seam == seamAsync {
			sys.srv = store.NewServer(sys.store, 1)
		}
	}
	for c := 0; c < clients; c++ {
		sys.conns = append(sys.conns, sys.dial())
	}
	if err := sys.preload(); err != nil {
		sys.close()
		return nil, err
	}
	return sys, nil
}

func renderKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = workload.Key(uint64(i))
	}
	return keys
}

func newDist(sp spec) workload.Dist {
	if sp.Theta > 0 {
		return workload.NewZipfian(uint64(sp.Keys), sp.Theta)
	}
	return workload.NewUniform(uint64(sp.Keys))
}

func (sys *system) dial() store.BatchConn {
	switch sys.sp.Seam {
	case seamWire:
		return sys.srv.PipeClient()
	case seamAsync:
		return sys.srv.PipeAsyncClient(asyncWindow)
	case seamRouted1, seamRouted4:
		return sys.cl.Dial(asyncWindow)
	default:
		return sys.store.NewLocalConn(0)
	}
}

// preload stores every key through the first connection, so a routed
// system is populated through its router like real traffic. The chunks
// are small on purpose: a connection's pooled frame buffers grow to the
// largest frame they ever carried and stay that size, and with 1024-entry
// chunks how many 88 KiB buffers happened to end up on live connections
// moved live_heap_mb by 15 % from run to run.
func (sys *system) preload() error {
	const chunk = 32
	arena := make([]byte, chunk*valueSize)
	entries := make([]store.Entry, 0, chunk)
	for base := 0; base < len(sys.keys); base += chunk {
		entries = entries[:0]
		for i := base; i < base+chunk && i < len(sys.keys); i++ {
			v := arena[(i-base)*valueSize : (i-base+1)*valueSize]
			payloadInto(v, uint32(i))
			entries = append(entries, store.Entry{Key: sys.keys[i], Value: v})
		}
		created, err := sys.conns[0].MPut(entries)
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		if created != len(entries) {
			return fmt.Errorf("preload: %d of %d keys were new", created, len(entries))
		}
	}
	return nil
}

// close closes the connections, then the cluster or store. Closing an
// async connection waits for its goroutines; the pipe's server side exits
// on the EOF that follows.
func (sys *system) close() {
	for _, c := range sys.conns {
		_ = c.Close() // in-process pipes: nothing to report, nothing to retry
	}
	if sys.cl != nil {
		sys.cl.Close()
	}
	if sys.store != nil {
		sys.store.Close()
	}
}

// sop is one drawn op in compact form: the stream a seed stands for.
type sop struct {
	kind workload.OpKind
	idx  uint32
}

// generator draws ops the way workload's own engine does — key from the
// distribution, then a percent draw against the mix, one write in eight a
// delete — or replays a recorded stream when one is set.
type generator struct {
	dist   workload.Dist
	mix    workload.Mix
	rng    *xrand.Rand
	stream []sop
	pos    int
}

// newGenerator draws client's stream: each client's generator is seeded
// from the run seed and its number.
func newGenerator(dist workload.Dist, mix workload.Mix, seed uint64, client int) *generator {
	return &generator{dist: dist, mix: mix, rng: xrand.New(seed + uint64(client+1)*0x9e3779b97f4a7c15)}
}

func (g *generator) next() sop {
	if g.stream != nil {
		s := g.stream[g.pos]
		g.pos++
		return s
	}
	idx := uint32(g.dist.Next(g.rng))
	switch draw := int(g.rng.Uint64n(100)); {
	case draw < g.mix.Get:
		return sop{workload.KindGet, idx}
	case draw < g.mix.Get+g.mix.Put:
		if g.rng.Uint64n(8) == 0 {
			return sop{workload.KindDelete, idx}
		}
		return sop{workload.KindPut, idx}
	default:
		return sop{workload.KindScan, idx}
	}
}

// render turns a drawn op into the workload.Op the system sees. val is
// the op's own valueSize bytes of scratch, written only for a put.
func render(s sop, keys []string, val []byte) workload.Op {
	key := keys[s.idx]
	switch s.kind {
	case workload.KindPut:
		payloadInto(val, s.idx)
		return workload.Op{Kind: workload.KindPut, Key: key, Value: val}
	case workload.KindScan:
		return workload.Op{Kind: workload.KindScan, Key: key[:len(key)-2], Limit: scanLimit}
	default:
		return workload.Op{Kind: s.kind, Key: key}
	}
}

// streamHash is FNV-1a over a stream's kinds and key indices.
func streamHash(stream []sop) uint64 {
	h := uint64(14695981039346656037)
	for _, s := range stream {
		for _, b := range [5]byte{byte(s.kind), byte(s.idx), byte(s.idx >> 8), byte(s.idx >> 16), byte(s.idx >> 24)} {
			h = (h ^ uint64(b)) * 1099511628211
		}
	}
	return h
}

// expectGroups is the reference model for a single client's stream: it
// plays the stream, group by group, against a presence bitmap that starts
// with every key resident, and returns the exact Outcome each group must
// report. A group's point ops apply in order and its scans read the state
// after them, which is how both Handle.ExecBatch and the routed client
// (batch frames first, scan frames behind them on the same FIFO
// connections) execute a group.
func expectGroups(stream []sop, keys, group int) []workload.Outcome {
	present := make([]bool, keys)
	for i := range present {
		present[i] = true
	}
	out := make([]workload.Outcome, 0, len(stream)/group)
	for base := 0; base+group <= len(stream); base += group {
		g := stream[base : base+group]
		want := workload.Outcome{Ops: uint64(group)}
		for _, s := range g {
			switch s.kind {
			case workload.KindGet:
				if present[s.idx] {
					want.Hits++
				} else {
					want.Misses++
				}
			case workload.KindPut:
				if !present[s.idx] {
					want.Created++
				}
				present[s.idx] = true
			case workload.KindDelete:
				present[s.idx] = false
			}
		}
		for _, s := range g {
			if s.kind == workload.KindScan {
				want.Scanned += uint64(min(scanLimit, bandCount(present, s.idx)))
			}
		}
		out = append(out, want)
	}
	return out
}

// bandCount counts the resident keys sharing idx's scan prefix.
func bandCount(present []bool, idx uint32) int {
	lo := int(idx) / bandKeys * bandKeys
	n := 0
	for i := lo; i < lo+bandKeys && i < len(present); i++ {
		if present[i] {
			n++
		}
	}
	return n
}
