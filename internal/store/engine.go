package store

import "fmt"

// Engine names a shard-engine paradigm — the paper's synchronization
// taxonomy lifted to the store's execution layer. All three engines
// serve the exact same store API and wire protocol; only how a shard's
// mutual exclusion is enforced differs:
//
//   - EngineLocked guards each shard's bucket table with a lock (any of
//     the nine libslock algorithms) — the locking paradigm.
//   - EngineActor gives each shard to one goroutine that owns the table
//     outright and executes batched request/reply messages from a
//     channel mailbox — the message-passing paradigm, internal/mp's
//     client-server discipline with Go channels as the transport.
//   - EngineOptimistic publishes immutable copy-on-write buckets of
//     per-key cells, whose values an overwrite swaps by pointer, and
//     keeps one key order per store, so point reads complete without
//     acquiring the shard lock (two atomic loads) and a scan is one seek
//     into the order, validated against seqlock-style shard versions;
//     writers still lock — the optimistic paradigm.
type Engine string

// The shard-engine paradigms.
const (
	EngineLocked     Engine = "locked"
	EngineActor      Engine = "actor"
	EngineOptimistic Engine = "optimistic"
)

// Engines lists every paradigm, in comparison-table order.
var Engines = []Engine{EngineLocked, EngineActor, EngineOptimistic}

// ParseEngine resolves an engine name.
func ParseEngine(name string) (Engine, error) {
	for _, e := range Engines {
		if string(e) == name {
			return e, nil
		}
	}
	return "", fmt.Errorf("unknown shard engine %q (have %v)", name, Engines)
}

// shardEngine is the concurrency-control core of a Store: it owns the
// shard data and decides how concurrent access is serialized. The store
// layer above it (Handle, ExecBatch, Scan, the wire server) is engine
// agnostic — adding a backend (replication, caching, NUMA-aware
// placement) means writing a new engine, not forking the store.
type shardEngine interface {
	// access returns a per-goroutine accessor; node is the NUMA hint for
	// hierarchical locks (unused by the actor engine).
	access(node int) shardAccess
	// close releases engine resources (goroutines); idempotent, and only
	// legal once every accessor has quiesced.
	close()
}

// shardAccess is the per-goroutine execution surface of an engine: point
// ops, per-shard group execution (the batch path's unit of
// amortization), store scans, shard exports and race-free counter
// snapshots. A
// shardAccess must not be shared between goroutines.
//
// Point ops take a lookupKey — the zero-copy seam. The key may alias a
// transient buffer (a wire frame); an engine must not retain its bytes
// past the call, and the single copy an insert needs is taken with
// lookupKey.str (copy-on-insert). get appends the value to the
// caller-owned dst and returns the extended slice, so a steady-state
// read allocates nothing anywhere in the engine.
type shardAccess interface {
	get(shard int, hash uint64, key lookupKey, dst []byte) ([]byte, bool)
	put(shard int, hash uint64, key lookupKey, value []byte) bool
	del(shard int, hash uint64, key lookupKey) bool
	// execGroup executes the point ops ops.at(i) for i in idxs — all
	// mapping to shard — in one engine visit, writing resps[i]. Keys and
	// put payloads may alias a frame like any lookupKey; hit values go
	// where execPointOps puts them (*arena, or an allocation each when
	// arena is nil).
	execGroup(shard int, ops *batchOps, idxs []int, resps []Response, arena *[]byte)
	// scan appends to out the store's entries whose keys start with
	// prefix, sorted by key and trimmed to limit (limit <= 0: all), and
	// counts one scan on every shard. The prefix may alias a frame like
	// any lookupKey. Keys are the engine's own immutable strings. A value
	// aliases engine storage where that is immutable (optimistic) and is
	// otherwise copied, under the engine's exclusion, onto the accessor's
	// scan arena (locked, actor): either way it is valid until the
	// accessor's next scan, and the caller copies out what it keeps. The
	// optimistic engine reads the whole store at one instant; the other
	// two merge per-shard runs (shardRuns), a union of per-shard
	// snapshots.
	scan(prefix lookupKey, limit int, out []Entry) []Entry
	// exportShard walks the shard's buckets from index from, appending
	// copies of the entries whose hash satisfies pred, and stops early at
	// a bucket boundary once maxEntries entries or maxBytes encoded bytes
	// have been appended. It returns the next bucket index to resume from
	// (the shard's bucket count when exhausted). Whole-bucket granularity
	// is what makes a resumed walk sound under concurrent writes: a
	// bucket is either fully shipped or not started, so a mutation can
	// only affect buckets the cursor has not passed — and mutations
	// behind the cursor are the migration tracker's job.
	exportShard(shard, from int, pred func(hash uint64) bool, maxEntries, maxBytes int, out []Entry) (int, []Entry)
	// entries returns the shard's live entry count.
	entries(shard int) int
	// stats snapshots the shard's operation counters.
	stats(shard int) Counters
}
