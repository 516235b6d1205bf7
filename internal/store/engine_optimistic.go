package store

import (
	"runtime"
	"sync/atomic"

	"ssync/internal/hashkit"
	"ssync/internal/locks"
	"ssync/internal/pad"
)

// optimisticEngine is the optimistic-read paradigm: Get and the all-read
// batch groups (MGet) complete without acquiring the shard lock. Each
// bucket is an immutable snapshot published through an atomic pointer;
// writers — which still serialize through the shard's write lock, any
// libslock algorithm — rebuild the touched bucket copy-on-write and
// publish it with a seqlock-style version dance (odd while publishing,
// even when stable). A point read is a single atomic load of the
// published bucket (immutability makes the load its own linearization
// point, so unlike a classical seqlock it never validates or retries);
// the version discipline is what gives per-shard *scans* — reads whose
// footprint spans every bucket — a consistent snapshot that never
// blocks writers.
//
// Because published buckets are never mutated in place, reads race with
// nothing — the engine is exactly as race-detector-clean as the other
// two. Counters are per-field atomics, striped per accessor so the
// lock-free read path does not serialize on one hot counter line; a
// stats snapshot sums the stripes, stays race-free, and each field is
// monotone across snapshots (the fields of one snapshot may straddle
// in-flight ops; ShardStats documents this as the cross-engine
// contract).
type optimisticEngine struct {
	opt       Options
	shards    []optShard
	guards    []locks.Lock
	accessCtr atomic.Uint64 // round-robin counter-stripe assignment
}

// oBucket is an immutable bucket snapshot. The flat-vector layout
// replaces the segment chains of the mutable table: copy-on-write
// rewrites the whole bucket anyway, so chaining would only add pointer
// hops to the read path. Inner value slices are immutable once published
// and may be shared between successive snapshots.
type oBucket struct {
	hashes []uint64
	keys   []string
	vals   [][]byte
}

// optStripes is the number of counter stripes per shard. Counting a get
// must not re-serialize the readers the paradigm just unserialized, so
// accessors are spread round-robin over padded stripes: the common case
// is an uncontended atomic add on a line no other accessor touches.
const optStripes = 8

// optCounters is one counter stripe, alone on its cache line.
//
//ssync:cacheline
type optCounters struct {
	gets    atomic.Uint64
	puts    atomic.Uint64
	deletes atomic.Uint64
	scans   atomic.Uint64
	_       [pad.CacheLineSize - 32]byte
}

// optShard is one shard: the seqlock version, the live-entry count,
// the published buckets and the counter stripes. Field order is layout:
// the two hot write-side words (version, bumped twice per publish;
// live, bumped per create/delete) each own a full line so neither
// invalidates the other's readers, the read-mostly buckets header is
// padded out to the next line, and the stripes array then starts
// line-aligned — without that, stripe elements straddle two lines and
// stripe 0 shares one with the live counter, which is exactly the
// false sharing the stripes exist to avoid. align_test.go pins these
// offsets.
//
//ssync:cacheline
type optShard struct {
	version pad.Uint64
	live    pad.Int64
	buckets []atomic.Pointer[oBucket]
	_       [pad.CacheLineSize - 24]byte
	stripes [optStripes]optCounters
}

func newOptimisticEngine(opt Options) *optimisticEngine {
	e := &optimisticEngine{
		opt:    opt,
		shards: make([]optShard, opt.Shards),
		guards: make([]locks.Lock, opt.Shards),
	}
	lopt := locks.Options{MaxThreads: opt.MaxThreads, Nodes: opt.Nodes}
	for i := range e.shards {
		e.shards[i].buckets = make([]atomic.Pointer[oBucket], opt.Buckets)
		e.guards[i] = locks.New(opt.Lock, lopt)
	}
	return e
}

func (e *optimisticEngine) access(node int) shardAccess {
	return &optAccess{
		e:      e,
		toks:   make([]*locks.Token, e.opt.Shards),
		node:   node,
		stripe: int(e.accessCtr.Add(1) % optStripes),
	}
}

func (e *optimisticEngine) close() {}

// bucketOf returns the published-bucket slot for a hash.
func (e *optimisticEngine) bucketOf(sh *optShard, hash uint64) *atomic.Pointer[oBucket] {
	return &sh.buckets[hashkit.Bucket(hash, uint64(e.opt.Buckets))]
}

// find scans one immutable bucket snapshot.
func (b *oBucket) find(hash uint64, key lookupKey) int {
	if b == nil {
		return -1
	}
	for i, h := range b.hashes {
		if h == hash && key.eq(b.keys[i]) {
			return i
		}
	}
	return -1
}

// optAccess carries the per-goroutine write-lock tokens and the
// accessor's counter-stripe index; the read path itself needs no
// per-goroutine state.
type optAccess struct {
	e      *optimisticEngine
	toks   []*locks.Token
	node   int
	stripe int
}

// count returns this accessor's counter stripe in a shard.
func (a *optAccess) count(sh *optShard) *optCounters { return &sh.stripes[a.stripe] }

func (a *optAccess) lock(i int) {
	if a.toks[i] == nil {
		a.toks[i] = a.e.guards[i].NewToken(a.node)
	}
	a.e.guards[i].Acquire(a.toks[i])
}

func (a *optAccess) unlock(i int) { a.e.guards[i].Release(a.toks[i]) }

// get is the paradigm's point: one atomic load of the published
// immutable bucket — no lock, no validation, no retry, no waiting on
// writers at all. Immutability makes the load itself the linearization
// point: the snapshot a reader observes is exactly the state some
// prefix of the shard's writes published. The shard version exists for
// scanShard's multi-bucket snapshot, where a single load cannot cover
// the footprint; validating point reads against it would only make
// every Get in a shard retry on publishes to unrelated buckets.
func (a *optAccess) get(shard int, hash uint64, key lookupKey, dst []byte) ([]byte, bool) {
	sh := &a.e.shards[shard]
	a.count(sh).gets.Add(1)
	b := a.e.bucketOf(sh, hash).Load()
	if i := b.find(hash, key); i >= 0 {
		// The loaded bucket is immutable, so appending from vals[i] into
		// the caller's buffer is safe without any validation.
		return append(dst, b.vals[i]...), true
	}
	return dst, false
}

func (a *optAccess) put(shard int, hash uint64, key lookupKey, value []byte) bool {
	a.lock(shard)
	defer a.unlock(shard)
	return a.putLocked(&a.e.shards[shard], hash, key, value)
}

func (a *optAccess) del(shard int, hash uint64, key lookupKey) bool {
	a.lock(shard)
	defer a.unlock(shard)
	return a.delLocked(&a.e.shards[shard], hash, key)
}

// putLocked rebuilds the bucket copy-on-write and publishes it under the
// version dance. The shard write lock must be held. Copy-on-write is
// the one write path that allocates by design — the rebuilt bucket IS
// the synchronization mechanism — so the optimistic engine's put can
// never be allocation-free the way the mutate-in-place engines are;
// the alloc regression tests bound it instead of zeroing it.
func (a *optAccess) putLocked(sh *optShard, hash uint64, key lookupKey, value []byte) bool {
	e := a.e
	a.count(sh).puts.Add(1)
	slot := e.bucketOf(sh, hash)
	old := slot.Load()
	i := old.find(hash, key)
	nb := &oBucket{}
	if old != nil {
		nb.hashes = append([]uint64(nil), old.hashes...)
		nb.keys = append([]string(nil), old.keys...)
		nb.vals = append([][]byte(nil), old.vals...)
	}
	stored := append([]byte(nil), value...)
	created := i < 0
	if created {
		nb.hashes = append(nb.hashes, hash)
		nb.keys = append(nb.keys, key.str())
		nb.vals = append(nb.vals, stored)
	} else {
		nb.vals[i] = stored
	}
	e.publish(sh, slot, nb)
	if created {
		sh.live.Add(1)
	}
	return created
}

// delLocked rebuilds the bucket without key, if present. The shard write
// lock must be held.
func (a *optAccess) delLocked(sh *optShard, hash uint64, key lookupKey) bool {
	e := a.e
	a.count(sh).deletes.Add(1)
	slot := e.bucketOf(sh, hash)
	old := slot.Load()
	i := old.find(hash, key)
	if i < 0 {
		return false
	}
	nb := &oBucket{
		hashes: make([]uint64, 0, len(old.hashes)-1),
		keys:   make([]string, 0, len(old.keys)-1),
		vals:   make([][]byte, 0, len(old.vals)-1),
	}
	nb.hashes = append(append(nb.hashes, old.hashes[:i]...), old.hashes[i+1:]...)
	nb.keys = append(append(nb.keys, old.keys[:i]...), old.keys[i+1:]...)
	nb.vals = append(append(nb.vals, old.vals[:i]...), old.vals[i+1:]...)
	e.publish(sh, slot, nb)
	sh.live.Add(-1)
	return true
}

// publish swaps in a new bucket snapshot inside the seqlock write
// window: odd version tells optimistic readers a publish is in flight.
func (e *optimisticEngine) publish(sh *optShard, slot *atomic.Pointer[oBucket], nb *oBucket) {
	sh.version.Add(1)
	slot.Store(nb)
	sh.version.Add(1)
}

// execGroup keeps the paradigm's promise at the batch layer: a group
// with no writes (an MGet) runs entirely lock-free on versioned reads;
// a group with writes takes the shard write lock once and executes the
// whole group under it.
func (a *optAccess) execGroup(shard int, ops *batchOps, idxs []int, resps []Response, arena *[]byte) {
	hasWrite := false
	for _, i := range idxs {
		if op, _, _ := ops.at(i); op != OpGet {
			hasWrite = true
			break
		}
	}
	// Published buckets are immutable, so the same lock-free get serves
	// under the write lock too (no publish can race it there).
	get := func(hash uint64, key lookupKey, dst []byte) ([]byte, bool) { return a.get(shard, hash, key, dst) }
	if !hasWrite {
		execPointOps(ops, idxs, resps, arena, get, nil, nil)
		return
	}
	sh := &a.e.shards[shard]
	a.lock(shard)
	defer a.unlock(shard)
	execPointOps(ops, idxs, resps, arena, get,
		func(hash uint64, key lookupKey, value []byte) bool { return a.putLocked(sh, hash, key, value) },
		func(hash uint64, key lookupKey) bool { return a.delLocked(sh, hash, key) })
}

// scanShard takes a seqlock snapshot of the whole shard: read every
// published bucket, then validate the version. Writers are never
// blocked; the scan retries instead.
func (a *optAccess) scanShard(shard int, prefix string, out []Entry) []Entry {
	sh := &a.e.shards[shard]
	a.count(sh).scans.Add(1)
	base := len(out)
	for spins := 0; ; spins++ {
		v1 := sh.version.Load()
		if v1&1 == 0 {
			out = out[:base]
			for bi := range sh.buckets {
				b := sh.buckets[bi].Load()
				if b == nil {
					continue
				}
				for i, k := range b.keys {
					if hasPrefix(k, prefix) {
						out = append(out, Entry{Key: k, Value: append([]byte(nil), b.vals[i]...)})
					}
				}
			}
			if sh.version.Load() == v1 {
				return out
			}
		}
		if spins%16 == 15 {
			runtime.Gosched()
		}
	}
}

// exportShard is a seqlock snapshot walk over buckets [from, len),
// exactly like scanShard but bounded: it stops at a bucket boundary
// once the entry or byte budget is reached, and the whole chunk
// revalidates against the shard version so a resumed walk never
// observes a half-published bucket. Bucket indices are stable under
// copy-on-write publishes (only bucket contents are rebuilt), so the
// resume cursor survives concurrent writers.
func (a *optAccess) exportShard(shard, from int, pred func(uint64) bool, maxEntries, maxBytes int, out []Entry) (int, []Entry) {
	sh := &a.e.shards[shard]
	a.count(sh).scans.Add(1)
	base := len(out)
	for spins := 0; ; spins++ {
		v1 := sh.version.Load()
		if v1&1 == 0 {
			out = out[:base]
			next, bytes := len(sh.buckets), 0
			for bi := from; bi < len(sh.buckets); bi++ {
				if len(out)-base >= maxEntries || bytes >= maxBytes {
					next = bi
					break
				}
				b := sh.buckets[bi].Load()
				if b == nil {
					continue
				}
				for i, h := range b.hashes {
					if pred(h) {
						out = append(out, Entry{Key: b.keys[i], Value: append([]byte(nil), b.vals[i]...)})
						bytes += entryWireSize(b.keys[i], b.vals[i])
					}
				}
			}
			if sh.version.Load() == v1 {
				return next, out
			}
		}
		if spins%16 == 15 {
			runtime.Gosched()
		}
	}
}

func (a *optAccess) entries(shard int) int {
	return int(a.e.shards[shard].live.Load())
}

func (a *optAccess) stats(shard int) Counters {
	sh := &a.e.shards[shard]
	var c Counters
	for i := range sh.stripes {
		st := &sh.stripes[i]
		c.Gets += st.gets.Load()
		c.Puts += st.puts.Load()
		c.Deletes += st.deletes.Load()
		c.Scans += st.scans.Load()
	}
	return c
}
