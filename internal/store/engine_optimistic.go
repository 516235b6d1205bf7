package store

import (
	"runtime"
	"sync/atomic"

	"ssync/internal/hashkit"
	"ssync/internal/locks"
	"ssync/internal/pad"
)

// optimisticEngine is the optimistic-read paradigm: Get and the all-read
// batch groups (MGet) complete without acquiring the shard lock. Every
// key has a cell whose value is an atomic pointer, and each bucket is an
// immutable snapshot of its cells published through an atomic pointer.
// Writers — which still serialize through the shard's write lock, any
// libslock algorithm — overwrite a present key by storing a fresh value
// pointer into its cell, and create or delete one by rebuilding the
// touched bucket copy-on-write; either is published with a seqlock-style
// version dance (odd while publishing, even when stable). A point read
// is two atomic loads, the bucket and then the cell's value, and never
// validates or retries (optAccess.get says why that is linearizable);
// the version discipline is what gives per-shard *scans* — reads whose
// footprint is the shard's key order and many cells — a consistent
// snapshot that never blocks writers.
//
// Because published buckets and stored values are never mutated in
// place, reads race with nothing — the engine is exactly as
// race-detector-clean as the other two. Counters are per-field atomics,
// striped per accessor so the lock-free read path does not serialize on
// one hot counter line; a stats snapshot sums the stripes, stays
// race-free, and each field is monotone across snapshots (the fields of
// one snapshot may straddle in-flight ops; ShardStats documents this as
// the cross-engine contract).
type optimisticEngine struct {
	opt       Options
	shards    []optShard
	guards    []locks.Lock
	accessCtr atomic.Uint64 // round-robin counter-stripe assignment
}

// oCell is one key's slot, shared by every bucket snapshot and key order
// that holds the key. The key never changes; an overwrite stores a fresh
// value pointer, and a stored value is never mutated, so a reader may
// alias it for as long as it likes. A cell lives from the create that
// makes it to the delete that drops it: a deleted cell is never written
// again, and a re-create makes a new one.
type oCell struct {
	key string
	val atomic.Pointer[[]byte]
}

// oBucket is an immutable bucket snapshot: which cells the bucket holds,
// and their hashes. The flat-vector layout replaces the segment chains
// of the mutable table: a create or delete rewrites the whole bucket
// anyway, so chaining would only add pointer hops to the read path.
// Only a create or a delete rebuilds it; an overwrite reaches the value
// through the cell and leaves every snapshot as it is.
//
// Per key that is 16 B of bucket entries (hash and cell pointer), a
// 24 B cell and a 24 B value box — 64 B where parallel hash, key and
// value slices held 48 B — plus 8 B in the key order, where a key string
// took 16 B.
type oBucket struct {
	hashes []uint64
	cells  []*oCell
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
// the published buckets, the ordered key view and the counter stripes.
// Field order is layout: the two hot write-side words (version, bumped
// twice per publish; live, bumped per create/delete) each own a full
// line so neither invalidates the other's readers, the read-mostly
// buckets header and order pointer share the next line, padded out, and
// the stripes array then starts line-aligned — without that, stripe
// elements straddle two lines and stripe 0 shares one with the live
// counter, which is exactly the false sharing the stripes exist to
// avoid. align_test.go pins these offsets.
//
// order is the shard's live cells, sorted by key: the same cells the
// buckets hold, published copy-on-write by every create and delete
// inside the same version window as the bucket it goes with, so a scan
// that validates sees both or neither. It is what lets a prefix scan
// seek, read each value straight from its cell and stop after limit
// keys instead of walking every bucket.
//
//ssync:cacheline
type optShard struct {
	version pad.Uint64
	live    pad.Int64
	buckets []atomic.Pointer[oBucket]
	order   atomic.Pointer[[]*oCell]
	_       [pad.CacheLineSize - 32]byte
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
		if h == hash && key.eq(b.cells[i].key) {
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

// get is the paradigm's point: two atomic loads, the published bucket
// and then the found cell's value — no lock, no validation, no retry, no
// waiting on writers at all. It is linearizable because of three facts:
// an overwrite stores only into a cell of the shard's current bucket,
// under the shard lock; a deleted cell is never written again (a
// re-create makes a new cell); and a stored value is never mutated. So
// a reader whose bucket was current at its first load either misses —
// the key was absent at that load — or holds a cell that was live then,
// and reads a value the key held at some instant between its two loads:
// the cell's value at the second load if the cell is still live, else
// the last one it held before its delete, which came after the first
// load. The shard version exists for scanShard's multi-key snapshot,
// where two loads cannot cover the footprint; validating point reads
// against it would only make every Get in a shard retry on writes to
// unrelated keys.
func (a *optAccess) get(shard int, hash uint64, key lookupKey, dst []byte) ([]byte, bool) {
	sh := &a.e.shards[shard]
	a.count(sh).gets.Add(1)
	b := a.e.bucketOf(sh, hash).Load()
	if i := b.find(hash, key); i >= 0 {
		return append(dst, *b.cells[i].val.Load()...), true
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

// putLocked stores a copy of value under key. The shard write lock must
// be held. An overwrite stores a fresh value pointer into the key's
// cell inside the version window, so a scan that read the old value
// retries; it rebuilds no bucket and publishes no order. A create makes
// a cell, rebuilds the bucket copy-on-write and publishes it with the
// new key order. The value copy and its pointer box are the two
// allocations every put pays — a stored value is immutable, which is
// what lets readers alias it — so the optimistic engine's put can never
// be allocation-free the way the mutate-in-place engines are; the alloc
// regression tests pin the overwrite and bound the create.
func (a *optAccess) putLocked(sh *optShard, hash uint64, key lookupKey, value []byte) bool {
	e := a.e
	a.count(sh).puts.Add(1)
	stored := append([]byte(nil), value...)
	slot := e.bucketOf(sh, hash)
	old := slot.Load()
	if i := old.find(hash, key); i >= 0 {
		sh.version.Add(1)
		old.cells[i].val.Store(&stored)
		sh.version.Add(1)
		return false
	}
	c := &oCell{key: key.str()}
	c.val.Store(&stored)
	var hashes []uint64
	var cells []*oCell
	if old != nil {
		hashes, cells = old.hashes, old.cells
	}
	nb := &oBucket{
		hashes: append(append(make([]uint64, 0, len(hashes)+1), hashes...), hash),
		cells:  append(append(make([]*oCell, 0, len(cells)+1), cells...), c),
	}
	e.publish(sh, slot, nb, orderInsert(sh.order.Load(), c))
	sh.live.Add(1)
	return true
}

// delLocked rebuilds the bucket without key, if present, and publishes
// it with the key order that drops its cell. The shard write lock must
// be held.
func (a *optAccess) delLocked(sh *optShard, hash uint64, key lookupKey) bool {
	e := a.e
	a.count(sh).deletes.Add(1)
	slot := e.bucketOf(sh, hash)
	old := slot.Load()
	i := old.find(hash, key)
	if i < 0 {
		return false
	}
	n := len(old.hashes) - 1
	nb := &oBucket{
		hashes: append(append(make([]uint64, 0, n), old.hashes[:i]...), old.hashes[i+1:]...),
		cells:  append(append(make([]*oCell, 0, n), old.cells[:i]...), old.cells[i+1:]...),
	}
	e.publish(sh, slot, nb, orderDelete(sh.order.Load(), old.cells[i].key))
	sh.live.Add(-1)
	return true
}

// publish swaps in a create's or a delete's new bucket snapshot and the
// shard's new key order inside the seqlock write window: odd version
// tells optimistic readers a publish is in flight.
func (e *optimisticEngine) publish(sh *optShard, slot *atomic.Pointer[oBucket], nb *oBucket, order *[]*oCell) {
	sh.version.Add(1)
	slot.Store(nb)
	sh.order.Store(order)
	sh.version.Add(1)
}

// orderInsert returns the key order cur with c inserted. A key that
// sorts last is appended in place when there is capacity: the slots past
// a published length are never part of any published order (a removal
// or mid-order insert always copies to a fresh array, so the lengths
// published over one array only grow), so no reader can see the write.
// Only that tail growth copies into slack — an eighth more, so a run of
// ascending creates (a preload) copies the order once per eighth of
// growth instead of once per key, at 1 B per key rather than the 8 B a
// doubling costs. Anything else copies to the exact size.
func orderInsert(cur *[]*oCell, c *oCell) *[]*oCell {
	var cells []*oCell
	if cur != nil {
		cells = *cur
	}
	n := len(cells) + 1
	i := keyOf(c.key).seek(cells)
	if i == len(cells) {
		if len(cells) == cap(cells) {
			cells = append(make([]*oCell, 0, n+n/8), cells...)
		}
		next := append(cells, c)
		return &next
	}
	next := make([]*oCell, n)
	copy(next, cells[:i])
	next[i] = c
	copy(next[i+1:], cells[i:])
	return &next
}

// orderDelete returns a copy of the key order cur without the cell of
// k, which it holds.
func orderDelete(cur *[]*oCell, k string) *[]*oCell {
	cells := *cur
	i := keyOf(k).seek(cells)
	next := make([]*oCell, len(cells)-1)
	copy(next, cells[:i])
	copy(next[i:], cells[i+1:])
	return &next
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
	// The lock-free get needs nothing from the lock, so the same get
	// serves under it too (no write can race it there).
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

// scanShard takes a seqlock snapshot of the keys it needs: load the
// published key order, seek to the prefix, read the value of each of at
// most limit cells, then validate the version. The run comes out sorted
// because the order is. Values alias the stored ones, which are never
// mutated, so nothing is copied here — the caller's merge copies the
// survivors once. Every write stores inside the version window, an
// overwrite's cell store included, so a scan that validates read every
// cell as it stood at one instant. Writers are never blocked; the scan
// retries instead.
func (a *optAccess) scanShard(shard int, prefix lookupKey, limit int, out []Entry, _ *[]byte) []Entry {
	sh := &a.e.shards[shard]
	a.count(sh).scans.Add(1)
	base := len(out)
	for spins := 0; ; spins++ {
		v1 := sh.version.Load()
		if v1&1 == 0 {
			out = out[:base]
			var cells []*oCell
			if p := sh.order.Load(); p != nil {
				cells = *p
			}
			for i := prefix.seek(cells); i < len(cells) && prefix.prefixOf(cells[i].key); i++ {
				if limit > 0 && len(out)-base == limit {
					break
				}
				out = append(out, Entry{Key: cells[i].key, Value: *cells[i].val.Load()})
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
// validated like scanShard and bounded: it stops at a bucket boundary
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
						c := b.cells[i]
						v := *c.val.Load()
						out = append(out, Entry{Key: c.key, Value: append([]byte(nil), v...)})
						bytes += entryWireSize(c.key, v)
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
