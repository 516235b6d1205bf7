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
// touched bucket copy-on-write and editing the store's key order; either
// is published with a seqlock-style version dance (odd while publishing,
// even when stable). A point read is two atomic loads, the bucket and
// then the cell's value, and never validates or retries (optAccess.get
// says why that is linearizable); the version discipline is what gives
// a *scan* — a read whose footprint is the store's key order and many
// cells of every shard — a consistent snapshot that never blocks writers
// until it has failed to validate optScanTries times.
//
// Because published buckets and stored values are never mutated in
// place, and the order's leaves, which are, hold only atomics, reads race
// with nothing — the engine is exactly as race-detector-clean as the
// other two. Counters are per-field atomics,
// striped per accessor so the lock-free read path does not serialize on
// one hot counter line; a stats snapshot sums the stripes, stays
// race-free, and each field is monotone across snapshots (the fields of
// one snapshot may straddle in-flight ops; ShardStats documents this as
// the cross-engine contract).
type optimisticEngine struct {
	opt       Options
	shards    []optShard
	guards    []locks.Lock
	order     *optOrder
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
// each beside its hash. The flat-vector layout replaces the segment
// chains of the mutable table: a create or delete rewrites the whole
// bucket anyway, so chaining would only add pointer hops to the read
// path. Only a create or a delete rebuilds it; an overwrite reaches the
// value through the cell and leaves every snapshot as it is.
//
// Per key that is a 16 B bucket entry, a 24 B cell and a 24 B value box
// — 64 B where parallel hash, key and value slices held 48 B — plus an
// 8 B slot in the store's key order (and its share of the slots its leaf
// leaves free and of the order's directory), where a key string took
// 16 B.
type oBucket struct {
	entries []oEntry
}

// oEntry is one bucket entry: a cell and its key's hash, side by side so
// a rebuild copies one slice.
type oEntry struct {
	hash uint64
	cell *oCell
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
// the two hot write-side words (version, bumped twice per publish; live,
// bumped per create/delete) each own a full line so neither invalidates
// the other's readers, the read-mostly buckets header gets the next
// line, padded out, and the stripes array then starts line-aligned —
// without that, stripe elements straddle two lines and stripe 0 shares
// one with the live counter, which is exactly the false sharing the
// stripes exist to avoid. align_test.go pins these offsets.
//
//ssync:cacheline
type optShard struct {
	version pad.Uint64
	live    pad.Int64
	buckets []atomic.Pointer[oBucket]
	_       [pad.CacheLineSize - 24]byte
	stripes [optStripes]optCounters
}

// optOrder is the store's key order and the lock its editors take,
// alone on a line: every leaf split and drop stores cur, so it must
// share no line with the engine's read-mostly header or a shard's
// version (align_test.go checks the versions' lines for every lock
// algorithm).
//
// The order is every live cell of every shard, sorted by key. A create
// or delete edits it inside its own shard's version window, beside the
// bucket it publishes, under lock — taken inside the shard lock, so the
// lock order is always shard → order, and no path holds two shard locks
// while wanting it (the scan's locked pass, the one path that holds
// every shard lock, never takes it). Since any change to the order, a
// bucket or a cell's value happens inside some shard's odd window, a
// scan that finds every shard's version even and unchanged around its
// walk read the whole store at one instant: it seeks once, reads at most
// limit values straight from their cells, and merges nothing.
//
//ssync:cacheline
type optOrder struct {
	cur  atomic.Pointer[oOrder]
	lock locks.Lock
	_    [pad.CacheLineSize - 24]byte
}

// oOrder is the order's directory: its leaves, sorted, every key of one
// leaf sorting before every key of the next. A directory is never
// written after it is published; a leaf split or drop publishes a new
// one.
type oOrder struct {
	leaves []*oLeaf
}

// oLeaf is one leaf of the key order: cells[:n], sorted by key, 1 to
// orderLeafCap of them. Unlike a bucket, a leaf is edited in place —
// under the order lock, inside the editing shard's version window: an
// insert shifts the cells after its place up one slot, a delete shifts
// them down, and a full leaf gives its upper half to a new leaf. Every
// slot and n are atomics, so a scan that overlaps an edit reads a torn
// leaf race-free and then fails validation; the slots at and above n are
// nil, so a leaf keeps no deleted cell reachable, and a torn walk that
// meets one stops there. n is never 0: a delete that would empty a leaf
// drops it from the directory instead. A create or delete allocates
// nothing for the order but on a split or a drop.
type oLeaf struct {
	n     atomic.Int64
	cells [orderLeafCap]atomic.Pointer[oCell]
}

// orderLeafCap is the most cells a leaf holds: 31, so that a leaf with
// its count is exactly 256 B, a size class. An edit shifts at most that
// many cells, and a split, at most every 16 creates into one leaf,
// copies at most that many plus a directory of one pointer per leaf.
const orderLeafCap = 31

// optScanTries bounds a scan's optimistic passes: a scan that fails to
// validate this many times in a row takes every shard's write lock for
// one locked pass instead (the seqlock reader's standard escape), so a
// scan, whose footprint is every shard, cannot starve under writers.
const optScanTries = 8

func newOptimisticEngine(opt Options) *optimisticEngine {
	lopt := locks.Options{MaxThreads: opt.MaxThreads, Nodes: opt.Nodes}
	e := &optimisticEngine{
		opt:    opt,
		shards: make([]optShard, opt.Shards),
		guards: make([]locks.Lock, opt.Shards),
		order:  &optOrder{lock: locks.New(opt.Lock, lopt)},
	}
	e.order.cur.Store(&oOrder{})
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
		vers:   make([]uint64, e.opt.Shards),
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
	for i, en := range b.entries {
		if en.hash == hash && key.eq(en.cell.key) {
			return i
		}
	}
	return -1
}

// optAccess carries the per-goroutine write-lock tokens (one per shard
// and one for the key order), the scan's version snapshot and the
// accessor's counter-stripe index.
type optAccess struct {
	e      *optimisticEngine
	toks   []*locks.Token
	ordTok *locks.Token
	vers   []uint64
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
// load. The shard versions exist for scan's multi-key snapshot, where
// two loads cannot cover the footprint; validating point reads against
// them would only make every Get in a shard retry on writes to
// unrelated keys.
func (a *optAccess) get(shard int, hash uint64, key lookupKey, dst []byte) ([]byte, bool) {
	sh := &a.e.shards[shard]
	a.count(sh).gets.Add(1)
	b := a.e.bucketOf(sh, hash).Load()
	if i := b.find(hash, key); i >= 0 {
		return append(dst, *b.entries[i].cell.val.Load()...), true
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
// retries; it rebuilds no bucket and leaves the order alone. A create
// makes a cell, rebuilds the bucket copy-on-write and publishes it, and
// inserts the cell into the store's key order. The value copy and its pointer box are the two
// allocations every put pays — a stored value is immutable, which is
// what lets readers alias it — so the optimistic engine's put can never
// be allocation-free the way the mutate-in-place engines are; the alloc
// regression tests pin the overwrite and bound the create.
func (a *optAccess) putLocked(sh *optShard, hash uint64, key lookupKey, value []byte) bool {
	a.count(sh).puts.Add(1)
	stored := append([]byte(nil), value...)
	slot := a.e.bucketOf(sh, hash)
	old := slot.Load()
	if i := old.find(hash, key); i >= 0 {
		sh.version.Add(1)
		old.entries[i].cell.val.Store(&stored)
		sh.version.Add(1)
		return false
	}
	c := &oCell{key: key.str()}
	c.val.Store(&stored)
	var entries []oEntry
	if old != nil {
		entries = old.entries
	}
	nb := &oBucket{entries: append(append(make([]oEntry, 0, len(entries)+1), entries...), oEntry{hash, c})}
	a.publish(sh, slot, nb, (*optOrder).insert, c)
	sh.live.Add(1)
	return true
}

// delLocked rebuilds the bucket without key, if present, publishes it
// and removes the key's cell from the store's key order. The shard write
// lock must be held.
func (a *optAccess) delLocked(sh *optShard, hash uint64, key lookupKey) bool {
	a.count(sh).deletes.Add(1)
	slot := a.e.bucketOf(sh, hash)
	old := slot.Load()
	i := old.find(hash, key)
	if i < 0 {
		return false
	}
	nb := &oBucket{entries: append(append(make([]oEntry, 0, len(old.entries)-1), old.entries[:i]...), old.entries[i+1:]...)}
	a.publish(sh, slot, nb, (*optOrder).remove, old.entries[i].cell)
	sh.live.Add(-1)
	return true
}

// publish swaps in a create's or a delete's new bucket snapshot and
// inserts c into the store's key order or removes it (edit), both inside
// the shard's version window. The shard write lock must be held; publish
// takes the order lock inside it.
func (a *optAccess) publish(sh *optShard, slot *atomic.Pointer[oBucket], nb *oBucket, edit func(*optOrder, *oCell), c *oCell) {
	ord := a.e.order
	if a.ordTok == nil {
		a.ordTok = ord.lock.NewToken(a.node)
	}
	ord.lock.Acquire(a.ordTok)
	sh.version.Add(1)
	slot.Store(nb)
	edit(ord, c)
	sh.version.Add(1)
	ord.lock.Release(a.ordTok)
}

// insert adds c, which the order does not hold, to the leaf it sorts
// into (the last, for a key past every leaf), in place if the leaf has
// room. A full leaf splits: in half, or — when c goes past the end of
// the last leaf, as ascending creates do — into itself, kept full, and a
// new leaf of c alone. The order lock must be held.
func (ord *optOrder) insert(c *oCell) {
	o := ord.cur.Load()
	if len(o.leaves) == 0 {
		ord.cur.Store(&oOrder{leaves: []*oLeaf{newLeaf(c)}})
		return
	}
	k := keyOf(c.key)
	li := min(o.seekLeaf(k), len(o.leaves)-1)
	l := o.leaves[li]
	n := l.len()
	i := l.seek(k, n)
	if n < orderLeafCap {
		l.shiftUp(i, n)
		l.cells[i].Store(c)
		l.n.Store(int64(n + 1))
		return
	}
	// The split: of the n+1 cells with c in place, the first half stay
	// in l and the rest move to r.
	half := (n + 1) / 2
	if i == n && li == len(o.leaves)-1 {
		half = n
	}
	r := &oLeaf{}
	for j := half; j <= n; j++ {
		switch {
		case j < i:
			r.cells[j-half].Store(l.cells[j].Load())
		case j == i:
			r.cells[j-half].Store(c)
		default:
			r.cells[j-half].Store(l.cells[j-1].Load())
		}
	}
	r.n.Store(int64(n + 1 - half))
	if i < half {
		l.shiftUp(i, half-1)
		l.cells[i].Store(c)
	}
	for j := half; j < n; j++ {
		l.cells[j].Store(nil)
	}
	l.n.Store(int64(half))
	dir := make([]*oLeaf, len(o.leaves)+1)
	copy(dir, o.leaves[:li+1])
	dir[li+1] = r
	copy(dir[li+2:], o.leaves[li+1:])
	ord.cur.Store(&oOrder{leaves: dir})
}

// remove takes c, which the order holds, out of its leaf in place, or
// drops the leaf from the directory if c is all it holds. The order lock
// must be held.
func (ord *optOrder) remove(c *oCell) {
	o := ord.cur.Load()
	k := keyOf(c.key)
	li := o.seekLeaf(k)
	l := o.leaves[li]
	n := l.len()
	if n == 1 {
		dir := make([]*oLeaf, len(o.leaves)-1)
		copy(dir, o.leaves[:li])
		copy(dir[li:], o.leaves[li+1:])
		ord.cur.Store(&oOrder{leaves: dir})
		return
	}
	for j := l.seek(k, n); j < n-1; j++ {
		l.cells[j].Store(l.cells[j+1].Load())
	}
	l.cells[n-1].Store(nil)
	l.n.Store(int64(n - 1))
}

// newLeaf returns a leaf holding c alone.
func newLeaf(c *oCell) *oLeaf {
	l := &oLeaf{}
	l.cells[0].Store(c)
	l.n.Store(1)
	return l
}

// len returns the leaf's cell count.
func (l *oLeaf) len() int { return int(l.n.Load()) }

// shiftUp moves cells [i, n) up one slot, leaving slot i to be stored.
func (l *oLeaf) shiftUp(i, n int) {
	for j := n; j > i; j-- {
		l.cells[j].Store(l.cells[j-1].Load())
	}
}

// seek returns the index of the first of the leaf's first n cells whose
// key does not sort before k: where a prefix scan of k starts, or where
// k goes in the leaf.
func (l *oLeaf) seek(k lookupKey, n int) int {
	lo, hi := 0, n
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); k.past(l.cells[m].Load()) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// seekLeaf returns the index of the first leaf whose last key does not
// sort before k: the leaf seek's answer lies in (len(o.leaves) when k
// sorts after every key).
func (o *oOrder) seekLeaf(k lookupKey) int {
	lo, hi := 0, len(o.leaves)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		l := o.leaves[m]
		if k.past(l.cells[l.len()-1].Load()) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// past reports whether k sorts after c's key. A nil c, which only a
// walk torn by an edit meets, counts as not.
func (k lookupKey) past(c *oCell) bool { return c != nil && k.after(c.key) }

// scan appends the order's cells whose keys start with prefix, at most
// limit of them (limit <= 0: all), each with its value as it is now: one
// seek into the directory and one into a leaf, then a walk that stops at
// the first key past the prefix. Values alias the stored ones, which
// are never mutated, so nothing is copied. Unless the caller excludes
// every editor, the result is only as good as its validation.
func (o *oOrder) scan(prefix lookupKey, limit int, out []Entry) []Entry {
	base := len(out)
	li := o.seekLeaf(prefix)
	if li == len(o.leaves) {
		return out
	}
	first := o.leaves[li]
	for i := first.seek(prefix, first.len()); li < len(o.leaves); li, i = li+1, 0 {
		l := o.leaves[li]
		for n := l.len(); i < n; i++ {
			c := l.cells[i].Load()
			if c == nil || !prefix.prefixOf(c.key) || (limit > 0 && len(out)-base == limit) {
				return out
			}
			out = append(out, Entry{Key: c.key, Value: *c.val.Load()})
		}
	}
	return out
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

// scan reads the store at one instant: it counts a scan on every shard,
// then runs tryScan until one validates, and after optScanTries failures
// in a row runs lockedScan instead. Writers are never blocked by a scan
// that validates.
func (a *optAccess) scan(prefix lookupKey, limit int, out []Entry) []Entry {
	for i := range a.e.shards {
		a.count(&a.e.shards[i]).scans.Add(1)
	}
	for try := 0; try < optScanTries; try++ {
		if res, ok := a.tryScan(prefix, limit, out); ok {
			return res
		}
	}
	return a.lockedScan(prefix, limit, out)
}

// tryScan is one optimistic pass: read every shard's version, waiting
// out a shard whose version is odd, walk the key order, then re-read
// every version. It reports whether the walk validated: every shard then
// was stable from the first read to the second, so nothing the walk read
// — the order, or any cell's value — changed while it read.
func (a *optAccess) tryScan(prefix lookupKey, limit int, out []Entry) ([]Entry, bool) {
	shards := a.e.shards
	for i, spins := 0, 0; i < len(shards); {
		if a.vers[i] = shards[i].version.Load(); a.vers[i]&1 == 0 {
			i++
		} else if spins++; spins%16 == 0 {
			runtime.Gosched()
		}
	}
	res := a.e.order.cur.Load().scan(prefix, limit, out)
	for i := range shards {
		if shards[i].version.Load() != a.vers[i] {
			return out, false
		}
	}
	return res, true
}

// lockedScan is the scan's escape from writers: holding every shard's
// write lock, taken in index order, it walks the order as no writer can
// change it.
func (a *optAccess) lockedScan(prefix lookupKey, limit int, out []Entry) []Entry {
	for i := range a.e.shards {
		a.lock(i)
	}
	out = a.e.order.cur.Load().scan(prefix, limit, out)
	for i := range a.e.shards {
		a.unlock(i)
	}
	return out
}

// exportShard is a seqlock snapshot walk over buckets [from, len),
// validated against the shard's version and bounded: it stops at a
// bucket boundary once the entry or byte budget is reached, and the
// whole chunk revalidates against the shard version so a resumed walk
// never observes a half-published bucket. Bucket indices are stable
// under copy-on-write publishes (only bucket contents are rebuilt), so
// the resume cursor survives concurrent writers.
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
				for _, en := range b.entries {
					if pred(en.hash) {
						v := *en.cell.val.Load()
						out = append(out, Entry{Key: en.cell.key, Value: append([]byte(nil), v...)})
						bytes += entryWireSize(en.cell.key, v)
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
