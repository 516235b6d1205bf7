// Package store is the system-level payoff of the paper's synchronization
// study: a sharded concurrent key-value store whose N independent shards
// are executed by a pluggable ShardEngine — lock-guarded bucket tables
// (any libslock algorithm), the same tables owned by message-passing
// shard actors, or optimistic shards whose gets take no lock and whose
// scans validate seqlock-style shard versions. Where
// internal/ssht reproduces the paper's hash-table *microbenchmark* and
// internal/kvs mimics Memcached's locking anatomy, this package is the
// store a service would actually build on: string keys, byte-slice
// values, Get/Put/Delete plus an ordered prefix Scan, per-shard operation
// counters for throughput attribution, and a length-prefixed wire
// protocol (wire.go, server.go, client.go) so load generators can drive
// it like real traffic.
//
// The engine layer (engine.go and the engine_*.go files) turns the
// paper's paradigm comparison — locks vs message passing vs optimistic
// concurrency — into an end-to-end experiment: construct the same store
// with each engine and measure how the choice propagates through a full
// request path instead of a tight acquire/release loop.
package store

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"unsafe"

	"ssync/internal/hashkit"
	"ssync/internal/locks"
)

// lookupKey is the engines' key: a string, or the bytes of a request
// frame read as one without a copy (frame set). The direct API hands
// engines string keys; the wire server hands them byte slices that alias
// the request frame — the zero-copy seam that keeps the point-op path
// allocation-free. Either compares against stored string keys as a
// string, and str() makes the single copy an insert is allowed to take:
// copy-on-insert is the only place a frame-aliasing key may outlive its
// frame. It is three words so that the compiler passes it in
// registers: a string plus a slice (five words) is kept in memory and
// copied through the stack at every table call, inside the shard's
// critical section.
type lookupKey struct {
	s     string
	frame bool
}

// keyOf wraps a string key.
func keyOf(s string) lookupKey { return lookupKey{s: s} }

// keyBytes wraps a byte-slice key that may alias a transient buffer.
// The key's string is b's bytes, so b must not change while the key is
// in use; the engines promise not to retain it past the call.
func keyBytes(b []byte) lookupKey {
	return lookupKey{s: unsafe.String(unsafe.SliceData(b), len(b)), frame: true}
}

// eq compares against a stored key without allocating.
func (k lookupKey) eq(s string) bool { return k.s == s }

// str returns an owning string — the copy-on-insert point for
// frame-aliasing keys, free for string keys.
func (k lookupKey) str() string {
	if k.frame {
		return strings.Clone(k.s)
	}
	return k.s
}

// prefixOf reports whether s starts with k, k read as a scan prefix.
func (k lookupKey) prefixOf(s string) bool { return strings.HasPrefix(s, k.s) }

// after reports whether k sorts after the stored key s.
func (k lookupKey) after(s string) bool { return s < k.s }

// hash is FNV-1a over the key bytes.
func (k lookupKey) hash() uint64 { return hashkit.FNV1a(k.s) }

// scanLimit converts a wire scan Limit (uint32, 0 = unlimited) to the
// int Scan takes. On 32-bit platforms int(limit) wraps negative for
// limits >= 2^31, which Scan would read as "unlimited" — the opposite
// of what the client asked for. Clamp to MaxInt32 instead.
func scanLimit(limit uint32) int {
	if n := int(limit); n >= 0 {
		return n
	}
	return math.MaxInt32
}

// segCap is the number of entries per bucket segment; segments chain when
// a bucket overflows. Hashes are packed together, separate from keys and
// values, so a bucket miss scans only hash words (the ssht layout; see
// internal/hashkit for why the two layouts intentionally diverge).
const segCap = 7

// segment is one chunk of a bucket.
type segment struct {
	hashes [segCap]uint64
	used   [segCap]bool
	keys   [segCap]string
	vals   [segCap][]byte
	next   *segment
}

// Counters tallies the operations a shard has executed. How a snapshot
// stays race-free is the engine's business: the locked and actor
// engines count inside the visit that runs the op, under the shard lock
// or on the shard's owner, and snapshot the counters in a visit of their
// own; the optimistic engine counts with per-field atomics.
type Counters struct {
	Gets    uint64 `json:"gets"`
	Puts    uint64 `json:"puts"`
	Deletes uint64 `json:"deletes"`
	Scans   uint64 `json:"scans"`
}

// Total sums all operation classes.
func (c Counters) Total() uint64 { return c.Gets + c.Puts + c.Deletes + c.Scans }

// Sub returns the element-wise difference c - prev (counter deltas over a
// measurement window).
func (c Counters) Sub(prev Counters) Counters {
	return Counters{
		Gets:    c.Gets - prev.Gets,
		Puts:    c.Puts - prev.Puts,
		Deletes: c.Deletes - prev.Deletes,
		Scans:   c.Scans - prev.Scans,
	}
}

// shardTable is one shard's data: a segmented bucket table plus its
// counters. It is a plain single-owner data structure — mutual exclusion
// is the engine's job (a lock around it, or a goroutine owning it).
type shardTable struct {
	buckets []segment
	ops     Counters
	entries int
}

func newShardTable(buckets int) shardTable {
	return shardTable{buckets: make([]segment, buckets)}
}

func (sh *shardTable) bucketOf(hash uint64) *segment {
	return &sh.buckets[hashkit.Bucket(hash, uint64(len(sh.buckets)))]
}

// get appends a copy of the value stored under key to dst and returns
// the extended slice (pass nil for a fresh copy). Appending into a
// caller-owned buffer is what lets the wire path encode a response
// without an intermediate value allocation.
func (sh *shardTable) get(hash uint64, key lookupKey, dst []byte) ([]byte, bool) {
	sh.ops.Gets++
	for seg := sh.bucketOf(hash); seg != nil; seg = seg.next {
		for j := 0; j < segCap; j++ {
			if seg.used[j] && seg.hashes[j] == hash && key.eq(seg.keys[j]) {
				return append(dst, seg.vals[j]...), true
			}
		}
	}
	return dst, false
}

// put inserts or replaces; it reports whether the key was newly inserted.
// The value is copied; a replace reuses the stored value's backing array
// when it is large enough, so steady-state overwrites allocate nothing.
func (sh *shardTable) put(hash uint64, key lookupKey, value []byte) bool {
	sh.ops.Puts++
	var freeSeg *segment
	freeIdx := -1
	last := (*segment)(nil)
	for seg := sh.bucketOf(hash); seg != nil; seg = seg.next {
		for j := 0; j < segCap; j++ {
			if seg.used[j] {
				if seg.hashes[j] == hash && key.eq(seg.keys[j]) {
					seg.vals[j] = append(seg.vals[j][:0], value...)
					return false
				}
			} else if freeIdx < 0 {
				freeSeg, freeIdx = seg, j
			}
		}
		last = seg
	}
	if freeIdx < 0 {
		seg := &segment{}
		last.next = seg
		freeSeg, freeIdx = seg, 0
	}
	freeSeg.hashes[freeIdx] = hash
	freeSeg.keys[freeIdx] = key.str()
	freeSeg.vals[freeIdx] = append([]byte(nil), value...)
	freeSeg.used[freeIdx] = true
	sh.entries++
	return true
}

// del removes key; it reports whether the key was present.
func (sh *shardTable) del(hash uint64, key lookupKey) bool {
	sh.ops.Deletes++
	for seg := sh.bucketOf(hash); seg != nil; seg = seg.next {
		for j := 0; j < segCap; j++ {
			if seg.used[j] && seg.hashes[j] == hash && key.eq(seg.keys[j]) {
				seg.used[j] = false
				seg.keys[j] = ""
				seg.vals[j] = nil
				sh.entries--
				return true
			}
		}
	}
	return false
}

// scan appends the entries whose keys start with prefix to out as one
// run sorted by key and trimmed to limit (limit <= 0: all). The table
// has no order, so it walks every bucket and sorts what matched; the
// values of the run's survivors are then copied onto *arena — the table
// overwrites values in place, so nothing returned may alias it.
func (sh *shardTable) scan(prefix lookupKey, limit int, out []Entry, arena *[]byte) []Entry {
	sh.ops.Scans++
	base := len(out)
	for b := range sh.buckets {
		for s := &sh.buckets[b]; s != nil; s = s.next {
			for j := 0; j < segCap; j++ {
				if s.used[j] && prefix.prefixOf(s.keys[j]) {
					out = append(out, Entry{Key: s.keys[j], Value: s.vals[j]})
				}
			}
		}
	}
	run := out[base:]
	slices.SortFunc(run, func(x, y Entry) int { return strings.Compare(x.Key, y.Key) })
	if limit > 0 && len(run) > limit {
		clear(run[limit:]) // reused scratch must not keep table values reachable
		run = run[:limit]
	}
	copyEntries(run[:0], arena, run) // in place
	return out[:base+len(run)]
}

// export walks buckets [from, len) appending entries whose hash
// satisfies pred; it stops at a bucket boundary once maxEntries entries
// or maxBytes of wire payload are appended, returning the next bucket
// index (len(buckets) when the walk is complete). Counted as a scan.
func (sh *shardTable) export(from int, pred func(uint64) bool, maxEntries, maxBytes int, out []Entry) (int, []Entry) {
	sh.ops.Scans++
	base, bytes := len(out), 0
	for b := from; b < len(sh.buckets); b++ {
		if len(out)-base >= maxEntries || bytes >= maxBytes {
			return b, out
		}
		for s := &sh.buckets[b]; s != nil; s = s.next {
			for j := 0; j < segCap; j++ {
				if s.used[j] && pred(s.hashes[j]) {
					out = append(out, Entry{Key: s.keys[j], Value: append([]byte(nil), s.vals[j]...)})
					bytes += entryWireSize(s.keys[j], s.vals[j])
				}
			}
		}
	}
	return len(sh.buckets), out
}

// Options configures a Store.
type Options struct {
	// Shards is the number of independently synchronized shards. Default 16.
	Shards int
	// Buckets is the bucket count per shard. Default 64.
	Buckets int
	// Engine selects the shard-engine paradigm. Default EngineLocked.
	Engine Engine
	// Lock selects the shard lock algorithm (locked engine) or the shard
	// write-lock algorithm (optimistic engine); the actor engine has no
	// locks. Default TICKET.
	Lock locks.Algorithm
	// MaxThreads is forwarded to ARRAY locks.
	MaxThreads int
	// Nodes is the NUMA-node count forwarded to hierarchical locks.
	Nodes int
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 16
	}
	if o.Buckets <= 0 {
		o.Buckets = 64
	}
	if o.Engine == "" {
		o.Engine = EngineLocked
	}
	if o.Lock == "" {
		o.Lock = locks.TICKET
	}
	return o
}

// Store is the sharded key-value store. Access goes through per-goroutine
// Handles (lock tokens and mailbox reply state are per-goroutine).
type Store struct {
	opt Options
	eng shardEngine
}

// New creates a store. A store built with EngineActor owns goroutines;
// call Close when done with it (Close is a no-op for the other engines).
func New(opt Options) *Store {
	opt = opt.withDefaults()
	s := &Store{opt: opt}
	if opt.Engine == EngineOptimistic {
		s.eng = newOptimisticEngine(opt)
	} else {
		s.eng = newTableEngine(opt)
	}
	return s
}

// Close releases engine resources (the actor engine's shard goroutines).
// It must only be called after every Handle has quiesced; it is
// idempotent.
func (s *Store) Close() { s.eng.close() }

// Shards returns the shard count.
func (s *Store) Shards() int { return s.opt.Shards }

// Lock returns the configured shard-lock algorithm (meaningless for the
// actor engine, which has no locks).
func (s *Store) Lock() locks.Algorithm { return s.opt.Lock }

// Engine returns the shard-engine paradigm the store runs on.
func (s *Store) Engine() Engine { return s.opt.Engine }

// String describes the store configuration.
func (s *Store) String() string {
	if s.opt.Engine == EngineActor {
		return fmt.Sprintf("store(%d shards × %d buckets, actor engine)",
			s.opt.Shards, s.opt.Buckets)
	}
	return fmt.Sprintf("store(%d shards × %d buckets, %s locks, %s engine)",
		s.opt.Shards, s.opt.Buckets, s.opt.Lock, s.opt.Engine)
}

// hashKey is FNV-1a over the key bytes.
func hashKey(key string) uint64 { return hashkit.FNV1a(key) }

// Entry is one key-value pair returned by Scan.
type Entry struct {
	Key   string
	Value []byte
}

// batchOps is a batch's sub-requests as the engines read them: owning
// Requests or RequestViews aliasing a frame — exactly one of the two is
// set — plus the point ops' key hashes. Sub-request i is lowered to the
// lookupKey form when it is read, not copied into a third
// representation first, and both batch surfaces go through it, so every
// engine has exactly one group path.
type batchOps struct {
	reqs   []Request
	views  []RequestView
	hashes []uint64
}

// at returns sub-request i's opcode, key and put payload; key and
// payload alias the frame when the batch is views.
func (b *batchOps) at(i int) (op byte, key lookupKey, value []byte) {
	if b.views != nil {
		v := &b.views[i]
		return v.Op, keyBytes(v.Key), v.Value
	}
	r := &b.reqs[i]
	return r.Op, keyOf(r.Key), r.Value
}

// hash returns point sub-request i's key hash: a view's own, computed
// at most once whichever layer asks first (RequestView.Hash), or a
// request's, computed here.
func (b *batchOps) hash(i int) uint64 {
	if b.views != nil {
		return b.views[i].Hash()
	}
	return hashKey(b.reqs[i].Key)
}

// scan returns scan sub-request i's prefix and limit; the prefix aliases
// the frame when the batch is views.
func (b *batchOps) scan(i int) (prefix lookupKey, limit int) {
	if b.views != nil {
		return keyBytes(b.views[i].Key), scanLimit(b.views[i].Limit)
	}
	return keyOf(b.reqs[i].Key), scanLimit(b.reqs[i].Limit)
}

// Handle is a per-goroutine accessor carrying the engine's per-goroutine
// state (lock tokens, mailbox reply channel). Handles must not be shared
// between goroutines.
type Handle struct {
	s   *Store
	acc shardAccess
	// Batch scratch, reused across batches: a handle serves one
	// connection, and batch bookkeeping should not out-allocate the work
	// being measured.
	groups [][]int
	batch  batchOps // the batch in execution; hashes is reused
	scans  []int
	// ExecViews' (and execReqs') results: resps[i].Value and a scan's
	// entry values alias arena, its entries alias kept, and all three are
	// rewritten by the handle's next such batch.
	resps []Response
	arena []byte
	kept  []Entry
	// scanned is the last scan's result, rewritten by the next.
	scanned []Entry
}

// NewHandle creates an accessor; node is the NUMA hint for hierarchical
// locks.
func (s *Store) NewHandle(node int) *Handle {
	return &Handle{s: s, acc: s.eng.access(node)}
}

// shardOf maps a hash to its shard; the bucket index inside the shard is
// remixed (Fibonacci hashing) so it stays independent of the shard index.
func (s *Store) shardOf(hash uint64) int { return int(hash % uint64(s.opt.Shards)) }

// Get returns a copy of the value stored under key.
func (h *Handle) Get(key string) ([]byte, bool) {
	v, ok := h.getKey(keyOf(key), nil)
	if !ok {
		return nil, false
	}
	return v, true
}

// GetAppend appends the value stored under key to dst, returning the
// extended slice and whether the key was present (dst is returned
// unchanged when it is not). This is the allocation-free read: with a
// reused dst of sufficient capacity, a hit copies the value exactly
// once, into memory the caller owns.
func (h *Handle) GetAppend(key string, dst []byte) ([]byte, bool) {
	return h.getKey(keyOf(key), dst)
}

func (h *Handle) getKey(k lookupKey, dst []byte) ([]byte, bool) {
	hash := k.hash()
	return h.acc.get(h.s.shardOf(hash), hash, k, dst)
}

// Put inserts or replaces the value under key; it reports whether the key
// was newly inserted. The value is copied.
func (h *Handle) Put(key string, value []byte) bool {
	hash := hashKey(key)
	return h.acc.put(h.s.shardOf(hash), hash, keyOf(key), value)
}

// Delete removes key; it reports whether the key was present.
func (h *Handle) Delete(key string) bool {
	hash := hashKey(key)
	return h.acc.del(h.s.shardOf(hash), hash, keyOf(key))
}

// ExecBatch executes a batch of scalar requests, amortizing
// synchronization the way the paper prescribes: the point ops
// (get/put/delete) are grouped by shard and each touched shard executes
// its whole group in one engine visit — one lock acquisition (locked),
// one mailbox round trip (actor), one write-lock hold for the group's
// writes (optimistic). Scans run after the grouped execution, one
// engine scan each (Scan). resps[i]
// is the response to reqs[i]; a batch is a performance unit, not a
// transaction — sub-ops linearize individually, and ops for one shard
// apply in batch order. The responses are the caller's: one slice, one
// allocation per hit and two per scan.
func (h *Handle) ExecBatch(reqs []Request) []Response {
	resps := make([]Response, len(reqs))
	h.batch.reqs, h.batch.views = reqs, nil
	h.execOps(nil, false, resps, nil)
	return resps
}

// ExecViews is ExecBatch straight out of a request frame: keys and put
// payloads stay frame bytes all the way into the engines, and hit
// values land in the handle's arena instead of an allocation each, so
// a steady-state batch of point ops allocates nothing. The responses —
// the slice and every Value in it — belong to the handle and are valid
// until its next ExecViews or ExecViewsOnly; encode them before reading
// the next frame.
func (h *Handle) ExecViews(reqs []RequestView) []Response {
	return h.execViews(reqs, nil, false)
}

// ExecViewsOnly is ExecViews for the sub-requests listed in idxs and no
// others (a Router's local subset; an empty list executes nothing). The
// unlisted slots come back zero for the caller to fill.
func (h *Handle) ExecViewsOnly(reqs []RequestView, idxs []int) []Response {
	return h.execViews(reqs, idxs, true)
}

func (h *Handle) execViews(reqs []RequestView, idxs []int, subset bool) []Response {
	h.batch.reqs, h.batch.views = nil, reqs
	return h.execShared(len(reqs), idxs, subset)
}

// execReqs is ExecBatch with ExecViews' ownership: the responses are the
// handle's, valid until its next batch. It is what the in-process
// LocalConn runs a group on — the Core copies out what its caller keeps.
func (h *Handle) execReqs(reqs []Request) []Response {
	h.batch.reqs, h.batch.views = reqs, nil
	return h.execShared(len(reqs), nil, false)
}

// execShared runs the n-request batch in h.batch on the handle's reused
// response slice and arena.
func (h *Handle) execShared(n int, idxs []int, subset bool) []Response {
	if cap(h.resps) < n {
		h.resps = make([]Response, n)
	}
	resps := h.resps[:n]
	clear(resps)
	h.arena, h.kept = recycle(h.arena), recycle(h.kept)
	h.execOps(idxs, subset, resps, &h.arena)
	return resps
}

// execOps is the one batch execution path: group h.batch's point ops —
// those listed in idxs when subset is set, all of them otherwise — per
// shard, run every touched shard's group in one engine visit, then the
// scans. subset is a flag of its own so that an empty (or nil) idxs
// can only ever mean "nothing".
func (h *Handle) execOps(idxs []int, subset bool, resps []Response, arena *[]byte) {
	ops := &h.batch
	if h.groups == nil {
		h.groups = make([][]int, h.s.opt.Shards)
	}
	groups := h.groups
	for i := range groups {
		groups[i] = groups[i][:0]
	}
	if cap(ops.hashes) < len(resps) {
		ops.hashes = make([]uint64, len(resps))
	}
	ops.hashes = ops.hashes[:len(resps)]
	scans := h.scans[:0]
	n := len(resps)
	if subset {
		n = len(idxs)
	}
	for j := 0; j < n; j++ {
		i := j
		if subset {
			i = idxs[j]
		}
		switch op, _, _ := ops.at(i); op {
		case OpGet, OpPut, OpDelete:
			ops.hashes[i] = ops.hash(i)
			sh := h.s.shardOf(ops.hashes[i])
			groups[sh] = append(groups[sh], i)
		case OpScan:
			scans = append(scans, i)
		default:
			resps[i] = Response{Status: StatusError, Msg: ErrBadOp.Error()}
		}
	}
	// Touched shards execute in shard order, not request order; each
	// response lands at its request's index.
	for sh, idxs := range groups {
		if len(idxs) > 0 {
			h.acc.execGroup(sh, ops, idxs, resps, arena)
		}
	}
	// A scan's entries go where its point ops' hit values go: with an
	// arena, onto the handle's kept entries and that arena; without, into
	// an owning copy of their own.
	for _, i := range scans {
		var entries []Entry
		switch found := h.scan(ops.scan(i)); {
		case len(found) == 0:
		case arena == nil:
			entries = ownEntries(found)
		default:
			lo := len(h.kept)
			h.kept = copyEntries(h.kept, arena, found)
			entries = h.kept[lo:len(h.kept):len(h.kept)]
		}
		resps[i] = Response{Status: StatusOK, Entries: entries}
	}
	h.scans = scans
	ops.reqs, ops.views = nil, nil // the caller's slices are not ours to keep alive
}

// The response shaping every engine's group loop shares: each writes
// one point op's answer at its request's index, and nothing else.
//
// answerGet answers a get: NotFound on a miss; on a hit, the value the
// engine appended to buf as ext, capacity-clipped so nothing appended
// later can grow into it. It returns what the next hit appends to: ext
// when the group's hits share the caller's arena (the caller owns it and
// decides when the values die), else buf, still nil, so that every hit
// gets an allocation of its own — which is what makes a Response owning.
func answerGet(r *Response, buf, ext []byte, hit, arena bool) []byte {
	if !hit {
		*r = Response{Status: StatusNotFound}
		return buf
	}
	*r = Response{Status: StatusOK, Value: ext[len(buf):len(ext):len(ext)]}
	if arena {
		return ext
	}
	return buf
}

// answerPut answers a put.
func answerPut(r *Response, created bool) { *r = Response{Status: StatusOK, Created: created} }

// answerDel answers a delete: OK if the key was there, else NotFound.
func answerDel(r *Response, removed bool) {
	if removed {
		*r = Response{Status: StatusOK}
	} else {
		*r = Response{Status: StatusNotFound}
	}
}

// Scan returns up to limit entries whose keys start with prefix, sorted
// by key. On the optimistic engine the result is the store as it stood
// at one instant; the locked and actor engines visit the shards one at a
// time (one engine visit each), so there it is a union of per-shard
// snapshots — the usual contract of a sharded range read. limit <= 0
// means unlimited. The result is the caller's: one slice, and every
// value in one arena — two allocations however many entries match.
func (h *Handle) Scan(prefix string, limit int) []Entry {
	return ownEntries(h.scan(keyOf(prefix), limit))
}

// scan is the one scan path: the engine's store scan, into the handle's
// reused result slice. The result, values included (copies in the
// accessor's scan arena, or aliases of the optimistic engine's immutable
// ones), is valid until the handle's next scan; what a caller keeps it
// copies.
func (h *Handle) scan(prefix lookupKey, limit int) []Entry {
	h.scanned = h.acc.scan(prefix, limit, recycle(h.scanned))
	return h.scanned
}

// MergeRuns appends to dst the k-way merge of runs, each sorted by key,
// and stops once limit entries have been appended (limit <= 0: all) —
// the merge of the locked and actor engines' scans over their shards'
// runs, and of a routed client's over its members' shares. It advances runs
// past what it takes. With keep set, a key at the head of several runs
// is taken once: from the first run for which keep(key, run) reports
// true, else from the first run holding it. keep is nil when no key can
// be in two runs, as in a store, whose shards partition the keys; the
// merge then does not look for duplicates at all.
func MergeRuns(dst []Entry, runs [][]Entry, limit int, keep func(key string, run int) bool) []Entry {
	for base := len(dst); limit <= 0 || len(dst)-base < limit; {
		at, head := -1, "" // the run whose head sorts first, and its key
		for r, run := range runs {
			if len(run) > 0 && (at < 0 || run[0].Key < head) {
				at, head = r, run[0].Key
			}
		}
		if at < 0 {
			break
		}
		e := runs[at][0]
		runs[at] = runs[at][1:]
		if keep != nil {
			for r := at + 1; r < len(runs); r++ {
				if len(runs[r]) == 0 || runs[r][0].Key != head {
					continue
				}
				if !keep(head, at) && keep(head, r) {
					e, at = runs[r][0], r
				}
				runs[r] = runs[r][1:]
			}
		}
		dst = append(dst, e)
	}
	return dst
}

// copyEntries appends entries to dst with every value copied onto
// *arena, capacity-clipped so nothing appended later can grow into it:
// the one copy a scan's surviving values take. An empty value stays nil.
// dst may be entries[:0]: the copy then happens in place.
func copyEntries(dst []Entry, arena *[]byte, entries []Entry) []Entry {
	buf := *arena
	for _, e := range entries {
		if len(e.Value) == 0 {
			e.Value = nil
		} else {
			lo := len(buf)
			buf = append(buf, e.Value...)
			e.Value = buf[lo:len(buf):len(buf)]
		}
		dst = append(dst, e)
	}
	*arena = buf
	return dst
}

// ownEntries is the owning copy of a scan result, nil for an empty one:
// one slice and one value arena, each sized exactly. Keys are immutable
// strings and are shared, not copied.
func ownEntries(entries []Entry) []Entry {
	if len(entries) == 0 {
		return nil
	}
	size := 0
	for i := range entries {
		size += len(entries[i].Value)
	}
	arena := make([]byte, 0, size)
	return copyEntries(make([]Entry, 0, len(entries)), &arena, entries)
}

// Len counts live entries (one engine visit per shard).
func (h *Handle) Len() int {
	n := 0
	for i := 0; i < h.s.opt.Shards; i++ {
		n += h.acc.entries(i)
	}
	return n
}

// ShardStats snapshots every shard's operation counters (one engine
// visit per shard). Index k is shard k. Snapshots are race-free under
// every engine and each counter is monotone across snapshots.
func (h *Handle) ShardStats() []Counters {
	out := make([]Counters, h.s.opt.Shards)
	for i := range out {
		out[i] = h.acc.stats(i)
	}
	return out
}
