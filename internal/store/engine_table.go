package store

import (
	"sync"

	"ssync/internal/locks"
)

// tableEngine runs the store's shards as plain shardTables and varies
// only how a visit to one table excludes every other — the paper's
// Figure 11 hash table, whose buckets stay fixed while the exclusion
// changes from a lock to a server core:
//
//   - EngineLocked, the locking paradigm: the visiting goroutine runs
//     the op itself, under the shard's lock (any of the libslock
//     algorithms). The lock choice is the whole experiment; table
//     layout, batching and the wire stay constant across algorithms.
//   - EngineActor, the message-passing paradigm: one goroutine per shard
//     owns that shard's table outright and no locks exist anywhere —
//     the single-writer discipline of internal/mp and the paper's §6.3
//     served hash table. A visit is one message through the owner's
//     channel mailbox and one reply on the visitor's private channel.
//
// Every operation is one tableOp that apply runs on the table, so the
// two disciplines share every line but visit's. A batch's per-shard
// group is one visit: one lock acquisition, or one mailbox round trip —
// message count, the actor paradigm's unit of cost, amortizes exactly
// like lock acquisitions do. Counters live in the table and are
// snapshotted in a visit of their own, so ShardStats is race-free
// under either discipline.
type tableEngine struct {
	// What every visit reads comes first, on the struct's first cache
	// line. guards is nil under the actor discipline, mboxes (one per
	// shard owner) under the locked one.
	tables []shardTable
	guards []locks.Lock
	mboxes []chan tableOp
	// actor: stop is closed by close(): the owners drain and exit.
	// stopped is closed once every owner has exited, and therefore
	// finished its final drain; visitors wait on stopped, not stop, so a
	// reply that the drain still produces is never missed.
	stop    chan struct{}
	stopped chan struct{}
	once    sync.Once
	wg      sync.WaitGroup
}

// actorMailbox is the mailbox depth per shard. Every visitor blocks for
// its reply before sending again, so depth only needs to cover the
// number of visitors simultaneously aiming at one shard; beyond that it
// buys nothing.
const actorMailbox = 128

// visitKind discriminates tableOps.
type visitKind uint8

const (
	visitGet visitKind = iota
	visitPut
	visitDel
	visitGroup
	visitScan
	visitExport
	visitEntries
	visitStats
)

// tableOp is one operation on one shard's table: its arguments, and the
// results apply writes back into it. An op that never runs — an actor
// visit racing Close — keeps its arguments, so a get hands dst back and
// a scan or an export hands out back unchanged, with every result
// zero.
//
// Under the actor discipline the op travels by value to the owner and
// back. The slices, the arena and the batch are then shared with the
// visitor, which is safe: the visitor blocks until the reply, and the
// channel send/receive pair orders the owner's writes to resps, *arena
// and the appended slices before the visitor reads them. The same pair
// makes the zero-copy fields sound: keys and values (a group's ops
// included) may alias the visitor's frame buffer, which cannot be
// reused mid-visit.
//
// Visitors declare an op and store its fields one by one: a composite
// literal this wide is built in a temporary and then copied, a second
// pass over the op that showed on the locked point-op path.
type tableOp struct {
	kind  visitKind
	ok    bool // get: hit; put: created; del: removed
	hash  uint64
	key   lookupKey // scan: the prefix
	val   []byte    // put: the value; get: the caller's dst, returned extended
	ops   *batchOps // group: the point ops idxs names, answered in resps
	idxs  []int
	resps []Response
	arena *[]byte // group: hit values (see answerGet); scan: value copies
	out   []Entry // scan, export: the entries appended
	// export: pred runs inside the visit, which is safe because it only
	// reads the hashes it is handed.
	pred     func(uint64) bool
	from     int
	limit    int // scan: the run's limit; export: the entry budget
	maxBytes int
	n        int // export: the next bucket; entries: the count
	stats    Counters
	reply    chan tableOp // actor: where the owner sends the op back
}

// apply runs op on tbl. The caller holds the table's exclusion.
func apply(tbl *shardTable, op *tableOp) {
	switch op.kind {
	case visitGet:
		op.val, op.ok = tbl.get(op.hash, op.key, op.val)
	case visitPut:
		op.ok = tbl.put(op.hash, op.key, op.val)
	case visitDel:
		op.ok = tbl.del(op.hash, op.key)
	case visitGroup:
		tbl.execGroup(op.ops, op.idxs, op.resps, op.arena)
	case visitScan:
		op.out = tbl.scan(op.key, op.limit, op.out, op.arena)
	case visitExport:
		op.n, op.out = tbl.export(op.from, op.pred, op.limit, op.maxBytes, op.out)
	case visitEntries:
		op.n = tbl.entries
	case visitStats:
		op.stats = tbl.ops
	}
}

// execGroup runs a group's point ops on the table, each answered at its
// request's index. It is the whole of a group visit's critical section:
// the table calls, called directly, and the response writes.
func (tbl *shardTable) execGroup(ops *batchOps, idxs []int, resps []Response, arena *[]byte) {
	var buf []byte
	if arena != nil {
		buf = *arena
	}
	for _, i := range idxs {
		op, key, value := ops.at(i)
		hash := ops.hashes[i]
		switch op {
		case OpGet:
			ext, ok := tbl.get(hash, key, buf)
			buf = answerGet(&resps[i], buf, ext, ok, arena != nil)
		case OpPut:
			answerPut(&resps[i], tbl.put(hash, key, value))
		case OpDelete:
			answerDel(&resps[i], tbl.del(hash, key))
		}
	}
	if arena != nil {
		*arena = buf
	}
}

// newTableEngine builds the store's tables under opt.Engine's
// discipline.
func newTableEngine(opt Options) *tableEngine {
	e := &tableEngine{
		tables:  make([]shardTable, opt.Shards),
		stop:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
	for i := range e.tables {
		e.tables[i] = newShardTable(opt.Buckets)
	}
	if opt.Engine != EngineActor {
		e.guards = make([]locks.Lock, opt.Shards)
		lopt := locks.Options{MaxThreads: opt.MaxThreads, Nodes: opt.Nodes}
		for i := range e.guards {
			e.guards[i] = locks.New(opt.Lock, lopt)
		}
		return e
	}
	e.mboxes = make([]chan tableOp, opt.Shards)
	for i := range e.mboxes {
		e.mboxes[i] = make(chan tableOp, actorMailbox)
		e.wg.Add(1)
		go e.own(&e.tables[i], e.mboxes[i])
	}
	return e
}

// own is a shard owner's loop: run one op at a time on the table only
// this goroutine can reach, and send it back. Once stop is closed it
// exits at the first empty poll of its mailbox, so an op enqueued before
// that poll still gets its reply; an op that loses the race is left to
// the visitor's side of the protocol (visit waits on stopped and then
// gives up), so no goroutine is ever stranded either way.
func (e *tableEngine) own(tbl *shardTable, mbox chan tableOp) {
	defer e.wg.Done()
	for {
		var op tableOp
		select {
		case op = <-mbox:
		case <-e.stop:
			select {
			case op = <-mbox:
			default:
				return
			}
		}
		apply(tbl, &op)
		op.reply <- op
	}
}

// close stops the shard owners, if any, and waits for their final
// drains. Ops racing Close do not strand their goroutines, but an op the
// owners no longer see reports a zero result — callers who care about
// every last op must quiesce before closing.
func (e *tableEngine) close() {
	e.once.Do(func() {
		close(e.stop)
		e.wg.Wait()
		close(e.stopped)
	})
	<-e.stopped
}

func (e *tableEngine) access(node int) shardAccess {
	a := &tableAccess{e: e, node: node}
	if e.mboxes == nil {
		a.toks = make([]*locks.Token, len(e.tables))
	} else {
		a.reply = make(chan tableOp, 1)
	}
	return a
}

// tableAccess is one goroutine's visitor: its lock tokens (the queue
// locks' qnode state is per-goroutine) or its reply channel (reused: a
// visitor has at most one op in flight), and its scan workspace.
type tableAccess struct {
	e     *tableEngine
	toks  []*locks.Token
	node  int
	reply chan tableOp
	// The last scan's per-shard runs, their heads and their values,
	// rewritten by the next scan.
	runs  []Entry
	heads [][]Entry
	arena []byte
}

// visit runs op on shard's table under the engine's discipline: under
// the shard lock, or as one message to the shard's owner. Both actor
// waits also watch stopped, so an op racing Close comes back unchanged
// instead of blocking forever: if the engine stopped after the op was
// enqueued, the owner's drain may still have run it — the reply then
// sits in the buffered reply channel, and the final poll both takes it
// and keeps the channel clean for any later visit.
func (a *tableAccess) visit(shard int, op *tableOp) {
	e := a.e
	if e.mboxes == nil {
		tok := a.toks[shard]
		if tok == nil {
			tok = e.guards[shard].NewToken(a.node)
			a.toks[shard] = tok
		}
		e.guards[shard].Acquire(tok)
		apply(&e.tables[shard], op)
		e.guards[shard].Release(tok)
		return
	}
	op.reply = a.reply
	select {
	case e.mboxes[shard] <- *op:
	case <-e.stopped:
		return
	}
	select {
	case *op = <-a.reply:
	case <-e.stopped:
		select {
		case *op = <-a.reply:
		default:
		}
	}
}

func (a *tableAccess) get(shard int, hash uint64, key lookupKey, dst []byte) ([]byte, bool) {
	var op tableOp
	op.kind, op.hash, op.key, op.val = visitGet, hash, key, dst
	a.visit(shard, &op)
	return op.val, op.ok
}

func (a *tableAccess) put(shard int, hash uint64, key lookupKey, value []byte) bool {
	var op tableOp
	op.kind, op.hash, op.key, op.val = visitPut, hash, key, value
	a.visit(shard, &op)
	return op.ok
}

func (a *tableAccess) del(shard int, hash uint64, key lookupKey) bool {
	var op tableOp
	op.kind, op.hash, op.key = visitDel, hash, key
	a.visit(shard, &op)
	return op.ok
}

func (a *tableAccess) execGroup(shard int, ops *batchOps, idxs []int, resps []Response, arena *[]byte) {
	var op tableOp
	op.kind, op.ops, op.idxs, op.resps, op.arena = visitGroup, ops, idxs, resps, arena
	a.visit(shard, &op)
}

// scan takes one run per shard, in shard order, each in one visit: the
// table walks its buckets, sorts what matched, trims it to limit and
// copies the survivors' values onto the accessor's arena — inside the
// visit, since the table overwrites values in place. MergeRuns then
// merges the runs until limit, so the result is a union of per-shard
// snapshots.
func (a *tableAccess) scan(prefix lookupKey, limit int, out []Entry) []Entry {
	runs, heads := recycle(a.runs), a.heads[:0]
	a.arena = recycle(a.arena)
	for shard := range a.e.tables {
		var op tableOp
		op.kind, op.key, op.limit, op.out, op.arena = visitScan, prefix, limit, runs, &a.arena
		a.visit(shard, &op)
		// A run stays valid if a later shard's append moves runs: the
		// old array is only ever read again through this head.
		heads = append(heads, op.out[len(runs):])
		runs = op.out
	}
	out = MergeRuns(out, heads, limit, nil)
	// The merge copied out what it took; the runs must not keep keys the
	// table has since deleted reachable until the next scan.
	clear(runs)
	clear(heads)
	a.runs, a.heads = runs, heads
	return out
}

// exportShard is one visit. An op that never ran (an actor engine
// closed mid-visit) returns next == 0 with no entries — no forward
// progress — which the store layer treats as "walk over" rather than
// looping on a dead mailbox.
func (a *tableAccess) exportShard(shard, from int, pred func(uint64) bool, maxEntries, maxBytes int, out []Entry) (int, []Entry) {
	var op tableOp
	op.kind, op.pred, op.from, op.limit, op.maxBytes, op.out = visitExport, pred, from, maxEntries, maxBytes, out
	a.visit(shard, &op)
	return op.n, op.out
}

func (a *tableAccess) entries(shard int) int {
	var op tableOp
	op.kind = visitEntries
	a.visit(shard, &op)
	return op.n
}

func (a *tableAccess) stats(shard int) Counters {
	var op tableOp
	op.kind = visitStats
	a.visit(shard, &op)
	return op.stats
}
