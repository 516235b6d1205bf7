package store

import (
	"sync"

	"ssync/internal/topo"
)

// actorEngine is the message-passing paradigm: one goroutine per shard
// owns that shard's bucket table outright — no locks exist anywhere;
// partitioned ownership enforces mutual exclusion, the single-writer
// discipline of internal/mp and the paper's §6.3 served hash table.
// Clients ship operations to the owner through a channel mailbox and
// block on a private reply channel; the batch path ships a whole
// per-shard op group as ONE message, so message count (the paradigm's
// unit of cost) is amortized exactly like lock acquisitions are in the
// locked engine.
//
// Counters are mailbox-owned: only the shard goroutine touches them, and
// a stats snapshot is itself a message, so ShardStats is race-free by
// construction.
type actorEngine struct {
	mboxes []chan actorMsg
	stop   chan struct{} // closed by close(): owners drain and exit
	// stopped is closed once every owner has exited (and therefore
	// finished its final mailbox drain). Senders wait on stopped, not
	// stop, so a reply that the drain still produces is never missed.
	stopped chan struct{}
	once    sync.Once
	wg      sync.WaitGroup
}

// actorMailbox is the mailbox depth per shard. Every client blocks for
// its reply before sending again, so depth only needs to cover the
// number of clients simultaneously aiming at one shard; beyond that it
// buys nothing.
const actorMailbox = 128

// actorKind discriminates mailbox messages.
type actorKind uint8

const (
	actGet actorKind = iota
	actPut
	actDel
	actGroup
	actScan
	actExport
	actEntries
	actStats
)

// actorMsg is one mailbox message. For actGroup the slices and the
// arena are shared with the sender, which is safe: the channel
// send/receive pair orders the owner's writes to resps and *arena
// before the sender's read of them. The same happens-before pair is
// what makes the zero-copy fields sound: keys and values (a group's
// ops included) may alias the sender's frame buffer (the sender blocks
// until the reply, so the buffer cannot be reused mid-handle), and the
// owner appends a get's value into the sender-owned dst.
type actorMsg struct {
	kind  actorKind
	hash  uint64
	key   lookupKey
	value []byte
	dst   []byte // actGet: value destination, owned by the sender
	ops   *batchOps
	idxs  []int
	resps []Response
	arena *[]byte // actGroup: hit-value destination (see execPointOps)
	out   []Entry
	// actExport parameters; pred runs on the owner goroutine, which is
	// safe because it only reads hashes it is handed.
	pred     func(uint64) bool
	from     int
	maxn     int
	maxBytes int
	reply    chan actorReply
}

// actorReply is the owner's response.
type actorReply struct {
	val   []byte
	ok    bool
	n     int
	out   []Entry
	stats Counters
}

func newActorEngine(opt Options) *actorEngine {
	e := &actorEngine{
		mboxes:  make([]chan actorMsg, opt.Shards),
		stop:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
	// Shard owners are the one place in the store where "shard X lives
	// in domain Y" can be made literally true: each owner goroutine pins
	// itself to its shard's LLC domain, so the shard's bucket table is
	// only ever touched from CPUs that share that LLC. Without a
	// placement (or on a single-domain machine) pin is a no-op and the
	// owners float as before.
	var domains []int
	if opt.Placement != nil {
		domains = opt.Placement.ShardDomains(opt.Shards)
	}
	for i := range e.mboxes {
		e.mboxes[i] = make(chan actorMsg, actorMailbox)
		tbl := newShardTable(opt.Buckets)
		domain := -1
		if domains != nil {
			domain = domains[i]
		}
		e.wg.Add(1)
		go e.own(&tbl, e.mboxes[i], opt.Placement, domain)
	}
	return e
}

// own is the shard-owner loop: execute one message at a time against the
// table only this goroutine can reach. On stop it drains the mailbox
// before exiting, so a message enqueued before the drain's last empty
// poll still gets its reply; a message that loses that race is handled
// by the sender side of the protocol (call waits on stopped and then
// gives up), so no goroutine is ever stranded either way.
func (e *actorEngine) own(tbl *shardTable, mbox chan actorMsg, pl *topo.Placement, domain int) {
	defer e.wg.Done()
	undo := pl.Pin(domain)
	defer undo()
	for {
		select {
		case <-e.stop:
			for {
				select {
				case m := <-mbox:
					e.handle(tbl, m)
				default:
					return
				}
			}
		case m := <-mbox:
			e.handle(tbl, m)
		}
	}
}

// handle executes one mailbox message and sends the reply.
func (e *actorEngine) handle(tbl *shardTable, m actorMsg) {
	var r actorReply
	switch m.kind {
	case actGet:
		r.val, r.ok = tbl.get(m.hash, m.key, m.dst)
	case actPut:
		r.ok = tbl.put(m.hash, m.key, m.value)
	case actDel:
		r.ok = tbl.del(m.hash, m.key)
	case actGroup:
		execPointOps(m.ops, m.idxs, m.resps, m.arena, tbl.get, tbl.put, tbl.del)
	case actScan:
		r.out = tbl.scan(m.key.s, m.out)
	case actExport:
		r.n, r.out = tbl.export(m.from, m.pred, m.maxn, m.maxBytes, m.out)
	case actEntries:
		r.n = tbl.entries
	case actStats:
		r.stats = tbl.ops
	}
	m.reply <- r
}

// close stops the shard owners and waits for their final drains. Ops
// racing Close do not strand their goroutines, but an op the owners no
// longer see reports a zero result — callers who care about every
// last op must quiesce before closing.
func (e *actorEngine) close() {
	e.once.Do(func() {
		close(e.stop)
		e.wg.Wait()
		close(e.stopped)
	})
	<-e.stopped
}

func (e *actorEngine) access(int) shardAccess {
	return &actorAccess{e: e, reply: make(chan actorReply, 1)}
}

// actorAccess is a client of the shard owners. The reply channel is
// per-goroutine and reused: a client has at most one request in flight.
type actorAccess struct {
	e     *actorEngine
	reply chan actorReply
}

// call ships one message and waits for the reply. Both waits also
// watch stopped, so an op racing Close degrades to a zero reply
// instead of blocking forever: if the engine stopped after our message
// was enqueued, the owner's drain may still have produced the reply —
// it sits in the buffered reply channel, so the final poll both
// returns it and keeps the channel clean for any later (misbehaving)
// call.
func (a *actorAccess) call(shard int, m actorMsg) actorReply {
	m.reply = a.reply
	select {
	case a.e.mboxes[shard] <- m:
	case <-a.e.stopped:
		return actorReply{}
	}
	select {
	case r := <-a.reply:
		return r
	case <-a.e.stopped:
		select {
		case r := <-a.reply:
			return r
		default:
			return actorReply{}
		}
	}
}

// get ships the caller's dst through the mailbox; the owner appends the
// value into it. A zero reply (engine closed mid-call) must still hand
// dst back unchanged, not lose it to a nil r.val.
func (a *actorAccess) get(shard int, hash uint64, key lookupKey, dst []byte) ([]byte, bool) {
	r := a.call(shard, actorMsg{kind: actGet, hash: hash, key: key, dst: dst})
	if !r.ok && r.val == nil {
		return dst, false
	}
	return r.val, r.ok
}

func (a *actorAccess) put(shard int, hash uint64, key lookupKey, value []byte) bool {
	return a.call(shard, actorMsg{kind: actPut, hash: hash, key: key, value: value}).ok
}

func (a *actorAccess) del(shard int, hash uint64, key lookupKey) bool {
	return a.call(shard, actorMsg{kind: actDel, hash: hash, key: key}).ok
}

// execGroup ships the whole group as one message — one mailbox round
// trip per touched shard per batch, the message-passing analogue of the
// locked engine's one-acquisition-per-shard batch rule.
func (a *actorAccess) execGroup(shard int, ops *batchOps, idxs []int, resps []Response, arena *[]byte) {
	a.call(shard, actorMsg{kind: actGroup, ops: ops, idxs: idxs, resps: resps, arena: arena})
}

func (a *actorAccess) scanShard(shard int, prefix string, out []Entry) []Entry {
	return a.call(shard, actorMsg{kind: actScan, key: keyOf(prefix), out: out}).out
}

// exportShard ships the walk as one message like everything else. A
// zero reply (engine closed mid-call) returns next == 0 with no
// entries — no forward progress — which the store layer treats as
// "walk over" rather than looping on a dead mailbox.
func (a *actorAccess) exportShard(shard, from int, pred func(uint64) bool, maxEntries, maxBytes int, out []Entry) (int, []Entry) {
	r := a.call(shard, actorMsg{kind: actExport, from: from, pred: pred, maxn: maxEntries, maxBytes: maxBytes, out: out})
	return r.n, r.out
}

func (a *actorAccess) entries(shard int) int {
	return a.call(shard, actorMsg{kind: actEntries}).n
}

func (a *actorAccess) stats(shard int) Counters {
	return a.call(shard, actorMsg{kind: actStats}).stats
}
