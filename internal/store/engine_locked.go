package store

import "ssync/internal/locks"

// lockedEngine is the locking paradigm: each shard's bucket table is
// guarded by its own lock, any of the libslock algorithms. This is the
// configuration the paper's lock study predicts: the shard-lock choice
// (TAS vs TICKET vs MCS vs the hierarchical cohort locks) is the whole
// experiment, and everything else — table layout, batching, the wire —
// stays constant across algorithms.
type lockedEngine struct {
	opt    Options
	shards []shardTable
	guards []locks.Lock
	visit  []int // the store's shard visit order, for scans
}

func newLockedEngine(opt Options, visit []int) *lockedEngine {
	e := &lockedEngine{
		opt:    opt,
		shards: make([]shardTable, opt.Shards),
		guards: make([]locks.Lock, opt.Shards),
		visit:  visit,
	}
	lopt := locks.Options{MaxThreads: opt.MaxThreads, Nodes: opt.Nodes}
	for i := range e.shards {
		e.shards[i] = newShardTable(opt.Buckets)
		e.guards[i] = locks.New(opt.Lock, lopt)
	}
	return e
}

func (e *lockedEngine) access(node int) shardAccess {
	return &lockedAccess{e: e, toks: make([]*locks.Token, e.opt.Shards), node: node, sc: shardRuns{visit: e.visit}}
}

func (e *lockedEngine) close() {}

// lockedAccess carries the per-goroutine lock tokens (the queue locks'
// qnode state is per-goroutine) and the scan workspace.
type lockedAccess struct {
	e    *lockedEngine
	toks []*locks.Token
	node int
	sc   shardRuns
}

func (a *lockedAccess) lock(i int) {
	if a.toks[i] == nil {
		a.toks[i] = a.e.guards[i].NewToken(a.node)
	}
	a.e.guards[i].Acquire(a.toks[i])
}

func (a *lockedAccess) unlock(i int) { a.e.guards[i].Release(a.toks[i]) }

func (a *lockedAccess) get(shard int, hash uint64, key lookupKey, dst []byte) ([]byte, bool) {
	a.lock(shard)
	defer a.unlock(shard)
	return a.e.shards[shard].get(hash, key, dst)
}

func (a *lockedAccess) put(shard int, hash uint64, key lookupKey, value []byte) bool {
	a.lock(shard)
	defer a.unlock(shard)
	return a.e.shards[shard].put(hash, key, value)
}

func (a *lockedAccess) del(shard int, hash uint64, key lookupKey) bool {
	a.lock(shard)
	defer a.unlock(shard)
	return a.e.shards[shard].del(hash, key)
}

// execGroup acquires the shard lock exactly once for the whole group —
// the batch path's lock amortization.
func (a *lockedAccess) execGroup(shard int, ops *batchOps, idxs []int, resps []Response, arena *[]byte) {
	a.lock(shard)
	defer a.unlock(shard)
	tbl := &a.e.shards[shard]
	execPointOps(ops, idxs, resps, arena, tbl.get, tbl.put, tbl.del)
}

// scan merges one run per shard, each taken under its shard lock.
func (a *lockedAccess) scan(prefix lookupKey, limit int, out []Entry) []Entry {
	return a.sc.scan(prefix, limit, out, a.scanShard)
}

func (a *lockedAccess) scanShard(shard int, prefix lookupKey, limit int, out []Entry, arena *[]byte) []Entry {
	a.lock(shard)
	defer a.unlock(shard)
	return a.e.shards[shard].scan(prefix, limit, out, arena)
}

func (a *lockedAccess) exportShard(shard, from int, pred func(uint64) bool, maxEntries, maxBytes int, out []Entry) (int, []Entry) {
	a.lock(shard)
	defer a.unlock(shard)
	return a.e.shards[shard].export(from, pred, maxEntries, maxBytes, out)
}

func (a *lockedAccess) entries(shard int) int {
	a.lock(shard)
	defer a.unlock(shard)
	return a.e.shards[shard].entries
}

func (a *lockedAccess) stats(shard int) Counters {
	a.lock(shard)
	defer a.unlock(shard)
	return a.e.shards[shard].ops
}
