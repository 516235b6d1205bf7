package store

import "ssync/internal/hashkit"

// The store side of live key migration: range export (the streaming
// source), range digests (the anti-entropy comparison), and bulk apply
// (the streaming sink). All three work in terms of ring positions —
// Mix64 of the key's FNV-1a hash, the same position the cluster ring
// assigns owners by — so "the keys node B is about to own" is a set of
// arcs, and no layer above ever enumerates keys to describe a range.

// Arc is a half-open interval (Lo, Hi] of ring positions with modular
// wraparound: Lo=6,Hi=2 covers (6..max] and [0..2]. Lo == Hi is the
// empty arc and contains nothing.
type Arc struct {
	Lo, Hi uint64
}

// Contains reports whether ring position pos lies in (a.Lo, a.Hi],
// wrapping modulo 2^64.
func (a Arc) Contains(pos uint64) bool {
	d := pos - a.Lo
	return d != 0 && d <= a.Hi-a.Lo
}

// KeyPos returns key's ring position: Mix64 of its FNV-1a hash. This is
// the position consistent-hash ownership is decided on, and the
// position migration arcs select.
func KeyPos(key string) uint64 { return hashkit.Mix64(hashKey(key)) }

// ArcsContain reports whether any arc contains ring position pos.
func ArcsContain(arcs []Arc, pos uint64) bool {
	for _, a := range arcs {
		if a.Contains(pos) {
			return true
		}
	}
	return false
}

// entryWireSize is the size of one entry as a scan response encodes it
// (key and value with their length prefixes) — the unit of the byte
// budget an export chunk walks against.
func entryWireSize(key string, value []byte) int {
	return 2 + len(key) + 4 + len(value)
}

// ExportRange walks the store for entries whose ring position falls in
// arcs, resuming from cursor (0 starts; treat the token as opaque). It
// returns one chunk bounded by maxEntries and maxBytes (whole-bucket
// granularity, so a chunk can overshoot by one bucket), the resume
// cursor, and whether the walk completed. Concurrent writes behind the
// cursor are not re-observed — the migration tracker's dirty set, not
// the walk, accounts for them.
func (h *Handle) ExportRange(cursor uint64, maxEntries, maxBytes int, arcs []Arc) (entries []Entry, next uint64, done bool) {
	shards, buckets := h.s.opt.Shards, h.s.opt.Buckets
	total := uint64(shards) * uint64(buckets)
	if maxEntries <= 0 || maxEntries > MaxBatchOps {
		maxEntries = MaxBatchOps
	}
	if maxBytes <= 0 {
		maxBytes = MaxFrame
	}
	pred := func(hash uint64) bool { return ArcsContain(arcs, hashkit.Mix64(hash)) }
	bytes := 0
	for cursor < total {
		shard := int(cursor / uint64(buckets))
		from := int(cursor % uint64(buckets))
		base := len(entries)
		nb, res := h.acc.exportShard(shard, from, pred, maxEntries-len(entries), maxBytes-bytes, entries)
		entries = res
		for _, e := range entries[base:] {
			bytes += entryWireSize(e.Key, e.Value)
		}
		if nb <= from {
			// No forward progress: the engine is shutting down. Report the
			// walk over rather than spinning on a dead shard.
			return entries, 0, true
		}
		cursor = uint64(shard)*uint64(buckets) + uint64(nb)
		if len(entries) >= maxEntries || bytes >= maxBytes {
			break
		}
	}
	if cursor >= total {
		return entries, 0, true
	}
	return entries, cursor, false
}

// DigestRange folds every entry whose ring position falls in arcs into
// slots order-independent checksums: an entry lands in the slot its key
// position picks and XORs in a digest of key and value. Two stores
// holding the same entries for the arcs produce identical digests
// regardless of insertion order or layout, so owner and ex-owner
// compare a migrated range by comparing slots checksums instead of the
// entries themselves.
func (h *Handle) DigestRange(arcs []Arc, slots int) []uint64 {
	if slots <= 0 {
		slots = 1
	}
	digests := make([]uint64, slots)
	cursor, done := uint64(0), false
	for !done {
		var chunk []Entry
		chunk, cursor, done = h.ExportRange(cursor, MaxBatchOps, MaxFrame, arcs)
		for _, e := range chunk {
			digests[DigestSlot(e.Key, slots)] ^= EntryDigest(e.Key, e.Value)
		}
	}
	return digests
}

// DigestSlot maps a key to its checksum slot (a pure function of the
// key, so a value change flips exactly one slot on both sides).
func DigestSlot(key string, slots int) int {
	return int(hashkit.Bucket(KeyPos(key), uint64(slots)))
}

// EntryDigest is the per-entry checksum folded into a digest slot. Key
// and value both feed it, remixed so that XOR-accumulation over a range
// is order-independent but still sensitive to any single entry's key,
// presence or value.
func EntryDigest(key string, value []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	hv := uint64(offset64)
	for _, b := range value {
		hv = (hv ^ uint64(b)) * prime64
	}
	hk := hashKey(key)
	return hashkit.Mix64(hk) ^ hashkit.Mix64(hv^hk)
}

// ApplyMigration lands a migrated delta on the local store — puts then
// deletes — through the batch path (one engine visit per touched
// shard). It returns the number of ops applied. This is the sink of a
// resize's copy, delta and repair: it writes directly, never consulting
// any Router, because migration is precisely the window where a node
// legitimately holds keys the ring does not (yet) assign it.
func (h *Handle) ApplyMigration(puts []Entry, dels []string) int {
	reqs := make([]Request, 0, len(puts)+len(dels))
	for _, e := range puts {
		reqs = append(reqs, Request{Op: OpPut, Key: e.Key, Value: e.Value})
	}
	for _, k := range dels {
		reqs = append(reqs, Request{Op: OpDelete, Key: k})
	}
	h.ExecBatch(reqs)
	return len(reqs)
}

// PurgeRange deletes every entry whose ring position falls in arcs,
// returning the count removed. The ex-owner runs this after the
// ownership flip; an aborted migration runs it on the partial copy.
func (h *Handle) PurgeRange(arcs []Arc) int {
	n := 0
	cursor, done := uint64(0), false
	for !done {
		var chunk []Entry
		chunk, cursor, done = h.ExportRange(cursor, MaxBatchOps, MaxFrame, arcs)
		for _, e := range chunk {
			if h.Delete(e.Key) {
				n++
			}
		}
	}
	return n
}
