package store

import (
	"reflect"
	"testing"
	"unsafe"

	"ssync/internal/locks"
	"ssync/internal/pad"
)

// These tests pin the cache-line layout of the per-shard hot structs.
// They are compile-time facts checked at test time: if a field is added
// or reordered and an invariant breaks, the failure names the struct
// instead of showing up as an unexplained throughput slump under
// cross-domain placement.

// TestOptShardLayout: the optimistic engine's shard puts each hot
// write-side word on its own line, the buckets header on the next, and
// starts the counter stripes line-aligned. The precise offsets matter —
// before this layout, stripes started at offset 96, so every stripe
// element straddled two lines and stripe 0 shared one with the live
// counter.
func TestOptShardLayout(t *testing.T) {
	if s := unsafe.Sizeof(optCounters{}); s != pad.CacheLineSize {
		t.Errorf("optCounters is %d bytes, want %d", s, pad.CacheLineSize)
	}
	var sh optShard
	if o := unsafe.Offsetof(sh.version); o != 0 {
		t.Errorf("version at offset %d, want 0", o)
	}
	if o := unsafe.Offsetof(sh.live); o != pad.CacheLineSize {
		t.Errorf("live at offset %d, want %d", o, pad.CacheLineSize)
	}
	if o := unsafe.Offsetof(sh.buckets); o != 2*pad.CacheLineSize {
		t.Errorf("buckets at offset %d, want %d", o, 2*pad.CacheLineSize)
	}
	if o := unsafe.Offsetof(sh.stripes); o%pad.CacheLineSize != 0 {
		t.Errorf("stripes at offset %d, not line-aligned", o)
	}
	if s := unsafe.Sizeof(sh); s%pad.CacheLineSize != 0 {
		t.Errorf("optShard is %d bytes, not a line multiple", s)
	}
}

// TestOptOrderLayout: the store's key order pointer, stored by every
// create and delete, and its lock, written by every one of their
// publishes, share no line with any shard's version, which a scan reads
// twice per shard. optOrder is one line, allocated alone; the lock is
// whatever object locks.New allocated, so its lines are checked for
// every algorithm.
func TestOptOrderLayout(t *testing.T) {
	if s := unsafe.Sizeof(optOrder{}); s != pad.CacheLineSize {
		t.Errorf("optOrder is %d bytes, want %d", s, pad.CacheLineSize)
	}
	line := func(p uintptr) uintptr { return p / pad.CacheLineSize }
	for _, alg := range locks.All {
		e := newOptimisticEngine(Options{Shards: 8, Lock: alg}.withDefaults())
		versions := map[uintptr]bool{}
		for i := range e.shards {
			versions[line(uintptr(unsafe.Pointer(&e.shards[i].version)))] = true
		}
		if versions[line(uintptr(unsafe.Pointer(&e.order.cur)))] {
			t.Errorf("%s: the order pointer shares a line with a shard version", alg)
		}
		lk := reflect.ValueOf(e.order.lock)
		lo := lk.Pointer()
		for l := line(lo); l <= line(lo+lk.Elem().Type().Size()-1); l++ {
			if versions[l] {
				t.Errorf("%s: the order lock shares a line with a shard version", alg)
			}
		}
	}
}

// TestOptShardSliceStride: in the engine's shards slice, the hot words
// of adjacent shards land on distinct lines (size is a line multiple,
// so a line-aligned base keeps every offset invariant per element).
func TestOptShardSliceStride(t *testing.T) {
	shards := make([]optShard, 4)
	for i := 1; i < len(shards); i++ {
		a := uintptr(unsafe.Pointer(&shards[i-1].version))
		b := uintptr(unsafe.Pointer(&shards[i].version))
		if b-a < pad.CacheLineSize {
			t.Fatalf("shard %d and %d version words %d bytes apart", i-1, i, b-a)
		}
	}
}

// TestShardTableIsOneLine: the mutable table header (buckets slice,
// op counters, entry count) is exactly one cache line, so the locked
// engine's contiguous shards slice gives each shard's header — written
// on every operation under that shard's own lock — a line no other
// shard's lock holder touches. (The actor engine allocates each table
// separately; only the locked engine relies on the stride.)
func TestShardTableIsOneLine(t *testing.T) {
	if s := unsafe.Sizeof(shardTable{}); s != pad.CacheLineSize {
		t.Errorf("shardTable is %d bytes, want exactly %d — adjacent shards would share lines",
			s, pad.CacheLineSize)
	}
}

// TestSegmentSize: a bucket segment is seven slots of hash word, key
// length, live bit and one blob header, plus the chain pointer — 264
// bytes, so the per-key share of the table stays what DESIGN §5.3
// prices. The live bits sit on the hash words' line, so a lookup that
// misses on every hash reads nothing else.
func TestSegmentSize(t *testing.T) {
	if s := unsafe.Sizeof(segment{}); s != 264 {
		t.Errorf("segment is %d bytes, want 264", s)
	}
	if o := unsafe.Offsetof(segment{}.live); o >= pad.CacheLineSize {
		t.Errorf("live bits at offset %d, off the hash words' line", o)
	}
}
