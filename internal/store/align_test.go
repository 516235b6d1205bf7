package store

import (
	"testing"
	"unsafe"

	"ssync/internal/pad"
)

// These tests pin the cache-line layout of the per-shard hot structs.
// They are compile-time facts checked at test time: if a field is added
// or reordered and an invariant breaks, the failure names the struct
// instead of showing up as an unexplained throughput slump under
// cross-domain placement.

// TestOptShardLayout: the optimistic engine's shard puts each hot
// write-side word on its own line, the buckets header and the key order
// together on the next, and starts the counter stripes line-aligned. The precise offsets matter — before this layout,
// stripes started at offset 96, so every stripe element straddled two
// lines and stripe 0 shared one with the live counter.
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
	// The key order is read with the buckets by every scan and written
	// with them by every create and delete: it shares their line.
	if o := unsafe.Offsetof(sh.order); o != 2*pad.CacheLineSize+unsafe.Sizeof(sh.buckets) {
		t.Errorf("order at offset %d, want %d (right after buckets, on their line)", o, 2*pad.CacheLineSize+unsafe.Sizeof(sh.buckets))
	}
	if o := unsafe.Offsetof(sh.stripes); o%pad.CacheLineSize != 0 {
		t.Errorf("stripes at offset %d, not line-aligned", o)
	}
	if s := unsafe.Sizeof(sh); s%pad.CacheLineSize != 0 {
		t.Errorf("optShard is %d bytes, not a line multiple", s)
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
