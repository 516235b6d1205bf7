package store

import (
	"fmt"
	"testing"

	"ssync/internal/race"
	"ssync/internal/workload"
)

// The allocation regression gate for the point-op hot path. The
// tentpole claim is: client encode → server decode → engine → response
// encode → client decode allocates nothing per op in steady state,
// except where an allocation is the mechanism itself —
//
//   - a direct Get that must return an owning copy (use GetAppend for
//     the allocation-free form),
//   - the optimistic engine's Put, whose stored value is immutable so
//     that readers may alias it: an overwrite is exactly the value copy
//     and its pointer box, a create adds the cell and the copy-on-write
//     bucket (pinned and bounded below),
//   - the wire client's decoded value copy (the parse paths' copy-out
//     invariant is what makes all the buffer pooling sound).
//
// Bounds are per-op averages over many runs; they hold on any machine
// because allocation counts, unlike nanoseconds, are deterministic.

// allocKeys preloads n keys and returns them (workload.Key formatting,
// like the engine benchmarks).
func allocKeys(h *Handle, n, valLen int) []string {
	keys := make([]string, n)
	val := make([]byte, valLen)
	for i := range keys {
		keys[i] = workload.Key(uint64(i))
		h.Put(keys[i], val)
	}
	return keys
}

// optOverwriteAllocs is exactly what one optimistic-engine overwrite
// allocates: the stored value copy and the pointer box its cell's atomic
// store publishes. The other engines overwrite in place and allocate
// nothing.
const optOverwriteAllocs = 2

// optCreateAllocBound and optDeleteAllocBound bound the optimistic
// engine's create and delete, each of which rebuilds its bucket
// copy-on-write (header and entries) and edits the store's key order in
// place, which allocates only when a leaf splits (the new leaf, the
// directory and its box) or drops (the directory and its box). A create
// adds the value copy, its box and the cell: 5 objects, 8 with a split.
// A delete is 2, 4 with a drop.
const (
	optCreateAllocBound = 8
	optDeleteAllocBound = 5
)

func TestPointOpAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	const runs = 200
	val := make([]byte, 64)
	for _, eng := range Engines {
		t.Run(string(eng), func(t *testing.T) {
			s := New(Options{Engine: eng})
			defer s.Close()
			h := s.NewHandle(0)
			keys := allocKeys(h, 256, len(val))
			var dst []byte
			var i int

			get := testing.AllocsPerRun(runs, func() {
				dst, _ = h.GetAppend(keys[i%len(keys)], dst[:0])
				i++
			})
			if get != 0 {
				t.Errorf("GetAppend: %.2f allocs/op, want 0", get)
			}

			// The frame-key path: ExecView with a RequestView whose key
			// sits in a reused frame buffer, its response encoded onto a
			// reused buffer, so only the store's own allocations count.
			kbuf, out := make([]byte, 0, 32), make([]byte, 0, 128)
			var err error
			view := func(op byte, key string, v []byte) {
				kb := append(kbuf[:0], key...)
				if out, err = h.ExecView(RequestView{Op: op, Key: kb, Value: v}, out[:0]); err != nil || out[0] != StatusOK {
					t.Fatalf("ExecView op %d: status %v, %v", op, out, err)
				}
			}
			next := func() string {
				k := keys[i%len(keys)]
				i++
				return k
			}
			if viewGet := testing.AllocsPerRun(runs, func() { view(OpGet, next(), nil) }); viewGet != 0 {
				t.Errorf("ExecView get: %.2f allocs/op, want 0", viewGet)
			}

			put := testing.AllocsPerRun(runs, func() { h.Put(next(), val) })
			viewPut := testing.AllocsPerRun(runs, func() { view(OpPut, next(), val) })
			want := 0.0
			if eng == EngineOptimistic {
				want = optOverwriteAllocs
			}
			if put != want || viewPut != want {
				t.Errorf("overwrite: Put %.2f, ExecView %.2f allocs/op, want %.0f", put, viewPut, want)
			}

			// Churn: a delete, then a put of the same key. The table
			// engines keep the deleted key's blob in its slot and rewrite
			// its value on the key's return, so the pair allocates
			// nothing; the optimistic engine pays a delete and a create.
			churn := testing.AllocsPerRun(runs, func() {
				k := next()
				h.Delete(k)
				h.Put(k, val)
			})
			viewChurn := testing.AllocsPerRun(runs, func() {
				k := next()
				view(OpDelete, k, nil)
				view(OpPut, k, val)
			})
			churnBound := 0.0
			if eng == EngineOptimistic {
				churnBound = optDeleteAllocBound + optCreateAllocBound
			}
			if churn > churnBound || viewChurn > churnBound {
				t.Errorf("delete then put: Put %.2f, ExecView %.2f allocs/pair, want <= %.0f", churn, viewChurn, churnBound)
			}
			if eng != EngineOptimistic {
				return
			}

			// A create and a delete of keys that sort between the present
			// ones, so leaves fill and split, in a store of one bucket per
			// shard, so no bucket rebuild is of an empty one.
			dense := New(Options{Engine: eng, Buckets: 1})
			defer dense.Close()
			dh := dense.NewHandle(0)
			fresh := allocKeys(dh, runs+1, len(val))
			for j := range fresh {
				fresh[j] += "+"
			}
			var c, d int
			create := testing.AllocsPerRun(runs, func() {
				dh.Put(fresh[c], val)
				c++
			})
			del := testing.AllocsPerRun(runs, func() {
				dh.Delete(fresh[d])
				d++
			})
			if create > optCreateAllocBound || del > optDeleteAllocBound {
				t.Errorf("create %.2f, delete %.2f allocs/op, want <= %d and <= %d (copy-on-write)",
					create, del, optCreateAllocBound, optDeleteAllocBound)
			}
		})
	}
}

// TestWireAllocs pins the full wire round trip (in-process transport,
// lock-step client) to a small constant per op: the decoded value copy
// on a get, and nothing but transport noise on a put.
func TestWireAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	const runs = 200
	val := make([]byte, 64)
	for _, eng := range Engines {
		t.Run(string(eng), func(t *testing.T) {
			s := New(Options{Engine: eng})
			defer s.Close()
			c := NewServer(s, 1).PipeClient()
			defer c.Close()
			keys := allocKeys(s.NewHandle(0), 256, len(val))
			var i int
			warm := func(f func()) float64 {
				f() // one warm-up op so steady-state buffers exist
				return testing.AllocsPerRun(runs, f)
			}

			get := warm(func() {
				if _, _, err := c.Get(keys[i%len(keys)]); err != nil {
					t.Fatal(err)
				}
				i++
			})
			// 1 for the decoded value copy + 1 of slack for the transport.
			if get > 2 {
				t.Errorf("wire Get: %.2f allocs/op, want <= 2", get)
			}

			putBound := 1.0 // transport slack only
			if eng == EngineOptimistic {
				putBound += optOverwriteAllocs
			}
			put := warm(func() {
				if _, err := c.Put(keys[i%len(keys)], val); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if put > putBound {
				t.Errorf("wire Put: %.2f allocs/op, want <= %.0f", put, putBound)
			}
		})
	}
}

// TestBatchAllocs holds the batched read path (MGet) on every engine,
// direct and over the wire, client included, to a constant per frame:
// the caller's values are copied out of the frame into one arena beside
// the one response slice, never one allocation per key. What a blocking
// MGet of one frame allocates: the chunk list and its started batches,
// the batch's request slice, the response slice and the value arena, and
// the result slice. The server half alone is held to zero by
// TestBatchServeAllocs.
func TestBatchAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	const runs, perFrame = 50, 6
	val := make([]byte, 64)
	for _, eng := range Engines {
		for _, mode := range []string{"direct", "wire"} {
			t.Run(string(eng)+"/"+mode, func(t *testing.T) {
				s := New(Options{Engine: eng})
				defer s.Close()
				keys := allocKeys(s.NewHandle(0), 64, len(val))
				var conn BatchConn
				if mode == "direct" {
					conn = s.NewLocalConn(0)
				} else {
					c := NewServer(s, 1).PipeClient()
					defer c.Close()
					conn = c
				}
				for _, batch := range []int{16, 64} {
					if _, err := conn.MGet(keys[:batch]); err != nil {
						t.Fatal(err)
					}
					got := testing.AllocsPerRun(runs, func() {
						if _, err := conn.MGet(keys[:batch]); err != nil {
							t.Fatal(err)
						}
					})
					if got > perFrame {
						t.Errorf("MGet of %d keys: %.0f allocs, want <= %d for the one frame, whatever the keys", batch, got, perFrame)
					}
				}
			})
		}
	}
}

// TestScanLimitClamp is the regression test for the 32-bit Limit
// conversion bug: a wire limit >= 2^31 used to wrap negative through
// int(), which Scan reads as "unlimited" — scanLimit must clamp it to
// a positive bound on every platform.
func TestScanLimitClamp(t *testing.T) {
	if got := scanLimit(0); got != 0 {
		t.Errorf("scanLimit(0) = %d, want 0 (unlimited)", got)
	}
	if got := scanLimit(7); got != 7 {
		t.Errorf("scanLimit(7) = %d, want 7", got)
	}
	for _, limit := range []uint32{1 << 31, 1<<32 - 1} {
		if got := scanLimit(limit); got <= 0 {
			t.Errorf("scanLimit(%d) = %d, want > 0", limit, got)
		}
	}
	// End-to-end: a huge limit must behave as a bound, not as unlimited
	// disguised as negative — and must still return everything when the
	// store is smaller than the limit.
	s := New(Options{})
	defer s.Close()
	h := s.NewHandle(0)
	for i := 0; i < 10; i++ {
		h.Put(fmt.Sprintf("scl-%02d", i), []byte("v"))
	}
	resps := h.ExecBatch([]Request{{Op: OpScan, Key: "scl-", Limit: 1<<32 - 1}})
	if len(resps[0].Entries) != 10 {
		t.Errorf("scan with max limit returned %d entries, want 10", len(resps[0].Entries))
	}
	resps = h.ExecBatch([]Request{{Op: OpScan, Key: "scl-", Limit: 3}})
	if len(resps[0].Entries) != 3 {
		t.Errorf("scan with limit 3 returned %d entries, want 3", len(resps[0].Entries))
	}
}

// BenchmarkWirePointOps is the tentpole's measurement: the point-op
// path per engine, direct (handle) and over the in-process conn (wire),
// with allocs/op reported. Direct get and put are allocation-free on the
// mutate-in-place engines; the optimistic engine's put of a present key
// pays its value copy and the copy's pointer box, nothing else.
func BenchmarkWirePointOps(b *testing.B) {
	val := make([]byte, 64)
	for _, eng := range Engines {
		s := New(Options{Engine: eng})
		h := s.NewHandle(0)
		keys := allocKeys(h, 4096, len(val))

		b.Run(string(eng)+"/direct/get", func(b *testing.B) {
			b.ReportAllocs()
			var dst []byte
			for i := 0; i < b.N; i++ {
				dst, _ = h.GetAppend(keys[i%len(keys)], dst[:0])
			}
		})
		b.Run(string(eng)+"/direct/put", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.Put(keys[i%len(keys)], val)
			}
		})

		c := NewServer(s, 1).PipeClient()
		b.Run(string(eng)+"/wire/get", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := c.Get(keys[i%len(keys)]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(string(eng)+"/wire/put", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.Put(keys[i%len(keys)], val); err != nil {
					b.Fatal(err)
				}
			}
		})
		c.Close()
		s.Close()
	}
}
