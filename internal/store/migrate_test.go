package store

import (
	"fmt"
	"testing"
)

// migTestArcs splits the whole position space at the midpoint: one arc
// per half, so every key falls in exactly one.
var (
	migLowArc  = Arc{Lo: 1 << 63, Hi: 0} // wraps: (2^63, 0]
	migHighArc = Arc{Lo: 0, Hi: 1 << 63}
)

// TestExportRange: every engine's export walk visits each in-range
// entry exactly once across resumed chunks, never an out-of-range one.
func TestExportRange(t *testing.T) {
	for _, eng := range Engines {
		t.Run(string(eng), func(t *testing.T) {
			s := New(Options{Shards: 4, Buckets: 8, Engine: eng})
			defer s.Close()
			h := s.NewHandle(0)
			want := map[string]string{}
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("key-%04d", i)
				h.Put(k, []byte(k))
				if migLowArc.Contains(KeyPos(k)) {
					want[k] = k
				}
			}
			got := map[string]string{}
			cursor, done := uint64(0), false
			chunks := 0
			for !done {
				var chunk []Entry
				chunk, cursor, done = h.ExportRange(cursor, 32, MaxFrame, []Arc{migLowArc})
				chunks++
				for _, e := range chunk {
					if _, dup := got[e.Key]; dup {
						t.Fatalf("entry %q exported twice", e.Key)
					}
					got[e.Key] = string(e.Value)
				}
				if chunks > 10000 {
					t.Fatal("export walk does not terminate")
				}
			}
			if len(got) != len(want) {
				t.Fatalf("exported %d entries, want %d", len(got), len(want))
			}
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("key %q exported as %q, want %q", k, got[k], v)
				}
			}
			if chunks < 2 {
				t.Fatalf("walk finished in %d chunk(s); the resume path was not exercised", chunks)
			}
		})
	}
}

// TestDigestRange: digests are layout-independent (a differently
// sharded store holding the same data agrees), value-sensitive, and
// presence-sensitive — the properties the anti-entropy pass rests on.
func TestDigestRange(t *testing.T) {
	const slots = 16
	arcs := []Arc{migLowArc}
	a := New(Options{Shards: 2, Buckets: 4, Engine: EngineLocked})
	b := New(Options{Shards: 8, Buckets: 16, Engine: EngineOptimistic})
	defer a.Close()
	defer b.Close()
	ha, hb := a.NewHandle(0), b.NewHandle(0)
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("key-%04d", i)
		ha.Put(k, []byte(k))
		hb.Put(k, []byte(k))
	}
	da, db := ha.DigestRange(arcs, slots), hb.DigestRange(arcs, slots)
	if len(da) != slots || len(db) != slots {
		t.Fatalf("digest lengths %d/%d, want %d", len(da), len(db), slots)
	}
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("slot %d differs across layouts: %x vs %x", i, da[i], db[i])
		}
	}
	// Change one in-range value: exactly that key's slot flips.
	var victim string
	for i := 0; ; i++ {
		k := fmt.Sprintf("key-%04d", i)
		if migLowArc.Contains(KeyPos(k)) {
			victim = k
			break
		}
	}
	hb.Put(victim, []byte("changed"))
	db = hb.DigestRange(arcs, slots)
	for i := range da {
		want := da[i]
		if i == DigestSlot(victim, slots) {
			if db[i] == want {
				t.Fatalf("slot %d unchanged after value change", i)
			}
			continue
		}
		if db[i] != want {
			t.Fatalf("slot %d flipped for an untouched key", i)
		}
	}
	// Out-of-range writes never move the digest.
	hb.Put(victim, []byte(victim)) // restore
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("key-%04d", i)
		if migHighArc.Contains(KeyPos(k)) {
			hb.Put(k, []byte("noise"))
		}
	}
	db = hb.DigestRange(arcs, slots)
	for i := range da {
		if db[i] != da[i] {
			t.Fatalf("slot %d moved on out-of-range writes", i)
		}
	}
}

// TestPurgeAndApply: purge removes exactly the in-range entries, and
// ApplyMigration lands them back.
func TestPurgeAndApply(t *testing.T) {
	for _, eng := range Engines {
		t.Run(string(eng), func(t *testing.T) {
			s := New(Options{Shards: 4, Buckets: 8, Engine: eng})
			defer s.Close()
			h := s.NewHandle(0)
			inRange := 0
			for i := 0; i < 400; i++ {
				k := fmt.Sprintf("key-%04d", i)
				h.Put(k, []byte(k))
				if migLowArc.Contains(KeyPos(k)) {
					inRange++
				}
			}
			moved, _, done := h.ExportRange(0, MaxBatchOps, MaxFrame, []Arc{migLowArc})
			if !done {
				t.Fatal("one max-size chunk should cover the range")
			}
			if n := h.PurgeRange([]Arc{migLowArc}); n != inRange {
				t.Fatalf("purged %d entries, want %d", n, inRange)
			}
			if got := h.Len(); got != 400-inRange {
				t.Fatalf("%d entries after purge, want %d", got, 400-inRange)
			}
			for i := 0; i < 400; i++ {
				k := fmt.Sprintf("key-%04d", i)
				_, ok := h.Get(k)
				if want := migHighArc.Contains(KeyPos(k)); ok != want {
					t.Fatalf("key %q present=%v after purge, want %v", k, ok, want)
				}
			}
			if n := h.ApplyMigration(moved, nil); n != inRange {
				t.Fatalf("applied %d, want %d", n, inRange)
			}
			if got := h.Len(); got != 400 {
				t.Fatalf("%d entries after re-apply, want 400", got)
			}
		})
	}
}

func TestArcContains(t *testing.T) {
	plain := Arc{Lo: 100, Hi: 200}
	for pos, want := range map[uint64]bool{100: false, 101: true, 200: true, 201: false, 50: false} {
		if plain.Contains(pos) != want {
			t.Errorf("(100,200].Contains(%d) = %v, want %v", pos, !want, want)
		}
	}
	// A wrapping arc covers the 2^64 seam.
	wrap := Arc{Lo: ^uint64(0) - 10, Hi: 10}
	for pos, want := range map[uint64]bool{^uint64(0) - 10: false, ^uint64(0): true, 0: true, 10: true, 11: false, 500: false} {
		if wrap.Contains(pos) != want {
			t.Errorf("wrap.Contains(%d) = %v, want %v", pos, !want, want)
		}
	}
	// The empty arc contains nothing.
	for _, pos := range []uint64{0, 7, ^uint64(0)} {
		if (Arc{Lo: 7, Hi: 7}).Contains(pos) {
			t.Errorf("empty arc contains %d", pos)
		}
	}
}
