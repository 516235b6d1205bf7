package store

import (
	"fmt"
	"strings"
	"testing"
)

// tableEngines are the engines that keep their entries in shardTables.
var tableEngines = []Engine{EngineLocked, EngineActor}

// TestKeptKeyBytes: the keys a scan and an export hand out alias the
// table's blobs, so those key bytes must never change — not when the key
// is deleted and its blob kept, not when a different key takes the
// slot, and not when the key returns. One shard of one bucket puts all
// eight keys in one chain: the seventh fills the first segment, so the
// put after the delete finds no empty slot and takes the kept one.
func TestKeptKeyBytes(t *testing.T) {
	everywhere := []Arc{{Lo: 0, Hi: 1 << 63}, {Lo: 1 << 63, Hi: 0}}
	for _, eng := range tableEngines {
		t.Run(string(eng), func(t *testing.T) {
			s := New(Options{Engine: eng, Shards: 1, Buckets: 1})
			defer s.Close()
			h := s.NewHandle(0)
			keys := make([]string, segCap+1)
			for i := range keys {
				keys[i] = fmt.Sprintf("kept-%d", i) // all one length
			}
			for _, k := range keys[:segCap] {
				h.Put(k, []byte("v-"+k))
			}
			scanned := h.Scan(keys[0], 1)
			exported, _, _ := h.ExportRange(0, 0, 0, everywhere)
			held := []string{scanned[0].Key}
			for _, e := range exported {
				if e.Key == keys[0] {
					held = append(held, e.Key)
				}
			}
			if len(held) != 2 {
				t.Fatalf("scan and export found %d copies of %q, want 2", len(held), keys[0])
			}
			check := func(step string) {
				t.Helper()
				for _, k := range held {
					if k != keys[0] {
						t.Fatalf("after %s: a handed-out key reads %q, want %q", step, k, keys[0])
					}
				}
			}
			if !h.Delete(keys[0]) {
				t.Fatal("delete missed")
			}
			check("the delete")
			if !h.Put(keys[segCap], []byte("other")) {
				t.Fatal("put of a new key did not create")
			}
			check("a different key took the slot")
			if !h.Put(keys[0], []byte("back")) {
				t.Fatal("the returning key did not create")
			}
			check("the key returned")
			for _, k := range keys {
				want := "v-" + k
				switch k {
				case keys[0]:
					want = "back"
				case keys[segCap]:
					want = "other"
				}
				if v, ok := h.Get(k); !ok || string(v) != want {
					t.Errorf("Get(%q) = %q, %v, want %q", k, v, ok, want)
				}
			}
			if n := h.Len(); n != len(keys) {
				t.Errorf("Len = %d, want %d", n, len(keys))
			}
		})
	}
}

// TestKeptBlobChurn: a deleted key's blob waits in its slot, so the
// key's return is a create with its new value — shorter, longer than the
// blob has room for, and empty — and no other key sees it while it is
// deleted.
func TestKeptBlobChurn(t *testing.T) {
	for _, eng := range tableEngines {
		t.Run(string(eng), func(t *testing.T) {
			s := New(Options{Engine: eng, Shards: 1, Buckets: 1})
			defer s.Close()
			h := s.NewHandle(0)
			for _, v := range []string{"first value", "short", strings.Repeat("long", 100), "", "again"} {
				if !h.Put("churn", []byte(v)) {
					t.Fatalf("put %q after a delete did not create", v)
				}
				if got, ok := h.Get("churn"); !ok || string(got) != v {
					t.Fatalf("Get = %q, %v, want %q", got, ok, v)
				}
				if !h.Delete("churn") {
					t.Fatalf("delete of %q missed", v)
				}
				if _, ok := h.Get("churn"); ok {
					t.Fatal("a deleted key is still found")
				}
				if h.Delete("churn") {
					t.Fatal("a second delete found the key")
				}
				if e := h.Scan("", 0); len(e) != 0 {
					t.Fatalf("scan of an empty table returned %v", e)
				}
				if n := h.Len(); n != 0 {
					t.Fatalf("Len = %d, want 0", n)
				}
			}
		})
	}
}

// TestLongKey: a key above MaxKeyLen — out of the wire's reach, but a
// key the direct API accepts — round-trips through every Handle
// operation on the table engines, so the key-length field holds it.
func TestLongKey(t *testing.T) {
	long := strings.Repeat("k", MaxKeyLen+2)
	other := long[:len(long)-1] + "x"
	for _, eng := range tableEngines {
		t.Run(string(eng), func(t *testing.T) {
			s := New(Options{Engine: eng, Shards: 2})
			defer s.Close()
			h := s.NewHandle(0)
			if !h.Put(long, []byte("v")) || !h.Put(other, []byte("w")) {
				t.Fatal("put of a long key did not create")
			}
			if v, ok := h.Get(long); !ok || string(v) != "v" {
				t.Fatalf("Get = %q, %v, want \"v\"", v, ok)
			}
			if e := h.Scan(long[:10], 0); len(e) != 2 || e[0].Key != long || e[1].Key != other {
				t.Fatalf("scan returned %d entries, want the two long keys in order", len(e))
			}
			if !h.Delete(long) || h.Delete(long) {
				t.Fatal("delete of a long key did not remove it exactly once")
			}
			if v, ok := h.Get(other); !ok || string(v) != "w" {
				t.Fatalf("Get(other) = %q, %v, want \"w\"", v, ok)
			}
		})
	}
}
